#ifndef OPENWVM_BASELINES_VNL_ADAPTER_H_
#define OPENWVM_BASELINES_VNL_ADAPTER_H_

#include <memory>
#include <unordered_map>

#include "baselines/warehouse_engine.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/vnl_engine.h"
#include "sql/ast.h"

namespace wvm::baselines {

// Adapts the paper's nVNL engine to the uniform WarehouseEngine facade so
// the Section 6 experiments sweep it alongside the baselines. Reads are
// snapshot reads of the session (ReadAll is `SELECT *` through
// SnapshotSelect); MaintApplyBatch is core ApplyBatch, which runs the
// per-key step and CheckNetEffect itself.
class VnlAdapter : public WarehouseEngine {
 public:
  // `n` = 2 is 2VNL.
  static Result<std::unique_ptr<VnlAdapter>> Create(BufferPool* pool,
                                                    Schema logical,
                                                    int n = 2);

  std::string name() const override {
    return n_ == 2 ? "2vnl" : std::to_string(n_) + "vnl";
  }
  const Schema& logical_schema() const override {
    return table_->logical_schema();
  }

  Result<uint64_t> OpenReader() override;
  Status CloseReader(uint64_t reader) override;
  Result<std::vector<Row>> ReadAll(uint64_t reader) override;
  Result<std::optional<Row>> ReadKey(uint64_t reader,
                                     const Row& key) override;

  Status BeginMaintenance() override;
  Result<core::BatchApplyStats> MaintApplyBatch(
      const std::vector<core::BatchKeyOp>& ops) override;
  Status CommitMaintenance() override;

  EngineStorageStats StorageStats() const override;

  core::VnlEngine* engine() { return engine_.get(); }
  core::VnlTable* table() { return table_; }

 private:
  VnlAdapter(int n, std::unique_ptr<core::VnlEngine> engine,
             core::VnlTable* table);

  // The session of `reader`, or kNotFound.
  Result<core::ReaderSession> SessionOf(uint64_t reader) const
      EXCLUDES(mu_);
  // The active maintenance transaction, read under mu_.
  core::MaintenanceTxn* CurrentTxn() const EXCLUDES(mu_);

  const int n_;
  std::unique_ptr<core::VnlEngine> engine_;
  core::VnlTable* table_;
  sql::SelectStmt select_all_;  // ReadAll's `SELECT *`, built once

  mutable Mutex mu_;
  std::unordered_map<uint64_t, core::ReaderSession> sessions_
      GUARDED_BY(mu_);
  core::MaintenanceTxn* txn_ GUARDED_BY(mu_) = nullptr;
};

}  // namespace wvm::baselines

#endif  // OPENWVM_BASELINES_VNL_ADAPTER_H_

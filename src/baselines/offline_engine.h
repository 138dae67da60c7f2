#ifndef OPENWVM_BASELINES_OFFLINE_ENGINE_H_
#define OPENWVM_BASELINES_OFFLINE_ENGINE_H_

#include <memory>
#include <unordered_map>

#include "baselines/row_engine.h"
#include "catalog/table.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace wvm::baselines {

// The status-quo baseline of §1.1 (Figure 1): maintenance runs with the
// warehouse offline. Reader sessions and the maintenance transaction
// exclude each other at whole-database granularity — maintenance waits
// for sessions to drain, and no session may start (or read) while
// maintenance is active or waiting. Consistency is trivially guaranteed;
// availability is what it costs, which the availability experiment
// measures.
class OfflineEngine : public RowEngine {
 public:
  OfflineEngine(BufferPool* pool, Schema logical);

  std::string name() const override { return "offline"; }

  Result<uint64_t> OpenReader() override;
  Status CloseReader(uint64_t reader) override;
  Result<std::vector<Row>> ReadAll(uint64_t reader) override;
  Result<std::optional<Row>> ReadKey(uint64_t reader,
                                     const Row& key) override;

  Status BeginMaintenance() override;
  Status CommitMaintenance() override;

  EngineStorageStats StorageStats() const override;

 private:
  Result<std::optional<Row>> MaintReadKey(const Row& key) override;
  Status MaintInsert(const Row& row) override;
  Status MaintUpdate(const Row& key, const Row& row) override;
  Status MaintDelete(const Row& key) override;

  Result<Rid> FindKey(const Row& key) const REQUIRES(gate_mu_);

  std::unique_ptr<Table> table_;

  // Database-wide reader/writer gate (counter-based so sessions can span
  // calls; writer-preferring so maintenance is not starved). The index is
  // guarded by the same gate: only the exclusive writer mutates it, but
  // the analysis wants that discipline spelled out, not implied.
  mutable Mutex gate_mu_;
  CondVar gate_cv_;
  int active_readers_ GUARDED_BY(gate_mu_) = 0;
  bool writer_active_ GUARDED_BY(gate_mu_) = false;
  bool writer_waiting_ GUARDED_BY(gate_mu_) = false;
  uint64_t next_reader_ GUARDED_BY(gate_mu_) = 1;
  // id -> open
  std::unordered_map<uint64_t, bool> readers_ GUARDED_BY(gate_mu_);

  std::unordered_map<Row, Rid, RowHash, RowEq> index_ GUARDED_BY(gate_mu_);
};

}  // namespace wvm::baselines

#endif  // OPENWVM_BASELINES_OFFLINE_ENGINE_H_

#ifndef OPENWVM_BASELINES_S2PL_ENGINE_H_
#define OPENWVM_BASELINES_S2PL_ENGINE_H_

#include <memory>
#include <unordered_map>

#include "baselines/row_engine.h"
#include "catalog/table.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "txn/lock_manager.h"

namespace wvm::baselines {

// Conventional strict two-phase locking at tuple granularity — the
// algorithm §1 argues cannot work for warehouses: readers block on tuples
// the maintenance transaction wrote, the maintenance transaction blocks
// on tuples sessions have read, and long sessions make both waits long.
// Lock-wait timeouts surface as kDeadlineExceeded (presumed deadlock);
// callers abort the session/statement and may retry.
class S2plEngine : public RowEngine {
 public:
  S2plEngine(BufferPool* pool, Schema logical,
             std::chrono::milliseconds lock_timeout =
                 std::chrono::milliseconds(200));

  std::string name() const override { return "s2pl"; }

  Result<uint64_t> OpenReader() override;
  Status CloseReader(uint64_t reader) override;
  Result<std::vector<Row>> ReadAll(uint64_t reader) override;
  Result<std::optional<Row>> ReadKey(uint64_t reader,
                                     const Row& key) override;

  Status BeginMaintenance() override;
  Status CommitMaintenance() override;

  EngineStorageStats StorageStats() const override;
  txn::LockManager::Stats LockStats() const { return locks_.stats(); }

 private:
  Result<std::optional<Row>> MaintReadKey(const Row& key) override;
  Status MaintInsert(const Row& row) override;
  Status MaintUpdate(const Row& key, const Row& row) override;
  Status MaintDelete(const Row& key) override;

  static uint64_t RidLockId(Rid rid) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(rid.page_id))
            << 16) |
           rid.slot;
  }

  // Writer transactions use owner ids above this bound; readers below.
  static constexpr uint64_t kWriterOwner = ~0ULL;

  std::unique_ptr<Table> table_;
  txn::LockManager locks_;

  mutable Mutex mu_;
  uint64_t next_reader_ GUARDED_BY(mu_) = 1;
  std::unordered_map<uint64_t, bool> readers_ GUARDED_BY(mu_);
  bool writer_active_ GUARDED_BY(mu_) = false;
  std::unordered_map<Row, Rid, RowHash, RowEq> index_ GUARDED_BY(mu_);
};

}  // namespace wvm::baselines

#endif  // OPENWVM_BASELINES_S2PL_ENGINE_H_

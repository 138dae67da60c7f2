#ifndef OPENWVM_BASELINES_TWO_V2PL_ENGINE_H_
#define OPENWVM_BASELINES_TWO_V2PL_ENGINE_H_

#include <chrono>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "baselines/row_engine.h"
#include "catalog/table.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace wvm::baselines {

// Two-version two-phase locking (2V2PL, [BHR80, SR81], paper §6): the
// writer builds uncertified new versions on the side, readers keep
// reading the committed version and so are never blocked by the active
// writer — but at commit the writer must *certify*: it waits until every
// reader that read an old version of a modified tuple has finished, and
// new readers of those tuples block during certification. This is the
// "readers delay writer commit" cost 2VNL eliminates.
class TwoV2plEngine : public RowEngine {
 public:
  TwoV2plEngine(BufferPool* pool, Schema logical,
                std::chrono::milliseconds certify_block_timeout =
                    std::chrono::milliseconds(100));

  std::string name() const override { return "2v2pl"; }

  Result<uint64_t> OpenReader() override;
  Status CloseReader(uint64_t reader) override;
  Result<std::vector<Row>> ReadAll(uint64_t reader) override;
  Result<std::optional<Row>> ReadKey(uint64_t reader,
                                     const Row& key) override;

  Status BeginMaintenance() override;
  Status CommitMaintenance() override;

  EngineStorageStats StorageStats() const override;

  // Total time writers spent waiting in certification (for the §6 bench).
  std::chrono::nanoseconds total_certify_wait() const EXCLUDES(mu_);

 private:
  Result<std::optional<Row>> MaintReadKey(const Row& key) override;
  Status MaintInsert(const Row& row) override;
  Status MaintUpdate(const Row& key, const Row& row) override;
  Status MaintDelete(const Row& key) override;

  // Records that `reader` read `key`; blocks while the key is certifying
  // (the wait releases and reacquires mu_). Returns kDeadlineExceeded when
  // the wait times out (a certify/S-lock deadlock, resolved by aborting
  // the read as real 2V2PL systems do).
  Status NoteRead(uint64_t reader, const Row& key) REQUIRES(mu_);

  std::unique_ptr<Table> table_;  // committed versions only

  mutable Mutex mu_;
  CondVar cv_;
  uint64_t next_reader_ GUARDED_BY(mu_) = 1;
  // Reader id -> set of keys it has read (its read locks).
  std::unordered_map<uint64_t, std::unordered_set<Row, RowHash, RowEq>>
      reader_reads_ GUARDED_BY(mu_);
  // Key -> number of active readers holding a read lock on it.
  std::unordered_map<Row, int, RowHash, RowEq> read_counts_ GUARDED_BY(mu_);

  bool writer_active_ GUARDED_BY(mu_) = false;
  bool certifying_ GUARDED_BY(mu_) = false;
  // The writer's uncertified second versions (nullopt = delete).
  std::unordered_map<Row, std::optional<Row>, RowHash, RowEq> shadow_
      GUARDED_BY(mu_);

  std::unordered_map<Row, Rid, RowHash, RowEq> index_ GUARDED_BY(mu_);
  std::chrono::nanoseconds certify_wait_ GUARDED_BY(mu_){0};
  const std::chrono::milliseconds certify_block_timeout_;
};

}  // namespace wvm::baselines

#endif  // OPENWVM_BASELINES_TWO_V2PL_ENGINE_H_

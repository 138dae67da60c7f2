#ifndef OPENWVM_BASELINES_MV2PL_ENGINE_H_
#define OPENWVM_BASELINES_MV2PL_ENGINE_H_

#include <atomic>
#include <memory>
#include <unordered_map>

#include "baselines/row_engine.h"
#include "catalog/table.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace wvm::baselines {

// Multi-version transient versioning in the style the paper compares
// against (§6):
//
//  * options.inline_cache = false — CFL+82: the main relation holds only
//    the newest version; every overwrite copies the old version into a
//    chained *version pool*, and readers with older timestamps chase the
//    chain, paying extra page I/O.
//  * options.inline_cache = true — BC92b: each main tuple additionally
//    reserves an on-page cache slot for the immediately previous version;
//    readers usually find their version without touching the pool, at the
//    price of a permanently fatter main tuple.
//
// Readers and the (single) writer never block each other. Reader
// timestamps are the last committed version number; uncommitted writer
// versions carry the next version number and are invisible. Session
// expiration only occurs after pool garbage collection truncates a chain.
class Mv2plEngine : public RowEngine {
 public:
  struct Options {
    bool inline_cache;  // false = CFL+82, true = BC92b
    Options() : inline_cache(false) {}
    explicit Options(bool cache) : inline_cache(cache) {}
  };

  Mv2plEngine(BufferPool* pool, Schema logical,
              Options options = Options());

  std::string name() const override {
    return options_.inline_cache ? "mv2pl-bc92" : "mv2pl-cfl82";
  }

  Result<uint64_t> OpenReader() override;
  Status CloseReader(uint64_t reader) override;
  Result<std::vector<Row>> ReadAll(uint64_t reader) override;
  Result<std::optional<Row>> ReadKey(uint64_t reader,
                                     const Row& key) override;

  Status BeginMaintenance() override;
  Status CommitMaintenance() override;

  EngineStorageStats StorageStats() const override;

  // Reclaims pool versions no active reader can need; returns the number
  // of pool records removed, or the buffer pool's error when the main
  // table cannot be scanned.
  Result<size_t> CollectPoolGarbage();

  // Number of version-pool records fetched on behalf of readers — the
  // "additional I/Os to access the correct version" cost of §6.
  uint64_t pool_version_reads() const {
    return pool_version_reads_.load(std::memory_order_relaxed);
  }
  uint64_t pool_records() const { return pool_table_->num_rows(); }

 private:
  Result<std::optional<Row>> MaintReadKey(const Row& key) override;
  Status MaintInsert(const Row& row) override;
  Status MaintUpdate(const Row& key, const Row& row) override;
  Status MaintDelete(const Row& key) override;

  // Column offsets appended after the logical columns in the main table.
  size_t MainVnCol() const { return schema_.num_columns(); }
  size_t MainDeletedCol() const { return MainVnCol() + 1; }
  size_t MainPtrPageCol() const { return MainVnCol() + 2; }
  size_t MainPtrSlotCol() const { return MainVnCol() + 3; }
  size_t CacheValidCol() const { return MainVnCol() + 4; }
  size_t CacheVnCol() const { return MainVnCol() + 5; }
  size_t CacheDeletedCol() const { return MainVnCol() + 6; }
  size_t CacheLogicalCol(size_t i) const { return MainVnCol() + 7 + i; }
  // Pool layout: logical columns + vn + deleted + next_page + next_slot.
  size_t PoolVnCol() const { return schema_.num_columns(); }

  Row MakeMainRow(const Row& logical, int64_t vn, bool deleted,
                  Rid ptr) const;
  Row MakePoolRow(const Row& logical, int64_t vn, bool deleted,
                  Rid next) const;
  Rid MainPtr(const Row& main) const;

  // Resolves the version of `main` visible at `ts`; nullopt = invisible.
  // Counts pool fetches. Returns kSessionExpired when the chain was
  // garbage-collected past `ts`.
  Result<std::optional<Row>> VersionAt(const Row& main, int64_t ts) const;

  // Pushes the current content of `main` one step down the version chain
  // (into the cache slot or the pool) and returns the updated row image.
  Result<Row> PushVersion(Row main);

  Options options_;
  Schema main_schema_;
  Schema pool_schema_;
  std::unique_ptr<Table> main_table_;
  std::unique_ptr<Table> pool_table_;

  mutable Mutex mu_;
  int64_t committed_vn_ GUARDED_BY(mu_) = 0;
  bool writer_active_ GUARDED_BY(mu_) = false;
  int64_t writer_vn_ GUARDED_BY(mu_) = 0;
  uint64_t next_reader_ GUARDED_BY(mu_) = 1;
  // id -> timestamp
  std::unordered_map<uint64_t, int64_t> readers_ GUARDED_BY(mu_);
  std::unordered_map<Row, Rid, RowHash, RowEq> index_ GUARDED_BY(mu_);

  mutable std::atomic<uint64_t> pool_version_reads_{0};
};

}  // namespace wvm::baselines

#endif  // OPENWVM_BASELINES_MV2PL_ENGINE_H_

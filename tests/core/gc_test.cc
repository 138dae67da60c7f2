// Garbage collection of logically deleted tuples (§7 future work).
#include <gtest/gtest.h>

#include <cinttypes>

#include "common/logging.h"
#include "common/strings.h"
#include "core/maintenance_rewriter.h"
#include "core/vnl_engine.h"
#include "query/executor.h"
#include "sql/parser.h"
#include "tests/support/keyed_maintenance.h"
#include "tests/support/snapshot_rows.h"

namespace wvm::core {
namespace {

Schema ItemSchema() {
  return Schema({Column::Int64("id"), Column::Int64("qty", true)}, {0});
}

Row Item(int64_t id, int64_t qty) {
  return {Value::Int64(id), Value::Int64(qty)};
}

class GcTest : public ::testing::TestWithParam<int> {
 protected:
  GcTest() : pool_(256, &disk_) {
    auto engine = VnlEngine::Create(&pool_, GetParam());
    WVM_CHECK(engine.ok());
    engine_ = std::move(engine).value();
    auto table = engine_->CreateTable("items", ItemSchema());
    WVM_CHECK(table.ok());
    table_ = table.value();
  }

  MaintenanceTxn* Begin() {
    auto txn = engine_->BeginMaintenance();
    WVM_CHECK(txn.ok());
    return txn.value();
  }
  void Commit(MaintenanceTxn* txn) { WVM_CHECK(engine_->Commit(txn).ok()); }

  void Load(int count) {
    MaintenanceTxn* txn = Begin();
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(table_->Insert(txn, Item(i, i * 10)).ok());
    }
    Commit(txn);
  }

  void DeleteIds(int64_t lo, int64_t hi) {
    MaintenanceTxn* txn = Begin();
    ASSERT_TRUE(MaintenanceRewriter(engine_.get())
                    .Execute(txn, StrPrintf("DELETE FROM items WHERE id >= "
                                            "%lld AND id <= %lld",
                                            static_cast<long long>(lo),
                                            static_cast<long long>(hi)))
                    .ok());
    Commit(txn);
  }

  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<VnlEngine> engine_;
  VnlTable* table_;
};

TEST_P(GcTest, ReclaimsDeletedTuplesWhenNoReaders) {
  Load(10);
  DeleteIds(0, 4);
  EXPECT_EQ(table_->physical_rows(), 10u);  // logical deletes only

  VnlEngine::GcStats stats = engine_->CollectGarbage().value();
  EXPECT_EQ(stats.tuples_reclaimed, 5u);
  EXPECT_EQ(table_->physical_rows(), 5u);
}

TEST_P(GcTest, KeepsTuplesVisibleToActiveSessions) {
  Load(10);
  ReaderSession old_session = engine_->OpenSession();  // VN 1
  DeleteIds(0, 4);                                      // VN 2

  // old_session (VN 1) still reads the pre-delete versions: GC must not
  // touch them. They stay as the GC backlog.
  VnlEngine::GcStats stats = engine_->CollectGarbage().value();
  EXPECT_EQ(stats.tuples_reclaimed, 0u);
  EXPECT_EQ(stats.tuples_pending, 5u);

  Result<std::vector<Row>> rows = testutil::SnapshotRows(*table_, old_session);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);

  // Once the old session closes, the tuples are reclaimable.
  engine_->CloseSession(old_session);
  stats = engine_->CollectGarbage().value();
  EXPECT_EQ(stats.tuples_reclaimed, 5u);
  EXPECT_EQ(stats.tuples_pending, 0u);
}

TEST_P(GcTest, BacklogCountsUncommittedDeletesWhileGcIsDeferred) {
  Load(6);
  DeleteIds(0, 1);
  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(testutil::DeleteKey(table_, txn, {Value::Int64(5)}).ok());
  // A transaction is active: the pass is deferred, the backlog reported.
  VnlEngine::GcStats stats = engine_->CollectGarbage().value();
  EXPECT_EQ(stats.tuples_reclaimed, 0u);
  EXPECT_EQ(stats.tuples_pending, 3u);
  Commit(txn);
  stats = engine_->CollectGarbage().value();
  EXPECT_EQ(stats.tuples_reclaimed, 3u);
  EXPECT_EQ(stats.tuples_pending, 0u);
}

// A pool that cannot serve a victim's page fails the pass with a status
// (the old full-heap sweep aborted the process) and loses no tombstone:
// once frames free up, the same tuples are reclaimed.
TEST_P(GcTest, PoolFailureReturnsStatusAndKeepsTombstones) {
  DiskManager disk;
  BufferPool pool(8, &disk);
  auto engine_or = VnlEngine::Create(&pool, GetParam());
  ASSERT_TRUE(engine_or.ok());
  VnlEngine* engine = engine_or.value().get();
  auto table_or = engine->CreateTable("items", ItemSchema());
  ASSERT_TRUE(table_or.ok());
  VnlTable* table = table_or.value();

  constexpr int64_t kRows = 400;  // several heap pages
  {
    auto txn = engine->BeginMaintenance();
    ASSERT_TRUE(txn.ok());
    for (int64_t i = 0; i < kRows; ++i) {
      ASSERT_TRUE(table->Insert(*txn, Item(i, i)).ok());
    }
    ASSERT_TRUE(engine->Commit(*txn).ok());
  }
  ASSERT_GT(table->physical_pages(), 2u);
  {
    auto txn = engine->BeginMaintenance();
    ASSERT_TRUE(txn.ok());
    for (int64_t i : {int64_t{0}, int64_t{1}, kRows - 1}) {
      ASSERT_TRUE(testutil::DeleteKey(table, *txn, {Value::Int64(i)}).ok());
    }
    ASSERT_TRUE(engine->Commit(*txn).ok());
  }

  // Pin every frame with fresh pages: the victims' pages are evicted and
  // cannot come back.
  std::vector<Page*> pinned;
  for (;;) {
    Result<Page*> page = pool.NewPage();
    if (!page.ok()) break;
    pinned.push_back(*page);
  }
  ASSERT_EQ(pinned.size(), pool.pool_size());

  Result<VnlEngine::GcStats> failed = engine->CollectGarbage();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);

  for (Page* page : pinned) pool.Unpin(page, /*dirty=*/false);
  EXPECT_EQ(table->physical_rows(), static_cast<uint64_t>(kRows));
  VnlEngine::GcStats stats = engine->CollectGarbage().value();
  EXPECT_EQ(stats.tuples_reclaimed, 3u);
  EXPECT_EQ(stats.tuples_pending, 0u);
  EXPECT_EQ(table->physical_rows(), static_cast<uint64_t>(kRows - 3));

  ReaderSession s = engine->OpenSession();
  for (int64_t i : {int64_t{0}, int64_t{1}, kRows - 1}) {
    Result<std::optional<Row>> row =
        table->SnapshotLookup(s, {Value::Int64(i)});
    ASSERT_TRUE(row.ok());
    EXPECT_FALSE(row->has_value());
  }
  Result<std::optional<Row>> kept =
      table->SnapshotLookup(s, {Value::Int64(2)});
  ASSERT_TRUE(kept.ok());
  EXPECT_TRUE(kept->has_value());
  engine->CloseSession(s);
}

// Every SELECT source — the heap pass and index candidates — returns the
// pool's error when the table's pages cannot be fetched (no process
// abort), and reads correctly once frames free up.
TEST_P(GcTest, PoolFailureFailsEverySelectPathWithStatus) {
  DiskManager disk;
  BufferPool pool(8, &disk);
  auto engine_or = VnlEngine::Create(&pool, GetParam());
  ASSERT_TRUE(engine_or.ok());
  VnlEngine* engine = engine_or.value().get();
  auto table_or = engine->CreateTable("items", ItemSchema());
  ASSERT_TRUE(table_or.ok());
  VnlTable* table = table_or.value();
  constexpr int64_t kRows = 400;  // several heap pages
  {
    auto txn = engine->BeginMaintenance();
    ASSERT_TRUE(txn.ok());
    for (int64_t i = 0; i < kRows; ++i) {
      ASSERT_TRUE(table->Insert(*txn, Item(i, i)).ok());
    }
    ASSERT_TRUE(engine->Commit(*txn).ok());
  }
  ASSERT_GT(table->physical_pages(), 2u);
  ReaderSession s = engine->OpenSession();

  // {sql, index routing, rows once the pool recovers}
  struct Path {
    const char* sql;
    bool routing;
    int64_t rows;
  };
  const Path kPaths[] = {
      {"SELECT COUNT(*) AS c FROM items", false, 1},
      {"SELECT id FROM items WHERE qty >= 0", false, kRows},
      {"SELECT * FROM items WHERE id = 3", true, 1},
  };
  auto run = [&](const Path& path) {
    Result<sql::SelectStmt> stmt = sql::ParseSelect(path.sql);
    WVM_CHECK(stmt.ok());
    engine->SetScanOptions({.index_routing = path.routing});
    return table->SnapshotSelect(s, *stmt);
  };

  std::vector<Page*> pinned;
  for (;;) {
    Result<Page*> page = pool.NewPage();
    if (!page.ok()) break;
    pinned.push_back(*page);
  }
  ASSERT_EQ(pinned.size(), pool.pool_size());
  for (const Path& path : kPaths) {
    SCOPED_TRACE(path.sql);
    const uint64_t avoided = engine->scan_metrics().scans_avoided;
    Result<query::QueryResult> failed = run(path);
    EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted)
        << failed.status().ToString();
    EXPECT_EQ(engine->scan_metrics().scans_avoided - avoided,
              path.routing ? 1u : 0u);
  }

  for (Page* page : pinned) pool.Unpin(page, /*dirty=*/false);
  for (const Path& path : kPaths) {
    SCOPED_TRACE(path.sql);
    Result<query::QueryResult> ok = run(path);
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(static_cast<int64_t>(ok->rows.size()), path.rows);
  }
  Result<query::QueryResult> count = run(kPaths[0]);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt64(), kRows);
  engine->SetScanOptions({});
  engine->CloseSession(s);
}

TEST_P(GcTest, ReclaimedKeysCanBeReinsertedFresh) {
  Load(3);
  DeleteIds(0, 2);
  ASSERT_EQ(engine_->CollectGarbage().value().tuples_reclaimed, 3u);

  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(table_->Insert(txn, Item(1, 999)).ok());
  Commit(txn);

  ReaderSession s = engine_->OpenSession();
  Result<std::optional<Row>> row =
      table_->SnapshotLookup(s, {Value::Int64(1)});
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[1].AsInt64(), 999);
}

TEST_P(GcTest, DoesNotTouchLiveTuplesOrActiveTxnWrites) {
  Load(5);
  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(MaintenanceRewriter(engine_.get())
                  .Execute(txn, "DELETE FROM items WHERE id = 0")
                  .ok());
  // The delete is uncommitted (tupleVN > currentVN): GC must skip it.
  VnlEngine::GcStats stats = engine_->CollectGarbage().value();
  EXPECT_EQ(stats.tuples_reclaimed, 0u);
  Commit(txn);

  stats = engine_->CollectGarbage().value();
  EXPECT_EQ(stats.tuples_reclaimed, 1u);
  EXPECT_EQ(table_->physical_rows(), 4u);
}

TEST_P(GcTest, SessionsAtCurrentVersionNeverBlockGc) {
  Load(5);
  DeleteIds(0, 1);
  ReaderSession fresh = engine_->OpenSession();  // VN 2, ignores deletes
  VnlEngine::GcStats stats = engine_->CollectGarbage().value();
  EXPECT_EQ(stats.tuples_reclaimed, 2u);
  Result<std::vector<Row>> rows = testutil::SnapshotRows(*table_, fresh);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  engine_->CloseSession(fresh);
}

// Regression: CollectGarbage must drop the unique-key entry AND every
// secondary posting atomically with heap reclamation — a stale posting
// would let an index-routed read probe a reclaimed (or recycled) slot.
TEST_P(GcTest, IndexRoutedReadsAgreeWithScansAfterGc) {
  DiskManager disk;
  BufferPool pool(256, &disk);
  auto engine_or = VnlEngine::Create(&pool, GetParam());
  ASSERT_TRUE(engine_or.ok());
  VnlEngine* engine = engine_or.value().get();
  Schema schema({Column::Int64("id"), Column::String("grp", 4),
                 Column::Int64("qty", /*updatable=*/true)},
                {0});
  ASSERT_TRUE(schema.AddSecondaryIndex("by_grp", {"grp"}).ok());
  auto table_or = engine->CreateTable("t", schema);
  ASSERT_TRUE(table_or.ok());
  VnlTable* table = table_or.value();

  {
    auto txn = engine->BeginMaintenance();
    ASSERT_TRUE(txn.ok());
    for (int64_t id = 0; id < 30; ++id) {
      ASSERT_TRUE(table
                      ->Insert(*txn,
                               {Value::Int64(id),
                                Value::String(StrPrintf("g%" PRId64, id % 3)),
                                Value::Int64(id)})
                      .ok());
    }
    ASSERT_TRUE(engine->Commit(*txn).ok());
  }
  {
    auto txn = engine->BeginMaintenance();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(MaintenanceRewriter(engine)
                    .Execute(*txn, "DELETE FROM t WHERE grp = 'g1'")
                    .ok());
    ASSERT_TRUE(engine->Commit(*txn).ok());
  }
  ASSERT_EQ(engine->CollectGarbage().value().tuples_reclaimed, 10u);

  auto expect_same = [&](const char* sql, size_t expect_rows) {
    SCOPED_TRACE(sql);
    Result<sql::SelectStmt> stmt = sql::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok());
    ReaderSession s = engine->OpenSession();
    engine->SetScanOptions({.index_routing = true});
    Result<query::QueryResult> routed = table->SnapshotSelect(s, *stmt);
    engine->SetScanOptions({.index_routing = false});
    Result<query::QueryResult> scanned = table->SnapshotSelect(s, *stmt);
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    ASSERT_EQ(routed->rows.size(), scanned->rows.size());
    EXPECT_EQ(routed->rows.size(), expect_rows);
    for (size_t i = 0; i < routed->rows.size(); ++i) {
      EXPECT_TRUE(routed->rows[i] == scanned->rows[i]) << "row " << i;
    }
    engine->CloseSession(s);
  };

  expect_same("SELECT * FROM t WHERE grp = 'g1'", 0);   // postings gone
  expect_same("SELECT * FROM t WHERE grp = 'g0'", 10);  // others intact
  expect_same("SELECT * FROM t WHERE id = 4", 0);       // key entry gone
  expect_same("SELECT * FROM t WHERE id = 3", 1);

  // Re-inserting a reclaimed key re-creates both index entries.
  {
    auto txn = engine->BeginMaintenance();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(table
                    ->Insert(*txn, {Value::Int64(4), Value::String("g1"),
                                    Value::Int64(40)})
                    .ok());
    ASSERT_TRUE(engine->Commit(*txn).ok());
  }
  expect_same("SELECT * FROM t WHERE grp = 'g1'", 1);
  expect_same("SELECT * FROM t WHERE id = 4", 1);
}

INSTANTIATE_TEST_SUITE_P(AllN, GcTest, ::testing::Values(2, 3),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return StrPrintf("n%d", info.param);
                         });

}  // namespace
}  // namespace wvm::core

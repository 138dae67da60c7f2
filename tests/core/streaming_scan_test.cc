// Tests for the streaming snapshot read path: SnapshotSelect must resolve
// Table-1 versions, evaluate pushed-down predicates, and project in one
// heap pass — no snapshot-wide row vector, no Row copies for tuples a
// version-invariant predicate rejects — while remaining byte-equivalent
// (results *and* expiration behavior) to running the executor over the
// fully materialized `SELECT *` snapshot (tests/support/snapshot_rows.h).
#include <gtest/gtest.h>

#include <cinttypes>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "core/maintenance_rewriter.h"
#include "core/vnl_engine.h"
#include "core/vnl_table.h"
#include "query/executor.h"
#include "sql/parser.h"
#include "tests/support/snapshot_rows.h"

namespace wvm::core {
namespace {

Schema ItemSchema() {
  return Schema({Column::Int64("id"), Column::String("grp", 8),
                 Column::Int64("qty", /*updatable=*/true)},
                {0});
}

Row Item(int64_t id, int64_t qty) {
  return {Value::Int64(id), Value::String(StrPrintf("g%" PRId64, id % 4)),
          Value::Int64(qty)};
}

class StreamingScanTest : public ::testing::TestWithParam<int> {
 protected:
  StreamingScanTest() : pool_(512, &disk_) {
    auto engine = VnlEngine::Create(&pool_, GetParam());
    WVM_CHECK(engine.ok());
    engine_ = std::move(engine).value();
    auto table = engine_->CreateTable("items", ItemSchema());
    WVM_CHECK(table.ok());
    table_ = table.value();

    // Txn VN 1: 16 rows, grp g0..g3 round-robin.
    MaintenanceTxn* load = Begin();
    for (int64_t i = 0; i < 16; ++i) {
      WVM_CHECK(table_->Insert(load, Item(i, i * 100)).ok());
    }
    Commit(load);

    // Txn VN 2: one of each Table-1 shape — updates (g0), a delete
    // (id 13), and an insert (id 16), so a VN-1 session exercises
    // current reads, pre-update reads, pre-delete reads, and ignore.
    MaintenanceTxn* churn = Begin();
    WVM_CHECK(AddQty(churn, "g0", 1000));
    WVM_CHECK(Exec(churn, "DELETE FROM items WHERE id = 13"));
    WVM_CHECK(table_->Insert(churn, Item(16, 9999)).ok());
    Commit(churn);
  }

  MaintenanceTxn* Begin() {
    Result<MaintenanceTxn*> txn = engine_->BeginMaintenance();
    WVM_CHECK(txn.ok());
    return txn.value();
  }

  void Commit(MaintenanceTxn* txn) { WVM_CHECK(engine_->Commit(txn).ok()); }

  // §4.2 cursor statements, as SQL.
  bool Exec(MaintenanceTxn* txn, const std::string& sql) {
    return MaintenanceRewriter(engine_.get()).Execute(txn, sql).ok();
  }
  bool AddQty(MaintenanceTxn* txn, const char* grp, int64_t delta) {
    return Exec(txn, StrPrintf("UPDATE items SET qty = qty + %lld WHERE "
                               "grp = '%s'",
                               static_cast<long long>(delta), grp));
  }

  // Runs `sql` through the streaming SnapshotSelect path and through the
  // pre-streaming shape (materialize the whole snapshot, then run the
  // executor over the vector); both must agree on status and rows.
  void ExpectStreamedMatchesMaterialized(const ReaderSession& s,
                                         const std::string& sql) {
    SCOPED_TRACE("query: " + sql);
    Result<sql::SelectStmt> stmt = sql::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

    Result<query::QueryResult> streamed = table_->SnapshotSelect(s, *stmt);
    Result<std::vector<Row>> snapshot = testutil::SnapshotRows(*table_, s);
    ASSERT_EQ(streamed.ok(), snapshot.ok());
    if (!snapshot.ok()) {
      EXPECT_EQ(streamed.status().code(), snapshot.status().code());
      return;
    }
    query::RowSource source =
        [&snapshot](const std::function<bool(const Row&)>& sink) {
          for (const Row& row : snapshot.value()) {
            if (!sink(row)) return;
          }
        };
    Result<query::QueryResult> materialized = query::ExecuteSelect(
        *stmt, table_->logical_schema(), source, {});
    ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
    EXPECT_EQ(streamed->column_names, materialized->column_names);
    ASSERT_EQ(streamed->rows.size(), materialized->rows.size());
    for (size_t i = 0; i < streamed->rows.size(); ++i) {
      EXPECT_TRUE(streamed->rows[i] == materialized->rows[i])
          << "row " << i << " differs";
    }
  }

  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<VnlEngine> engine_;
  VnlTable* table_;
};

// The regression the streaming path exists for: a selective WHERE over a
// non-updatable column visits every heap tuple exactly once, reconstructs
// only the matching rows, and never buffers the snapshot into a vector.
TEST_P(StreamingScanTest, SelectiveWhereIsSinglePassAndCopiesOnlyMatches) {
  ReaderSession s = engine_->OpenSession();  // VN 2
  Result<sql::SelectStmt> stmt = sql::ParseSelect(
      "SELECT id, qty FROM items WHERE grp = 'g3'");
  ASSERT_TRUE(stmt.ok());

  engine_->ResetScanMetrics();
  Result<query::QueryResult> r = table_->SnapshotSelect(s, *stmt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Result: ids 3, 7, 11, 15 (heap order), qty untouched by the churn txn.
  ASSERT_EQ(r->rows.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    const int64_t id = static_cast<int64_t>(i) * 4 + 3;
    EXPECT_EQ(r->rows[i][0].AsInt64(), id);
    EXPECT_EQ(r->rows[i][1].AsInt64(), id * 100);
  }

  const ScanMetrics m = engine_->scan_metrics();
  // Every heap tuple touched exactly once (the deleted tuple is still
  // physically present): 16 inserts + 1 new insert = 17.
  EXPECT_EQ(m.rows_scanned, table_->physical_rows());
  EXPECT_EQ(m.rows_scanned, 17u);
  // Only the 4 matching rows were ever copied out of the heap; the other
  // 12 visible tuples were rejected pre-reconstruction and the deleted
  // tuple was ignored by Table-1 classification.
  EXPECT_EQ(m.rows_reconstructed, 4u);
  EXPECT_LT(m.rows_reconstructed, m.rows_scanned);
  EXPECT_EQ(m.rows_filtered, 12u);
  EXPECT_EQ(m.rows_emitted, 4u);
  EXPECT_GT(m.bytes_copied, 0u);
}

// A predicate over an updatable column cannot run pre-reconstruction (the
// value differs per version) but is still evaluated inside the single
// streaming pass — and per-version: an old session filters on old values.
TEST_P(StreamingScanTest, UpdatableColumnPredicateSeesSessionVersion) {
  ReaderSession old_s = engine_->OpenSession();
  {
    MaintenanceTxn* txn = Begin();
    ASSERT_TRUE(AddQty(txn, "g1", 100000));
    Commit(txn);
  }
  ReaderSession new_s = engine_->OpenSession();

  Result<sql::SelectStmt> stmt = sql::ParseSelect(
      "SELECT id FROM items WHERE qty > 50000");
  ASSERT_TRUE(stmt.ok());

  // Old session: no tuple had qty > 50000 at its version.
  Result<query::QueryResult> old_r = table_->SnapshotSelect(old_s, *stmt);
  ASSERT_TRUE(old_r.ok()) << old_r.status().ToString();
  EXPECT_TRUE(old_r->rows.empty());
  // New session: the four g1 tuples (1, 5, 9, 13 deleted -> 1, 5, 9).
  Result<query::QueryResult> new_r = table_->SnapshotSelect(new_s, *stmt);
  ASSERT_TRUE(new_r.ok()) << new_r.status().ToString();
  ASSERT_EQ(new_r->rows.size(), 3u);
  EXPECT_EQ(new_r->rows[0][0].AsInt64(), 1);
  EXPECT_EQ(new_r->rows[1][0].AsInt64(), 5);
  EXPECT_EQ(new_r->rows[2][0].AsInt64(), 9);
}

TEST_P(StreamingScanTest, StreamedMatchesMaterializedAcrossTable1States) {
  ReaderSession old_s = engine_->OpenSession();  // sees VN 2 state
  {
    MaintenanceTxn* txn = Begin();  // VN 3: more churn under old_s
    ASSERT_TRUE(AddQty(txn, "g2", 7));
    Commit(txn);
  }
  ReaderSession new_s = engine_->OpenSession();

  const std::vector<std::string> queries = {
      // Version-invariant pushdown (non-updatable column).
      "SELECT id, qty FROM items WHERE grp = 'g2'",
      // Reconstruction-dependent pushdown (updatable column).
      "SELECT id FROM items WHERE qty > 500",
      // Mixed conjuncts: one of each.
      "SELECT id FROM items WHERE grp = 'g0' AND qty > 1000",
      // No WHERE; plain projection.
      "SELECT id, grp FROM items",
      // Aggregation with grouping over the streamed rows.
      "SELECT grp, SUM(qty) FROM items GROUP BY grp",
      // Aggregate filtered by a pushed-down conjunct.
      "SELECT COUNT(id) FROM items WHERE grp = 'g1'",
  };
  for (const std::string& sql : queries) {
    ExpectStreamedMatchesMaterialized(old_s, sql);
    ExpectStreamedMatchesMaterialized(new_s, sql);
  }
}

// Expiration must be detected identically on both paths: Table-1
// classification runs before any pushed-down filter, so a too-old session
// fails even when every tuple the churn touched would have been filtered
// out by the WHERE clause.
TEST_P(StreamingScanTest, FilteredOutTuplesStillTriggerExpiration) {
  ReaderSession old_s = engine_->OpenSession();  // VN 2
  // Two more updates to the g0 tuples: at n=2 the VN-2 session can no
  // longer reconstruct its version of them; at n=3 the history slot
  // still serves it.
  for (int i = 0; i < 2; ++i) {
    MaintenanceTxn* txn = Begin();
    ASSERT_TRUE(AddQty(txn, "g0", 1));
    Commit(txn);
  }

  // The WHERE clause excludes every g0 tuple — but the session must
  // still expire at n=2, exactly as the materializing path does.
  ExpectStreamedMatchesMaterialized(
      old_s, "SELECT id, qty FROM items WHERE grp = 'g3'");
  Result<sql::SelectStmt> stmt = sql::ParseSelect(
      "SELECT id, qty FROM items WHERE grp = 'g3'");
  ASSERT_TRUE(stmt.ok());
  Result<query::QueryResult> r = table_->SnapshotSelect(old_s, *stmt);
  if (GetParam() == 2) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kSessionExpired);
  } else {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows.size(), 4u);
  }
}

// Satellite regression: SnapshotLookup used to perform Table-1 resolution
// without recording SnapshotScanStats; point reads now participate in the
// same accounting as scans.
TEST_P(StreamingScanTest, SnapshotLookupRecordsStats) {
  ReaderSession old_s = engine_->OpenSession();  // VN 2... opened now
  // Reopen sessions with a known view: old_s sees current state; craft an
  // older view by churn after opening.
  ReaderSession pre = old_s;
  {
    MaintenanceTxn* txn = Begin();
    ASSERT_TRUE(AddQty(txn, "g0", 5));
    ASSERT_TRUE(table_->Insert(txn, Item(17, 1)).ok());
    Commit(txn);
  }
  ReaderSession fresh = engine_->OpenSession();

  SnapshotScanStats stats;
  // Never-updated tuple: current read for any session.
  Result<std::optional<Row>> r =
      table_->SnapshotLookup(fresh, {Value::Int64(3)}, &stats);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  EXPECT_EQ(stats.current_reads, 1u);
  EXPECT_EQ(stats.pre_update_reads, 0u);

  // Tuple updated after `pre` was opened: pre-update read.
  r = table_->SnapshotLookup(pre, {Value::Int64(0)}, &stats);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  EXPECT_EQ((**r)[2].AsInt64(), 1000);  // VN-2 value, not +5
  EXPECT_EQ(stats.pre_update_reads, 1u);

  // Tuple inserted after `pre` was opened: ignored.
  r = table_->SnapshotLookup(pre, {Value::Int64(17)}, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());
  EXPECT_EQ(stats.ignored, 1u);

  // Point reads feed the engine-wide metrics too.
  engine_->ResetScanMetrics();
  ASSERT_TRUE(table_->SnapshotLookup(fresh, {Value::Int64(3)}).ok());
  const ScanMetrics m = engine_->scan_metrics();
  EXPECT_EQ(m.rows_scanned, 1u);
  EXPECT_EQ(m.rows_reconstructed, 1u);
  EXPECT_EQ(m.rows_emitted, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllN, StreamingScanTest, ::testing::Values(2, 3),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return StrPrintf("n%d", info.param);
                         });

}  // namespace
}  // namespace wvm::core

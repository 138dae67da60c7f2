// Invariant suite for ScanMetrics accounting on the streaming read path:
// every scanned tuple lands in exactly one of {ignored, filtered,
// reconstructed}, so
//   rows_scanned >= rows_filtered + rows_reconstructed
//   rows_emitted <= rows_reconstructed
//   full_materializations == 0           (SnapshotSelect never buffers)
// for any SnapshotSelect.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.h"
#include "core/vnl_engine.h"
#include "core/vnl_table.h"
#include "query/executor.h"
#include "sql/parser.h"

namespace wvm::core {
namespace {

constexpr int64_t kRows = 256;  // several heap pages

Schema ItemSchema() {
  return Schema({Column::Int64("id"), Column::String("grp", 8),
                 Column::Int64("qty", /*updatable=*/true)},
                {0});
}

Row Item(int64_t id, int64_t qty) {
  return {Value::Int64(id), Value::String("g" + std::to_string(id % 4)),
          Value::Int64(qty)};
}

// Queries chosen so the counters separate: invariant-filtered rows
// (grp predicate), reconstructed-then-rejected rows (qty predicate),
// ignored rows (deleted/inserted tuples vs an old session), aggregates.
const char* kQueries[] = {
    "SELECT * FROM items",
    "SELECT id, qty FROM items WHERE grp = 'g3'",
    "SELECT id FROM items WHERE qty > 700",
    "SELECT id FROM items WHERE grp = 'g1' AND qty < 500",
    "SELECT grp, SUM(qty) AS s FROM items GROUP BY grp",
};

class ScanMetricsInvariantTest : public ::testing::TestWithParam<int> {
 protected:
  ScanMetricsInvariantTest() : pool_(512, &disk_) {
    auto engine = VnlEngine::Create(&pool_, GetParam());
    WVM_CHECK(engine.ok());
    engine_ = std::move(engine).value();
    auto table = engine_->CreateTable("items", ItemSchema());
    WVM_CHECK(table.ok());
    table_ = table.value();

    MaintenanceTxn* load = Begin();
    for (int64_t i = 0; i < kRows; ++i) {
      WVM_CHECK(table_->Insert(load, Item(i, i * 20)).ok());
    }
    Commit(load);
  }

  // One maintenance transaction of updates + a delete + an insert: a
  // session pinned before this takes pre-update reads and ignores the new
  // tuple; a session opened after sees the delete as ignored.
  void Churn() {
    MaintenanceTxn* churn = Begin();
    WVM_CHECK(table_
                  ->Update(churn,
                           [](const Row& row) -> Result<bool> {
                             return row[0].AsInt64() % 2 == 0;
                           },
                           [](const Row& row) -> Result<Row> {
                             Row next = row;
                             next[2] =
                                 Value::Int64(next[2].AsInt64() + 10000);
                             return next;
                           })
                  .ok());
    WVM_CHECK(table_
                  ->Delete(churn,
                           [](const Row& row) -> Result<bool> {
                             return row[0].AsInt64() == 7;
                           })
                  .ok());
    WVM_CHECK(table_->Insert(churn, Item(kRows, 123)).ok());
    Commit(churn);
  }

  MaintenanceTxn* Begin() {
    Result<MaintenanceTxn*> txn = engine_->BeginMaintenance();
    WVM_CHECK(txn.ok());
    return txn.value();
  }

  void Commit(MaintenanceTxn* txn) { WVM_CHECK(engine_->Commit(txn).ok()); }

  ScanMetrics RunAndSnapshot(const ReaderSession& s, const char* sql) {
    Result<sql::SelectStmt> stmt = sql::ParseSelect(sql);
    WVM_CHECK(stmt.ok());
    engine_->ResetScanMetrics();
    Result<query::QueryResult> r = table_->SnapshotSelect(s, *stmt);
    WVM_CHECK(r.ok());
    return engine_->scan_metrics();
  }

  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<VnlEngine> engine_;
  VnlTable* table_;
};

TEST_P(ScanMetricsInvariantTest, InvariantsHoldForEveryScan) {
  ReaderSession old_s = engine_->OpenSession();  // pinned before the churn
  Churn();
  ReaderSession fresh = engine_->OpenSession();
  for (const ReaderSession* s : {&old_s, &fresh}) {
    for (const char* sql : kQueries) {
      SCOPED_TRACE(std::string("query: ") + sql);
      const ScanMetrics m = RunAndSnapshot(*s, sql);
      EXPECT_GE(m.rows_scanned, m.rows_reconstructed + m.rows_filtered);
      EXPECT_LE(m.rows_emitted, m.rows_reconstructed);
      EXPECT_EQ(m.full_materializations, 0u);
      EXPECT_EQ(m.rows_scanned, table_->physical_rows());
    }
  }
}

// A row rejected by an updatable-column predicate was already copied, so
// it must count as reconstructed, not filtered — the counters distinguish
// avoided copies from wasted ones.
TEST_P(ScanMetricsInvariantTest, PostMaterializationRejectionsAreNotFiltered) {
  Churn();
  ReaderSession s = engine_->OpenSession();
  const ScanMetrics m =
      RunAndSnapshot(s, "SELECT id FROM items WHERE qty > 700");
  // qty is updatable: nothing can be rejected pre-materialization.
  EXPECT_EQ(m.rows_filtered, 0u);
  EXPECT_GT(m.rows_reconstructed, m.rows_emitted);
}

// The complementary case: a predicate on a version-invariant column is
// rejected before any copy, so it lands in rows_filtered and the two
// inequalities become exact for a scan with no ignored tuples.
TEST_P(ScanMetricsInvariantTest, InvariantRejectionsAreFilteredNotCopied) {
  ReaderSession s = engine_->OpenSession();  // before churn: no ignores
  const ScanMetrics m =
      RunAndSnapshot(s, "SELECT id FROM items WHERE grp = 'g3'");
  EXPECT_EQ(m.rows_scanned, m.rows_filtered + m.rows_reconstructed);
  EXPECT_EQ(m.rows_emitted, m.rows_reconstructed);
  EXPECT_EQ(m.rows_reconstructed, static_cast<uint64_t>(kRows / 4));
}

INSTANTIATE_TEST_SUITE_P(AllN, ScanMetricsInvariantTest,
                         ::testing::Values(2, 3),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "n" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace wvm::core

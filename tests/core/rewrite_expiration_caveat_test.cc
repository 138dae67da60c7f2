// §4.1's caveat, locked in as a regression test: the rewritten query
// CANNOT raise the §3.2 case-3 exception — for an expired session it
// silently returns the pre-update version (stale data). Soundness comes
// from pairing the rewrite with the global expiration check, which the
// paper prescribes and SessionManager implements. The native engine path,
// in contrast, detects expiration at tuple granularity.
#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/rewriter.h"
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

TEST(RewriteExpirationCaveatTest, RewriteServesStaleDataGlobalCheckSaves) {
  DiskManager disk;
  BufferPool pool(256, &disk);
  auto engine_or = VnlEngine::Create(&pool, 2);
  ASSERT_TRUE(engine_or.ok());
  VnlEngine& engine = **engine_or;
  VnlTable* table = engine.CreateTable("items", ItemSchema()).value();

  // VN 1: qty = 100.
  MaintenanceTxn* t1 = engine.BeginMaintenance().value();
  ASSERT_TRUE(table->Insert(t1, {Value::Int64(1), Value::Int64(100)}).ok());
  ASSERT_TRUE(engine.Commit(t1).ok());

  ReaderSession session = engine.OpenSession();  // pinned at VN 1

  // VN 2 and VN 3 both update the tuple: the session's version is gone.
  for (int64_t qty : {200, 300}) {
    MaintenanceTxn* txn = engine.BeginMaintenance().value();
    ASSERT_TRUE(testutil::SetKey(table, txn, {Value::Int64(1)}, 1,
                                 Value::Int64(qty))
                    .value());
    ASSERT_TRUE(engine.Commit(txn).ok());
  }

  // Native path: tuple-level detection fires (§3.2 case 3).
  Result<std::vector<Row>> native = testutil::SnapshotRows(*table, session);
  EXPECT_EQ(native.status().code(), StatusCode::kSessionExpired);

  // Rewrite path: the query executes "successfully" but returns the
  // pre-update version (200) — NOT the session's true version (100).
  Result<sql::SelectStmt> stmt =
      sql::ParseSelect("SELECT id, qty FROM items");
  ASSERT_TRUE(stmt.ok());
  Result<sql::SelectStmt> rewritten =
      RewriteReaderQuery(*stmt, table->versioned_schema());
  ASSERT_TRUE(rewritten.ok());
  Result<query::QueryResult> via_rewrite = query::ExecuteSelect(
      *rewritten, table->physical_table(),
      {{"sessionVN", Value::Int64(session.session_vn)}});
  ASSERT_TRUE(via_rewrite.ok());
  ASSERT_EQ(via_rewrite->rows.size(), 1u);
  EXPECT_EQ(via_rewrite->rows[0][1].AsInt64(), 200);  // stale, by design

  // ... which is exactly why §4.1 mandates the global check per query:
  EXPECT_EQ(engine.CheckSession(session).code(),
            StatusCode::kSessionExpired);
}

}  // namespace
}  // namespace wvm::core

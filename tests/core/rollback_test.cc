// Rollback without logging (§7 future work): aborting a maintenance
// transaction reverts tuples from their saved pre-update versions.
#include <gtest/gtest.h>

#include <map>

#include "common/logging.h"
#include "common/strings.h"
#include "core/maintenance_rewriter.h"
#include "core/vnl_engine.h"
#include "tests/support/keyed_maintenance.h"
#include "tests/support/row_reference.h"
#include "tests/support/snapshot_rows.h"

namespace wvm::core {
namespace {

Schema ItemSchema() {
  return Schema({Column::Int64("id"), Column::Int64("qty", true)}, {0});
}

Row Item(int64_t id, int64_t qty) {
  return {Value::Int64(id), Value::Int64(qty)};
}

class RollbackTest : public ::testing::TestWithParam<int> {
 protected:
  RollbackTest() : pool_(256, &disk_) {
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

  // The §4.2 cursor statements on one id, as SQL.
  bool SetQty(MaintenanceTxn* txn, int64_t id, int64_t qty) {
    return Exec(txn, StrPrintf("UPDATE items SET qty = %lld WHERE id = %lld",
                               static_cast<long long>(qty),
                               static_cast<long long>(id)));
  }
  bool Remove(MaintenanceTxn* txn, int64_t id) {
    return Exec(txn, StrPrintf("DELETE FROM items WHERE id = %lld",
                               static_cast<long long>(id)));
  }
  bool Exec(MaintenanceTxn* txn, const std::string& sql) {
    return MaintenanceRewriter(engine_.get()).Execute(txn, sql).ok();
  }

  void Load() {
    MaintenanceTxn* txn = Begin();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(table_->Insert(txn, Item(i, i * 10)).ok());
    }
    Commit(txn);
  }

  std::map<int64_t, int64_t> StateAt(Vn vn) {
    ReaderSession s;
    s.session_vn = vn;
    Result<std::vector<Row>> rows = testutil::SnapshotRows(*table_, s);
    WVM_CHECK(rows.ok());
    std::map<int64_t, int64_t> out;
    for (const Row& row : *rows) out[row[0].AsInt64()] = row[1].AsInt64();
    return out;
  }

  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<VnlEngine> engine_;
  VnlTable* table_;
};

TEST_P(RollbackTest, AbortRestoresLogicalState) {
  Load();
  const std::map<int64_t, int64_t> before = StateAt(1);

  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(table_->Insert(txn, Item(100, 1)).ok());
  ASSERT_TRUE(SetQty(txn, 2, 999));
  ASSERT_TRUE(Remove(txn, 3));
  ASSERT_TRUE(engine_->Abort(txn).ok());

  // currentVN is unchanged; the logical state at VN 1 is exactly restored.
  EXPECT_EQ(engine_->current_vn(), 1);
  EXPECT_EQ(StateAt(1), before);
  EXPECT_FALSE(engine_->version_relation()->maintenance_active());

  // The reverted version numbers never exceed currentVN.
  const VersionedSchema& vs = table_->versioned_schema();
  const std::vector<Row> rows = table_->physical_table().AllRows().value();
  for (const Row& row : rows) {
    EXPECT_LE(rowref::TupleVn(vs, row, 0), 1);
  }
}

TEST_P(RollbackTest, AbortThenNewTxnReusesVersionNumber) {
  Load();
  MaintenanceTxn* txn = Begin();
  EXPECT_EQ(txn->vn(), 2);
  ASSERT_TRUE(SetQty(txn, 1, 1));
  ASSERT_TRUE(engine_->Abort(txn).ok());

  MaintenanceTxn* txn2 = Begin();
  EXPECT_EQ(txn2->vn(), 2);  // the aborted VN was never published
  ASSERT_TRUE(SetQty(txn2, 1, 42));
  Commit(txn2);
  EXPECT_EQ(StateAt(2).at(1), 42);
  EXPECT_EQ(StateAt(1).at(1), 10);
}

TEST_P(RollbackTest, FreshInsertIsPhysicallyRemoved) {
  Load();
  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(table_->Insert(txn, Item(100, 1)).ok());
  EXPECT_EQ(table_->physical_rows(), 6u);
  ASSERT_TRUE(engine_->Abort(txn).ok());
  EXPECT_EQ(table_->physical_rows(), 5u);

  // The key is free again.
  MaintenanceTxn* txn2 = Begin();
  EXPECT_TRUE(table_->Insert(txn2, Item(100, 2)).ok());
  Commit(txn2);
}

TEST_P(RollbackTest, SessionsAtCurrentVersionSurviveAbort) {
  Load();
  ReaderSession s = engine_->OpenSession();  // VN 1 == currentVN
  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(SetQty(txn, 2, 999));
  ASSERT_TRUE(engine_->Abort(txn).ok());

  EXPECT_TRUE(engine_->CheckSession(s).ok());
  Result<std::optional<Row>> row =
      table_->SnapshotLookup(s, {Value::Int64(2)});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((**row)[1].AsInt64(), 20);
}

// 2VNL cannot reconstruct the pre-update values of tuples the aborted txn
// re-modified, so sessions pinned one version back are force-expired.
// With n > 2 the history slots make the revert lossless and the old
// session survives — an advantage of nVNL the paper's §7 hints at.
TEST_P(RollbackTest, OlderSessionsAfterDirtyAbort) {
  Load();                                     // VN 1
  MaintenanceTxn* t2 = Begin();
  ASSERT_TRUE(SetQty(t2, 2, 200));
  Commit(t2);                                 // VN 2
  ReaderSession old_session = engine_->OpenSession();
  ASSERT_TRUE(engine_->Commit(Begin()).ok());  // VN 3 (empty)
  ReaderSession older = old_session;           // VN 2 (now previous)
  ReaderSession current_session = engine_->OpenSession();  // VN 3

  MaintenanceTxn* t4 = Begin();
  // Re-modify the same tuple the VN 2 txn touched.
  ASSERT_TRUE(SetQty(t4, 2, 444));
  ASSERT_TRUE(engine_->Abort(t4).ok());

  // Sessions at currentVN always survive.
  EXPECT_TRUE(engine_->CheckSession(current_session).ok());
  Result<std::optional<Row>> row =
      table_->SnapshotLookup(current_session, {Value::Int64(2)});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((**row)[1].AsInt64(), 200);

  if (GetParam() == 2) {
    // 2VNL: the revert stamped the tuple at VN 3 and lost the VN 2 -> 3
    // pre-image, so the VN 2 session is expired.
    EXPECT_EQ(engine_->CheckSession(older).code(),
              StatusCode::kSessionExpired);
  } else {
    // nVNL: the revert popped the pushed slot — fully lossless.
    EXPECT_TRUE(engine_->CheckSession(older).ok());
    Result<std::optional<Row>> old_row =
        table_->SnapshotLookup(older, {Value::Int64(2)});
    ASSERT_TRUE(old_row.ok());
    EXPECT_EQ((**old_row)[1].AsInt64(), 200);
  }
}

TEST_P(RollbackTest, AbortOfNetEffectSequences) {
  Load();
  const std::map<int64_t, int64_t> before = StateAt(1);
  MaintenanceTxn* txn = Begin();
  // insert + update + delete of a fresh key: net nothing.
  ASSERT_TRUE(table_->Insert(txn, Item(50, 1)).ok());
  ASSERT_TRUE(SetQty(txn, 50, 2));
  ASSERT_TRUE(Remove(txn, 50));
  // delete + reinsert of an existing key: net update.
  ASSERT_TRUE(Remove(txn, 4));
  ASSERT_TRUE(table_->Insert(txn, Item(4, 777)).ok());
  ASSERT_TRUE(engine_->Abort(txn).ok());

  EXPECT_EQ(StateAt(1), before);
  EXPECT_EQ(table_->physical_rows(), 5u);
}

// A same-transaction delete + re-insert over (k key, s non-updatable,
// v updatable) row (1, a, 10). Rollback restores v from the saved
// pre-update copy and has none for s (§3.1), so a re-insert may not have
// rewritten s: after the abort the current row is exactly (1, a, 10).
TEST_P(RollbackTest, AbortOfSameTxnDeleteReinsertRestoresTheRow) {
  auto table = engine_->CreateTable(
      "ksv", Schema({Column::Int64("k"), Column::String("s", 4),
                     Column::Int64("v", /*updatable=*/true)},
                    {0}));
  ASSERT_TRUE(table.ok());
  VnlTable* ksv = table.value();
  auto ksv_row = [](const char* s, int64_t v) {
    return Row{Value::Int64(1), Value::String(s), Value::Int64(v)};
  };
  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(ksv->Insert(txn, ksv_row("a", 10)).ok());
  Commit(txn);

  for (const char* s : {"b", "a"}) {
    SCOPED_TRACE(StrPrintf("re-insert s = %s", s));
    txn = Begin();
    ASSERT_TRUE(testutil::DeleteKey(ksv, txn, {Value::Int64(1)}).value());
    const Status reinserted = ksv->Insert(txn, ksv_row(s, 20));
    EXPECT_EQ(reinserted.code(), *s == 'a' ? StatusCode::kOk
                                           : StatusCode::kInvalidArgument)
        << reinserted.ToString();
    ASSERT_TRUE(engine_->Abort(txn).ok());

    txn = Begin();
    Result<std::optional<Row>> current =
        testutil::CurrentRow(ksv, txn, {Value::Int64(1)});
    ASSERT_TRUE(current.ok());
    ASSERT_TRUE(current->has_value());
    EXPECT_EQ(RowToString(**current), RowToString(ksv_row("a", 10)));
    ASSERT_TRUE(engine_->Abort(txn).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(AllN, RollbackTest, ::testing::Values(2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return StrPrintf("n%d", info.param);
                         });

}  // namespace
}  // namespace wvm::core

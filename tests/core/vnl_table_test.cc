#include "core/vnl_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "core/maintenance_rewriter.h"
#include "core/vnl_engine.h"
#include "sql/parser.h"
#include "tests/support/keyed_maintenance.h"
#include "tests/support/snapshot_rows.h"

namespace wvm::core {
namespace {

Schema DailySales() {
  return Schema(
      {
          Column::String("city", 20),
          Column::String("state", 2),
          Column::String("product_line", 12),
          Column::Date("date"),
          Column::Int32("total_sales", /*updatable=*/true),
      },
      {0, 1, 2, 3});
}

Row DailyRow(const std::string& city, const std::string& pl, int day,
             int32_t sales) {
  return {Value::String(city), Value::String("CA"), Value::String(pl),
          Value::Date(1996, 10, day), Value::Int32(sales)};
}

Row DailyKey(const std::string& city, const std::string& pl, int day) {
  return {Value::String(city), Value::String("CA"), Value::String(pl),
          Value::Date(1996, 10, day)};
}

class VnlTableTest : public ::testing::TestWithParam<int> {
 protected:
  VnlTableTest() : pool_(512, &disk_) {
    auto engine = VnlEngine::Create(&pool_, GetParam());
    WVM_CHECK(engine.ok());
    engine_ = std::move(engine).value();
    auto table = engine_->CreateTable("DailySales", DailySales());
    WVM_CHECK(table.ok());
    table_ = table.value();
  }

  MaintenanceTxn* Begin() {
    Result<MaintenanceTxn*> txn = engine_->BeginMaintenance();
    WVM_CHECK(txn.ok());
    return txn.value();
  }

  void Commit(MaintenanceTxn* txn) {
    WVM_CHECK(engine_->Commit(txn).ok());
  }

  // Loads the Figure 4-style baseline: one committed txn inserting rows.
  void LoadInitialData() {
    MaintenanceTxn* txn = Begin();
    ASSERT_TRUE(
        table_->Insert(txn, DailyRow("San Jose", "golf equip", 14, 10000))
            .ok());
    ASSERT_TRUE(
        table_->Insert(txn, DailyRow("Berkeley", "racquetball", 14, 12000))
            .ok());
    ASSERT_TRUE(
        table_->Insert(txn, DailyRow("Novato", "rollerblades", 13, 8000))
            .ok());
    Commit(txn);
  }

  // The §4.2 cursor statements, as SQL through VnlTable::Update and
  // Delete.
  Result<size_t> Exec(MaintenanceTxn* txn, const std::string& sql) {
    return MaintenanceRewriter(engine_.get()).Execute(txn, sql);
  }
  Result<size_t> AddSales(MaintenanceTxn* txn, const char* city,
                          int32_t delta) {
    return Exec(txn, StrPrintf("UPDATE DailySales SET total_sales = "
                               "total_sales + %d WHERE city = '%s'",
                               delta, city));
  }
  Result<size_t> DeleteCity(MaintenanceTxn* txn, const char* city) {
    return Exec(txn,
                StrPrintf("DELETE FROM DailySales WHERE city = '%s'", city));
  }

  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<VnlEngine> engine_;
  VnlTable* table_;
};

TEST_P(VnlTableTest, InsertAndSnapshotRead) {
  LoadInitialData();
  ReaderSession s = engine_->OpenSession();
  EXPECT_EQ(s.session_vn, 1);
  Result<std::vector<Row>> rows = testutil::SnapshotRows(*table_, s);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST_P(VnlTableTest, ReaderSeesPreUpdateVersionDuringMaintenance) {
  LoadInitialData();
  ReaderSession s = engine_->OpenSession();  // VN 1

  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(AddSales(txn, "San Jose", 5000).ok());

  // Uncommitted writes are invisible: the reader still sees 10000.
  Result<std::optional<Row>> row =
      table_->SnapshotLookup(s, DailyKey("San Jose", "golf equip", 14));
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[4].AsInt32(), 10000);

  // The maintenance transaction itself reads the latest version.
  Result<std::optional<Row>> m =
      testutil::CurrentRow(table_, txn, DailyKey("San Jose", "golf equip", 14));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ((**m)[4].AsInt32(), 15000);

  Commit(txn);

  // Even after commit the session keeps reading version 1.
  row = table_->SnapshotLookup(s, DailyKey("San Jose", "golf equip", 14));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((**row)[4].AsInt32(), 10000);

  // A new session sees the new version.
  ReaderSession s2 = engine_->OpenSession();
  row = table_->SnapshotLookup(s2, DailyKey("San Jose", "golf equip", 14));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((**row)[4].AsInt32(), 15000);
}

TEST_P(VnlTableTest, DeleteIsLogicalUntilGc) {
  LoadInitialData();
  ReaderSession old_session = engine_->OpenSession();

  MaintenanceTxn* txn = Begin();
  Result<size_t> n = DeleteCity(txn, "Novato");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
  Commit(txn);

  // Old session still sees the tuple; new session does not.
  Result<std::optional<Row>> old_row = table_->SnapshotLookup(
      old_session, DailyKey("Novato", "rollerblades", 13));
  ASSERT_TRUE(old_row.ok());
  EXPECT_TRUE(old_row->has_value());

  ReaderSession fresh = engine_->OpenSession();
  Result<std::optional<Row>> new_row =
      table_->SnapshotLookup(fresh, DailyKey("Novato", "rollerblades", 13));
  ASSERT_TRUE(new_row.ok());
  EXPECT_FALSE(new_row->has_value());

  // Physically the tuple is still there (logical delete).
  EXPECT_EQ(table_->physical_rows(), 3u);
}

TEST_P(VnlTableTest, InsertDuplicateKeyFails) {
  LoadInitialData();
  MaintenanceTxn* txn = Begin();
  Status s =
      table_->Insert(txn, DailyRow("San Jose", "golf equip", 14, 999));
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  Commit(txn);
}

TEST_P(VnlTableTest, ReinsertAfterDeleteInLaterTxn) {
  LoadInitialData();
  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(DeleteCity(txn, "Novato").ok());
  Commit(txn);

  MaintenanceTxn* txn2 = Begin();
  ASSERT_TRUE(
      table_->Insert(txn2, DailyRow("Novato", "rollerblades", 13, 6000))
          .ok());
  Commit(txn2);

  ReaderSession s = engine_->OpenSession();
  Result<std::optional<Row>> row =
      table_->SnapshotLookup(s, DailyKey("Novato", "rollerblades", 13));
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[4].AsInt32(), 6000);
  // Re-insert reused the physical tuple (a physical update, Table 2 row 1).
  EXPECT_EQ(table_->physical_rows(), 3u);
}

TEST_P(VnlTableTest, NetEffectInsertThenUpdateStaysInsert) {
  LoadInitialData();
  ReaderSession before = engine_->OpenSession();  // VN 1

  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(
      table_->Insert(txn, DailyRow("Oakland", "tents", 16, 100)).ok());
  ASSERT_TRUE(AddSales(txn, "Oakland", 50).ok());
  Commit(txn);

  // Sessions from before the txn must IGNORE the tuple — if the net
  // effect had been recorded as 'update' they would wrongly read PV.
  Result<std::optional<Row>> old_row =
      table_->SnapshotLookup(before, DailyKey("Oakland", "tents", 16));
  ASSERT_TRUE(old_row.ok());
  EXPECT_FALSE(old_row->has_value());

  ReaderSession after = engine_->OpenSession();
  Result<std::optional<Row>> new_row =
      table_->SnapshotLookup(after, DailyKey("Oakland", "tents", 16));
  ASSERT_TRUE(new_row.ok());
  ASSERT_TRUE(new_row->has_value());
  EXPECT_EQ((**new_row)[4].AsInt32(), 150);
}

TEST_P(VnlTableTest, NetEffectInsertThenDeleteVanishes) {
  LoadInitialData();
  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(
      table_->Insert(txn, DailyRow("Oakland", "tents", 16, 100)).ok());
  ASSERT_TRUE(DeleteCity(txn, "Oakland").ok());
  Commit(txn);

  ReaderSession s = engine_->OpenSession();
  Result<std::optional<Row>> row =
      table_->SnapshotLookup(s, DailyKey("Oakland", "tents", 16));
  ASSERT_TRUE(row.ok());
  EXPECT_FALSE(row->has_value());
  EXPECT_EQ(table_->physical_rows(), 3u);  // fully gone
}

TEST_P(VnlTableTest, NetEffectDeleteThenInsertIsUpdate) {
  LoadInitialData();
  ReaderSession before = engine_->OpenSession();  // VN 1

  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(DeleteCity(txn, "Novato").ok());
  ASSERT_TRUE(
      table_->Insert(txn, DailyRow("Novato", "rollerblades", 13, 6000))
          .ok());
  Commit(txn);

  // Old session reads the pre-transaction value (net effect = update).
  Result<std::optional<Row>> old_row =
      table_->SnapshotLookup(before, DailyKey("Novato", "rollerblades", 13));
  ASSERT_TRUE(old_row.ok());
  ASSERT_TRUE(old_row->has_value());
  EXPECT_EQ((**old_row)[4].AsInt32(), 8000);

  ReaderSession after = engine_->OpenSession();
  Result<std::optional<Row>> new_row =
      table_->SnapshotLookup(after, DailyKey("Novato", "rollerblades", 13));
  ASSERT_TRUE(new_row.ok());
  EXPECT_EQ((**new_row)[4].AsInt32(), 6000);
}

TEST_P(VnlTableTest, UpdateTwiceInSameTxnKeepsOriginalPreVersion) {
  LoadInitialData();
  ReaderSession before = engine_->OpenSession();

  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(AddSales(txn, "Berkeley", 1000).ok());
  ASSERT_TRUE(AddSales(txn, "Berkeley", 1000).ok());
  Commit(txn);

  Result<std::optional<Row>> old_row =
      table_->SnapshotLookup(before, DailyKey("Berkeley", "racquetball", 14));
  ASSERT_TRUE(old_row.ok());
  EXPECT_EQ((**old_row)[4].AsInt32(), 12000);  // not 13000

  ReaderSession after = engine_->OpenSession();
  Result<std::optional<Row>> new_row =
      table_->SnapshotLookup(after, DailyKey("Berkeley", "racquetball", 14));
  ASSERT_TRUE(new_row.ok());
  EXPECT_EQ((**new_row)[4].AsInt32(), 14000);
}

TEST_P(VnlTableTest, SessionExpiresAfterTwoOverlapsAtN2) {
  if (GetParam() != 2) GTEST_SKIP() << "2VNL-specific expiration timing";
  LoadInitialData();
  ReaderSession s = engine_->OpenSession();  // VN 1

  // Maintenance txn 2 modifies the tuple; session still fine.
  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(AddSales(txn, "San Jose", 1).ok());
  Commit(txn);
  ASSERT_TRUE(testutil::SnapshotRows(*table_, s).ok());

  // Maintenance txn 3 modifies it again: the session can no longer
  // reconstruct version 1 — tuple-level detection fires.
  MaintenanceTxn* txn3 = Begin();
  ASSERT_TRUE(AddSales(txn3, "San Jose", 1).ok());
  Result<std::vector<Row>> rows = testutil::SnapshotRows(*table_, s);
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kSessionExpired);
  // The global pessimistic check agrees.
  EXPECT_EQ(engine_->CheckSession(s).code(), StatusCode::kSessionExpired);
  Commit(txn3);
}

TEST_P(VnlTableTest, MaintenanceRequiresActiveTxn) {
  LoadInitialData();
  MaintenanceTxn* txn = Begin();
  Commit(txn);
  // txn is no longer active; all maintenance ops must fail.
  EXPECT_EQ(table_->Insert(txn, DailyRow("X", "y", 1, 1)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(AddSales(txn, "X", 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(DeleteCity(txn, "X").status().code(),
            StatusCode::kFailedPrecondition);
}

// A handle stays valid, and inactive, however many transactions have
// finished since: every call through it fails cleanly.
TEST_P(VnlTableTest, StaleHandlesFailWithoutTouchingFreedMemory) {
  std::vector<MaintenanceTxn*> stale;
  for (int i = 0; i < 3; ++i) {
    MaintenanceTxn* txn = Begin();
    stale.push_back(txn);
    if (i == 1) {
      ASSERT_TRUE(engine_->Abort(txn).ok());
    } else {
      Commit(txn);
    }
  }
  MaintenanceTxn* live = Begin();
  // stale[2] is one transaction old, stale[1] two and stale[0] three.
  for (MaintenanceTxn* txn : stale) {
    EXPECT_FALSE(txn->active());
    EXPECT_EQ(table_->Insert(txn, DailyRow("X", "y", 1, 1)).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(engine_->Commit(txn).code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(engine_->Abort(txn).code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_TRUE(live->active());
  Commit(live);
}

// Keys are compared as the bytes their column stores: a probe value the
// key column cannot hold finds nothing, rather than whatever row its
// truncated or reinterpreted bits happen to name.
TEST_P(VnlTableTest, ProbesWithValuesTheKeyCannotHoldFindNothing) {
  Result<VnlTable*> created = engine_->CreateTable(
      "IntKeyed", Schema({Column::Int32("k"), Column::Int64("v", true)}, {0}));
  ASSERT_TRUE(created.ok());
  VnlTable* t = created.value();
  MaintenanceTxn* load = Begin();
  ASSERT_TRUE(t->Insert(load, {Value::Int32(0), Value::Int64(100)}).ok());
  ASSERT_TRUE(t->Insert(load, {Value::Int32(5), Value::Int64(105)}).ok());
  Commit(load);

  const std::vector<Value> unholdable = {
      Value::Double(9.5), Value::Double(7.5), Value::String("x"),
      Value::Int64((1LL << 32) + 5)};
  ReaderSession session = engine_->OpenSession();
  for (const Value& k : unholdable) {
    SCOPED_TRACE(k.ToString());
    Result<std::optional<Row>> found = t->SnapshotLookup(session, {k});
    ASSERT_TRUE(found.ok());
    EXPECT_FALSE(found->has_value());
  }
  MaintenanceTxn* txn = Begin();
  auto bump = [](const Row& row) {
    Row next = row;
    next[1] = Value::Int64(next[1].AsInt64() + 1);
    return next;
  };
  for (const Value& k : unholdable) {
    SCOPED_TRACE(k.ToString());
    Result<bool> updated = testutil::UpdateKey(t, txn, {k}, bump);
    ASSERT_TRUE(updated.ok());
    EXPECT_FALSE(updated.value());
    Result<bool> deleted = testutil::DeleteKey(t, txn, {k});
    ASSERT_TRUE(deleted.ok());
    EXPECT_FALSE(deleted.value());
    Result<std::optional<Row>> current = testutil::CurrentRow(t, txn, {k});
    ASSERT_TRUE(current.ok());
    EXPECT_FALSE(current->has_value());
  }
  // An INT64 in the column's range is the same key.
  Result<bool> updated = testutil::UpdateKey(t, txn, {Value::Int64(5)}, bump);
  ASSERT_TRUE(updated.ok());
  EXPECT_TRUE(updated.value());
  Commit(txn);
  engine_->CloseSession(session);

  ReaderSession after = engine_->OpenSession();
  for (int32_t k : {0, 5}) {
    Result<std::optional<Row>> row =
        t->SnapshotLookup(after, {Value::Int32(k)});
    ASSERT_TRUE(row.ok());
    ASSERT_TRUE(row->has_value());
    EXPECT_EQ((**row)[1].AsInt64(), k == 0 ? 100 : 106);
  }
}

// Every key-addressed write needs a unique key to address: on a keyless
// table it fails with kFailedPrecondition instead of finding no tuple.
TEST_P(VnlTableTest, KeyAddressedWritesNeedAUniqueKey) {
  Result<VnlTable*> created = engine_->CreateTable(
      "Keyless", Schema({Column::Int32("k"), Column::Int64("v", true)}));
  ASSERT_TRUE(created.ok());
  VnlTable* t = created.value();
  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(t->Insert(txn, {Value::Int32(1), Value::Int64(2)}).ok());
  EXPECT_EQ(testutil::SetKey(t, txn, {Value::Int32(1)}, 1, Value::Int64(3))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(testutil::DeleteKey(t, txn, {Value::Int32(1)}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(testutil::CurrentRow(t, txn, {Value::Int32(1)}).status().code(),
            StatusCode::kFailedPrecondition);
  const BatchKeyOp op{{Value::Int32(1)},
                      [](const std::optional<Row>&) -> Result<NetEffect> {
                        return NetEffect::Delete();
                      }};
  EXPECT_EQ(t->ApplyBatch(txn, {op}).status().code(),
            StatusCode::kFailedPrecondition);
  // Nothing was written: the row is still there, once.
  Result<std::vector<Row>> rows = testutil::MaintenanceRows(*t);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  Commit(txn);
}

// ValidateRow turns away values storage would turn into other numbers.
TEST_P(VnlTableTest, InsertRejectsValuesStoredAsOtherNumbers) {
  Result<VnlTable*> created = engine_->CreateTable(
      "IntKeyed", Schema({Column::Int32("k"), Column::Int64("v", true)}, {0}));
  ASSERT_TRUE(created.ok());
  VnlTable* t = created.value();
  MaintenanceTxn* txn = Begin();
  EXPECT_EQ(t->Insert(txn, {Value::Double(7.5), Value::Int64(1)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      t->Insert(txn, {Value::Int64((1LL << 32) + 9), Value::Int64(1)}).code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(t->Insert(txn, {Value::Int32(1), Value::Double(2.0)}).code(),
            StatusCode::kInvalidArgument);
  Result<std::vector<Row>> rows = testutil::MaintenanceRows(*t);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  Commit(txn);
}

// -0.0 and 0.0 are one key, and a NaN key is an ordinary key.
TEST_P(VnlTableTest, SignedZeroAndNaNKeysAreOrdinaryKeys) {
  Result<VnlTable*> created = engine_->CreateTable(
      "DoubleKeyed",
      Schema({Column::Double("k"), Column::Int64("v", true)}, {0}));
  ASSERT_TRUE(created.ok());
  VnlTable* t = created.value();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(t->Insert(txn, {Value::Double(-0.0), Value::Int64(1)}).ok());
  EXPECT_EQ(t->Insert(txn, {Value::Double(0.0), Value::Int64(2)}).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(t->Insert(txn, {Value::Double(nan), Value::Int64(3)}).ok());
  EXPECT_EQ(t->Insert(txn, {Value::Double(-nan), Value::Int64(4)}).code(),
            StatusCode::kAlreadyExists);
  Result<bool> updated =
      testutil::SetKey(t, txn, {Value::Double(nan)}, 1, Value::Int64(30));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_TRUE(updated.value());
  Commit(txn);

  ReaderSession s = engine_->OpenSession();
  for (const auto& [k, v] : std::vector<std::pair<double, int64_t>>{
           {0.0, 1}, {-0.0, 1}, {nan, 30}}) {
    Result<std::optional<Row>> row = t->SnapshotLookup(s, {Value::Double(k)});
    ASSERT_TRUE(row.ok());
    ASSERT_TRUE(row->has_value()) << k;
    EXPECT_EQ((**row)[1].AsInt64(), v);
  }
}

TEST_P(VnlTableTest, SingleWriterEnforced) {
  Result<MaintenanceTxn*> a = engine_->BeginMaintenance();
  ASSERT_TRUE(a.ok());
  Result<MaintenanceTxn*> b = engine_->BeginMaintenance();
  EXPECT_EQ(b.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine_->Commit(a.value()).ok());
}

// An update is a list of edits to updatable columns (§3.1): a SET on any
// other column fails at bind, before any write and whether or not a row
// matches, and a keyed edit of one fails before its tuple is written.
TEST_P(VnlTableTest, UpdateCannotChangeNonUpdatables) {
  LoadInitialData();
  MaintenanceTxn* txn = Begin();
  const std::vector<Row> before = testutil::MaintenanceRows(*table_).value();
  for (const char* sql :
       {"UPDATE DailySales SET city = 'Renamed' WHERE city = 'Novato'",
        "UPDATE DailySales SET total_sales = 1, state = 'NV' "
        "WHERE city = 'Novato'",
        "UPDATE DailySales SET city = 'Renamed' WHERE city = 'Nowhere'"}) {
    SCOPED_TRACE(sql);
    EXPECT_EQ(Exec(txn, sql).status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(testutil::SetKey(table_, txn,
                             DailyKey("Novato", "rollerblades", 13), 0,
                             Value::String("Renamed"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(txn->stats().logical_updates, 0u);
  const std::vector<Row> after = testutil::MaintenanceRows(*table_).value();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(RowToString(after[i]), RowToString(before[i]));
  }
  Commit(txn);
}

// SET and WHERE keep their error codes: an unknown column is kNotFound (at
// bind for a SET target, when a row reaches it in WHERE) and a value its
// column cannot hold is kInvalidArgument.
TEST_P(VnlTableTest, CursorStatementErrors) {
  LoadInitialData();
  MaintenanceTxn* txn = Begin();
  EXPECT_EQ(Exec(txn, "UPDATE DailySales SET nosuch = 1").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Exec(txn, "DELETE FROM DailySales WHERE nosuch = 1")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Exec(txn, "UPDATE DailySales SET total_sales = 3000000000 "
                      "WHERE city = 'Novato'")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Exec(txn, "UPDATE DailySales SET total_sales = 'x' "
                      "WHERE city = 'Novato'")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(txn->stats().logical_updates, 0u);
  EXPECT_EQ(txn->stats().logical_deletes, 0u);
  Commit(txn);
}

// The cursor holds every matching Rid before the first write, so a SET
// that changes what WHERE tests updates each tuple once.
TEST_P(VnlTableTest, CursorIsCollectedBeforeItsWrites) {
  LoadInitialData();
  MaintenanceTxn* txn = Begin();
  Result<size_t> n = Exec(txn, "UPDATE DailySales SET total_sales = "
                               "total_sales + 5000 WHERE total_sales > 0");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 3u);
  Result<std::optional<Row>> row =
      testutil::CurrentRow(table_, txn, DailyKey("Novato", "rollerblades", 13));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((**row)[4].AsInt32(), 13000);
  Commit(txn);
}

// The cursor is a maintenance read: a unique-key WHERE is served by the
// index, and the read counts in the transaction's stats, never in the
// engine's scan metrics.
TEST_P(VnlTableTest, CursorReadsCountInTheTransaction) {
  LoadInitialData();
  const ScanMetrics scans = engine_->scan_metrics();
  MaintenanceTxn* txn = Begin();
  ASSERT_EQ(Exec(txn, "UPDATE DailySales SET total_sales = 1 WHERE city = "
                      "'Novato' AND state = 'CA' AND product_line = "
                      "'rollerblades' AND date = '10/13/96'")
                .value(),
            1u);
  EXPECT_EQ(txn->stats().index_probes, 1u);
  EXPECT_EQ(txn->stats().page_pins, 2u);  // the candidate, then its write
  ASSERT_EQ(DeleteCity(txn, "Berkeley").value(), 1u);
  EXPECT_EQ(txn->stats().index_probes, 1u);  // a heap pass probes nothing
  const ScanMetrics now = engine_->scan_metrics();
  EXPECT_EQ(now.rows_scanned, scans.rows_scanned);
  EXPECT_EQ(now.index_lookups, scans.index_lookups);
  EXPECT_EQ(now.rows_emitted, scans.rows_emitted);
  Commit(txn);
}

// Single-writer cross-check: a tuple stamped with a VN the maintenance
// transaction has not reached means a second writer slipped past
// BeginMaintenance, and the cursor read fails before any write.
TEST_P(VnlTableTest, CursorRejectsTuplesFromTheFuture) {
  LoadInitialData();
  MaintenanceTxn* txn = Begin();
  // Forge what such a writer would leave: Novato stamped VN 99.
  const VersionedSchema& vs = table_->versioned_schema();
  TableHeap* heap = const_cast<TableHeap*>(table_->physical_table().heap());
  Rid novato;
  std::vector<uint8_t> rec(heap->record_size());
  ASSERT_TRUE(heap->Scan([&](Rid rid, const uint8_t* r) {
                    if (vs.RawCurrentLogical(r)[0].AsString() != "Novato") {
                      return true;
                    }
                    novato = rid;
                    std::memcpy(rec.data(), r, rec.size());
                    return false;
                  })
                  .ok());
  vs.SetSlot(rec.data(), 0, 99, Op::kUpdate);
  ASSERT_TRUE(heap->Update(novato, rec.data()).ok());
  EXPECT_EQ(AddSales(txn, "San Jose", 1).status().code(),
            StatusCode::kInternal);
  EXPECT_EQ(DeleteCity(txn, "San Jose").status().code(),
            StatusCode::kInternal);
  EXPECT_EQ(txn->stats().physical_updates, 0u);
  ASSERT_TRUE(engine_->Abort(txn).ok());
}

// A logical insert counts once it is applied: a duplicate key and a
// refused revive leave the counter where it was.
TEST_P(VnlTableTest, RefusedInsertsAreNotCounted) {
  Result<VnlTable*> created = engine_->CreateTable(
      "ksv", Schema({Column::Int64("k"), Column::String("s", 4),
                     Column::Int64("v", /*updatable=*/true)},
                    {0}));
  ASSERT_TRUE(created.ok());
  VnlTable* t = created.value();
  auto row = [](int64_t k, const char* s) {
    return Row{Value::Int64(k), Value::String(s), Value::Int64(1)};
  };
  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(t->Insert(txn, row(1, "a")).ok());
  ASSERT_TRUE(t->Insert(txn, row(2, "a")).ok());
  Commit(txn);
  txn = Begin();
  EXPECT_EQ(t->Insert(txn, row(1, "a")).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(txn->stats().logical_inserts, 0u);
  ASSERT_TRUE(testutil::DeleteKey(t, txn, {Value::Int64(2)}).value());
  EXPECT_EQ(t->Insert(txn, row(2, "b")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(txn->stats().logical_inserts, 0u);
  ASSERT_TRUE(t->Insert(txn, row(2, "a")).ok());
  EXPECT_EQ(txn->stats().logical_inserts, 1u);
  Commit(txn);
}

TEST_P(VnlTableTest, SnapshotSelectRunsAggregates) {
  LoadInitialData();
  ReaderSession s = engine_->OpenSession();
  Result<sql::SelectStmt> stmt = sql::ParseSelect(
      "SELECT city, SUM(total_sales) FROM DailySales GROUP BY city");
  ASSERT_TRUE(stmt.ok());
  Result<query::QueryResult> result = table_->SnapshotSelect(s, *stmt);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0][0].AsString(), "Berkeley");
  EXPECT_EQ(result->rows[0][1].AsInt32(), 12000);
}

TEST_P(VnlTableTest, TxnStatsTrackOperations) {
  LoadInitialData();
  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(table_->Insert(txn, DailyRow("Oakland", "tents", 16, 1)).ok());
  ASSERT_TRUE(AddSales(txn, "San Jose", 1).ok());
  ASSERT_TRUE(DeleteCity(txn, "Novato").ok());
  EXPECT_EQ(txn->stats().logical_inserts, 1u);
  EXPECT_EQ(txn->stats().logical_updates, 1u);
  EXPECT_EQ(txn->stats().logical_deletes, 1u);
  EXPECT_EQ(txn->stats().physical_inserts, 1u);
  // update + delete both become physical updates.
  EXPECT_EQ(txn->stats().physical_updates, 2u);
  Commit(txn);
}

// Concurrency smoke test: a reader repeatedly aggregates its snapshot
// while maintenance churns; the sum must never move mid-session.
TEST_P(VnlTableTest, ReaderIsolationUnderConcurrentMaintenance) {
  LoadInitialData();
  ReaderSession s = engine_->OpenSession();

  Result<sql::SelectStmt> stmt =
      sql::ParseSelect("SELECT SUM(total_sales) FROM DailySales");
  ASSERT_TRUE(stmt.ok());
  Result<query::QueryResult> first = table_->SnapshotSelect(s, *stmt);
  ASSERT_TRUE(first.ok());
  const int64_t expected = first->rows[0][0].AsInt64();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Result<MaintenanceTxn*> txn = engine_->BeginMaintenance();
    ASSERT_TRUE(txn.ok());
    int32_t delta = 1;
    while (!stop.load()) {
      ASSERT_TRUE(
          AddSales(txn.value(), "San Jose", delta)
              .ok());
    }
    ASSERT_TRUE(engine_->Commit(txn.value()).ok());
  });

  for (int i = 0; i < 100; ++i) {
    Result<query::QueryResult> again = table_->SnapshotSelect(s, *stmt);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->rows[0][0].AsInt64(), expected) << "iteration " << i;
  }
  stop.store(true);
  writer.join();
}

// §3.1: pre-update copies exist only for updatable attributes, so every
// version of a tuple reads its non-updatable ones from the one current
// copy, and a re-insert over a logically deleted tuple must keep them.
// Schema (k key, s non-updatable, v updatable), (1, a, 10) committed at
// VN 1 and a session pinned there.
class ReinsertTest : public VnlTableTest {
 protected:
  void SetUp() override {
    Schema schema({Column::Int64("k"), Column::String("s", 4),
                   Column::Int64("v", /*updatable=*/true)},
                  {0});
    ASSERT_TRUE(schema.AddSecondaryIndex("by_s", {"s"}).ok());
    auto table = engine_->CreateTable("ksv", std::move(schema));
    ASSERT_TRUE(table.ok());
    ksv_ = table.value();
    MaintenanceTxn* txn = Begin();
    ASSERT_TRUE(ksv_->Insert(txn, KSV("a", 10)).ok());
    Commit(txn);
    pinned_ = engine_->OpenSession();
  }

  static Row KSV(const char* s, int64_t v) {
    return {Value::Int64(1), Value::String(s), Value::Int64(v)};
  }

  // What `session` reads for key 1 by point lookup and by heap pass (the
  // two must agree); nullopt when it sees no row.
  Result<std::optional<Row>> Read(const ReaderSession& session) {
    Result<std::optional<Row>> point =
        ksv_->SnapshotLookup(session, {Value::Int64(1)});
    Result<std::vector<Row>> rows = testutil::SnapshotRows(*ksv_, session);
    EXPECT_EQ(point.status().code(), rows.status().code());
    if (point.ok() && rows.ok()) {
      EXPECT_EQ(point->has_value(), rows->size() == 1);
      if (point->has_value() && rows->size() == 1) {
        EXPECT_EQ(RowToString(**point), RowToString(rows->front()));
      }
    }
    return point;
  }

  void ExpectReads(const ReaderSession& session,
                   const std::optional<Row>& want) {
    Result<std::optional<Row>> got = Read(session);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->has_value(), want.has_value());
    if (want.has_value()) {
      EXPECT_EQ(RowToString(**got), RowToString(*want));
    }
  }

  // Rows the routed secondary-index read finds for s = `s`.
  size_t RowsWithS(const ReaderSession& session, const char* s) {
    Result<sql::SelectStmt> stmt =
        sql::ParseSelect(StrPrintf("SELECT k FROM ksv WHERE s = '%s'", s));
    WVM_CHECK(stmt.ok());
    Result<query::QueryResult> got = ksv_->SnapshotSelect(session, *stmt);
    WVM_CHECK(got.ok());
    return got->rows.size();
  }

  std::vector<uint8_t> HeapImage() const {
    const TableHeap* heap = ksv_->physical_table().heap();
    std::vector<uint8_t> image;
    WVM_CHECK(heap->Scan([&](Rid, const uint8_t* rec) {
                    image.insert(image.end(), rec, rec + heap->record_size());
                    return true;
                  })
                  .ok());
    return image;
  }

  void ExpectRejected(MaintenanceTxn* txn, const Row& row) {
    const std::vector<uint8_t> before = HeapImage();
    const Status s = ksv_->Insert(txn, row);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    EXPECT_NE(s.message().find("'s'"), std::string::npos) << s.ToString();
    EXPECT_EQ(HeapImage(), before);
  }

  VnlTable* ksv_ = nullptr;
  ReaderSession pinned_;
};

TEST_P(ReinsertTest, SameTxnReinsertCannotRewriteNonUpdatables) {
  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(testutil::DeleteKey(ksv_, txn, {Value::Int64(1)}).value());
  ExpectRejected(txn, KSV("b", 20));
  ExpectReads(pinned_, KSV("a", 10));
  Commit(txn);
  // (1, b, 10) never existed: the older session still reads (1, a, 10).
  ExpectReads(pinned_, KSV("a", 10));
  ExpectReads(engine_->OpenSession(), std::nullopt);
  EXPECT_EQ(RowsWithS(pinned_, "b"), 0u);
}

TEST_P(ReinsertTest, SameTxnReinsertWithEqualNonUpdatablesRevives) {
  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(testutil::DeleteKey(ksv_, txn, {Value::Int64(1)}).value());
  ASSERT_TRUE(ksv_->Insert(txn, KSV("a", 20)).ok());
  ExpectReads(pinned_, KSV("a", 10));
  Commit(txn);
  ExpectReads(pinned_, KSV("a", 10));
  const ReaderSession fresh = engine_->OpenSession();
  ExpectReads(fresh, KSV("a", 20));
  EXPECT_EQ(RowsWithS(fresh, "a"), 1u);
  EXPECT_EQ(ksv_->physical_rows(), 1u);
}

TEST_P(ReinsertTest, LaterTxnReinsertCannotRewriteNonUpdatables) {
  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(testutil::DeleteKey(ksv_, txn, {Value::Int64(1)}).value());
  Commit(txn);
  // For n = 2 too: no reader could see the change there, but the rule is
  // one for every n.
  txn = Begin();
  ExpectRejected(txn, KSV("b", 30));
  Commit(txn);
  // The failed re-insert wrote nothing, so the session two versions back
  // still reads the pre-delete version, inside the §4.1 window or not.
  ExpectReads(pinned_, KSV("a", 10));
  ExpectReads(engine_->OpenSession(), std::nullopt);
  // The corpse stays tombstoned: the pinned session still reads it.
  Result<VnlEngine::GcStats> gc = engine_->CollectGarbage();
  ASSERT_TRUE(gc.ok());
  EXPECT_EQ(gc->tuples_reclaimed, 0u);
  EXPECT_EQ(gc->tuples_pending, 1u);
}

TEST_P(ReinsertTest, LaterTxnReinsertWithEqualNonUpdatablesRevives) {
  MaintenanceTxn* txn = Begin();
  ASSERT_TRUE(testutil::DeleteKey(ksv_, txn, {Value::Int64(1)}).value());
  Commit(txn);
  txn = Begin();
  ASSERT_TRUE(ksv_->Insert(txn, KSV("a", 30)).ok());
  Commit(txn);
  if (GetParam() > 2) {
    ExpectReads(pinned_, KSV("a", 10));
  } else {
    EXPECT_EQ(Read(pinned_).status().code(), StatusCode::kSessionExpired);
  }
  const ReaderSession fresh = engine_->OpenSession();
  ExpectReads(fresh, KSV("a", 30));
  EXPECT_EQ(RowsWithS(fresh, "a"), 1u);
  EXPECT_EQ(ksv_->physical_rows(), 1u);
  // The revive took the tuple out of the tombstone set.
  Result<VnlEngine::GcStats> gc = engine_->CollectGarbage();
  ASSERT_TRUE(gc.ok());
  EXPECT_EQ(gc->tuples_pending, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllN, ReinsertTest, ::testing::Values(2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return StrPrintf("n%d", info.param);
                         });

INSTANTIATE_TEST_SUITE_P(AllN, VnlTableTest, ::testing::Values(2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return StrPrintf("n%d", info.param);
                         });

}  // namespace
}  // namespace wvm::core

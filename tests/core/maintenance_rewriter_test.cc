#include "core/maintenance_rewriter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/vnl_engine.h"
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

class MaintenanceRewriterTest : public ::testing::Test {
 protected:
  MaintenanceRewriterTest() : pool_(256, &disk_) {
    auto engine = VnlEngine::Create(&pool_, 2);
    WVM_CHECK(engine.ok());
    engine_ = std::move(engine).value();
    auto table = engine_->CreateTable("DailySales", DailySales());
    WVM_CHECK(table.ok());
    table_ = table.value();
    rewriter_ = std::make_unique<MaintenanceRewriter>(engine_.get());
  }

  MaintenanceTxn* Begin() {
    auto txn = engine_->BeginMaintenance();
    WVM_CHECK(txn.ok());
    return txn.value();
  }
  void Commit(MaintenanceTxn* txn) { WVM_CHECK(engine_->Commit(txn).ok()); }

  size_t Exec(MaintenanceTxn* txn, const std::string& sql) {
    Result<size_t> r = rewriter_->Execute(txn, sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << sql;
    return r.value_or(0);
  }

  Result<std::optional<Row>> Lookup(const ReaderSession& s, int day) {
    return table_->SnapshotLookup(
        s, {Value::String("San Jose"), Value::String("CA"),
            Value::String("golf equip"), Value::Date(1996, 10, day)});
  }

  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<VnlEngine> engine_;
  VnlTable* table_;
  std::unique_ptr<MaintenanceRewriter> rewriter_;
};

TEST_F(MaintenanceRewriterTest, InsertStatement) {
  MaintenanceTxn* txn = Begin();
  EXPECT_EQ(Exec(txn,
                 "INSERT INTO DailySales VALUES "
                 "('San Jose', 'CA', 'golf equip', '10/14/96', 10000), "
                 "('Berkeley', 'CA', 'racquetball', '10/14/96', 12000)"),
            2u);
  Commit(txn);
  ReaderSession s = engine_->OpenSession();
  Result<std::optional<Row>> row = Lookup(s, 14);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_EQ((**row)[4].AsInt32(), 10000);
}

// Example 4.2's per-row loop: a duplicate key fails at its own row, after
// every row before it has been inserted.
TEST_F(MaintenanceRewriterTest, MultiRowInsertAppliesPrefixBeforeDuplicate) {
  MaintenanceTxn* txn = Begin();
  Result<size_t> r = rewriter_->Execute(
      txn,
      "INSERT INTO DailySales VALUES "
      "('San Jose', 'CA', 'golf equip', '10/14/96', 10), "
      "('Berkeley', 'CA', 'racquetball', '10/14/96', 70), "
      "('San Jose', 'CA', 'golf equip', '10/14/96', 11)");
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  Result<std::vector<Row>> rows = testutil::MaintenanceRows(*table_);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<std::string> cities;
  for (const Row& row : *rows) cities.push_back(row[0].AsString());
  std::sort(cities.begin(), cities.end());
  EXPECT_EQ(cities, (std::vector<std::string>{"Berkeley", "San Jose"}));
  Commit(txn);
}

TEST_F(MaintenanceRewriterTest, InsertWithColumnListFillsNulls) {
  MaintenanceTxn* txn = Begin();
  EXPECT_EQ(Exec(txn,
                 "INSERT INTO DailySales (city, state, product_line, date) "
                 "VALUES ('San Jose', 'CA', 'golf equip', '10/14/96')"),
            1u);
  Commit(txn);
  ReaderSession s = engine_->OpenSession();
  Result<std::optional<Row>> row = Lookup(s, 14);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(row->has_value());
  EXPECT_TRUE((**row)[4].is_null());
}

// Paper Example 4.3: UPDATE ... SET total_sales = total_sales + 1000.
TEST_F(MaintenanceRewriterTest, UpdateStatementExample43) {
  MaintenanceTxn* load = Begin();
  Exec(load,
       "INSERT INTO DailySales VALUES "
       "('San Jose', 'CA', 'golf equip', '10/13/96', 5000), "
       "('San Jose', 'CA', 'skis', '10/13/96', 7000), "
       "('Berkeley', 'CA', 'golf equip', '10/13/96', 9000)");
  Commit(load);
  ReaderSession before = engine_->OpenSession();

  MaintenanceTxn* txn = Begin();
  EXPECT_EQ(Exec(txn,
                 "UPDATE DailySales SET total_sales = total_sales + 1000 "
                 "WHERE city = 'San Jose' AND date = '10/13/96'"),
            2u);
  Commit(txn);

  // The pre-update version is intact for the old session.
  Result<std::optional<Row>> old_row = Lookup(before, 13);
  ASSERT_TRUE(old_row.ok());
  EXPECT_EQ((**old_row)[4].AsInt32(), 5000);

  ReaderSession after = engine_->OpenSession();
  Result<std::optional<Row>> new_row = Lookup(after, 13);
  ASSERT_TRUE(new_row.ok());
  EXPECT_EQ((**new_row)[4].AsInt32(), 6000);
}

// Paper Example 4.4: DELETE ... WHERE city and date match.
TEST_F(MaintenanceRewriterTest, DeleteStatementExample44) {
  MaintenanceTxn* load = Begin();
  Exec(load,
       "INSERT INTO DailySales VALUES "
       "('San Jose', 'CA', 'golf equip', '10/13/96', 5000), "
       "('Berkeley', 'CA', 'golf equip', '10/13/96', 9000)");
  Commit(load);
  ReaderSession before = engine_->OpenSession();

  MaintenanceTxn* txn = Begin();
  EXPECT_EQ(Exec(txn,
                 "DELETE FROM DailySales "
                 "WHERE city = 'San Jose' AND date = '10/13/96'"),
            1u);
  Commit(txn);

  Result<std::optional<Row>> old_row = Lookup(before, 13);
  ASSERT_TRUE(old_row.ok());
  EXPECT_TRUE(old_row->has_value());  // pre-delete version visible

  ReaderSession after = engine_->OpenSession();
  Result<std::optional<Row>> gone = Lookup(after, 13);
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(gone->has_value());
}

// SQL DELETE then INSERT of one key is a Table-2 revive, within one
// transaction (nets to update) or across two (nets to insert). Example
// 4.2's conflicting-tuple branch sets only r.<updatable>: the re-inserted
// row must carry the tuple's non-updatable values (§3.1).
TEST_F(MaintenanceRewriterTest, DeleteThenInsertIsARevive) {
  ASSERT_TRUE(engine_
                  ->CreateTable("Stores",
                                Schema({Column::Int64("id"),
                                        Column::String("region", 4),
                                        Column::Int64("sales", true)},
                                       {0}))
                  .ok());
  MaintenanceTxn* txn = Begin();
  Exec(txn,
       "INSERT INTO DailySales VALUES "
       "('San Jose', 'CA', 'golf equip', '10/13/96', 5000)");
  Exec(txn, "INSERT INTO Stores VALUES (1, 'W', 10), (2, 'E', 20)");
  Commit(txn);
  ReaderSession before = engine_->OpenSession();

  txn = Begin();
  EXPECT_EQ(Exec(txn, "DELETE FROM DailySales WHERE city = 'San Jose'"), 1u);
  EXPECT_EQ(Exec(txn,
                 "INSERT INTO DailySales VALUES "
                 "('San Jose', 'CA', 'golf equip', '10/13/96', 6000)"),
            1u);
  EXPECT_EQ(Exec(txn, "DELETE FROM Stores WHERE id = 1"), 1u);
  EXPECT_EQ(rewriter_->Execute(txn, "INSERT INTO Stores VALUES (1, 'E', 11)")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Exec(txn, "INSERT INTO Stores VALUES (1, 'W', 11)"), 1u);
  EXPECT_EQ(Exec(txn, "DELETE FROM Stores WHERE id = 2"), 1u);
  Commit(txn);

  txn = Begin();
  EXPECT_EQ(rewriter_->Execute(txn, "INSERT INTO Stores VALUES (2, 'W', 21)")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Exec(txn, "INSERT INTO Stores VALUES (2, 'E', 21)"), 1u);
  Commit(txn);

  Result<std::optional<Row>> old_row = Lookup(before, 13);
  ASSERT_TRUE(old_row.ok());
  EXPECT_EQ((**old_row)[4].AsInt32(), 5000);
  ReaderSession after = engine_->OpenSession();
  Result<std::optional<Row>> new_row = Lookup(after, 13);
  ASSERT_TRUE(new_row.ok());
  EXPECT_EQ((**new_row)[4].AsInt32(), 6000);
  VnlTable* stores = engine_->GetTable("Stores").value();
  Result<std::vector<Row>> rows = testutil::SnapshotRows(*stores, after);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ(RowToString((*rows)[0]), "(1, W, 11)");
  EXPECT_EQ(RowToString((*rows)[1]), "(2, E, 21)");
  EXPECT_EQ(stores->physical_rows(), 2u);
}

TEST_F(MaintenanceRewriterTest, ParamsAreBound) {
  MaintenanceTxn* txn = Begin();
  Result<size_t> r = rewriter_->Execute(
      txn,
      "INSERT INTO DailySales VALUES "
      "('San Jose', 'CA', 'golf equip', '10/14/96', :amount)",
      {{"amount", Value::Int32(4242)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Commit(txn);
  ReaderSession s = engine_->OpenSession();
  Result<std::optional<Row>> row = Lookup(s, 14);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((**row)[4].AsInt32(), 4242);
}

TEST_F(MaintenanceRewriterTest, SelectIsRejected) {
  MaintenanceTxn* txn = Begin();
  Result<size_t> r =
      rewriter_->Execute(txn, "SELECT * FROM DailySales");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  Commit(txn);
}

TEST_F(MaintenanceRewriterTest, ErrorsSurface) {
  MaintenanceTxn* txn = Begin();
  // Unknown table.
  EXPECT_FALSE(rewriter_->Execute(txn, "DELETE FROM Nope").ok());
  // Arity mismatch.
  EXPECT_FALSE(
      rewriter_->Execute(txn, "INSERT INTO DailySales VALUES (1)").ok());
  // Unknown SET column.
  EXPECT_FALSE(
      rewriter_->Execute(txn, "UPDATE DailySales SET bogus = 1").ok());
  Commit(txn);
}

// An INT64 that does not fit an INT32 column is rejected, never stored
// wrapped: INSERT VALUES and UPDATE ... SET alike.
TEST_F(MaintenanceRewriterTest, OutOfRangeInt32IsRejected) {
  MaintenanceTxn* txn = Begin();
  Result<size_t> insert = rewriter_->Execute(
      txn,
      "INSERT INTO DailySales VALUES "
      "('San Jose', 'CA', 'golf equip', '10/14/96', 3000000000)");
  EXPECT_EQ(insert.status().code(), StatusCode::kInvalidArgument)
      << insert.status().ToString();
  EXPECT_EQ(Exec(txn,
                 "INSERT INTO DailySales VALUES "
                 "('San Jose', 'CA', 'golf equip', '10/14/96', 2147483647)"),
            1u);
  Result<size_t> update = rewriter_->Execute(
      txn, "UPDATE DailySales SET total_sales = total_sales + 1");
  EXPECT_EQ(update.status().code(), StatusCode::kInvalidArgument)
      << update.status().ToString();
  update = rewriter_->Execute(
      txn, "UPDATE DailySales SET total_sales = -3000000000");
  EXPECT_EQ(update.status().code(), StatusCode::kInvalidArgument)
      << update.status().ToString();
  Commit(txn);

  // Nothing wrapped reached the table: the one row holds INT32_MAX.
  ReaderSession s = engine_->OpenSession();
  Result<std::optional<Row>> row = Lookup(s, 14);
  ASSERT_TRUE(row.ok() && row->has_value());
  EXPECT_EQ((**row)[4].AsInt32(), 2147483647);
}

TEST_F(MaintenanceRewriterTest, ExplainUpdateMatchesExample43Shape) {
  Result<std::string> plan = rewriter_->Explain(
      "UPDATE DailySales SET total_sales = total_sales + 1000 "
      "WHERE city = 'San Jose' AND date = '10/13/96'");
  ASSERT_TRUE(plan.ok());
  const std::string& text = plan.value();
  EXPECT_NE(text.find("For each tuple r in"), std::string::npos);
  EXPECT_NE(text.find("SELECT * FROM DailySales WHERE city = 'San Jose' "
                      "AND date = '10/13/96'"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("If r.tupleVN < :maintenanceVN"), std::string::npos);
  EXPECT_NE(text.find("set r.pre_total_sales = r.total_sales"),
            std::string::npos);
  EXPECT_NE(text.find("set r.total_sales = total_sales + 1000"),
            std::string::npos);
  EXPECT_NE(text.find("line 1 in Table 3"), std::string::npos);
  EXPECT_NE(text.find("line 2 in Table 3"), std::string::npos);
}

TEST_F(MaintenanceRewriterTest, ExplainInsertAndDelete) {
  Result<std::string> ins = rewriter_->Explain(
      "INSERT INTO DailySales VALUES "
      "('San Jose', 'CA', 'golf equip', '10/14/96', 10000)");
  ASSERT_TRUE(ins.ok());
  EXPECT_NE(ins->find("unique key conflict"), std::string::npos);
  EXPECT_NE(ins->find("line 3 in Table 2"), std::string::npos);

  Result<std::string> del = rewriter_->Explain(
      "DELETE FROM DailySales WHERE city = 'San Jose'");
  ASSERT_TRUE(del.ok());
  EXPECT_NE(del->find("set r.operation = 'delete'"), std::string::npos);
  EXPECT_NE(del->find("If r.operation = 'insert'"), std::string::npos);
  EXPECT_NE(del->find("Delete r"), std::string::npos);
}

}  // namespace
}  // namespace wvm::core

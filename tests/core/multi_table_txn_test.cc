// A maintenance transaction spans every table of the warehouse (the
// paper's warehouse holds "many materialized views"): all tables switch
// versions atomically at commit, and rollback reverts all of them.
#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/maintenance_rewriter.h"
#include "core/vnl_engine.h"

namespace wvm::core {
namespace {

Schema SalesSchema() {
  return Schema({Column::String("city", 16),
                 Column::Int64("total_sales", true)},
                {0});
}
Schema ReturnsSchema() {
  return Schema({Column::String("city", 16),
                 Column::Int64("total_returns", true)},
                {0});
}

class MultiTableTxnTest : public ::testing::Test {
 protected:
  MultiTableTxnTest() : pool_(256, &disk_) {
    auto engine = VnlEngine::Create(&pool_, 2);
    WVM_CHECK(engine.ok());
    engine_ = std::move(engine).value();
    sales_ = engine_->CreateTable("sales", SalesSchema()).value();
    returns_ = engine_->CreateTable("returns", ReturnsSchema()).value();

    MaintenanceTxn* load = engine_->BeginMaintenance().value();
    WVM_CHECK(sales_->Insert(load, {Value::String("San Jose"),
                                    Value::Int64(100)}).ok());
    WVM_CHECK(returns_->Insert(load, {Value::String("San Jose"),
                                      Value::Int64(10)}).ok());
    WVM_CHECK(engine_->Commit(load).ok());
  }

  // One maintenance statement in `txn`; the rewriter routes it to its
  // table by name. True when it touches exactly one tuple.
  bool Exec(MaintenanceTxn* txn, const std::string& sql) {
    Result<size_t> n = MaintenanceRewriter(engine_.get()).Execute(txn, sql);
    return n.ok() && *n == 1;
  }

  std::pair<int64_t, int64_t> ReadBoth(const ReaderSession& s) {
    Result<std::optional<Row>> sales =
        sales_->SnapshotLookup(s, {Value::String("San Jose")});
    Result<std::optional<Row>> returns =
        returns_->SnapshotLookup(s, {Value::String("San Jose")});
    WVM_CHECK(sales.ok() && returns.ok());
    return {(**sales)[1].AsInt64(), (**returns)[1].AsInt64()};
  }

  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<VnlEngine> engine_;
  VnlTable* sales_;
  VnlTable* returns_;
};

// Both views flip to the new version at the same commit — a session never
// sees day-N sales with day-(N-1) returns.
TEST_F(MultiTableTxnTest, TablesSwitchVersionsAtomically) {
  ReaderSession before = engine_->OpenSession();

  MaintenanceTxn* txn = engine_->BeginMaintenance().value();
  ASSERT_TRUE(Exec(txn, "UPDATE sales SET total_sales = total_sales + 50 "
                        "WHERE city = 'San Jose'"));
  // Mid-transaction: the open session sees the OLD pair from both tables.
  EXPECT_EQ(ReadBoth(before), std::make_pair(int64_t{100}, int64_t{10}));
  ASSERT_TRUE(Exec(txn, "UPDATE returns SET total_returns = total_returns "
                        "+ 5 WHERE city = 'San Jose'"));
  ASSERT_TRUE(engine_->Commit(txn).ok());

  // Old session: still the old pair. New session: the new pair.
  EXPECT_EQ(ReadBoth(before), std::make_pair(int64_t{100}, int64_t{10}));
  ReaderSession after = engine_->OpenSession();
  EXPECT_EQ(ReadBoth(after), std::make_pair(int64_t{150}, int64_t{15}));
}

TEST_F(MultiTableTxnTest, AbortRevertsEveryTable) {
  MaintenanceTxn* txn = engine_->BeginMaintenance().value();
  ASSERT_TRUE(Exec(txn, "UPDATE sales SET total_sales = total_sales + 999 "
                        "WHERE city = 'San Jose'"));
  ASSERT_TRUE(returns_->Insert(txn, {Value::String("Berkeley"),
                                     Value::Int64(7)}).ok());
  ASSERT_TRUE(engine_->Abort(txn).ok());

  ReaderSession s = engine_->OpenSession();
  EXPECT_EQ(ReadBoth(s), std::make_pair(int64_t{100}, int64_t{10}));
  Result<std::optional<Row>> berkeley =
      returns_->SnapshotLookup(s, {Value::String("Berkeley")});
  ASSERT_TRUE(berkeley.ok());
  EXPECT_FALSE(berkeley->has_value());
}

TEST_F(MultiTableTxnTest, GcSweepsAllTables) {
  MaintenanceTxn* txn = engine_->BeginMaintenance().value();
  ASSERT_TRUE(Exec(txn, "DELETE FROM sales WHERE city = 'San Jose'"));
  ASSERT_TRUE(Exec(txn, "DELETE FROM returns WHERE city = 'San Jose'"));
  ASSERT_TRUE(engine_->Commit(txn).ok());

  VnlEngine::GcStats stats = engine_->CollectGarbage().value();
  EXPECT_EQ(stats.tuples_reclaimed, 2u);
  EXPECT_EQ(sales_->physical_rows(), 0u);
  EXPECT_EQ(returns_->physical_rows(), 0u);
}

}  // namespace
}  // namespace wvm::core

// nVNL (§5): Figure 7, Example 5.1, and the n = 2 equivalence property.
#include <gtest/gtest.h>

#include <map>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/maintenance_rewriter.h"
#include "core/vnl_engine.h"
#include "tests/support/row_reference.h"
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

Row GolfRow(int32_t sales) {
  return {Value::String("San Jose"), Value::String("CA"),
          Value::String("golf equip"), Value::Date(1996, 10, 14),
          Value::Int32(sales)};
}

Row GolfKey() {
  return {Value::String("San Jose"), Value::String("CA"),
          Value::String("golf equip"), Value::Date(1996, 10, 14)};
}

// The San Jose golf tuples, as a §4.2 cursor WHERE.
constexpr const char* kGolf =
    "WHERE city = 'San Jose' AND product_line = 'golf equip'";

class NVnlTest : public ::testing::Test {
 protected:
  NVnlTest() : pool_(512, &disk_) {}

  void MakeEngine(int n) {
    auto engine = VnlEngine::Create(&pool_, n);
    WVM_CHECK(engine.ok());
    engine_ = std::move(engine).value();
    auto table = engine_->CreateTable("DailySales", DailySales());
    WVM_CHECK(table.ok());
    table_ = table.value();
  }

  // Runs one §4.2 maintenance statement in `txn`.
  bool Exec(MaintenanceTxn* txn, const std::string& sql) {
    return MaintenanceRewriter(engine_.get()).Execute(txn, sql).ok();
  }

  MaintenanceTxn* Begin() {
    auto txn = engine_->BeginMaintenance();
    WVM_CHECK(txn.ok());
    return txn.value();
  }
  void Commit(MaintenanceTxn* txn) { WVM_CHECK(engine_->Commit(txn).ok()); }
  void EmptyTxn() { Commit(Begin()); }

  // Drives the 4VNL engine through Example 5.1's history:
  // insert@3 (10,000), update@5 (10,200), delete@6.
  void BuildExample51() {
    MakeEngine(4);
    EmptyTxn();  // VN 1
    EmptyTxn();  // VN 2
    MaintenanceTxn* t3 = Begin();
    ASSERT_TRUE(table_->Insert(t3, GolfRow(10000)).ok());
    Commit(t3);
    EmptyTxn();  // VN 4
    MaintenanceTxn* t5 = Begin();
    ASSERT_TRUE(Exec(t5, StrPrintf("UPDATE DailySales SET total_sales = "
                                   "10200 %s",
                                   kGolf)));
    Commit(t5);
    MaintenanceTxn* t6 = Begin();
    ASSERT_TRUE(Exec(t6, StrPrintf("DELETE FROM DailySales %s", kGolf)));
    Commit(t6);
  }

  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<VnlEngine> engine_;
  VnlTable* table_ = nullptr;
};

// Figure 7: the physical 4VNL tuple after insert@3, update@5, delete@6.
TEST_F(NVnlTest, Figure7TupleState) {
  BuildExample51();
  const VersionedSchema& vs = table_->versioned_schema();
  std::vector<Row> rows = table_->physical_table().AllRows().value();
  ASSERT_EQ(rows.size(), 1u);
  const Row& t = rows[0];

  EXPECT_EQ(t[0].AsString(), "San Jose");
  EXPECT_EQ(t[4].AsInt32(), 10200);  // total_sales (current)

  EXPECT_EQ(rowref::TupleVn(vs, t, 0), 6);
  EXPECT_EQ(rowref::Operation(vs, t, 0).value(), Op::kDelete);
  EXPECT_EQ(t[vs.PreIndex(0, 0)].AsInt32(), 10200);  // pre_total_sales1

  EXPECT_EQ(rowref::TupleVn(vs, t, 1), 5);
  EXPECT_EQ(rowref::Operation(vs, t, 1).value(), Op::kUpdate);
  EXPECT_EQ(t[vs.PreIndex(0, 1)].AsInt32(), 10000);  // pre_total_sales2

  EXPECT_EQ(rowref::TupleVn(vs, t, 2), 3);
  EXPECT_EQ(rowref::Operation(vs, t, 2).value(), Op::kInsert);
  EXPECT_TRUE(t[vs.PreIndex(0, 2)].is_null());  // pre_total_sales3
}

// Example 5.1's reader visibility analysis, session VN by session VN.
TEST_F(NVnlTest, Example51ReaderVisibility) {
  BuildExample51();
  auto lookup_at = [&](Vn vn) {
    ReaderSession s;
    s.session_vn = vn;
    return table_->SnapshotLookup(s, GolfKey());
  };

  // sessionVN >= 6: the tuple is deleted — ignored.
  for (Vn vn : {6, 7}) {
    Result<std::optional<Row>> r = lookup_at(vn);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->has_value()) << "VN " << vn;
  }
  // sessionVN = 5: pre version of slot VN6 -> 10,200.
  {
    Result<std::optional<Row>> r = lookup_at(5);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->has_value());
    EXPECT_EQ((**r)[4].AsInt32(), 10200);
  }
  // sessionVN in {3, 4}: logical tuple with total_sales = 10,000.
  for (Vn vn : {3, 4}) {
    Result<std::optional<Row>> r = lookup_at(vn);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->has_value()) << "VN " << vn;
    EXPECT_EQ((**r)[4].AsInt32(), 10000) << "VN " << vn;
  }
  // sessionVN = 2: the tuple did not exist yet — ignored.
  {
    Result<std::optional<Row>> r = lookup_at(2);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->has_value());
  }
  // sessionVN < 2: expired.
  {
    Result<std::optional<Row>> r = lookup_at(1);
    EXPECT_EQ(r.status().code(), StatusCode::kSessionExpired);
  }
}

// §5's guarantee: under nVNL a session survives n-1 overlapping
// maintenance transactions on the same tuple; under 2VNL only one.
TEST_F(NVnlTest, SessionSurvivesNMinusOneOverlaps) {
  for (int n : {2, 3, 4}) {
    MakeEngine(n);
    MaintenanceTxn* load = Begin();
    ASSERT_TRUE(table_->Insert(load, GolfRow(100)).ok());
    Commit(load);

    ReaderSession s = engine_->OpenSession();  // VN 1
    // n-1 further maintenance txns each touch the tuple.
    for (int i = 0; i < n - 1; ++i) {
      MaintenanceTxn* txn = Begin();
      ASSERT_TRUE(Exec(txn, StrPrintf("UPDATE DailySales SET total_sales = "
                                      "total_sales + 1 %s",
                                      kGolf)));
      Commit(txn);
      Result<std::optional<Row>> r = table_->SnapshotLookup(s, GolfKey());
      ASSERT_TRUE(r.ok()) << "n=" << n << " overlap " << i + 1 << ": "
                          << r.status().ToString();
      EXPECT_EQ((**r)[4].AsInt32(), 100) << "n=" << n;
    }
    // One more pushes the session over the edge.
    MaintenanceTxn* txn = Begin();
    ASSERT_TRUE(Exec(txn, StrPrintf("UPDATE DailySales SET total_sales = 0 %s",
                                    kGolf)));
    Commit(txn);
    Result<std::optional<Row>> r = table_->SnapshotLookup(s, GolfKey());
    EXPECT_EQ(r.status().code(), StatusCode::kSessionExpired)
        << "n=" << n;
  }
}

// Randomized equivalence: every (n, session) pair reconstructs the same
// logical state that a reference map-of-versions model predicts.
TEST_F(NVnlTest, RandomHistoryMatchesReferenceModel) {
  constexpr int kRounds = 10;
  for (int n : {2, 3, 4, 5}) {
    MakeEngine(n);
    Rng rng(99 + n);
    // Reference: logical state (key day -> sales) after each committed VN.
    std::vector<std::map<int, int32_t>> states;  // states[vn]
    states.push_back({});                        // VN 0: empty
    std::map<int, int32_t> current;

    for (int round = 1; round <= kRounds; ++round) {
      MaintenanceTxn* txn = Begin();
      const int ops = static_cast<int>(rng.Uniform(1, 5));
      for (int i = 0; i < ops; ++i) {
        const int day = static_cast<int>(rng.Uniform(10, 14));
        Row row = {Value::String("San Jose"), Value::String("CA"),
                   Value::String("golf equip"), Value::Date(1996, 10, day),
                   Value::Int32(static_cast<int32_t>(
                       rng.Uniform(1, 10000)))};
        const int choice = static_cast<int>(rng.Uniform(0, 2));
        const std::string where = StrPrintf("WHERE date = '10/%d/96'", day);
        if (choice == 0 && current.count(day) == 0) {
          ASSERT_TRUE(table_->Insert(txn, row).ok());
          current[day] = row[4].AsInt32();
        } else if (choice == 1 && current.count(day) > 0) {
          const int32_t v = row[4].AsInt32();
          ASSERT_TRUE(Exec(txn, StrPrintf("UPDATE DailySales SET total_sales = "
                                          "%d %s",
                                          v, where.c_str())));
          current[day] = v;
        } else if (choice == 2 && current.count(day) > 0) {
          ASSERT_TRUE(Exec(
              txn, StrPrintf("DELETE FROM DailySales %s", where.c_str())));
          current.erase(day);
        }
      }
      Commit(txn);
      states.push_back(current);

      // Check every representable session version against the model.
      for (Vn vn = 1; vn <= round; ++vn) {
        ReaderSession s;
        s.session_vn = vn;
        Result<std::vector<Row>> rows = testutil::SnapshotRows(*table_, s);
        if (!rows.ok()) {
          ASSERT_EQ(rows.status().code(), StatusCode::kSessionExpired);
          // Expiration can only strike sessions older than n-1 commits.
          EXPECT_LT(vn, static_cast<Vn>(round) - (n - 2)) << "n=" << n;
          continue;
        }
        std::map<int, int32_t> got;
        for (const Row& row : *rows) {
          got[row[3].AsDateRaw() % 100] = row[4].AsInt32();
        }
        EXPECT_EQ(got, states[static_cast<size_t>(vn)])
            << "n=" << n << " sessionVN=" << vn << " round=" << round;
      }
    }
  }
}

}  // namespace
}  // namespace wvm::core

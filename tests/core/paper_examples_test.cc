// Reproduces the paper's worked examples exactly:
//   Figure 4  — DailySales under the widened schema
//   Example 3.2 — what a sessionVN=3 reader returns from Figure 4
//   Figure 5  — the maintenanceVN=5 transaction
//   Figure 6  — DailySales after that transaction
#include <gtest/gtest.h>

#include <algorithm>

#include "common/logging.h"
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

Row DailyRow(const std::string& city, const std::string& pl, int day,
             int32_t sales) {
  return {Value::String(city), Value::String("CA"), Value::String(pl),
          Value::Date(1996, 10, day), Value::Int32(sales)};
}

// One expected physical tuple of Figures 4/6, in paper column order.
struct PaperTuple {
  Vn tuple_vn;
  Op op;
  std::string city;
  std::string product_line;
  int day;
  int32_t total_sales;
  std::optional<int32_t> pre_total_sales;  // nullopt = null
};

class PaperExamplesTest : public ::testing::Test {
 protected:
  PaperExamplesTest() : pool_(256, &disk_) {
    auto engine = VnlEngine::Create(&pool_, 2);
    WVM_CHECK(engine.ok());
    engine_ = std::move(engine).value();
    auto table = engine_->CreateTable("DailySales", DailySales());
    WVM_CHECK(table.ok());
    table_ = table.value();
  }

  MaintenanceTxn* Begin() {
    auto txn = engine_->BeginMaintenance();
    WVM_CHECK(txn.ok());
    return txn.value();
  }
  void Commit(MaintenanceTxn* txn) { WVM_CHECK(engine_->Commit(txn).ok()); }
  void EmptyTxn() { Commit(Begin()); }

  // The cursor statements of Examples 4.3 and 4.4, as SQL through the
  // maintenance rewriter: true when they touch exactly one tuple.
  bool SetSales(MaintenanceTxn* t, const char* city, const char* pl, int day,
                int32_t sales) {
    return Exec(t, StrPrintf("UPDATE DailySales SET total_sales = %d WHERE "
                             "city = '%s' AND product_line = '%s' AND "
                             "date = '10/%d/96'",
                             sales, city, pl, day));
  }
  bool Remove(MaintenanceTxn* t, const char* city, const char* pl, int day) {
    return Exec(t, StrPrintf("DELETE FROM DailySales WHERE city = '%s' AND "
                             "product_line = '%s' AND date = '10/%d/96'",
                             city, pl, day));
  }
  bool Exec(MaintenanceTxn* t, const std::string& sql) {
    Result<size_t> n = MaintenanceRewriter(engine_.get()).Execute(t, sql);
    return n.ok() && *n == 1;
  }

  // Drives the relation to exactly the Figure 4 state.
  void BuildFigure4() {
    EmptyTxn();  // VN 1
    EmptyTxn();  // VN 2
    MaintenanceTxn* t3 = Begin();  // VN 3
    ASSERT_TRUE(
        table_->Insert(t3, DailyRow("San Jose", "golf equip", 14, 10000))
            .ok());
    ASSERT_TRUE(
        table_->Insert(t3, DailyRow("Berkeley", "racquetball", 14, 10000))
            .ok());
    ASSERT_TRUE(
        table_->Insert(t3, DailyRow("Novato", "rollerblades", 13, 8000))
            .ok());
    Commit(t3);
    MaintenanceTxn* t4 = Begin();  // VN 4
    ASSERT_TRUE(
        table_->Insert(t4, DailyRow("San Jose", "golf equip", 15, 1500))
            .ok());
    ASSERT_TRUE(SetSales(t4, "Berkeley", "racquetball", 14, 12000));
    ASSERT_TRUE(Remove(t4, "Novato", "rollerblades", 13));
    Commit(t4);
  }

  void ExpectPhysicalState(std::vector<PaperTuple> expected) {
    const VersionedSchema& vs = table_->versioned_schema();
    std::vector<Row> phys = table_->physical_table().AllRows().value();
    ASSERT_EQ(phys.size(), expected.size());
    for (const Row& row : phys) {
      const std::string city = row[0].AsString();
      const std::string pl = row[2].AsString();
      const int day = row[3].AsDateRaw() % 100;
      auto it = std::find_if(
          expected.begin(), expected.end(), [&](const PaperTuple& t) {
            return t.city == city && t.product_line == pl && t.day == day;
          });
      ASSERT_NE(it, expected.end())
          << "unexpected tuple " << RowToString(row);
      EXPECT_EQ(rowref::TupleVn(vs, row, 0), it->tuple_vn) << city << " " << day;
      EXPECT_EQ(rowref::Operation(vs, row, 0).value(), it->op) << city << " " << day;
      EXPECT_EQ(row[4].AsInt32(), it->total_sales) << city << " " << day;
      const Value& pre = row[vs.PreIndex(0, 0)];
      if (it->pre_total_sales.has_value()) {
        ASSERT_FALSE(pre.is_null()) << city << " " << day;
        EXPECT_EQ(pre.AsInt32(), *it->pre_total_sales) << city << " " << day;
      } else {
        EXPECT_TRUE(pre.is_null()) << city << " " << day;
      }
      expected.erase(it);
    }
    EXPECT_TRUE(expected.empty());
  }

  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<VnlEngine> engine_;
  VnlTable* table_;
};

TEST_F(PaperExamplesTest, Figure4State) {
  BuildFigure4();
  ExpectPhysicalState({
      {3, Op::kInsert, "San Jose", "golf equip", 14, 10000, std::nullopt},
      {4, Op::kInsert, "San Jose", "golf equip", 15, 1500, std::nullopt},
      {4, Op::kUpdate, "Berkeley", "racquetball", 14, 12000, 10000},
      {4, Op::kDelete, "Novato", "rollerblades", 13, 8000, 8000},
  });
}

// Example 3.2: a reader with sessionVN = 3 sees exactly these tuples.
TEST_F(PaperExamplesTest, Example32ReaderAtSession3) {
  BuildFigure4();
  ReaderSession s;
  s.session_vn = 3;  // the paper pins the session at VN 3
  Result<std::vector<Row>> rows = testutil::SnapshotRows(*table_, s);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);

  auto find = [&](const std::string& city) -> const Row* {
    for (const Row& row : *rows) {
      if (row[0].AsString() == city) return &row;
    }
    return nullptr;
  };
  const Row* sj = find("San Jose");
  ASSERT_NE(sj, nullptr);
  EXPECT_EQ((*sj)[2].AsString(), "golf equip");
  EXPECT_EQ((*sj)[3].ToString(), "10/14/96");
  EXPECT_EQ((*sj)[4].AsInt32(), 10000);

  const Row* berkeley = find("Berkeley");
  ASSERT_NE(berkeley, nullptr);
  EXPECT_EQ((*berkeley)[4].AsInt32(), 10000);  // pre-update value

  const Row* novato = find("Novato");
  ASSERT_NE(novato, nullptr);
  EXPECT_EQ((*novato)[4].AsInt32(), 8000);  // pre-delete value
}

// Figure 5's maintenance transaction applied to Figure 4 yields Figure 6.
TEST_F(PaperExamplesTest, Figure5TransactionProducesFigure6) {
  BuildFigure4();
  MaintenanceTxn* t5 = Begin();  // maintenanceVN = 5
  ASSERT_EQ(t5->vn(), 5);
  ASSERT_TRUE(
      table_->Insert(t5, DailyRow("San Jose", "golf equip", 16, 11000))
          .ok());
  ASSERT_TRUE(
      table_->Insert(t5, DailyRow("Novato", "rollerblades", 13, 6000))
          .ok());
  ASSERT_TRUE(SetSales(t5, "San Jose", "golf equip", 14, 10200));
  ASSERT_TRUE(
      Remove(t5, "Berkeley", "racquetball", 14));
  Commit(t5);

  ExpectPhysicalState({
      {5, Op::kUpdate, "San Jose", "golf equip", 14, 10200, 10000},
      {4, Op::kInsert, "San Jose", "golf equip", 15, 1500, std::nullopt},
      {5, Op::kDelete, "Berkeley", "racquetball", 14, 12000, 12000},
      {5, Op::kInsert, "Novato", "rollerblades", 13, 6000, std::nullopt},
      {5, Op::kInsert, "San Jose", "golf equip", 16, 11000, std::nullopt},
  });
}

// Cross-check: after Figure 5, a session at VN 4 still reconstructs the
// Figure 4 logical state, and a session at VN 5 sees the new state.
TEST_F(PaperExamplesTest, SessionsStraddlingFigure5) {
  BuildFigure4();
  ReaderSession at4 = engine_->OpenSession();
  ASSERT_EQ(at4.session_vn, 4);

  MaintenanceTxn* t5 = Begin();
  ASSERT_TRUE(
      table_->Insert(t5, DailyRow("San Jose", "golf equip", 16, 11000))
          .ok());
  ASSERT_TRUE(SetSales(t5, "San Jose", "golf equip", 14, 10200));
  ASSERT_TRUE(
      Remove(t5, "Berkeley", "racquetball", 14));
  Commit(t5);

  Result<std::vector<Row>> rows4 = testutil::SnapshotRows(*table_, at4);
  ASSERT_TRUE(rows4.ok());
  // VN 4 logical state: SJ-14 10000, SJ-15 1500, Berkeley 12000.
  ASSERT_EQ(rows4->size(), 3u);

  ReaderSession at5 = engine_->OpenSession();
  Result<std::vector<Row>> rows5 = testutil::SnapshotRows(*table_, at5);
  ASSERT_TRUE(rows5.ok());
  // VN 5 logical state: SJ-14 10200, SJ-15 1500, SJ-16 11000.
  ASSERT_EQ(rows5->size(), 3u);
  int64_t total = 0;
  for (const Row& row : *rows5) total += row[4].AsInt32();
  EXPECT_EQ(total, 10200 + 1500 + 11000);
}

}  // namespace
}  // namespace wvm::core

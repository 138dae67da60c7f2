#include "catalog/table.h"

#include <gtest/gtest.h>

namespace wvm {
namespace {

class TableTest : public ::testing::Test {
 protected:
  TableTest() : pool_(64, &disk_) {}

  DiskManager disk_;
  BufferPool pool_;
};

TEST_F(TableTest, RowRoundTrip) {
  Table table("inv",
              Schema({Column::String("name", 8), Column::Int64("qty", true)}),
              &pool_);

  Result<Rid> rid = table.InsertRow({Value::String("bolt"), Value::Int64(5)});
  ASSERT_TRUE(rid.ok());

  Result<Row> row = table.GetRow(rid.value());
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0].AsString(), "bolt");
  EXPECT_EQ((*row)[1].AsInt64(), 5);

  ASSERT_TRUE(
      table.UpdateRow(rid.value(), {Value::String("bolt"), Value::Int64(9)})
          .ok());
  EXPECT_EQ(table.GetRow(rid.value()).value()[1].AsInt64(), 9);

  ASSERT_TRUE(table.DeleteRow(rid.value()).ok());
  EXPECT_EQ(table.GetRow(rid.value()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST_F(TableTest, ScanRowsAndAllRows) {
  Table table("nums", Schema({Column::Int64("x")}), &pool_);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table.InsertRow({Value::Int64(i)}).ok());
  }
  EXPECT_EQ(table.AllRows().value().size(), 10u);

  int seen = 0;
  ASSERT_TRUE(table
                  .ScanRows([&](Rid, const Row&) {
                    ++seen;
                    return seen < 4;  // early stop
                  })
                  .ok());
  EXPECT_EQ(seen, 4);
}

TEST_F(TableTest, InsertRejectsBadRow) {
  Table table("t", Schema({Column::Int64("x")}), &pool_);
  EXPECT_FALSE(table.InsertRow({Value::String("oops")}).ok());
  EXPECT_FALSE(table.InsertRow({}).ok());
}

}  // namespace
}  // namespace wvm

#include "catalog/catalog.h"

#include <gtest/gtest.h>

namespace wvm {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  CatalogTest() : pool_(64, &disk_), catalog_(&pool_) {}

  DiskManager disk_;
  BufferPool pool_;
  Catalog catalog_;
};

TEST_F(CatalogTest, CreateAndGet) {
  Result<Table*> t =
      catalog_.CreateTable("Sales", Schema({Column::Int64("x")}));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value()->name(), "Sales");
  EXPECT_TRUE(catalog_.HasTable("sales"));  // case-insensitive lookup
  ASSERT_TRUE(catalog_.GetTable("SALES").ok());
  EXPECT_EQ(catalog_.GetTable("SALES").value(), t.value());
}

TEST_F(CatalogTest, DuplicateCreateFails) {
  ASSERT_TRUE(catalog_.CreateTable("t", Schema({Column::Int64("x")})).ok());
  EXPECT_EQ(catalog_.CreateTable("T", Schema({Column::Int64("x")}))
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(CatalogTest, GetMissingFails) {
  EXPECT_EQ(catalog_.GetTable("nope").status().code(), StatusCode::kNotFound);
}

TEST_F(CatalogTest, DropTable) {
  ASSERT_TRUE(catalog_.CreateTable("t", Schema({Column::Int64("x")})).ok());
  EXPECT_TRUE(catalog_.DropTable("t").ok());
  EXPECT_FALSE(catalog_.HasTable("t"));
  EXPECT_EQ(catalog_.DropTable("t").code(), StatusCode::kNotFound);
}

TEST_F(CatalogTest, TableRowRoundTrip) {
  Schema schema({Column::String("name", 8), Column::Int64("qty", true)});
  Result<Table*> created = catalog_.CreateTable("inv", schema);
  ASSERT_TRUE(created.ok());
  Table* table = created.value();

  Result<Rid> rid = table->InsertRow({Value::String("bolt"), Value::Int64(5)});
  ASSERT_TRUE(rid.ok());

  Result<Row> row = table->GetRow(rid.value());
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0].AsString(), "bolt");
  EXPECT_EQ((*row)[1].AsInt64(), 5);

  ASSERT_TRUE(
      table->UpdateRow(rid.value(), {Value::String("bolt"), Value::Int64(9)})
          .ok());
  EXPECT_EQ(table->GetRow(rid.value()).value()[1].AsInt64(), 9);

  ASSERT_TRUE(table->DeleteRow(rid.value()).ok());
  EXPECT_EQ(table->GetRow(rid.value()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(table->num_rows(), 0u);
}

TEST_F(CatalogTest, ScanRowsAndAllRows) {
  Result<Table*> created =
      catalog_.CreateTable("nums", Schema({Column::Int64("x")}));
  ASSERT_TRUE(created.ok());
  Table* table = created.value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table->InsertRow({Value::Int64(i)}).ok());
  }
  EXPECT_EQ(table->AllRows().value().size(), 10u);

  int seen = 0;
  ASSERT_TRUE(table
                  ->ScanRows([&](Rid, const Row&) {
                    ++seen;
                    return seen < 4;  // early stop
                  })
                  .ok());
  EXPECT_EQ(seen, 4);
}

TEST_F(CatalogTest, InsertRejectsBadRow) {
  Result<Table*> created =
      catalog_.CreateTable("t", Schema({Column::Int64("x")}));
  ASSERT_TRUE(created.ok());
  EXPECT_FALSE(created.value()->InsertRow({Value::String("oops")}).ok());
  EXPECT_FALSE(created.value()->InsertRow({}).ok());
}

}  // namespace
}  // namespace wvm

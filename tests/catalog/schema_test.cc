#include "catalog/schema.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace wvm {
namespace {

// The paper's running example (Example 2.1 / Figure 3): DailySales with the
// group-by key {city, state, product_line, date} and a single updatable
// aggregate attribute total_sales.
Schema DailySalesSchema() {
  return Schema(
      {
          Column::String("city", 20),
          Column::String("state", 2),
          Column::String("product_line", 12),
          Column::Date("date"),
          Column::Int32("total_sales", /*updatable=*/true),
      },
      /*key_indices=*/{0, 1, 2, 3});
}

TEST(SchemaTest, BasicAccessors) {
  Schema s = DailySalesSchema();
  EXPECT_EQ(s.num_columns(), 5u);
  EXPECT_EQ(s.column(0).name, "city");
  EXPECT_TRUE(s.has_unique_key());
  EXPECT_EQ(s.key_indices().size(), 4u);
}

TEST(SchemaTest, IndexOfIsCaseInsensitive) {
  Schema s = DailySalesSchema();
  ASSERT_TRUE(s.IndexOf("Total_Sales").ok());
  EXPECT_EQ(s.IndexOf("Total_Sales").value(), 4u);
  EXPECT_FALSE(s.IndexOf("no_such").ok());
  EXPECT_TRUE(s.Contains("CITY"));
}

TEST(SchemaTest, UpdatableIndices) {
  Schema s = DailySalesSchema();
  EXPECT_EQ(s.UpdatableIndices(), std::vector<size_t>{4});
}

// Figure 3: the original DailySales relation is 42 bytes per tuple
// (20 + 2 + 12 + 4 + 4).
TEST(SchemaTest, AttributeBytesMatchPaperFigure3) {
  Schema s = DailySalesSchema();
  EXPECT_EQ(s.AttributeBytes(), 42u);
}

TEST(SchemaTest, RowByteSizeAddsNullBitmap) {
  Schema s = DailySalesSchema();
  EXPECT_EQ(s.RowByteSize(), 42u + 1u);  // 5 columns -> 1 bitmap byte
}

TEST(SchemaTest, KeyOfExtractsKeyColumns) {
  Schema s = DailySalesSchema();
  Row row = {Value::String("San Jose"), Value::String("CA"),
             Value::String("golf equip"), Value::Date(1996, 10, 14),
             Value::Int32(10000)};
  Row key = s.KeyOf(row);
  ASSERT_EQ(key.size(), 4u);
  EXPECT_EQ(key[0].AsString(), "San Jose");
  EXPECT_EQ(key[3].AsDateRaw(), 19961014);
}

TEST(SchemaTest, ValidateRowAcceptsGoodRow) {
  Schema s = DailySalesSchema();
  Row row = {Value::String("San Jose"), Value::String("CA"),
             Value::String("golf equip"), Value::Date(1996, 10, 14),
             Value::Int32(10000)};
  EXPECT_TRUE(s.ValidateRow(row).ok());
}

TEST(SchemaTest, ValidateRowRejectsArityMismatch) {
  Schema s = DailySalesSchema();
  EXPECT_EQ(s.ValidateRow({Value::Int64(1)}).code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemaTest, ValidateRowRejectsTypeMismatch) {
  Schema s = DailySalesSchema();
  Row row = {Value::Int64(3), Value::String("CA"),
             Value::String("golf equip"), Value::Date(1996, 10, 14),
             Value::Int32(10000)};
  EXPECT_EQ(s.ValidateRow(row).code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, ValidateRowAllowsNulls) {
  Schema s = DailySalesSchema();
  Row row = {Value::Null(TypeId::kString), Value::Null(TypeId::kString),
             Value::Null(TypeId::kString), Value::Null(TypeId::kDate),
             Value::Null(TypeId::kInt32)};
  EXPECT_TRUE(s.ValidateRow(row).ok());
}

TEST(SchemaTest, ToStringMentionsKeyAndUpdatable) {
  std::string s = DailySalesSchema().ToString();
  EXPECT_NE(s.find("UPDATABLE"), std::string::npos);
  EXPECT_NE(s.find("KEY(city, state, product_line, date)"),
            std::string::npos);
}

TEST(SchemaTest, EqualityComparesStructure) {
  EXPECT_TRUE(DailySalesSchema() == DailySalesSchema());
  Schema other({Column::Int64("x")});
  EXPECT_FALSE(DailySalesSchema() == other);
}

// --- Secondary indexes (§4.3) ---------------------------------------------

TEST(SchemaTest, AddSecondaryIndexOnNonUpdatableColumns) {
  Schema s = DailySalesSchema();
  ASSERT_TRUE(s.AddSecondaryIndex("by_city", {"city", "state"}).ok());
  ASSERT_EQ(s.secondary_indexes().size(), 1u);
  EXPECT_EQ(s.secondary_indexes()[0].name, "by_city");
  EXPECT_EQ(s.secondary_indexes()[0].column_indices,
            (std::vector<size_t>{0, 1}));
}

TEST(SchemaTest, AddSecondaryIndexRejectsUpdatableColumn) {
  Schema s = DailySalesSchema();
  const Status st = s.AddSecondaryIndex("bad", {"total_sales"});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(s.secondary_indexes().empty());
}

TEST(SchemaTest, AddSecondaryIndexRejectsUnknownEmptyAndDuplicate) {
  Schema s = DailySalesSchema();
  EXPECT_EQ(s.AddSecondaryIndex("bad", {"bogus"}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(s.AddSecondaryIndex("bad", {}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(s.AddSecondaryIndex("by_city", {"city"}).ok());
  EXPECT_EQ(s.AddSecondaryIndex("BY_CITY", {"state"}).code(),
            StatusCode::kAlreadyExists);
}

TEST(SchemaTest, SecondaryIndexesParticipateInEquality) {
  Schema a = DailySalesSchema();
  Schema b = DailySalesSchema();
  ASSERT_TRUE(a.AddSecondaryIndex("by_city", {"city"}).ok());
  EXPECT_FALSE(a == b);
  ASSERT_TRUE(b.AddSecondaryIndex("by_city", {"city"}).ok());
  EXPECT_TRUE(a == b);
}

TEST(SchemaTest, SecondaryIndexKeepsDeclaredColumnOrder) {
  Schema s = DailySalesSchema();
  ASSERT_TRUE(s.AddSecondaryIndex("by_pl", {"product_line", "state"}).ok());
  EXPECT_EQ(s.secondary_indexes()[0].column_indices,
            (std::vector<size_t>{2, 1}));
}

// --- CheckColumnValue: the one rule for what a column can hold -----------

TEST(CheckColumnValueTest, IntegersCrossWidthsOnlyInRange) {
  EXPECT_TRUE(CheckColumnValue(Column::Int32("c"), Value::Int64(-7)).ok());
  EXPECT_TRUE(CheckColumnValue(Column::Int32("c"),
                               Value::Int64(INT32_MIN)).ok());
  EXPECT_TRUE(CheckColumnValue(Column::Int64("c"),
                               Value::Int32(INT32_MAX)).ok());
  const Status st =
      CheckColumnValue(Column::Int32("c"), Value::Int64((1LL << 32) + 9));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "value 4294967305 out of range for INT32 column 'c'");
  EXPECT_FALSE(
      CheckColumnValue(Column::Int32("c"), Value::Int64(INT32_MAX + 1LL)).ok());
}

TEST(CheckColumnValueTest, AnyNumericIntoDoubleButNoDoubleIntoIntegers) {
  EXPECT_TRUE(CheckColumnValue(Column::Double("d"), Value::Int32(3)).ok());
  EXPECT_TRUE(CheckColumnValue(Column::Double("d"), Value::Int64(3)).ok());
  const Status st = CheckColumnValue(Column::Int32("c"), Value::Double(7.5));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(),
            "cannot store DOUBLE value into column 'c' of type INT32");
  EXPECT_FALSE(CheckColumnValue(Column::Int64("c"), Value::Double(7.0)).ok());
}

TEST(CheckColumnValueTest, OtherTypesMustMatchAndNullsAlwaysFit) {
  EXPECT_FALSE(CheckColumnValue(Column::Int32("c"), Value::String("x")).ok());
  EXPECT_FALSE(CheckColumnValue(Column::Date("d"), Value::String("x")).ok());
  EXPECT_FALSE(CheckColumnValue(Column::Date("d"), Value::Int32(1)).ok());
  EXPECT_FALSE(CheckColumnValue(Column::Bool("b"), Value::Int64(1)).ok());
  EXPECT_FALSE(CheckColumnValue(Column::String("s", 4), Value::Int64(1)).ok());
  EXPECT_TRUE(CheckColumnValue(Column::Date("d"), Value::Date(1996, 10, 14))
                  .ok());
  EXPECT_TRUE(CheckColumnValue(Column::Int32("c"),
                               Value::Null(TypeId::kString)).ok());
}

// ValidateRow asks the same rule, so it never accepts a value storage
// would turn into a different number.
TEST(SchemaTest, ValidateRowRejectsValuesStoredAsOtherNumbers) {
  const Schema s({Column::Int32("k"), Column::Double("d")});
  EXPECT_TRUE(s.ValidateRow({Value::Int64(9), Value::Int32(1)}).ok());
  EXPECT_FALSE(s.ValidateRow({Value::Double(7.5), Value::Int32(1)}).ok());
  EXPECT_FALSE(
      s.ValidateRow({Value::Int64((1LL << 32) + 9), Value::Int32(1)}).ok());
}

}  // namespace
}  // namespace wvm

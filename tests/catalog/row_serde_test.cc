#include <gtest/gtest.h>

#include "catalog/schema.h"
#include "common/rng.h"
#include "common/strings.h"

namespace wvm {
namespace {

Schema MixedSchema() {
  return Schema({
      Column::Bool("b"),
      Column::Int32("i32"),
      Column::Int64("i64"),
      Column::Double("d"),
      Column::Date("dt"),
      Column::String("s", 16),
  });
}

TEST(RowSerdeTest, RoundTripAllTypes) {
  Schema schema = MixedSchema();
  Row row = {Value::Bool(true),   Value::Int32(-42),
             Value::Int64(1LL << 40), Value::Double(3.25),
             Value::Date(1996, 10, 14), Value::String("hello")};
  std::vector<uint8_t> buf(schema.RowByteSize());
  SerializeRow(schema, row, buf.data());
  Row back = DeserializeRow(schema, buf.data());
  ASSERT_EQ(back.size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_TRUE(back[i] == row[i]) << "column " << i;
  }
}

TEST(RowSerdeTest, RoundTripNulls) {
  Schema schema = MixedSchema();
  Row row = {Value::Null(TypeId::kBool),   Value::Null(TypeId::kInt32),
             Value::Null(TypeId::kInt64),  Value::Null(TypeId::kDouble),
             Value::Null(TypeId::kDate),   Value::Null(TypeId::kString)};
  std::vector<uint8_t> buf(schema.RowByteSize());
  SerializeRow(schema, row, buf.data());
  Row back = DeserializeRow(schema, buf.data());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_TRUE(back[i].is_null()) << "column " << i;
  }
}

TEST(RowSerdeTest, StringPaddedAndTruncated) {
  Schema schema({Column::String("s", 4)});
  std::vector<uint8_t> buf(schema.RowByteSize());

  SerializeRow(schema, {Value::String("ab")}, buf.data());
  EXPECT_EQ(DeserializeRow(schema, buf.data())[0].AsString(), "ab");

  SerializeRow(schema, {Value::String("abcdef")}, buf.data());
  EXPECT_EQ(DeserializeRow(schema, buf.data())[0].AsString(), "abcd");
}

TEST(RowSerdeTest, StringExactWidth) {
  Schema schema({Column::String("s", 4)});
  std::vector<uint8_t> buf(schema.RowByteSize());
  SerializeRow(schema, {Value::String("wxyz")}, buf.data());
  EXPECT_EQ(DeserializeRow(schema, buf.data())[0].AsString(), "wxyz");
}

TEST(RowSerdeTest, ManyColumnsBitmapSpansBytes) {
  std::vector<Column> cols;
  for (int i = 0; i < 20; ++i) {
    cols.push_back(Column::Int32(StrPrintf("c%d", i)));
  }
  Schema schema(cols);
  EXPECT_EQ(schema.NullBitmapBytes(), 3u);

  Row row;
  for (int i = 0; i < 20; ++i) {
    row.push_back(i % 3 == 0 ? Value::Null(TypeId::kInt32)
                             : Value::Int32(i * 11));
  }
  std::vector<uint8_t> buf(schema.RowByteSize());
  SerializeRow(schema, row, buf.data());
  Row back = DeserializeRow(schema, buf.data());
  for (int i = 0; i < 20; ++i) {
    if (i % 3 == 0) {
      EXPECT_TRUE(back[i].is_null());
    } else {
      EXPECT_EQ(back[i].AsInt32(), i * 11);
    }
  }
}

// Property: serialize/deserialize is the identity on random rows.
TEST(RowSerdeTest, PropertyRandomRoundTrip) {
  Schema schema = MixedSchema();
  Rng rng(1234);
  std::vector<uint8_t> buf(schema.RowByteSize());
  for (int iter = 0; iter < 500; ++iter) {
    Row row;
    row.push_back(rng.Bernoulli(0.1) ? Value::Null(TypeId::kBool)
                                     : Value::Bool(rng.Bernoulli(0.5)));
    row.push_back(rng.Bernoulli(0.1)
                      ? Value::Null(TypeId::kInt32)
                      : Value::Int32(static_cast<int32_t>(
                            rng.Uniform(-1000000, 1000000))));
    row.push_back(rng.Bernoulli(0.1)
                      ? Value::Null(TypeId::kInt64)
                      : Value::Int64(rng.Uniform(-(1LL << 50), 1LL << 50)));
    row.push_back(rng.Bernoulli(0.1)
                      ? Value::Null(TypeId::kDouble)
                      : Value::Double(rng.UniformDouble(-1e9, 1e9)));
    row.push_back(rng.Bernoulli(0.1)
                      ? Value::Null(TypeId::kDate)
                      : Value::Date(static_cast<int>(rng.Uniform(1990, 2030)),
                                    static_cast<int>(rng.Uniform(1, 12)),
                                    static_cast<int>(rng.Uniform(1, 28))));
    std::string s;
    const int len = static_cast<int>(rng.Uniform(0, 16));
    for (int i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.Uniform(0, 25)));
    }
    row.push_back(rng.Bernoulli(0.1) ? Value::Null(TypeId::kString)
                                     : Value::String(s));

    SerializeRow(schema, row, buf.data());
    Row back = DeserializeRow(schema, buf.data());
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i].is_null()) {
        EXPECT_TRUE(back[i].is_null());
      } else {
        EXPECT_TRUE(back[i] == row[i]) << "iter " << iter << " col " << i;
      }
    }
  }
}

}  // namespace
}  // namespace wvm

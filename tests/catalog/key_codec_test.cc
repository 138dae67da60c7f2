#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"

namespace wvm {
namespace {

// One column of every type, a short string among them.
Schema AllTypes() {
  return Schema({Column::Bool("b"), Column::Int32("i32"), Column::Int64("i64"),
                 Column::Double("d"), Column::Date("day"),
                 Column::String("s", 4)});
}

// The key bytes of `row`, stored as a record, over every column.
std::string FromStored(const Schema& schema, const Row& row) {
  std::vector<uint8_t> rec(schema.RowByteSize());
  SerializeRow(schema, row, rec.data());
  const KeyCodec codec(schema, {0, 1, 2, 3, 4, 5});
  std::string key;
  codec.FromRecord(rec.data(), &key);
  EXPECT_TRUE(codec.RecordHasKey(rec.data(), key));
  return key;
}

// The key bytes of `row` encoded as probe values.
std::string FromProbe(const Schema& schema, const Row& row) {
  std::string key;
  EXPECT_TRUE(KeyCodec(schema, {0, 1, 2, 3, 4, 5}).FromValues(row, &key));
  return key;
}

// For every type, the bytes a record carries equal the bytes the same
// values encode to as a probe.
TEST(KeyCodecTest, RecordBytesEqualProbeBytes) {
  const Schema schema = AllTypes();
  const std::vector<Row> rows = {
      {Value::Bool(true), Value::Int32(-5), Value::Int64(-1LL << 40),
       Value::Double(-2.5), Value::Date(1996, 10, 14), Value::String("ab")},
      {Value::Bool(false), Value::Int32(INT32_MIN), Value::Int64(INT64_MAX),
       Value::Double(1e300), Value::Date(2001, 1, 1), Value::String("abcd")},
      {Value::Null(TypeId::kBool), Value::Null(TypeId::kInt32),
       Value::Null(TypeId::kInt64), Value::Null(TypeId::kDouble),
       Value::Null(TypeId::kDate), Value::Null(TypeId::kString)},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(RowToString(row));
    const std::string key = FromStored(schema, row);
    EXPECT_EQ(key.size(), 1u + 1 + 4 + 8 + 8 + 4 + 4);
    EXPECT_EQ(key, FromProbe(schema, row));
  }
}

TEST(KeyCodecTest, NullDiffersFromZero) {
  const Schema schema({Column::Int64("k")});
  const KeyCodec codec(schema, {0});
  std::string null_key, zero_key;
  ASSERT_TRUE(codec.FromValues({Value::Null(TypeId::kInt64)}, &null_key));
  ASSERT_TRUE(codec.FromValues({Value::Int64(0)}, &zero_key));
  EXPECT_NE(null_key, zero_key);
  // A NULL of another type is the same NULL.
  std::string other;
  ASSERT_TRUE(codec.FromValues({Value::Null(TypeId::kString)}, &other));
  EXPECT_EQ(other, null_key);
}

TEST(KeyCodecTest, CrossWidthIntegersInRangeEncodeLikeTheColumnType) {
  const Schema schema({Column::Int32("a"), Column::Int64("b")});
  const KeyCodec codec(schema, {0, 1});
  std::string wide, exact;
  ASSERT_TRUE(codec.FromValues({Value::Int64(-7), Value::Int32(7)}, &wide));
  ASSERT_TRUE(codec.FromValues({Value::Int32(-7), Value::Int64(7)}, &exact));
  EXPECT_EQ(wide, exact);
}

TEST(KeyCodecTest, ValuesTheColumnCannotHoldMatchNothing) {
  const Schema schema({Column::Int32("k"), Column::Date("day")});
  const KeyCodec codec(schema, {0});
  std::string key = "stale";
  EXPECT_FALSE(codec.FromValues({Value::Double(9.5)}, &key));
  EXPECT_TRUE(key.empty());
  EXPECT_FALSE(codec.FromValues({Value::Int64((1LL << 32) + 5)}, &key));
  EXPECT_FALSE(codec.FromValues({Value::String("x")}, &key));
  EXPECT_FALSE(codec.FromValues({}, &key));  // wrong arity
  EXPECT_FALSE(codec.FromValues({Value::Int32(1), Value::Int32(2)}, &key));
  EXPECT_FALSE(KeyCodec(schema, {1}).FromValues({Value::Int32(19961014)},
                                                &key));
  // An empty key is no record's key.
  std::vector<uint8_t> rec(schema.RowByteSize());
  SerializeRow(schema, {Value::Int32(0), Value::Date(1996, 10, 14)},
               rec.data());
  EXPECT_FALSE(codec.RecordHasKey(rec.data(), ""));
}

TEST(KeyCodecTest, StringsPadTruncateAndStopAtNul) {
  const Schema schema({Column::String("s", 4)});
  const KeyCodec codec(schema, {0});
  auto key = [&](const std::string& s) {
    std::string out;
    EXPECT_TRUE(codec.FromValues({Value::String(s)}, &out));
    return out;
  };
  auto stored = [&](const std::string& s) {
    std::vector<uint8_t> rec(schema.RowByteSize());
    SerializeRow(schema, {Value::String(s)}, rec.data());
    std::string out;
    codec.FromRecord(rec.data(), &out);
    return out;
  };
  // Shorter than, equal to and wider than the width.
  EXPECT_EQ(key("ab"), std::string("\0ab\0\0", 5));
  EXPECT_EQ(key("abcd"), std::string("\0abcd", 5));
  EXPECT_EQ(key("abcdefgh"), key("abcd"));  // truncated as stored
  // Nothing after an embedded NUL is stored.
  EXPECT_EQ(key(std::string("a\0bc", 4)), key("a"));
  for (const std::string& s :
       {std::string("ab"), std::string("abcd"), std::string("abcdefgh"),
        std::string("a\0bc", 4), std::string()}) {
    EXPECT_EQ(stored(s), key(s));
  }
  EXPECT_NE(key("ab"), key("abc"));
}

TEST(KeyCodecTest, SignedZerosAndNaNsAreEachOneKey) {
  const Schema schema({Column::Double("d")});
  const KeyCodec codec(schema, {0});
  auto key = [&](double d) {
    std::string out;
    EXPECT_TRUE(codec.FromValues({Value::Double(d)}, &out));
    return out;
  };
  EXPECT_EQ(key(-0.0), key(0.0));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(key(nan), key(-nan));
  EXPECT_EQ(key(nan), key(std::nan("7")));
  EXPECT_NE(key(nan), key(0.0));
  // The record stores the same canonical bytes.
  std::vector<uint8_t> rec(schema.RowByteSize());
  SerializeRow(schema, {Value::Double(-0.0)}, rec.data());
  EXPECT_TRUE(codec.RecordHasKey(rec.data(), key(0.0)));
  SerializeRow(schema, {Value::Double(-nan)}, rec.data());
  EXPECT_TRUE(codec.RecordHasKey(rec.data(), key(nan)));
  EXPECT_FALSE(std::signbit(
      DeserializeColumn(schema, rec.data(), 0).AsDouble()));
}

TEST(KeyCodecTest, MismatchNamesTheFirstDifferingColumn) {
  const Schema schema({Column::Int64("a"), Column::String("s", 3),
                       Column::Date("day", /*updatable=*/false)});
  const KeyCodec codec(schema, {2, 0});  // list order, not schema order
  std::vector<uint8_t> rec(schema.RowByteSize());
  SerializeRow(schema,
               {Value::Int64(1), Value::String("x"), Value::Date(1996, 1, 2)},
               rec.data());
  std::string key;
  ASSERT_TRUE(codec.FromValues(
      {Value::Int64(1), Value::String("other"), Value::Date(1996, 1, 2)},
      &key, /*whole_row=*/true));
  EXPECT_EQ(codec.Mismatch(rec.data(), key), 2u);  // carries the key
  ASSERT_TRUE(codec.FromValues({Value::Date(1996, 1, 2), Value::Int64(2)},
                               &key));
  EXPECT_EQ(codec.Mismatch(rec.data(), key), 1u);
  ASSERT_TRUE(codec.FromValues(
      {Value::Null(TypeId::kDate), Value::Int64(1)}, &key));
  EXPECT_EQ(codec.Mismatch(rec.data(), key), 0u);
}

// Key bytes are keyed by content: a map over them is probed with a view.
TEST(KeyCodecTest, TransparentHashProbesWithAView) {
  std::unordered_map<std::string, int, KeyBytesHash, std::equal_to<>> map;
  map["abc"] = 1;
  const std::string buf = "xabcx";
  const auto it = map.find(std::string_view(buf).substr(1, 3));
  ASSERT_NE(it, map.end());
  EXPECT_EQ(it->second, 1);
}

}  // namespace
}  // namespace wvm

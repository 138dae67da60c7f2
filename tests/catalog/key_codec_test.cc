#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "core/versioned_schema.h"

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

// Decode is FromRecord's inverse: the values come back as the record
// stores them, typed as their columns are, for every type and NULL.
TEST(KeyCodecTest, DecodeRoundTripsEveryType) {
  const Schema schema({Column::Bool("b"), Column::Int32("i32"),
                       Column::Int64("i64"), Column::Int64("wide"),
                       Column::Double("d"), Column::Date("day"),
                       Column::String("s", 4)});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Row> rows = {
      {Value::Bool(true), Value::Int32(-5), Value::Int64(-(1LL << 40)),
       Value::Int32(-7), Value::Double(-2.5), Value::Date(1996, 10, 14),
       Value::String("ab")},
      {Value::Bool(false), Value::Int32(INT32_MIN), Value::Int64(INT64_MIN),
       Value::Int32(INT32_MAX), Value::Double(-0.0), Value::Date(2001, 1, 1),
       Value::String("abcd")},
      {Value::Null(TypeId::kBool), Value::Int32(0), Value::Int64(INT64_MAX),
       Value::Null(TypeId::kInt64), Value::Double(nan),
       Value::Date(1999, 12, 31), Value::String("")},
      {Value::Bool(true), Value::Null(TypeId::kInt32),
       Value::Null(TypeId::kInt64), Value::Int64(0), Value::Double(0.0),
       Value::Null(TypeId::kDate), Value::Null(TypeId::kString)},
  };
  // The columns in an order other than the schema's.
  const KeyCodec codec(schema, {6, 0, 5, 1, 4, 2, 3});
  for (const Row& row : rows) {
    SCOPED_TRACE(RowToString(row));
    std::vector<uint8_t> rec(schema.RowByteSize());
    SerializeRow(schema, row, rec.data());
    std::string key;
    codec.FromRecord(rec.data(), &key);
    const Row decoded = codec.Decode(key);
    ASSERT_EQ(decoded.size(), codec.columns().size());
    for (size_t j = 0; j < decoded.size(); ++j) {
      const size_t c = codec.columns()[j];
      const Value stored = DeserializeColumn(schema, rec.data(), c);
      EXPECT_EQ(decoded[j].type(), schema.column(c).type) << j;
      EXPECT_EQ(decoded[j].is_null(), stored.is_null()) << j;
      if (stored.type() == TypeId::kDouble && !stored.is_null()) {
        // Bit for bit: -0.0 comes back +0.0 and NaN as the one NaN.
        const double a = decoded[j].AsDouble();
        const double b = stored.AsDouble();
        EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << j;
        if (a == 0.0) {
          EXPECT_FALSE(std::signbit(a)) << j;
        }
      } else {
        EXPECT_TRUE(decoded[j] == stored) << j;
      }
      // A non-NULL value round-trips to itself (the INT32 in the INT64
      // column as that INT64).
      if (!row[c].is_null() && !(row[c].type() == TypeId::kDouble &&
                                 std::isnan(row[c].AsDouble()))) {
        EXPECT_TRUE(decoded[j] == row[c]) << j;
      }
    }
    // Re-encoding the decoded values gives the same bytes.
    std::string again;
    ASSERT_TRUE(codec.FromValues(decoded, &again));
    EXPECT_EQ(again, key);
  }
}

// A GROUP BY key over an updatable column is made per version, by a codec
// whose columns are that version's physical positions. Equal values give
// equal bytes whichever version slot holds them, so a group is one group
// across current and pre-update reads.
TEST(KeyCodecTest, PerVersionCodecsAgreeOnEqualValues) {
  const Schema logical({Column::Int64("id"), Column::String("grp", 4),
                        Column::Int32("qty", /*updatable=*/true),
                        Column::Double("wt", /*updatable=*/true),
                        Column::String("note", 5, /*updatable=*/true),
                        Column::Date("day", /*updatable=*/true)},
                       {0});
  const std::vector<size_t> key_cols = {2, 1, 4, 3, 5};
  const KeyCodec logical_codec(logical, key_cols);
  const Row before = {Value::Int64(1), Value::String("g1"), Value::Int32(-3),
                      Value::Double(-0.0), Value::String("hello"),
                      Value::Date(1996, 10, 2)};
  const Row after = {Value::Int64(1), Value::String("g1"), Value::Int32(9),
                     Value::Double(2.5), Value::Null(TypeId::kString),
                     Value::Date(1996, 10, 3)};
  std::string want_before, want_after;
  ASSERT_TRUE(logical_codec.FromValues(before, &want_before, true));
  ASSERT_TRUE(logical_codec.FromValues(after, &want_after, true));
  ASSERT_NE(want_before, want_after);
  for (int n : {2, 3, 4}) {
    SCOPED_TRACE(n);
    Result<core::VersionedSchema> vs =
        core::VersionedSchema::Create(logical, n);
    ASSERT_TRUE(vs.ok());
    std::vector<uint8_t> rec(vs->physical().RowByteSize());
    vs->MakeInsertRow(before, /*vn=*/1, rec.data());
    std::vector<KeyCodec> codecs;  // [slot + 1], current first
    for (int slot = -1; slot < vs->num_slots(); ++slot) {
      codecs.emplace_back(vs->physical(), vs->VersionColumns(key_cols, slot));
    }
    // Every pre-update slot holds the current values.
    for (int slot = 0; slot < vs->num_slots(); ++slot) {
      vs->CopyCurrentToPre(rec.data(), slot);
    }
    for (const KeyCodec& codec : codecs) {
      std::string key;
      codec.FromRecord(rec.data(), &key);
      EXPECT_EQ(key, want_before);
      EXPECT_TRUE(logical_codec.Decode(key) ==
                  logical_codec.Decode(want_before));
    }
    // An update moves on the current version; the pre-update slots keep
    // the old key.
    vs->SetCurrent(rec.data(), after);
    std::string key;
    codecs[0].FromRecord(rec.data(), &key);
    EXPECT_EQ(key, want_after);
    for (size_t c = 1; c < codecs.size(); ++c) {
      codecs[c].FromRecord(rec.data(), &key);
      EXPECT_EQ(key, want_before);
    }
  }
}

}  // namespace
}  // namespace wvm

#include "catalog/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace wvm {
namespace {

TEST(ValueTest, FactoriesAndAccessors) {
  EXPECT_EQ(Value::Int64(7).AsInt64(), 7);
  EXPECT_EQ(Value::Int32(-3).AsInt32(), -3);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_FALSE(Value::Bool(false).AsBool());
}

TEST(ValueTest, NullHandling) {
  Value n = Value::Null(TypeId::kInt64);
  EXPECT_TRUE(n.is_null());
  EXPECT_EQ(n.ToString(), "null");
  EXPECT_TRUE(n == Value::Null(TypeId::kInt64));
  EXPECT_FALSE(n == Value::Int64(0));
}

TEST(ValueTest, DatePacksAndFormats) {
  Value d = Value::Date(1996, 10, 14);
  EXPECT_EQ(d.type(), TypeId::kDate);
  EXPECT_EQ(d.ToString(), "10/14/96");
  EXPECT_EQ(d.AsDateRaw(), 19961014);
}

TEST(ValueTest, ParseDateTwoDigitYear) {
  Result<Value> d = Value::ParseDate("10/14/96");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->AsDateRaw(), 19961014);
  EXPECT_EQ(d->ToString(), "10/14/96");
}

TEST(ValueTest, ParseDateFourDigitYear) {
  Result<Value> d = Value::ParseDate("1/2/2026");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->AsDateRaw(), 20260102);
}

TEST(ValueTest, ParseDateRejectsGarbage) {
  EXPECT_FALSE(Value::ParseDate("not-a-date").ok());
  EXPECT_FALSE(Value::ParseDate("13/40/96").ok());
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_TRUE(Value::Int32(5) == Value::Int64(5));
  EXPECT_TRUE(Value::Int64(5) == Value::Double(5.0));
  EXPECT_FALSE(Value::Int64(5) == Value::Double(5.5));
}

TEST(ValueTest, Ordering) {
  EXPECT_TRUE(Value::Int64(1) < Value::Int64(2));
  EXPECT_TRUE(Value::String("a") < Value::String("b"));
  EXPECT_TRUE(Value::Double(1.5) < Value::Int64(2));
  // NULLs sort first.
  EXPECT_TRUE(Value::Null(TypeId::kInt64) < Value::Int64(-100));
  EXPECT_FALSE(Value::Int64(-100) < Value::Null(TypeId::kInt64));
}

TEST(ValueTest, DateOrdering) {
  EXPECT_TRUE(Value::Date(1996, 10, 13) < Value::Date(1996, 10, 14));
  EXPECT_TRUE(Value::Date(1996, 9, 30) < Value::Date(1996, 10, 1));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Int64(12000).ToString(), "12000");
  EXPECT_EQ(Value::Double(10000.0).ToString(), "10000");
  EXPECT_EQ(Value::String("San Jose").ToString(), "San Jose");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
}

TEST(ValueTest, Arithmetic) {
  EXPECT_EQ(ValueAdd(Value::Int64(2), Value::Int64(3))->AsInt64(), 5);
  EXPECT_EQ(ValueSub(Value::Int64(2), Value::Int64(3))->AsInt64(), -1);
  EXPECT_EQ(ValueMul(Value::Int32(4), Value::Int32(5))->AsInt32(), 20);
  EXPECT_EQ(ValueDiv(Value::Int64(7), Value::Int64(2))->AsInt64(), 3);
  EXPECT_DOUBLE_EQ(
      ValueAdd(Value::Int64(1), Value::Double(0.5))->AsDouble(), 1.5);
}

// Integer arithmetic never wraps and never traps: a result outside the
// operands' type (INT32 for two INT32s, else INT64) is InvalidArgument.
TEST(ValueTest, IntegerOverflowIsAnError) {
  const int64_t kMin64 = std::numeric_limits<int64_t>::min();
  const int64_t kMax64 = std::numeric_limits<int64_t>::max();
  const Value big32 = Value::Int32(2000000000);
  const Result<Value> overflows[] = {
      ValueAdd(big32, big32),
      ValueMul(big32, Value::Int32(2)),
      ValueSub(Value::Int32(std::numeric_limits<int32_t>::min()),
               Value::Int32(1)),
      ValueDiv(Value::Int32(std::numeric_limits<int32_t>::min()),
               Value::Int32(-1)),
      ValueAdd(Value::Int64(kMax64), Value::Int64(1)),
      ValueSub(Value::Int64(kMin64), Value::Int32(1)),
      ValueMul(Value::Int64(kMax64), Value::Int64(2)),
      ValueDiv(Value::Int64(kMin64), Value::Int64(-1)),
      ValueNegate(Value::Int64(kMin64)),
      ValueNegate(Value::Int32(std::numeric_limits<int32_t>::min())),
  };
  for (const Result<Value>& r : overflows) {
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(r.status().message(), "integer overflow");
  }
  // In range, a mixed-width result widens instead of wrapping.
  EXPECT_EQ(ValueAdd(big32, Value::Int64(2000000000))->AsInt64(),
            4000000000);
  EXPECT_EQ(ValueDiv(Value::Int64(kMin64), Value::Int64(1))->AsInt64(),
            kMin64);
  EXPECT_EQ(ValueNegate(Value::Int32(-5))->AsInt32(), 5);
  EXPECT_EQ(ValueNegate(Value::Int32(-5))->type(), TypeId::kInt32);
  EXPECT_DOUBLE_EQ(ValueNegate(Value::Double(1.5))->AsDouble(), -1.5);
  EXPECT_TRUE(ValueNegate(Value::Null(TypeId::kInt32))->is_null());
  EXPECT_EQ(ValueNegate(Value::String("x")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ValueTest, ArithmeticNullPropagates) {
  Result<Value> r = ValueAdd(Value::Null(TypeId::kInt64), Value::Int64(1));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->is_null());
}

TEST(ValueTest, ArithmeticErrors) {
  EXPECT_FALSE(ValueDiv(Value::Int64(1), Value::Int64(0)).ok());
  EXPECT_FALSE(ValueDiv(Value::Double(1), Value::Double(0)).ok());
  EXPECT_FALSE(ValueAdd(Value::String("a"), Value::Int64(1)).ok());
}

TEST(ValueTest, RowHashAndEq) {
  Row a = {Value::String("San Jose"), Value::String("CA")};
  Row b = {Value::String("San Jose"), Value::String("CA")};
  Row c = {Value::String("Berkeley"), Value::String("CA")};
  RowHash h;
  RowEq eq;
  EXPECT_TRUE(eq(a, b));
  EXPECT_FALSE(eq(a, c));
  EXPECT_EQ(h(a), h(b));
  // Equality crosses numeric types, and so must the hash.
  Row ints = {Value::Int64(5), Value::Int32(-3), Value::Int64(0)};
  Row doubles = {Value::Double(5.0), Value::Double(-3.0), Value::Double(-0.0)};
  EXPECT_TRUE(eq(ints, doubles));
  EXPECT_EQ(h(ints), h(doubles));
}

TEST(ValueTest, RowToString) {
  Row r = {Value::String("x"), Value::Int64(1), Value::Null(TypeId::kInt64)};
  EXPECT_EQ(RowToString(r), "(x, 1, null)");
}

}  // namespace
}  // namespace wvm

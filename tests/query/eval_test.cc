#include "query/eval.h"

#include <gtest/gtest.h>

#include "sql/parser.h"

namespace wvm::query {
namespace {

class EvalTest : public ::testing::Test {
 protected:
  EvalTest()
      : schema_({
            Column::String("city", 20),
            Column::Int64("sales", true),
            Column::Date("date"),
            Column::Int32("vn"),
        }) {}

  Value Eval(const std::string& expr_sql, const Row& row,
             const ParamMap& params = {}) {
    Result<sql::ExprPtr> e = sql::ParseExpression(expr_sql);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    Result<Value> v = EvalExpr(**e, schema_, row, params);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return v.ok() ? v.value() : Value();
  }

  Status EvalError(const std::string& expr_sql, const Row& row,
                   const ParamMap& params = {}) {
    Result<sql::ExprPtr> e = sql::ParseExpression(expr_sql);
    EXPECT_TRUE(e.ok());
    return EvalExpr(**e, schema_, row, params).status();
  }

  Row MakeRow(const std::string& city, int64_t sales) {
    return {Value::String(city), Value::Int64(sales),
            Value::Date(1996, 10, 14), Value::Int32(3)};
  }

  Schema schema_;
};

TEST_F(EvalTest, ColumnRefAndLiteral) {
  Row row = MakeRow("San Jose", 100);
  EXPECT_EQ(Eval("city", row).AsString(), "San Jose");
  EXPECT_EQ(Eval("42", row).AsInt64(), 42);
  EXPECT_EQ(Eval("'x'", row).AsString(), "x");
}

TEST_F(EvalTest, Arithmetic) {
  Row row = MakeRow("a", 100);
  EXPECT_EQ(Eval("sales + 1000", row).AsInt64(), 1100);
  EXPECT_EQ(Eval("sales * 2 - 50", row).AsInt64(), 150);
  EXPECT_EQ(Eval("-sales", row).AsInt64(), -100);
}

TEST_F(EvalTest, Comparisons) {
  Row row = MakeRow("San Jose", 100);
  EXPECT_TRUE(Eval("sales >= 100", row).AsBool());
  EXPECT_FALSE(Eval("sales > 100", row).AsBool());
  EXPECT_TRUE(Eval("city = 'San Jose'", row).AsBool());
  EXPECT_TRUE(Eval("city <> 'Berkeley'", row).AsBool());
}

TEST_F(EvalTest, DateStringCoercion) {
  Row row = MakeRow("a", 1);
  EXPECT_TRUE(Eval("date = '10/14/96'", row).AsBool());
  EXPECT_TRUE(Eval("date < '10/15/96'", row).AsBool());
  EXPECT_FALSE(Eval("date = '10/13/96'", row).AsBool());
}

// Comparing incompatible non-NULL types is a query error, not an abort.
TEST_F(EvalTest, IncompatibleComparisonIsError) {
  Row row = MakeRow("a", 1);
  for (const char* expr :
       {"date = 5", "city = 5", "sales = 'x'", "5 < date", "city >= sales",
        "date <> 1.5", "date = 'not a date'"}) {
    SCOPED_TRACE(expr);
    EXPECT_EQ(EvalError(expr, row).code(), StatusCode::kInvalidArgument);
  }
  // Cross-width and int/double comparisons stay legal.
  EXPECT_TRUE(Eval("vn = 3.0", row).AsBool());
  EXPECT_TRUE(Eval("vn < sales + 10", row).AsBool());
}

TEST_F(EvalTest, IncompatibleComparisonWithNullYieldsNull) {
  Row row = {Value::Null(TypeId::kString), Value::Null(TypeId::kInt64),
             Value::Date(1996, 1, 1), Value::Int32(0)};
  EXPECT_TRUE(Eval("city = 5", row).is_null());
  EXPECT_TRUE(Eval("sales = 'x'", row).is_null());
}

TEST_F(EvalTest, Params) {
  Row row = MakeRow("a", 1);
  ParamMap params = {{"sessionVN", Value::Int64(3)}};
  EXPECT_TRUE(Eval(":sessionVN >= vn", row, params).AsBool());
  ParamMap params2 = {{"sessionVN", Value::Int64(2)}};
  EXPECT_FALSE(Eval(":sessionVN >= vn", row, params2).AsBool());
}

TEST_F(EvalTest, UnboundParamIsError) {
  Row row = MakeRow("a", 1);
  EXPECT_EQ(EvalError(":missing + 1", row).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EvalTest, NullComparisonsYieldNull) {
  Row row = {Value::Null(TypeId::kString), Value::Null(TypeId::kInt64),
             Value::Date(1996, 1, 1), Value::Int32(0)};
  EXPECT_TRUE(Eval("sales = 1", row).is_null());
  EXPECT_TRUE(Eval("sales + 1", row).is_null());
}

TEST_F(EvalTest, KleeneLogic) {
  Row row = {Value::String("x"), Value::Null(TypeId::kInt64),
             Value::Date(1996, 1, 1), Value::Int32(0)};
  // false AND NULL = false, true OR NULL = true.
  EXPECT_FALSE(Eval("city = 'y' AND sales = 1", row).AsBool());
  EXPECT_TRUE(Eval("city = 'x' OR sales = 1", row).AsBool());
  // true AND NULL = NULL, false OR NULL = NULL.
  EXPECT_TRUE(Eval("city = 'x' AND sales = 1", row).is_null());
  EXPECT_TRUE(Eval("city = 'y' OR sales = 1", row).is_null());
}

TEST_F(EvalTest, IsNull) {
  Row row = {Value::String("x"), Value::Null(TypeId::kInt64),
             Value::Date(1996, 1, 1), Value::Int32(0)};
  EXPECT_TRUE(Eval("sales IS NULL", row).AsBool());
  EXPECT_FALSE(Eval("sales IS NOT NULL", row).AsBool());
  EXPECT_TRUE(Eval("city IS NOT NULL", row).AsBool());
}

// The rewrite pattern at the heart of §4.1: CASE picks the current or
// pre-update attribute based on :sessionVN vs tupleVN.
TEST_F(EvalTest, CasePicksVersionLikePaper) {
  Schema schema({Column::Int32("tupleVN"), Column::Int64("total_sales"),
                 Column::Int64("pre_total_sales")});
  Result<sql::ExprPtr> e = sql::ParseExpression(
      "CASE WHEN :sessionVN >= tupleVN THEN total_sales "
      "ELSE pre_total_sales END");
  ASSERT_TRUE(e.ok());
  Row row = {Value::Int32(4), Value::Int64(12000), Value::Int64(10000)};

  Result<Value> current =
      EvalExpr(**e, schema, row, {{"sessionVN", Value::Int64(4)}});
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->AsInt64(), 12000);

  Result<Value> previous =
      EvalExpr(**e, schema, row, {{"sessionVN", Value::Int64(3)}});
  ASSERT_TRUE(previous.ok());
  EXPECT_EQ(previous->AsInt64(), 10000);
}

TEST_F(EvalTest, CaseNoMatchNoElseIsNull) {
  Row row = MakeRow("a", 1);
  EXPECT_TRUE(Eval("CASE WHEN sales = 99 THEN 1 END", row).is_null());
}

TEST_F(EvalTest, CaseMultipleWhensFirstMatchWins) {
  Row row = MakeRow("a", 5);
  EXPECT_EQ(Eval("CASE WHEN sales > 0 THEN 'pos' WHEN sales > 3 THEN "
                 "'big' ELSE 'neg' END",
                 row)
                .AsString(),
            "pos");
}

TEST_F(EvalTest, NotOperator) {
  Row row = MakeRow("a", 5);
  EXPECT_FALSE(Eval("NOT (sales = 5)", row).AsBool());
  EXPECT_TRUE(Eval("NOT (sales = 6)", row).AsBool());
}

TEST_F(EvalTest, UnknownColumnIsError) {
  Row row = MakeRow("a", 5);
  EXPECT_EQ(EvalError("no_such_col = 1", row).code(),
            StatusCode::kNotFound);
}

TEST_F(EvalTest, AggregateInScalarContextIsError) {
  Row row = MakeRow("a", 5);
  EXPECT_EQ(EvalError("SUM(sales)", row).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EvalTest, EvalPredicateNullRejects) {
  Row row = {Value::String("x"), Value::Null(TypeId::kInt64),
             Value::Date(1996, 1, 1), Value::Int32(0)};
  Result<sql::ExprPtr> e = sql::ParseExpression("sales = 1");
  ASSERT_TRUE(e.ok());
  Result<bool> keep = EvalPredicate(**e, schema_, row, {});
  ASSERT_TRUE(keep.ok());
  EXPECT_FALSE(keep.value());
}

}  // namespace
}  // namespace wvm::query

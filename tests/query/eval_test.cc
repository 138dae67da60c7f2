#include "query/eval.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

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

  BoundExpr Bind(const std::string& expr_sql, const ParamMap& params = {}) {
    Result<sql::ExprPtr> e = sql::ParseExpression(expr_sql);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return BoundExpr::Bind(**e, schema_, params);
  }

  // The result may point into the bound program, so it is copied while
  // the program lives.
  Value Eval(const std::string& expr_sql, const Row& row,
             const ParamMap& params = {}) {
    const BoundExpr b = Bind(expr_sql, params);
    Value scratch;
    Result<const Value*> v = b.Eval(row, &scratch);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return v.ok() ? **v : Value();
  }

  Status EvalError(const std::string& expr_sql, const Row& row,
                   const ParamMap& params = {}) {
    const BoundExpr b = Bind(expr_sql, params);
    Value scratch;
    return b.Eval(row, &scratch).status();
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
  Value scratch;

  const BoundExpr current_vn =
      BoundExpr::Bind(**e, schema, {{"sessionVN", Value::Int64(4)}});
  Result<const Value*> current = current_vn.Eval(row, &scratch);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ((*current)->AsInt64(), 12000);

  const BoundExpr previous_vn =
      BoundExpr::Bind(**e, schema, {{"sessionVN", Value::Int64(3)}});
  Result<const Value*> previous = previous_vn.Eval(row, &scratch);
  ASSERT_TRUE(previous.ok());
  EXPECT_EQ((*previous)->AsInt64(), 10000);
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

TEST_F(EvalTest, TestNullRejects) {
  Row row = {Value::String("x"), Value::Null(TypeId::kInt64),
             Value::Date(1996, 1, 1), Value::Int32(0)};
  Result<bool> keep = Bind("sales = 1").Test(row);
  ASSERT_TRUE(keep.ok());
  EXPECT_FALSE(keep.value());
}

// Integer arithmetic is checked: a result outside the operands' type is an
// error, never a wrapped value, undefined behaviour or a SIGFPE.
TEST_F(EvalTest, IntegerOverflowIsError) {
  const Row row = MakeRow("a", 1);
  const ParamMap params = {
      {"min64", Value::Int64(std::numeric_limits<int64_t>::min())},
      {"max64", Value::Int64(std::numeric_limits<int64_t>::max())},
      {"min32", Value::Int32(std::numeric_limits<int32_t>::min())},
      {"big32", Value::Int32(2000000000)},
      {"neg", Value::Int64(-1)}};
  for (const char* expr :
       {":min64 / :neg", ":min64 / -1", ":max64 + 1", ":min64 - 1",
        ":max64 * 2", ":big32 + :big32", ":big32 * :big32", "-:min64",
        "-:min32", ":min32 - vn"}) {
    SCOPED_TRACE(expr);
    const Status st = EvalError(expr, row, params);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(st.message(), "integer overflow");
  }
  // In range: INT32 stays INT32, a mix widens to INT64, nothing wraps.
  EXPECT_EQ(Eval(":big32 + vn", row, params).AsInt32(), 2000000003);
  EXPECT_EQ(Eval(":big32 + vn", row, params).type(), TypeId::kInt32);
  EXPECT_EQ(Eval(":big32 + :big32 * 1", row, params).type(), TypeId::kInt64);
  EXPECT_EQ(Eval(":big32 + 2000000000", row, params).AsInt64(), 4000000000);
  EXPECT_EQ(Eval(":max64 / :neg", row, params).AsInt64(),
            -std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Eval("-:max64", row, params).AsInt64(),
            -std::numeric_limits<int64_t>::max());
}

// --- The bound form: what binding fixes once per statement ----------------

// An unresolvable column, an unbound parameter, an aggregate and an
// unparseable date comparand bind fine and fail only when a row reaches
// them; a Kleene short circuit never reaches them.
TEST_F(EvalTest, BindErrorsAreDeferredToTheRow) {
  const Row row = MakeRow("a", 1);
  for (const char* expr : {"nope = 1", ":missing = 1", "SUM(sales) > 1",
                           "date = 'soon'"}) {
    SCOPED_TRACE(expr);
    const BoundExpr b = Bind(expr);
    EXPECT_TRUE(b.can_fail());
    EXPECT_FALSE(b.Test(row).ok());
    EXPECT_FALSE(Bind(std::string("sales = 2 AND ") + expr).Test(row).value());
    EXPECT_TRUE(Bind(std::string("sales = 1 OR ") + expr).Test(row).value());
  }
  EXPECT_FALSE(Bind("nope = 1").resolved());
  EXPECT_TRUE(Bind(":missing = 1").resolved());
}

TEST_F(EvalTest, RecordsColumnsAndUpdatables) {
  auto columns = [](const BoundExpr& b) {
    std::vector<bool> needed(4, false);
    b.MarkColumns(&needed);
    return needed;
  };
  const BoundExpr b = Bind("vn > 2 AND (sales + vn) > 0 AND city <> 'x'");
  EXPECT_EQ(columns(b), (std::vector<bool>{true, true, false, true}));
  EXPECT_TRUE(b.touches_updatable());
  EXPECT_TRUE(b.resolved());
  EXPECT_FALSE(Bind("city = 'x' AND vn = 3").touches_updatable());
  EXPECT_EQ(columns(Bind("1 = 1")), std::vector<bool>(4, false));
}

TEST_F(EvalTest, CanFailFollowsStaticTypes) {
  for (const char* expr :
       {"city = 'x'", "vn < 3.5", "date = '10/14/96'", "date >= :d",
        "sales IS NULL", "NOT (vn = 1)", "city = 'a' OR city = :s",
        "vn = 1 AND sales > 2"}) {
    SCOPED_TRACE(expr);
    EXPECT_FALSE(Bind(expr, {{"d", Value::Date(1996, 10, 1)},
                             {"s", Value::String("b")}})
                     .can_fail());
  }
  for (const char* expr :
       {"city = 5", "date = 'soon'", "sales + 1 > 2", "-vn = 1", "NOT vn",
        "CASE WHEN vn = 1 THEN sales END = 3", "date = :s"}) {
    SCOPED_TRACE(expr);
    EXPECT_TRUE(Bind(expr, {{"s", Value::String("b")}}).can_fail());
  }
}

TEST_F(EvalTest, KeysOfEqualitiesAndInLists) {
  // A key value's bytes: what the column's KeyCodec encodes it to.
  auto key_bytes = [&](size_t column, const Value& v) {
    std::string out;
    EXPECT_TRUE(KeyCodec(schema_, {column}).FromValues({v}, &out));
    return out;
  };
  const BoundExpr eq = Bind("3 = vn");
  ASSERT_TRUE(eq.key_column().has_value());
  EXPECT_EQ(*eq.key_column(), 3u);
  ASSERT_EQ(eq.key_values().size(), 1u);
  // An INT64 literal on an INT32 column encodes as the INT32 key.
  EXPECT_EQ(key_bytes(3, eq.key_values()[0]), key_bytes(3, Value::Int32(3)));

  const BoundExpr in = Bind("date = '10/14/96' OR date = :d",
                            {{"d", Value::Date(1996, 10, 15)}});
  ASSERT_TRUE(in.key_column().has_value());
  EXPECT_EQ(*in.key_column(), 2u);
  EXPECT_EQ(in.key_values().size(), 2u);
  EXPECT_EQ(key_bytes(2, in.key_values()[0]),
            key_bytes(2, Value::Date(1996, 10, 14)));

  for (const char* expr :
       {"vn = 1 OR city = 'a'", "vn > 1", "vn = 1.5", "city = 'this string is far too long'",
        "vn = :missing", "vn = NULL", "vn = 1 AND vn = 2", "date = 'soon'"}) {
    SCOPED_TRACE(expr);
    EXPECT_FALSE(Bind(expr).key_column().has_value());
  }
}

// A top-level `column cmp constant` runs on the serialized record and
// agrees with the row evaluation, mirrored comparisons and over-width
// constants included.
TEST_F(EvalTest, RecordTestAgreesWithRowTest) {
  // A full-width stored string ties with an over-width constant on the
  // whole slot; the stored value is then the smaller.
  const Row rows[] = {MakeRow("San Jose", 100), MakeRow("Berkeley", 7),
                      MakeRow("abcdefghijklmnopqrst", 7),
                      {Value::Null(TypeId::kString), Value::Int64(1),
                       Value::Date(1996, 10, 15), Value::Null(TypeId::kInt32)}};
  const char* const kExprs[] = {
      "city = 'San Jose'", "'Berkeley' < city", "city >= 'San Josexxxxxxxxxxxxxxxxxx'",
      "city <> 'San Jose'", "city = 'abcdefghijklmnopqrstu'",
      "city < 'abcdefghijklmnopqrstu'", "'abcdefghijklmnopqrstu' <= city",
      "vn <= 3", "4 > vn", "date = '10/14/96'",
      "date > :d", "sales = 100", "sales >= 3000000000"};
  for (const char* expr : kExprs) {
    SCOPED_TRACE(expr);
    Result<sql::ExprPtr> e = sql::ParseExpression(expr);
    ASSERT_TRUE(e.ok());
    const BoundExpr b = BoundExpr::Bind(
        **e, schema_, {{"d", Value::Date(1996, 10, 14)}}, &schema_);
    ASSERT_TRUE(b.on_record());
    EXPECT_FALSE(b.can_fail());
    for (const Row& row : rows) {
      std::vector<uint8_t> rec(schema_.RowByteSize());
      SerializeRow(schema_, row, rec.data());
      EXPECT_EQ(b.TestRecord(rec.data()), b.Test(row).value())
          << RowToString(row);
    }
  }
  for (const char* expr : {"vn = 2.5", "city = NULL", "sales + 1 = 2",
                           "vn = 1 OR vn = 2", "city = 5"}) {
    SCOPED_TRACE(expr);
    Result<sql::ExprPtr> e = sql::ParseExpression(expr);
    ASSERT_TRUE(e.ok());
    EXPECT_FALSE(BoundExpr::Bind(**e, schema_, {}, &schema_).on_record());
  }
}

}  // namespace
}  // namespace wvm::query

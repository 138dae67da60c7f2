#include "sql/parser.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace wvm::sql {
namespace {

TEST(ParserTest, SimpleSelect) {
  Result<SelectStmt> r =
      ParseSelect("SELECT city, state FROM DailySales");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->items.size(), 2u);
  EXPECT_EQ(r->items[0].expr->kind, ExprKind::kColumnRef);
  EXPECT_EQ(r->items[0].expr->column, "city");
  EXPECT_EQ(r->table, "DailySales");
  EXPECT_EQ(r->where, nullptr);
  EXPECT_TRUE(r->group_by.empty());
}

// Paper §2, first analyst query.
TEST(ParserTest, PaperExample21FirstQuery) {
  Result<SelectStmt> r = ParseSelect(
      "SELECT city, state, SUM(total_sales) "
      "FROM DailySales GROUP BY city, state");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->items.size(), 3u);
  EXPECT_EQ(r->items[2].expr->kind, ExprKind::kAggCall);
  EXPECT_EQ(r->items[2].expr->agg, AggFunc::kSum);
  EXPECT_EQ(r->group_by, (std::vector<std::string>{"city", "state"}));
}

// Paper §2, drill-down query.
TEST(ParserTest, PaperExample21DrillDown) {
  Result<SelectStmt> r = ParseSelect(
      "SELECT product_line, SUM(total_sales) FROM DailySales "
      "WHERE city = 'San Jose' AND state = 'CA' GROUP BY product_line");
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r->where, nullptr);
  EXPECT_EQ(r->where->kind, ExprKind::kBinary);
  EXPECT_EQ(r->where->binary_op, BinaryOp::kAnd);
}

TEST(ParserTest, SelectStar) {
  Result<SelectStmt> r = ParseSelect("SELECT * FROM t WHERE x = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->select_star);
}

TEST(ParserTest, SelectWithAlias) {
  Result<SelectStmt> r = ParseSelect("SELECT SUM(x) AS total FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->items[0].alias, "total");
}

TEST(ParserTest, InsertWithColumns) {
  Result<InsertStmt> r = ParseInsert(
      "INSERT INTO DailySales (city, total_sales) "
      "VALUES ('San Jose', 10000)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table, "DailySales");
  EXPECT_EQ(r->columns, (std::vector<std::string>{"city", "total_sales"}));
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0]->literal.AsString(), "San Jose");
}

TEST(ParserTest, InsertMultipleRowsNoColumns) {
  Result<InsertStmt> r =
      ParseInsert("INSERT INTO t VALUES (1, 2), (3, 4), (5, NULL)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->columns.empty());
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_TRUE(r->rows[2][1]->literal.is_null());
}

// Paper Example 4.3.
TEST(ParserTest, PaperExample43Update) {
  Result<UpdateStmt> r = ParseUpdate(
      "UPDATE DailySales SET total_sales = total_sales + 1000 "
      "WHERE city = 'San Jose' AND date = '10/13/96'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->sets.size(), 1u);
  EXPECT_EQ(r->sets[0].first, "total_sales");
  EXPECT_EQ(r->sets[0].second->kind, ExprKind::kBinary);
  EXPECT_EQ(r->sets[0].second->binary_op, BinaryOp::kAdd);
  ASSERT_NE(r->where, nullptr);
}

// Paper Example 4.4.
TEST(ParserTest, PaperExample44Delete) {
  Result<DeleteStmt> r = ParseDelete(
      "DELETE FROM DailySales "
      "WHERE city = 'San Jose' AND date = '10/13/96'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table, "DailySales");
  ASSERT_NE(r->where, nullptr);
}

TEST(ParserTest, CaseExpression) {
  Result<ExprPtr> r = ParseExpression(
      "CASE WHEN :sessionVN >= tupleVN THEN total_sales "
      "ELSE pre_total_sales END");
  ASSERT_TRUE(r.ok());
  const Expr& e = **r;
  EXPECT_EQ(e.kind, ExprKind::kCase);
  ASSERT_EQ(e.whens.size(), 1u);
  EXPECT_EQ(e.whens[0].condition->binary_op, BinaryOp::kGe);
  EXPECT_EQ(e.whens[0].condition->child0->kind, ExprKind::kParam);
  ASSERT_NE(e.else_expr, nullptr);
}

TEST(ParserTest, CaseWithoutElseOrMultipleWhens) {
  Result<ExprPtr> r = ParseExpression(
      "CASE WHEN a = 1 THEN 'x' WHEN a = 2 THEN 'y' END");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->whens.size(), 2u);
  EXPECT_EQ((*r)->else_expr, nullptr);
}

TEST(ParserTest, OperatorPrecedence) {
  Result<ExprPtr> r = ParseExpression("a + b * c = d OR e AND NOT f");
  ASSERT_TRUE(r.ok());
  const Expr& e = **r;
  // Top: OR
  EXPECT_EQ(e.binary_op, BinaryOp::kOr);
  // Left of OR: (a + b*c) = d
  EXPECT_EQ(e.child0->binary_op, BinaryOp::kEq);
  EXPECT_EQ(e.child0->child0->binary_op, BinaryOp::kAdd);
  EXPECT_EQ(e.child0->child0->child1->binary_op, BinaryOp::kMul);
  // Right of OR: e AND (NOT f)
  EXPECT_EQ(e.child1->binary_op, BinaryOp::kAnd);
  EXPECT_EQ(e.child1->child1->kind, ExprKind::kUnary);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  Result<ExprPtr> r = ParseExpression("(a + b) * c");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->binary_op, BinaryOp::kMul);
  EXPECT_EQ((*r)->child0->binary_op, BinaryOp::kAdd);
}

TEST(ParserTest, IsNullAndIsNotNull) {
  Result<ExprPtr> a = ParseExpression("x IS NULL");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)->kind, ExprKind::kIsNull);
  EXPECT_FALSE((*a)->is_not_null);

  Result<ExprPtr> b = ParseExpression("x IS NOT NULL");
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE((*b)->is_not_null);
}

TEST(ParserTest, CountStarAndAggregates) {
  Result<SelectStmt> r = ParseSelect(
      "SELECT COUNT(*), AVG(x), MIN(x), MAX(x) FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->items[0].expr->agg_star);
  EXPECT_EQ(r->items[1].expr->agg, AggFunc::kAvg);
  EXPECT_EQ(r->items[2].expr->agg, AggFunc::kMin);
  EXPECT_EQ(r->items[3].expr->agg, AggFunc::kMax);
}

TEST(ParserTest, UnaryMinus) {
  Result<ExprPtr> r = ParseExpression("-x + 3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->binary_op, BinaryOp::kAdd);
  EXPECT_EQ((*r)->child0->kind, ExprKind::kUnary);
}

TEST(ParserTest, IntegerLiteralsMustFitInt64) {
  Result<ExprPtr> max = ParseExpression("9223372036854775807");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ((*max)->literal.AsInt64(), INT64_MAX);

  // Out of range: an error naming the literal, not a saturated value. The
  // minus sign is a unary operator, so INT64_MIN cannot be written as a
  // literal either.
  for (const char* text : {"99999999999999999999", "-9223372036854775808"}) {
    Result<ExprPtr> r = ParseExpression(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(text[0] == '-' ? text + 1 : text),
              std::string::npos)
        << r.status().ToString();
  }
  EXPECT_FALSE(Parse("SELECT a FROM t WHERE a = 99999999999999999999").ok());
}

TEST(ParserTest, KindMismatchErrors) {
  EXPECT_FALSE(ParseSelect("DELETE FROM t").ok());
  EXPECT_FALSE(ParseInsert("SELECT * FROM t").ok());
  EXPECT_FALSE(ParseUpdate("SELECT * FROM t").ok());
  EXPECT_FALSE(ParseDelete("UPDATE t SET x = 1").ok());
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("SELECT a FROM").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t GROUP city").ok());
  EXPECT_FALSE(Parse("INSERT INTO t VALUES 1, 2").ok());
  EXPECT_FALSE(Parse("UPDATE t SET = 3").ok());
  EXPECT_FALSE(Parse("SELECT a FROM t extra_garbage junk").ok());
  EXPECT_FALSE(Parse("CASE WHEN a THEN b").ok());
  EXPECT_FALSE(ParseExpression("CASE END").ok());
  EXPECT_FALSE(ParseExpression("(a + b").ok());
  EXPECT_FALSE(ParseExpression("a +").ok());
}

TEST(ParserTest, TrailingSemicolonAllowed) {
  EXPECT_TRUE(Parse("SELECT a FROM t;").ok());
}

TEST(ParserTest, KeywordsAreCaseInsensitive) {
  EXPECT_TRUE(Parse("select a from t where a = 1 group by a").ok());
}

}  // namespace
}  // namespace wvm::sql

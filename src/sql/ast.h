#ifndef OPENWVM_SQL_AST_H_
#define OPENWVM_SQL_AST_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/value.h"

namespace wvm::sql {

// Expression AST. A tagged struct (rather than a class hierarchy) keeps
// the rewriter — the heart of the paper's §4 implementation — short: it
// walks and clones these nodes to splice in CASE expressions.
enum class ExprKind {
  kColumnRef,
  kLiteral,
  kParam,    // :name placeholder bound at execution time
  kUnary,
  kBinary,
  kAggCall,  // SUM / COUNT / AVG / MIN / MAX
  kCase,     // searched CASE WHEN ... THEN ... [ELSE ...] END
  kIsNull,   // expr IS [NOT] NULL
};

enum class UnaryOp { kNeg, kNot };

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

enum class AggFunc { kSum, kCount, kAvg, kMin, kMax };

const char* BinaryOpToSql(BinaryOp op);
const char* AggFuncToSql(AggFunc f);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct CaseWhen {
  ExprPtr condition;
  ExprPtr result;
};

struct Expr {
  ExprKind kind;

  // kColumnRef
  std::string column;
  // kLiteral
  Value literal;
  // kParam
  std::string param;
  // kUnary / kBinary / kIsNull / kAggCall (operand in child[0])
  UnaryOp unary_op = UnaryOp::kNeg;
  BinaryOp binary_op = BinaryOp::kAdd;
  ExprPtr child0;
  ExprPtr child1;
  // kAggCall
  AggFunc agg = AggFunc::kSum;
  bool agg_star = false;  // COUNT(*)
  // kCase
  std::vector<CaseWhen> whens;
  ExprPtr else_expr;  // may be null (SQL then yields NULL)
  // kIsNull
  bool is_not_null = false;

  ExprPtr Clone() const;

  // Renders the expression as SQL text (paper-style uppercase keywords).
  std::string ToSql() const;
};

// Factory helpers keep construction terse in the rewriter and tests.
ExprPtr Col(std::string name);
ExprPtr Lit(Value v);
ExprPtr LitInt(int64_t v);
ExprPtr LitStr(std::string s);
ExprPtr Param(std::string name);
ExprPtr Unary(UnaryOp op, ExprPtr e);
ExprPtr Binary(BinaryOp op, ExprPtr l, ExprPtr r);
ExprPtr Agg(AggFunc f, ExprPtr arg);
ExprPtr CountStar();
ExprPtr Case(std::vector<CaseWhen> whens, ExprPtr else_expr);
ExprPtr IsNull(ExprPtr e, bool negated);

// Conjunction builder: And(a, b) with either side possibly null.
ExprPtr AndMaybe(ExprPtr a, ExprPtr b);

// ---------------------------------------------------------------------------
// Expression analysis (the executor's predicate pushdown; everything else
// about an expression is query::BoundExpr's)

// Appends the top-level AND conjuncts of `e` to `out`; an expression
// without a top-level AND contributes itself. Pointers alias `e`.
void CollectConjuncts(const Expr& e, std::vector<const Expr*>* out);

// ---------------------------------------------------------------------------
// Statements

struct SelectItem {
  ExprPtr expr;
  std::string alias;  // optional
};

struct SelectStmt {
  std::vector<SelectItem> items;
  bool select_star = false;
  std::string table;
  ExprPtr where;                       // optional
  std::vector<std::string> group_by;   // optional

  std::string ToSql() const;
  SelectStmt Clone() const;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;    // empty = schema order
  std::vector<std::vector<ExprPtr>> rows;

  std::string ToSql() const;
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> sets;
  ExprPtr where;  // optional

  std::string ToSql() const;
};

struct DeleteStmt {
  std::string table;
  ExprPtr where;  // optional

  std::string ToSql() const;
};

enum class StatementKind { kSelect, kInsert, kUpdate, kDelete };

struct Statement {
  StatementKind kind;
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<UpdateStmt> update;
  std::unique_ptr<DeleteStmt> del;

  std::string ToSql() const;
};

}  // namespace wvm::sql

#endif  // OPENWVM_SQL_AST_H_

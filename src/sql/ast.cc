#include "sql/ast.h"

#include "common/logging.h"
#include "common/strings.h"

namespace wvm::sql {

const char* BinaryOpToSql(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kEq:  return "=";
    case BinaryOp::kNe:  return "<>";
    case BinaryOp::kLt:  return "<";
    case BinaryOp::kLe:  return "<=";
    case BinaryOp::kGt:  return ">";
    case BinaryOp::kGe:  return ">=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr:  return "OR";
  }
  return "?";
}

const char* AggFuncToSql(AggFunc f) {
  switch (f) {
    case AggFunc::kSum:   return "SUM";
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kAvg:   return "AVG";
    case AggFunc::kMin:   return "MIN";
    case AggFunc::kMax:   return "MAX";
  }
  return "?";
}

ExprPtr Col(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->column = std::move(name);
  return e;
}

ExprPtr Lit(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr LitInt(int64_t v) { return Lit(Value::Int64(v)); }
ExprPtr LitStr(std::string s) { return Lit(Value::String(std::move(s))); }

ExprPtr Param(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kParam;
  e->param = std::move(name);
  return e;
}

ExprPtr Unary(UnaryOp op, ExprPtr child) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->child0 = std::move(child);
  return e;
}

ExprPtr Binary(BinaryOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->child0 = std::move(l);
  e->child1 = std::move(r);
  return e;
}

ExprPtr Agg(AggFunc f, ExprPtr arg) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kAggCall;
  e->agg = f;
  e->child0 = std::move(arg);
  return e;
}

ExprPtr CountStar() {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kAggCall;
  e->agg = AggFunc::kCount;
  e->agg_star = true;
  return e;
}

ExprPtr Case(std::vector<CaseWhen> whens, ExprPtr else_expr) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCase;
  e->whens = std::move(whens);
  e->else_expr = std::move(else_expr);
  return e;
}

ExprPtr IsNull(ExprPtr child, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIsNull;
  e->child0 = std::move(child);
  e->is_not_null = negated;
  return e;
}

ExprPtr AndMaybe(ExprPtr a, ExprPtr b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  return Binary(BinaryOp::kAnd, std::move(a), std::move(b));
}

void CollectConjuncts(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kAnd) {
    CollectConjuncts(*e.child0, out);
    CollectConjuncts(*e.child1, out);
    return;
  }
  out->push_back(&e);
}

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->column = column;
  e->literal = literal;
  e->param = param;
  e->unary_op = unary_op;
  e->binary_op = binary_op;
  if (child0 != nullptr) e->child0 = child0->Clone();
  if (child1 != nullptr) e->child1 = child1->Clone();
  e->agg = agg;
  e->agg_star = agg_star;
  for (const CaseWhen& w : whens) {
    e->whens.push_back({w.condition->Clone(), w.result->Clone()});
  }
  if (else_expr != nullptr) e->else_expr = else_expr->Clone();
  e->is_not_null = is_not_null;
  return e;
}

namespace {

// Printer precedence: higher binds tighter.
int Precedence(BinaryOp op) {
  switch (op) {
    case BinaryOp::kOr:  return 1;
    case BinaryOp::kAnd: return 2;
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:  return 3;
    case BinaryOp::kAdd:
    case BinaryOp::kSub: return 4;
    case BinaryOp::kMul:
    case BinaryOp::kDiv: return 5;
  }
  return 0;
}

std::string LiteralToSql(const Value& v) {
  if (v.is_null()) return "NULL";
  switch (v.type()) {
    case TypeId::kString: {
      std::string out = "'";
      for (char c : v.AsString()) {
        if (c == '\'') out += "''";
        else out.push_back(c);
      }
      out += "'";
      return out;
    }
    case TypeId::kDate:
      return StrPrintf("'%s'", v.ToString().c_str());
    default:
      return v.ToString();
  }
}

// Parenthesizes `child` when needed under a binary parent. Mixed AND/OR is
// always parenthesized for readability, matching the paper's Example 4.1.
std::string ChildSql(const Expr& child, BinaryOp parent_op, bool rhs) {
  std::string s = child.ToSql();
  if (child.kind != ExprKind::kBinary) return s;
  const int pp = Precedence(parent_op);
  const int cp = Precedence(child.binary_op);
  bool need = cp < pp;
  if (cp == pp && rhs &&
      (parent_op == BinaryOp::kSub || parent_op == BinaryOp::kDiv)) {
    need = true;
  }
  if (parent_op == BinaryOp::kOr && child.binary_op == BinaryOp::kAnd) {
    need = true;
  }
  return need ? "(" + s + ")" : s;
}

}  // namespace

std::string Expr::ToSql() const {
  switch (kind) {
    case ExprKind::kColumnRef:
      return column;
    case ExprKind::kLiteral:
      return LiteralToSql(literal);
    case ExprKind::kParam:
      return ":" + param;
    case ExprKind::kUnary: {
      const std::string inner = child0->ToSql();
      const bool wrap = child0->kind == ExprKind::kBinary;
      const std::string body = wrap ? "(" + inner + ")" : inner;
      return unary_op == UnaryOp::kNeg ? "-" + body : "NOT " + body;
    }
    case ExprKind::kBinary:
      return ChildSql(*child0, binary_op, /*rhs=*/false) + " " +
             BinaryOpToSql(binary_op) + " " +
             ChildSql(*child1, binary_op, /*rhs=*/true);
    case ExprKind::kAggCall:
      if (agg_star) return std::string(AggFuncToSql(agg)) + "(*)";
      return std::string(AggFuncToSql(agg)) + "(" + child0->ToSql() + ")";
    case ExprKind::kCase: {
      std::string out = "CASE";
      for (const CaseWhen& w : whens) {
        out += " WHEN " + w.condition->ToSql() + " THEN " +
               w.result->ToSql();
      }
      if (else_expr != nullptr) out += " ELSE " + else_expr->ToSql();
      out += " END";
      return out;
    }
    case ExprKind::kIsNull:
      return child0->ToSql() + (is_not_null ? " IS NOT NULL" : " IS NULL");
  }
  WVM_UNREACHABLE("bad expr kind");
}

std::string SelectStmt::ToSql() const {
  std::string out = "SELECT ";
  if (select_star) {
    out += "*";
  } else {
    std::vector<std::string> parts;
    for (const SelectItem& item : items) {
      std::string s = item.expr->ToSql();
      if (!item.alias.empty()) s += " AS " + item.alias;
      parts.push_back(std::move(s));
    }
    out += Join(parts, ", ");
  }
  out += " FROM " + table;
  if (where != nullptr) out += " WHERE " + where->ToSql();
  if (!group_by.empty()) out += " GROUP BY " + Join(group_by, ", ");
  return out;
}

SelectStmt SelectStmt::Clone() const {
  SelectStmt s;
  for (const SelectItem& item : items) {
    s.items.push_back({item.expr->Clone(), item.alias});
  }
  s.select_star = select_star;
  s.table = table;
  if (where != nullptr) s.where = where->Clone();
  s.group_by = group_by;
  return s;
}

std::string InsertStmt::ToSql() const {
  std::string out = "INSERT INTO " + table;
  if (!columns.empty()) out += " (" + Join(columns, ", ") + ")";
  out += " VALUES ";
  std::vector<std::string> tuples;
  for (const auto& row : rows) {
    std::vector<std::string> vals;
    for (const ExprPtr& e : row) vals.push_back(e->ToSql());
    std::string tuple = "(";
    tuple += Join(vals, ", ");
    tuple += ")";
    tuples.push_back(std::move(tuple));
  }
  out += Join(tuples, ", ");
  return out;
}

std::string UpdateStmt::ToSql() const {
  std::string out = "UPDATE " + table + " SET ";
  std::vector<std::string> parts;
  for (const auto& [col, expr] : sets) {
    parts.push_back(col + " = " + expr->ToSql());
  }
  out += Join(parts, ", ");
  if (where != nullptr) out += " WHERE " + where->ToSql();
  return out;
}

std::string DeleteStmt::ToSql() const {
  std::string out = "DELETE FROM " + table;
  if (where != nullptr) out += " WHERE " + where->ToSql();
  return out;
}

std::string Statement::ToSql() const {
  switch (kind) {
    case StatementKind::kSelect: return select->ToSql();
    case StatementKind::kInsert: return insert->ToSql();
    case StatementKind::kUpdate: return update->ToSql();
    case StatementKind::kDelete: return del->ToSql();
  }
  WVM_UNREACHABLE("bad statement kind");
}

}  // namespace wvm::sql

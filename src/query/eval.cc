#include "query/eval.h"

#include "common/logging.h"

namespace wvm::query {

namespace {

// Coerces string literals to dates when compared against a DATE value.
Result<Value> CoerceForComparison(const Value& v, const Value& other) {
  if (v.type() == TypeId::kString && other.type() == TypeId::kDate &&
      !v.is_null()) {
    return Value::ParseDate(v.AsString());
  }
  return v;
}

}  // namespace

Result<Value> CompareValues(const Value& a_in, const Value& b_in,
                            sql::BinaryOp op) {
  WVM_ASSIGN_OR_RETURN(Value a, CoerceForComparison(a_in, b_in));
  WVM_ASSIGN_OR_RETURN(Value b, CoerceForComparison(b_in, a_in));
  if (a.is_null() || b.is_null()) return Value::Null(TypeId::kBool);
  if (a.type() != b.type() && !(a.IsNumeric() && b.IsNumeric())) {
    return Status::InvalidArgument(
        "cannot compare " + std::string(TypeIdToString(a.type())) + " with " +
        TypeIdToString(b.type()));
  }
  const bool lt = a < b;
  const bool gt = b < a;
  const bool eq = !lt && !gt;
  switch (op) {
    case sql::BinaryOp::kEq: return Value::Bool(eq);
    case sql::BinaryOp::kNe: return Value::Bool(!eq);
    case sql::BinaryOp::kLt: return Value::Bool(lt);
    case sql::BinaryOp::kLe: return Value::Bool(lt || eq);
    case sql::BinaryOp::kGt: return Value::Bool(gt);
    case sql::BinaryOp::kGe: return Value::Bool(gt || eq);
    default:
      return Status::Internal("CompareValues called with non-comparison op");
  }
}

Result<Value> EvalExpr(const sql::Expr& expr, const Schema& schema,
                       const Row& row, const ParamMap& params) {
  using sql::BinaryOp;
  using sql::ExprKind;
  switch (expr.kind) {
    case ExprKind::kColumnRef: {
      WVM_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(expr.column));
      return row[idx];
    }
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kParam: {
      auto it = params.find(expr.param);
      if (it == params.end()) {
        return Status::InvalidArgument("unbound parameter :" + expr.param);
      }
      return it->second;
    }
    case ExprKind::kUnary: {
      WVM_ASSIGN_OR_RETURN(Value v,
                           EvalExpr(*expr.child0, schema, row, params));
      if (v.is_null()) return Value::Null(v.type());
      if (expr.unary_op == sql::UnaryOp::kNeg) {
        if (v.type() == TypeId::kDouble) return Value::Double(-v.AsDouble());
        if (v.type() == TypeId::kInt32) return Value::Int32(-v.AsInt32());
        if (v.type() == TypeId::kInt64) return Value::Int64(-v.AsInt64());
        return Status::InvalidArgument("negation of non-numeric value");
      }
      if (v.type() != TypeId::kBool) {
        return Status::InvalidArgument("NOT of non-boolean value");
      }
      return Value::Bool(!v.AsBool());
    }
    case ExprKind::kBinary: {
      // Kleene AND/OR need special handling (short circuit on certainty).
      if (expr.binary_op == BinaryOp::kAnd ||
          expr.binary_op == BinaryOp::kOr) {
        WVM_ASSIGN_OR_RETURN(Value l,
                             EvalExpr(*expr.child0, schema, row, params));
        const bool is_and = expr.binary_op == BinaryOp::kAnd;
        if (!l.is_null() && l.AsBool() != is_and) {
          return Value::Bool(!is_and);  // false AND _, true OR _
        }
        WVM_ASSIGN_OR_RETURN(Value r,
                             EvalExpr(*expr.child1, schema, row, params));
        if (!r.is_null() && r.AsBool() != is_and) {
          return Value::Bool(!is_and);
        }
        if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
        return Value::Bool(is_and);  // both sides equal the identity
      }
      WVM_ASSIGN_OR_RETURN(Value l,
                           EvalExpr(*expr.child0, schema, row, params));
      WVM_ASSIGN_OR_RETURN(Value r,
                           EvalExpr(*expr.child1, schema, row, params));
      switch (expr.binary_op) {
        case BinaryOp::kAdd: return ValueAdd(l, r);
        case BinaryOp::kSub: return ValueSub(l, r);
        case BinaryOp::kMul: return ValueMul(l, r);
        case BinaryOp::kDiv: return ValueDiv(l, r);
        default:             return CompareValues(l, r, expr.binary_op);
      }
    }
    case ExprKind::kAggCall:
      return Status::InvalidArgument(
          "aggregate function in scalar context");
    case ExprKind::kCase: {
      for (const sql::CaseWhen& w : expr.whens) {
        WVM_ASSIGN_OR_RETURN(Value cond,
                             EvalExpr(*w.condition, schema, row, params));
        if (!cond.is_null() && cond.AsBool()) {
          return EvalExpr(*w.result, schema, row, params);
        }
      }
      if (expr.else_expr != nullptr) {
        return EvalExpr(*expr.else_expr, schema, row, params);
      }
      return Value::Null(TypeId::kInt64);
    }
    case ExprKind::kIsNull: {
      WVM_ASSIGN_OR_RETURN(Value v,
                           EvalExpr(*expr.child0, schema, row, params));
      return Value::Bool(v.is_null() != expr.is_not_null);
    }
  }
  WVM_UNREACHABLE("bad expr kind");
}

Result<bool> EvalPredicate(const sql::Expr& expr, const Schema& schema,
                           const Row& row, const ParamMap& params) {
  WVM_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, schema, row, params));
  return !v.is_null() && v.AsBool();
}

}  // namespace wvm::query

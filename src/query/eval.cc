#include "query/eval.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace wvm::query {

namespace {

// Whether values of these types compare: equal types, or two numerics.
bool Comparable(TypeId a, TypeId b) {
  auto numeric = [](TypeId t) {
    return t == TypeId::kInt32 || t == TypeId::kInt64 || t == TypeId::kDouble;
  };
  return a == b || (numeric(a) && numeric(b));
}

// The comparison that holds with its operands swapped: a < b iff b > a.
sql::BinaryOp Reversed(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kLt: return sql::BinaryOp::kGt;
    case sql::BinaryOp::kLe: return sql::BinaryOp::kGe;
    case sql::BinaryOp::kGt: return sql::BinaryOp::kLt;
    case sql::BinaryOp::kGe: return sql::BinaryOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

// Applies `op` to a three-way comparison result.
bool Holds(sql::BinaryOp op, int cmp) {
  switch (op) {
    case sql::BinaryOp::kEq: return cmp == 0;
    case sql::BinaryOp::kNe: return cmp != 0;
    case sql::BinaryOp::kLt: return cmp < 0;
    case sql::BinaryOp::kLe: return cmp <= 0;
    case sql::BinaryOp::kGt: return cmp > 0;
    case sql::BinaryOp::kGe: return cmp >= 0;
    default: return false;
  }
}

// Three-valued comparison writing Bool or NULL into *out, which may alias
// an operand: both are read before it is written. Only a string meeting a
// DATE is copied, to parse it.
Status CompareInto(const Value& a, const Value& b, sql::BinaryOp op,
                   Value* out) {
  const bool a_is_text = a.type() == TypeId::kString && !a.is_null();
  if ((a_is_text && b.type() == TypeId::kDate) ||
      (b.type() == TypeId::kString && !b.is_null() &&
       a.type() == TypeId::kDate)) {
    WVM_ASSIGN_OR_RETURN(Value date,
                         Value::ParseDate((a_is_text ? a : b).AsString()));
    return a_is_text ? CompareInto(date, b, op, out)
                     : CompareInto(a, date, op, out);
  }
  if (a.is_null() || b.is_null()) {
    *out = Value::Null(TypeId::kBool);
    return Status::OK();
  }
  if (!Comparable(a.type(), b.type())) {
    return Status::InvalidArgument(
        "cannot compare " + std::string(TypeIdToString(a.type())) + " with " +
        TypeIdToString(b.type()));
  }
  const int cmp = a < b ? -1 : (b < a ? 1 : 0);
  *out = Value::Bool(Holds(op, cmp));
  return Status::OK();
}

}  // namespace

// --- Binding ---------------------------------------------------------------

BoundExpr BoundExpr::Bind(const sql::Expr& expr, const Schema& schema,
                          const ParamMap& params, const Schema* record) {
  BoundExpr b;
  b.nodes_.reserve(8);  // most conjuncts and items need no regrowth
  const uint32_t root = b.BindNode(expr, schema, params);
  size_t column = 0;
  if (b.CollectKeys(root, schema, &column, &b.key_values_)) {
    b.key_column_ = column;
  } else {
    b.key_values_.clear();
  }
  if (record != nullptr) b.BindRecordTest(schema, *record);
  return b;
}

uint32_t BoundExpr::BindNode(const sql::Expr& e, const Schema& schema,
                             const ParamMap& params) {
  Node n;
  auto fails = [&](uint32_t child) { return nodes_[child].can_fail; };
  switch (e.kind) {
    case sql::ExprKind::kColumnRef: {
      Result<size_t> idx = schema.IndexOf(e.column);
      if (!idx.ok()) {
        resolved_ = false;
        Defer(&n, idx.status());
        break;
      }
      const Column& col = schema.column(idx.value());
      touches_updatable_ = touches_updatable_ || col.updatable;
      n.op = Op::kColumn;
      n.column = idx.value();
      n.type = col.type;
      n.can_fail = false;
      break;
    }
    case sql::ExprKind::kLiteral:
    case sql::ExprKind::kParam: {
      auto it = params.find(e.param);
      if (e.kind == sql::ExprKind::kParam && it == params.end()) {
        Defer(&n, Status::InvalidArgument("unbound parameter :" + e.param));
        break;
      }
      n.op = Op::kConst;
      n.value = e.kind == sql::ExprKind::kLiteral ? e.literal : it->second;
      n.type = n.value.type();
      n.can_fail = false;
      break;
    }
    case sql::ExprKind::kAggCall:
      has_aggregate_ = true;
      Defer(&n,
            Status::InvalidArgument("aggregate function in scalar context"));
      break;
    case sql::ExprKind::kUnary:
    case sql::ExprKind::kIsNull:
      n.lhs = BindNode(*e.child0, schema, params);
      if (e.kind == sql::ExprKind::kIsNull) {
        n.op = Op::kIsNull;
        n.flag = e.is_not_null;
        n.can_fail = fails(n.lhs);
      } else if (e.unary_op == sql::UnaryOp::kNot) {
        n.op = Op::kNot;
        n.can_fail = fails(n.lhs) || nodes_[n.lhs].type != TypeId::kBool;
      } else {
        n.op = Op::kNeg;  // may overflow
        break;
      }
      n.type = TypeId::kBool;
      break;
    case sql::ExprKind::kCase:
      // The WHENs bind last to first, each node the rest of the one
      // before it; the first WHEN is the CASE's own node.
      n.op = Op::kCase;
      n.flag = e.else_expr != nullptr;
      if (n.flag) n.other = BindNode(*e.else_expr, schema, params);
      for (size_t w = e.whens.size(); w-- > 0;) {
        n.lhs = BindNode(*e.whens[w].condition, schema, params);
        n.rhs = BindNode(*e.whens[w].result, schema, params);
        n.can_fail = fails(n.lhs) || fails(n.rhs) || (n.flag && fails(n.other));
        if (w == 0) break;
        nodes_.push_back(n);
        n.other = static_cast<uint32_t>(nodes_.size() - 1);
        n.flag = true;
      }
      break;  // the result's type is known only at run time
    case sql::ExprKind::kBinary:
      n.binary = e.binary_op;
      n.lhs = BindNode(*e.child0, schema, params);
      n.rhs = BindNode(*e.child1, schema, params);
      switch (e.binary_op) {
        case sql::BinaryOp::kAnd:
        case sql::BinaryOp::kOr:
          n.op = e.binary_op == sql::BinaryOp::kAnd ? Op::kAnd : Op::kOr;
          n.type = TypeId::kBool;
          n.can_fail = fails(n.lhs) || fails(n.rhs);
          break;
        case sql::BinaryOp::kAdd:
        case sql::BinaryOp::kSub:
        case sql::BinaryOp::kMul:
        case sql::BinaryOp::kDiv:
          n.op = Op::kArith;  // may overflow
          n.arith = e.binary_op == sql::BinaryOp::kAdd   ? ValueAdd
                    : e.binary_op == sql::BinaryOp::kSub ? ValueSub
                    : e.binary_op == sql::BinaryOp::kMul ? ValueMul
                                                         : ValueDiv;
          break;
        default:
          BindComparison(&n);
          break;
      }
      break;
  }
  nodes_.push_back(std::move(n));
  return static_cast<uint32_t>(nodes_.size() - 1);
}

void BoundExpr::Defer(Node* n, Status error) {
  n->op = Op::kError;
  n->column = errors_.size();
  errors_.push_back(std::move(error));
}

void BoundExpr::BindComparison(Node* n) {
  n->op = Op::kCompare;
  n->type = TypeId::kBool;
  // A string constant compared with a DATE column is parsed here, once; a
  // string that does not parse fails when a row reaches the comparison.
  for (uint32_t side : {n->lhs, n->rhs}) {
    Node& k = nodes_[side];
    const Node& other = nodes_[side == n->lhs ? n->rhs : n->lhs];
    if (k.op != Op::kConst || k.value.is_null() ||
        k.value.type() != TypeId::kString || other.op != Op::kColumn ||
        other.type != TypeId::kDate) {
      continue;
    }
    Result<Value> date = Value::ParseDate(k.value.AsString());
    if (!date.ok()) return Defer(n, date.status());
    k.value = std::move(date).value();
    k.type = TypeId::kDate;
  }
  // `constant cmp column` is kept as `column cmp' constant`: neither
  // operand can fail, so the order they evaluate in is invisible.
  if (nodes_[n->lhs].op == Op::kConst && nodes_[n->rhs].op == Op::kColumn) {
    std::swap(n->lhs, n->rhs);
    n->binary = Reversed(n->binary);
  }
  const Node& l = nodes_[n->lhs];
  const Node& r = nodes_[n->rhs];
  n->can_fail = l.can_fail || r.can_fail || !l.type.has_value() ||
                !r.type.has_value() || !Comparable(*l.type, *r.type);
}

const Column* BoundExpr::ExactColumnConstant(const Node& n,
                                             const Schema& schema) const {
  if (n.op != Op::kCompare || nodes_[n.lhs].op != Op::kColumn ||
      nodes_[n.rhs].op != Op::kConst || nodes_[n.rhs].value.is_null()) {
    return nullptr;
  }
  const Column& col = schema.column(nodes_[n.lhs].column);
  const TypeId t = nodes_[n.rhs].value.type();
  switch (col.type) {
    case TypeId::kInt32:
    case TypeId::kInt64:
      return t == TypeId::kInt32 || t == TypeId::kInt64 ? &col : nullptr;
    case TypeId::kDate:
    case TypeId::kString:
      return t == col.type ? &col : nullptr;
    default:
      return nullptr;
  }
}

bool BoundExpr::CollectKeys(uint32_t i, const Schema& schema, size_t* column,
                            std::vector<Value>* values) const {
  const Node& n = nodes_[i];
  if (n.op == Op::kOr) {
    return CollectKeys(n.lhs, schema, column, values) &&
           CollectKeys(n.rhs, schema, column, values);
  }
  const Column* col =
      n.binary == sql::BinaryOp::kEq ? ExactColumnConstant(n, schema) : nullptr;
  if (col == nullptr) return false;
  const Value& v = nodes_[n.rhs].value;
  // An over-width string can never equal a stored (truncated) value.
  if (v.type() == TypeId::kString && v.AsString().size() > col->width) {
    return false;
  }
  const size_t c = nodes_[n.lhs].column;
  if (!values->empty() && *column != c) return false;  // mixed-column OR
  *column = c;
  values->push_back(v);
  return true;
}

void BoundExpr::BindRecordTest(const Schema& schema, const Schema& record) {
  const Node& n = nodes_.back();
  const Column* col = ExactColumnConstant(n, schema);
  if (col == nullptr) return;
  RecordTest t;
  t.offset = record.ColumnOffset(nodes_[n.lhs].column);
  t.width = col->width;
  if (col->type == TypeId::kString) {
    const std::string& s = nodes_[n.rhs].value.AsString();
    t.rhs_longer = s.size() > t.width;
    t.string_rhs = s.substr(0, std::min<size_t>(s.size(), t.width));
    t.string_rhs.resize(t.width, '\0');
  }
  record_ = std::move(t);
}

void BoundExpr::MarkColumns(std::vector<bool>* needed) const {
  for (const Node& n : nodes_) {
    if (n.op == Op::kColumn) (*needed)[n.column] = true;
  }
}

// --- Evaluation ------------------------------------------------------------

bool BoundExpr::TestRecord(const uint8_t* rec) const {
  const RecordTest& t = *record_;
  const Node& n = nodes_.back();
  // SQL ternary logic: NULL cmp anything is NULL, which rejects.
  if (RecordColumnIsNull(rec, nodes_[n.lhs].column)) return false;
  int cmp;
  if (!t.string_rhs.empty()) {
    // Both sides are zero-padded fixed-width images, so memcmp over the
    // slot matches std::string comparison of the decoded values. A
    // constant longer than the width can only tie on the prefix, and the
    // decoded value is then strictly smaller.
    cmp = std::memcmp(rec + t.offset, t.string_rhs.data(), t.width);
    cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    if (cmp == 0 && t.rhs_longer) cmp = -1;
  } else {
    // Ints load from 4 or 8 bytes; a DATE is a packed yyyymmdd int32,
    // which orders like the date.
    int64_t v;
    if (t.width == 4) {
      int32_t x;
      std::memcpy(&x, rec + t.offset, 4);
      v = x;
    } else {
      std::memcpy(&v, rec + t.offset, 8);
    }
    const int64_t rhs = nodes_[n.rhs].value.AsInt64();
    cmp = v < rhs ? -1 : (v > rhs ? 1 : 0);
  }
  return Holds(n.binary, cmp);
}

Result<const Value*> BoundExpr::Eval(const Row& row, Value* scratch) const {
  if (nodes_.back().op == Op::kColumn) return &row[nodes_.back().column];
  const Value* v;
  WVM_RETURN_IF_ERROR(Run(static_cast<uint32_t>(nodes_.size() - 1), row,
                          scratch, &v));
  return v;
}

Result<bool> BoundExpr::Test(const Row& row) const {
  Value scratch;
  const Value* v;
  WVM_RETURN_IF_ERROR(Run(static_cast<uint32_t>(nodes_.size() - 1), row,
                          &scratch, &v));
  return !v->is_null() && v->AsBool();
}

Status BoundExpr::Run(uint32_t i, const Row& row, Value* tmp,
                      const Value** out) const {
  const Node& n = nodes_[i];
  switch (n.op) {
    case Op::kColumn:
      *out = &row[n.column];
      return Status::OK();
    case Op::kConst:
      *out = &n.value;
      return Status::OK();
    case Op::kError:
      return errors_[n.column];
    case Op::kAnd:
    case Op::kOr: {
      // Kleene logic, short-circuiting on a decided left side: the right
      // side is not evaluated (and cannot fail) after false AND / true OR.
      const bool is_and = n.op == Op::kAnd;
      auto decides = [is_and](const Value* v) {
        return !v->is_null() && v->AsBool() != is_and;
      };
      Value left;
      const Value* l;
      WVM_RETURN_IF_ERROR(Run(n.lhs, row, &left, &l));
      const Value* r = l;
      if (!decides(l)) WVM_RETURN_IF_ERROR(Run(n.rhs, row, tmp, &r));
      if (decides(l) || decides(r)) {
        *tmp = Value::Bool(!is_and);
      } else {
        *tmp = l->is_null() || r->is_null() ? Value::Null(TypeId::kBool)
                                            : Value::Bool(is_and);
      }
      *out = tmp;
      return Status::OK();
    }
    case Op::kCase: {
      Value cond;
      const Value* c;
      WVM_RETURN_IF_ERROR(Run(n.lhs, row, &cond, &c));
      if (!c->is_null() && c->AsBool()) return Run(n.rhs, row, tmp, out);
      if (n.flag) return Run(n.other, row, tmp, out);
      *tmp = Value::Null(TypeId::kInt64);
      *out = tmp;
      return Status::OK();
    }
    default:
      break;
  }
  // The operators over evaluated operands: left into a local, right (if
  // any) and the result into *tmp.
  Value left;
  const Value* l;
  const Value* r = nullptr;
  WVM_RETURN_IF_ERROR(Run(n.lhs, row, &left, &l));
  if (n.op == Op::kArith || n.op == Op::kCompare) {
    WVM_RETURN_IF_ERROR(Run(n.rhs, row, tmp, &r));
  }
  switch (n.op) {
    case Op::kNeg: {
      WVM_ASSIGN_OR_RETURN(*tmp, ValueNegate(*l));
      break;
    }
    case Op::kNot:
      if (!l->is_null() && l->type() != TypeId::kBool) {
        return Status::InvalidArgument("NOT of non-boolean value");
      }
      *tmp = l->is_null() ? Value::Null(l->type()) : Value::Bool(!l->AsBool());
      break;
    case Op::kIsNull:
      *tmp = Value::Bool(l->is_null() != n.flag);
      break;
    case Op::kCompare:
      WVM_RETURN_IF_ERROR(CompareInto(*l, *r, n.binary, tmp));
      break;
    default: {
      WVM_ASSIGN_OR_RETURN(*tmp, n.arith(*l, *r));
      break;
    }
  }
  *out = tmp;
  return Status::OK();
}

Result<Value> CoerceToColumn(const Column& col, Value v) {
  if (col.type == TypeId::kDate && v.type() == TypeId::kString &&
      !v.is_null()) {
    return Value::ParseDate(v.AsString());
  }
  WVM_RETURN_IF_ERROR(CheckColumnValue(col, v));
  return v;
}

}  // namespace wvm::query

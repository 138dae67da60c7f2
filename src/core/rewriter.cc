#include "core/rewriter.h"

#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace wvm::core {

namespace {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprPtr;

// :session >= tupleVN_k
ExprPtr SessionGeSlot(const VersionedSchema& vs, int slot,
                      const std::string& param) {
  return sql::Binary(
      BinaryOp::kGe, sql::Param(param),
      sql::Col(TupleVnColumnName(slot, vs.n())));
}

// :session < tupleVN_k
ExprPtr SessionLtSlot(const VersionedSchema& vs, int slot,
                      const std::string& param) {
  return sql::Binary(
      BinaryOp::kLt, sql::Param(param),
      sql::Col(TupleVnColumnName(slot, vs.n())));
}

// operation_k <> 'op'
ExprPtr OpNe(const VersionedSchema& vs, int slot, Op op) {
  return sql::Binary(BinaryOp::kNe,
                     sql::Col(OperationColumnName(slot, vs.n())),
                     sql::LitStr(OpToString(op)));
}

// Ordinal of `logical_col` among the updatable columns.
Result<size_t> UpdatableOrdinal(const VersionedSchema& vs,
                                size_t logical_col) {
  for (size_t u = 0; u < vs.updatable().size(); ++u) {
    if (vs.updatable()[u] == logical_col) return u;
  }
  return Status::Internal("column is not updatable");
}

}  // namespace

sql::ExprPtr BuildVersionCase(const VersionedSchema& vschema,
                              size_t logical_col,
                              const std::string& session_param) {
  const std::string& name = vschema.logical().column(logical_col).name;
  Result<size_t> ordinal = UpdatableOrdinal(vschema, logical_col);
  WVM_CHECK(ordinal.ok());
  (void)ordinal;

  // CASE WHEN :s >= tupleVN1 THEN A
  //      WHEN :s >= tupleVN2 THEN pre_A1
  //      ...
  //      ELSE pre_A{n-1} END
  // For n = 2 this is exactly the paper's
  //   CASE WHEN :sessionVN >= tupleVN THEN A ELSE pre_A END.
  std::vector<sql::CaseWhen> whens;
  whens.push_back({SessionGeSlot(vschema, 0, session_param),
                   sql::Col(name)});
  for (int slot = 1; slot < vschema.num_slots(); ++slot) {
    whens.push_back(
        {SessionGeSlot(vschema, slot, session_param),
         sql::Col(PreColumnName(name, slot - 1, vschema.n()))});
  }
  ExprPtr else_expr =
      sql::Col(PreColumnName(name, vschema.num_slots() - 1, vschema.n()));
  return sql::Case(std::move(whens), std::move(else_expr));
}

sql::ExprPtr BuildVisibilityPredicate(const VersionedSchema& vschema,
                                      const std::string& session_param) {
  // Disjunct for the current version:
  //   :s >= tupleVN1 AND operation1 <> 'delete'
  ExprPtr pred = sql::Binary(BinaryOp::kAnd,
                             SessionGeSlot(vschema, 0, session_param),
                             OpNe(vschema, 0, Op::kDelete));
  // One disjunct per pre-update slot k:
  //   :s < tupleVN_k [AND :s >= tupleVN_{k+1}] AND operation_k <> 'insert'
  for (int slot = 0; slot < vschema.num_slots(); ++slot) {
    ExprPtr d = SessionLtSlot(vschema, slot, session_param);
    if (slot + 1 < vschema.num_slots()) {
      d = sql::Binary(BinaryOp::kAnd, std::move(d),
                      SessionGeSlot(vschema, slot + 1, session_param));
    }
    d = sql::Binary(BinaryOp::kAnd, std::move(d),
                    OpNe(vschema, slot, Op::kInsert));
    pred = sql::Binary(BinaryOp::kOr, std::move(pred), std::move(d));
  }
  return pred;
}

namespace {

// Recursively replaces references to updatable attributes with their
// version-extracting CASE expressions.
Status RewriteExpr(ExprPtr* expr, const VersionedSchema& vs,
                   const std::string& session_param) {
  Expr& e = **expr;
  switch (e.kind) {
    case sql::ExprKind::kColumnRef: {
      Result<size_t> idx = vs.logical().IndexOf(e.column);
      if (!idx.ok()) {
        return Status::InvalidArgument("unknown column '" + e.column +
                                       "' in reader query");
      }
      if (vs.logical().column(idx.value()).updatable) {
        *expr = BuildVersionCase(vs, idx.value(), session_param);
      }
      return Status::OK();
    }
    case sql::ExprKind::kLiteral:
    case sql::ExprKind::kParam:
      return Status::OK();
    default: {
      if (e.child0 != nullptr) {
        WVM_RETURN_IF_ERROR(RewriteExpr(&e.child0, vs, session_param));
      }
      if (e.child1 != nullptr) {
        WVM_RETURN_IF_ERROR(RewriteExpr(&e.child1, vs, session_param));
      }
      for (sql::CaseWhen& w : e.whens) {
        WVM_RETURN_IF_ERROR(RewriteExpr(&w.condition, vs, session_param));
        WVM_RETURN_IF_ERROR(RewriteExpr(&w.result, vs, session_param));
      }
      if (e.else_expr != nullptr) {
        WVM_RETURN_IF_ERROR(RewriteExpr(&e.else_expr, vs, session_param));
      }
      return Status::OK();
    }
  }
}

}  // namespace

Result<sql::SelectStmt> RewriteReaderQuery(
    const sql::SelectStmt& stmt, const VersionedSchema& vschema,
    const ReaderRewriteOptions& options) {
  sql::SelectStmt out = stmt.Clone();

  if (out.select_star) {
    // Expand * to the logical columns so bookkeeping columns stay hidden.
    out.select_star = false;
    for (const Column& c : vschema.logical().columns()) {
      out.items.push_back({sql::Col(c.name), /*alias=*/""});
    }
  }

  for (sql::SelectItem& item : out.items) {
    WVM_RETURN_IF_ERROR(
        RewriteExpr(&item.expr, vschema, options.session_param));
  }
  if (out.where != nullptr) {
    WVM_RETURN_IF_ERROR(
        RewriteExpr(&out.where, vschema, options.session_param));
  }
  for (const std::string& g : out.group_by) {
    WVM_ASSIGN_OR_RETURN(size_t idx, vschema.logical().IndexOf(g));
    if (vschema.logical().column(idx).updatable) {
      return Status::Unimplemented(
          "GROUP BY on an updatable attribute cannot be rewritten "
          "(the paper's summary tables group only by key attributes)");
    }
  }

  // WHERE (visibility) [AND (original condition)] — Example 4.1 adds the
  // visibility condition; an existing predicate is conjoined.
  ExprPtr visibility =
      BuildVisibilityPredicate(vschema, options.session_param);
  out.where = sql::AndMaybe(std::move(visibility), std::move(out.where));
  return out;
}

namespace {

// One `col = literal-or-param` leaf. Resolves the bound value, normalized
// through the column codec. False when the expression is not that shape or
// the value cannot be matched losslessly against stored keys.
bool BindEqualityLeaf(const sql::Expr& e, const Schema& schema,
                      const query::ParamMap& params, size_t* col_out,
                      Value* value_out) {
  if (e.kind != sql::ExprKind::kBinary ||
      e.binary_op != sql::BinaryOp::kEq) {
    return false;
  }
  const sql::Expr* lhs = e.child0.get();
  const sql::Expr* rhs = e.child1.get();
  auto is_const = [](const sql::Expr* x) {
    return x->kind == sql::ExprKind::kLiteral ||
           x->kind == sql::ExprKind::kParam;
  };
  if (lhs->kind != sql::ExprKind::kColumnRef || !is_const(rhs)) {
    if (rhs->kind == sql::ExprKind::kColumnRef && is_const(lhs)) {
      std::swap(lhs, rhs);  // kEq is symmetric
    } else {
      return false;
    }
  }
  Result<size_t> idx = schema.IndexOf(lhs->column);
  if (!idx.ok()) return false;
  Value v;
  if (rhs->kind == sql::ExprKind::kLiteral) {
    v = rhs->literal;
  } else {
    auto it = params.find(rhs->param);
    if (it == params.end()) return false;  // scan path reports the error
    v = it->second;
  }
  if (v.is_null()) return false;  // NULL = x never matches anything

  const Column& col = schema.column(idx.value());
  switch (col.type) {
    case TypeId::kInt32:
    case TypeId::kInt64:
      // Cross-width int equality agrees with the hash index (Values hash
      // and compare ints by int64). A double comparand can be SQL-equal
      // without hashing equal, so it stays on the scan path.
      if (v.type() != TypeId::kInt32 && v.type() != TypeId::kInt64) {
        return false;
      }
      break;
    case TypeId::kString:
      if (v.type() != TypeId::kString) return false;
      // An over-width literal can never equal a stored (truncated) value;
      // the scan path evaluates that to constant-false exactly.
      if (v.AsString().size() > col.width) return false;
      break;
    case TypeId::kDate:
      // A string comparand is coerced exactly as CompareValues does; one
      // ParseDate rejects stays on the scan path, which reports the error.
      if (v.type() == TypeId::kString) {
        Result<Value> parsed = Value::ParseDate(v.AsString());
        if (!parsed.ok()) return false;
        v = std::move(parsed).value();
      }
      if (v.type() != TypeId::kDate) return false;
      break;
    default:
      return false;  // bool/double: codec vs SQL equality mismatch
  }
  *col_out = idx.value();
  *value_out = NormalizeValueForColumn(col, v);
  return true;
}

// Flattens an OR tree whose leaves are all equalities over one single
// column (the IN-list shape) into that column's candidate values.
bool CollectOrEqualities(const sql::Expr& e, const Schema& schema,
                         const query::ParamMap& params, size_t* col_out,
                         bool* col_set, std::vector<Value>* values) {
  if (e.kind == sql::ExprKind::kBinary &&
      e.binary_op == sql::BinaryOp::kOr) {
    return CollectOrEqualities(*e.child0, schema, params, col_out, col_set,
                               values) &&
           CollectOrEqualities(*e.child1, schema, params, col_out, col_set,
                               values);
  }
  size_t col = 0;
  Value v;
  if (!BindEqualityLeaf(e, schema, params, &col, &v)) return false;
  if (*col_set && col != *col_out) return false;  // mixed-column OR
  *col_out = col;
  *col_set = true;
  values->push_back(std::move(v));
  return true;
}

}  // namespace

std::optional<std::vector<Row>> BindIndexKeys(
    const std::vector<const sql::Expr*>& conjuncts, const Schema& schema,
    const std::vector<size_t>& columns, const query::ParamMap& params,
    size_t max_candidates) {
  if (columns.empty()) return std::nullopt;
  std::vector<std::vector<Value>> candidates(columns.size());
  for (const sql::Expr* e : conjuncts) {
    size_t col = 0;
    bool col_set = false;
    std::vector<Value> values;
    if (!CollectOrEqualities(*e, schema, params, &col, &col_set, &values)) {
      continue;  // not a binding conjunct; it remains an ordinary filter
    }
    for (size_t i = 0; i < columns.size(); ++i) {
      // First binding conjunct per column wins; further conjuncts on the
      // same column (or declined shapes) still filter every candidate row,
      // so a superset of the true key set is always correct.
      if (columns[i] != col || !candidates[i].empty()) continue;
      for (const Value& v : values) {
        bool dup = false;
        for (const Value& u : candidates[i]) dup = dup || u == v;
        if (!dup) candidates[i].push_back(v);
      }
    }
  }
  size_t total = 1;
  for (const std::vector<Value>& c : candidates) {
    if (c.empty()) return std::nullopt;  // column unbound: no point access
    if (c.size() > max_candidates / total) return std::nullopt;
    total *= c.size();
  }
  std::vector<Row> keys;
  keys.reserve(total);
  std::vector<size_t> pick(columns.size(), 0);
  for (;;) {
    Row key;
    key.reserve(columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
      key.push_back(candidates[i][pick[i]]);
    }
    keys.push_back(std::move(key));
    size_t i = 0;
    while (i < columns.size() && ++pick[i] == candidates[i].size()) {
      pick[i] = 0;
      ++i;
    }
    if (i == columns.size()) break;
  }
  return keys;
}

bool BindsIndexColumn(const sql::Expr& conjunct, const Schema& schema,
                      const query::ParamMap& params) {
  size_t col = 0;
  bool col_set = false;
  std::vector<Value> values;
  return CollectOrEqualities(conjunct, schema, params, &col, &col_set,
                             &values);
}

}  // namespace wvm::core

#include "core/rewriter.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace wvm::core {

namespace {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprPtr;

// :sessionVN >= tupleVN_k
ExprPtr SessionGeSlot(const VersionedSchema& vs, int slot) {
  return sql::Binary(BinaryOp::kGe, sql::Param(kSessionVnParam),
                     sql::Col(TupleVnColumnName(slot, vs.n())));
}

// :sessionVN < tupleVN_k
ExprPtr SessionLtSlot(const VersionedSchema& vs, int slot) {
  return sql::Binary(BinaryOp::kLt, sql::Param(kSessionVnParam),
                     sql::Col(TupleVnColumnName(slot, vs.n())));
}

// operation_k <> 'op'
ExprPtr OpNe(const VersionedSchema& vs, int slot, Op op) {
  return sql::Binary(BinaryOp::kNe,
                     sql::Col(OperationColumnName(slot, vs.n())),
                     sql::LitStr(OpToString(op)));
}

}  // namespace

sql::ExprPtr BuildVersionCase(const VersionedSchema& vschema,
                              size_t logical_col) {
  WVM_CHECK(vschema.logical().column(logical_col).updatable);
  const std::string& name = vschema.logical().column(logical_col).name;

  // CASE WHEN :s >= tupleVN1 THEN A
  //      WHEN :s >= tupleVN2 THEN pre_A1
  //      ...
  //      ELSE pre_A{n-1} END
  // For n = 2 this is exactly the paper's
  //   CASE WHEN :sessionVN >= tupleVN THEN A ELSE pre_A END.
  std::vector<sql::CaseWhen> whens;
  whens.push_back({SessionGeSlot(vschema, 0), sql::Col(name)});
  for (int slot = 1; slot < vschema.num_slots(); ++slot) {
    whens.push_back({SessionGeSlot(vschema, slot),
                     sql::Col(PreColumnName(name, slot - 1, vschema.n()))});
  }
  ExprPtr else_expr =
      sql::Col(PreColumnName(name, vschema.num_slots() - 1, vschema.n()));
  return sql::Case(std::move(whens), std::move(else_expr));
}

sql::ExprPtr BuildVisibilityPredicate(const VersionedSchema& vschema) {
  // Disjunct for the current version:
  //   :s >= tupleVN1 AND operation1 <> 'delete'
  ExprPtr pred = sql::Binary(BinaryOp::kAnd, SessionGeSlot(vschema, 0),
                             OpNe(vschema, 0, Op::kDelete));
  // One disjunct per pre-update slot k:
  //   :s < tupleVN_k [AND :s >= tupleVN_{k+1}] AND operation_k <> 'insert'
  for (int slot = 0; slot < vschema.num_slots(); ++slot) {
    ExprPtr d = SessionLtSlot(vschema, slot);
    if (slot + 1 < vschema.num_slots()) {
      d = sql::Binary(BinaryOp::kAnd, std::move(d),
                      SessionGeSlot(vschema, slot + 1));
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
Status RewriteExpr(ExprPtr* expr, const VersionedSchema& vs) {
  Expr& e = **expr;
  switch (e.kind) {
    case sql::ExprKind::kColumnRef: {
      Result<size_t> idx = vs.logical().IndexOf(e.column);
      if (!idx.ok()) {
        return Status::InvalidArgument("unknown column '" + e.column +
                                       "' in reader query");
      }
      if (vs.logical().column(idx.value()).updatable) {
        *expr = BuildVersionCase(vs, idx.value());
      }
      return Status::OK();
    }
    case sql::ExprKind::kLiteral:
    case sql::ExprKind::kParam:
      return Status::OK();
    default: {
      if (e.child0 != nullptr) {
        WVM_RETURN_IF_ERROR(RewriteExpr(&e.child0, vs));
      }
      if (e.child1 != nullptr) {
        WVM_RETURN_IF_ERROR(RewriteExpr(&e.child1, vs));
      }
      for (sql::CaseWhen& w : e.whens) {
        WVM_RETURN_IF_ERROR(RewriteExpr(&w.condition, vs));
        WVM_RETURN_IF_ERROR(RewriteExpr(&w.result, vs));
      }
      if (e.else_expr != nullptr) {
        WVM_RETURN_IF_ERROR(RewriteExpr(&e.else_expr, vs));
      }
      return Status::OK();
    }
  }
}

}  // namespace

Result<sql::SelectStmt> RewriteReaderQuery(const sql::SelectStmt& stmt,
                                           const VersionedSchema& vschema) {
  sql::SelectStmt out = stmt.Clone();

  if (out.select_star) {
    // Expand * to the logical columns so bookkeeping columns stay hidden.
    out.select_star = false;
    for (const Column& c : vschema.logical().columns()) {
      out.items.push_back({sql::Col(c.name), /*alias=*/""});
    }
  }

  for (sql::SelectItem& item : out.items) {
    WVM_RETURN_IF_ERROR(RewriteExpr(&item.expr, vschema));
  }
  if (out.where != nullptr) {
    WVM_RETURN_IF_ERROR(RewriteExpr(&out.where, vschema));
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
  out.where = sql::AndMaybe(BuildVisibilityPredicate(vschema),
                            std::move(out.where));
  return out;
}

std::optional<std::vector<std::string>> BindIndexKeys(
    const std::vector<query::BoundExpr>& conjuncts, const KeyCodec& index,
    size_t max_candidates) {
  const std::vector<size_t>& columns = index.columns();
  if (columns.empty()) return std::nullopt;
  std::vector<const std::vector<Value>*> candidates(columns.size(), nullptr);
  for (const query::BoundExpr& e : conjuncts) {
    // A conjunct without keys remains an ordinary filter.
    if (!e.key_column().has_value()) continue;
    for (size_t i = 0; i < columns.size(); ++i) {
      // First binding conjunct per column wins; further conjuncts on the
      // same column (or declined shapes) still filter every candidate row,
      // so a superset of the true key set is always correct.
      if (columns[i] == *e.key_column() && candidates[i] == nullptr) {
        candidates[i] = &e.key_values();
      }
    }
  }
  size_t total = 1;
  for (const std::vector<Value>* c : candidates) {
    if (c == nullptr) return std::nullopt;  // column unbound: no point access
    if (c->size() > max_candidates / total) return std::nullopt;
    total *= c->size();
  }
  std::vector<std::string> keys;
  keys.reserve(total);
  Row values(columns.size());
  std::string key;
  std::vector<size_t> pick(columns.size(), 0);
  for (;;) {
    for (size_t i = 0; i < columns.size(); ++i) {
      values[i] = (*candidates[i])[pick[i]];
    }
    if (index.FromValues(values, &key) &&
        std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
    size_t i = 0;
    while (i < columns.size() && ++pick[i] == candidates[i]->size()) {
      pick[i] = 0;
      ++i;
    }
    if (i == columns.size()) break;
  }
  return keys;
}

}  // namespace wvm::core

#include "query/executor.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/logging.h"
#include "common/strings.h"

namespace wvm::query {

namespace {

// Lexicographic row order used to sort grouped output deterministically.
struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      if (a[i] < b[i]) return true;
      if (b[i] < a[i]) return false;
    }
    return a.size() < b.size();
  }
};

using sql::ContainsAggregate;

// Evaluates the residual WHERE conjuncts against one row (logical AND;
// NULL and false both reject).
Result<bool> KeepRow(const std::vector<const sql::Expr*>& conjuncts,
                     const Schema& schema, const Row& row,
                     const ParamMap& params) {
  for (const sql::Expr* e : conjuncts) {
    WVM_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*e, schema, row, params));
    if (!keep) return false;
  }
  return true;
}

// Running state for one aggregate output column within one group.
struct AggState {
  int64_t count = 0;       // non-null inputs (or all rows for COUNT(*))
  Value sum;               // running sum (starts NULL)
  Value min;
  Value max;

  Status Accumulate(const Value& v, bool star) {
    if (star) {
      ++count;
      return Status::OK();
    }
    if (v.is_null()) return Status::OK();
    ++count;
    if (count == 1) {
      sum = v;
      min = v;
      max = v;
      return Status::OK();
    }
    WVM_ASSIGN_OR_RETURN(sum, ValueAdd(sum, v));
    if (v < min) min = v;
    if (max < v) max = v;
    return Status::OK();
  }

  Result<Value> Finalize(sql::AggFunc f) const {
    switch (f) {
      case sql::AggFunc::kCount:
        return Value::Int64(count);
      case sql::AggFunc::kSum:
        return count == 0 ? Value::Null(TypeId::kInt64) : sum;
      case sql::AggFunc::kAvg:
        if (count == 0) return Value::Null(TypeId::kDouble);
        return Value::Double(sum.AsDouble() / static_cast<double>(count));
      case sql::AggFunc::kMin:
        return count == 0 ? Value::Null(TypeId::kInt64) : min;
      case sql::AggFunc::kMax:
        return count == 0 ? Value::Null(TypeId::kInt64) : max;
    }
    return Status::Internal("bad aggregate function");
  }
};

std::string OutputName(const sql::SelectItem& item) {
  return item.alias.empty() ? item.expr->ToSql() : item.alias;
}

Result<QueryResult> ExecuteAggregate(
    const sql::SelectStmt& stmt, const Schema& schema,
    const RowSource& source, const std::vector<const sql::Expr*>& where,
    const ParamMap& params) {
  // Resolve group-by key columns.
  std::vector<size_t> key_cols;
  for (const std::string& g : stmt.group_by) {
    WVM_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(g));
    key_cols.push_back(idx);
  }

  // Classify select items: group-by column refs vs aggregate calls.
  // Group items are addressed by their position inside the group key, so
  // output depends only on the key — never on which of a group's rows
  // happened to arrive first (a parallel scan's arrival order varies).
  struct ItemPlan {
    bool is_aggregate;
    size_t key_pos = 0;          // position within the group key
    const sql::Expr* agg = nullptr;
  };
  std::vector<ItemPlan> plans;
  for (const sql::SelectItem& item : stmt.items) {
    const sql::Expr& e = *item.expr;
    if (e.kind == sql::ExprKind::kAggCall) {
      plans.push_back({true, 0, &e});
      continue;
    }
    if (ContainsAggregate(e)) {
      return Status::Unimplemented(
          "aggregates must be top-level select items");
    }
    if (e.kind != sql::ExprKind::kColumnRef) {
      return Status::Unimplemented(
          "non-aggregate select items must be plain columns when grouping");
    }
    size_t key_pos = stmt.group_by.size();
    for (size_t g = 0; g < stmt.group_by.size(); ++g) {
      if (EqualsIgnoreCaseAscii(stmt.group_by[g], e.column)) key_pos = g;
    }
    if (key_pos == stmt.group_by.size()) {
      return Status::InvalidArgument("column '" + e.column +
                                     "' is neither aggregated nor grouped");
    }
    plans.push_back({false, key_pos, nullptr});
  }

  // Group rows. std::map keeps keys sorted for deterministic output.
  std::map<Row, std::vector<AggState>, RowLess> groups;
  Status scan_status;
  source([&](const Row& row) {
    Result<bool> keep = KeepRow(where, schema, row, params);
    if (!keep.ok()) {
      scan_status = keep.status();
      return false;
    }
    if (!keep.value()) return true;
    Row key;
    key.reserve(key_cols.size());
    for (size_t c : key_cols) key.push_back(row[c]);

    auto [it, inserted] = groups.try_emplace(key);
    if (inserted) it->second.resize(plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
      if (!plans[i].is_aggregate) continue;
      const sql::Expr& agg = *plans[i].agg;
      Value input;
      if (!agg.agg_star) {
        Result<Value> v = EvalExpr(*agg.child0, schema, row, params);
        if (!v.ok()) {
          scan_status = v.status();
          return false;
        }
        input = v.value();
      }
      Status s = it->second[i].Accumulate(input, agg.agg_star);
      if (!s.ok()) {
        scan_status = s;
        return false;
      }
    }
    return true;
  });
  WVM_RETURN_IF_ERROR(scan_status);

  QueryResult result;
  for (const sql::SelectItem& item : stmt.items) {
    result.column_names.push_back(OutputName(item));
  }

  // A grand-total aggregate (no GROUP BY) always yields one row.
  if (stmt.group_by.empty() && groups.empty()) {
    Row out;
    for (const ItemPlan& plan : plans) {
      WVM_ASSIGN_OR_RETURN(Value v, AggState{}.Finalize(plan.agg->agg));
      out.push_back(std::move(v));
    }
    result.rows.push_back(std::move(out));
    return result;
  }

  for (const auto& [key, states] : groups) {
    Row out;
    for (size_t i = 0; i < plans.size(); ++i) {
      if (plans[i].is_aggregate) {
        WVM_ASSIGN_OR_RETURN(Value v, states[i].Finalize(plans[i].agg->agg));
        out.push_back(std::move(v));
      } else {
        out.push_back(key[plans[i].key_pos]);
      }
    }
    result.rows.push_back(std::move(out));
  }
  return result;
}

// Computes which input columns the executor will read for this statement:
// select-item expressions (aggregate arguments included — ForEachColumnRef
// walks the whole tree), GROUP BY keys, and the residual WHERE. An
// unresolvable name keeps every column needed; the evaluator surfaces the
// error identically either way. Empty result = all columns.
std::vector<bool> ReferencedColumns(
    const sql::SelectStmt& stmt, const Schema& schema,
    const std::vector<const sql::Expr*>& residual_where) {
  if (stmt.select_star) return {};
  std::vector<bool> needed(schema.num_columns(), false);
  bool all = false;
  auto mark = [&](const sql::Expr& e) {
    sql::ForEachColumnRef(e, [&](const sql::Expr& ref) {
      Result<size_t> idx = schema.IndexOf(ref.column);
      if (idx.ok()) {
        needed[idx.value()] = true;
      } else {
        all = true;
      }
    });
  };
  for (const sql::SelectItem& item : stmt.items) mark(*item.expr);
  for (const std::string& g : stmt.group_by) {
    Result<size_t> idx = schema.IndexOf(g);
    if (idx.ok()) {
      needed[idx.value()] = true;
    } else {
      all = true;
    }
  }
  for (const sql::Expr* e : residual_where) mark(*e);
  if (all) return {};
  return needed;
}

// Runs the SELECT with an explicit residual-WHERE conjunct list (the
// pushdown entry point strips the conjuncts the source absorbed).
Result<QueryResult> ExecuteSelectResidual(
    const sql::SelectStmt& stmt, const Schema& input_schema,
    const RowSource& source, const std::vector<const sql::Expr*>& where,
    const ParamMap& params) {
  bool has_agg = false;
  for (const sql::SelectItem& item : stmt.items) {
    if (ContainsAggregate(*item.expr)) has_agg = true;
  }
  if (has_agg || !stmt.group_by.empty()) {
    if (stmt.select_star) {
      return Status::InvalidArgument("SELECT * cannot be grouped");
    }
    return ExecuteAggregate(stmt, input_schema, source, where, params);
  }

  QueryResult result;
  if (stmt.select_star) {
    for (const Column& c : input_schema.columns()) {
      result.column_names.push_back(c.name);
    }
  } else {
    for (const sql::SelectItem& item : stmt.items) {
      result.column_names.push_back(OutputName(item));
    }
  }

  Status scan_status;
  source([&](const Row& row) {
    Result<bool> keep = KeepRow(where, input_schema, row, params);
    if (!keep.ok()) {
      scan_status = keep.status();
      return false;
    }
    if (!keep.value()) return true;
    if (stmt.select_star) {
      result.rows.push_back(row);
      return true;
    }
    Row out;
    out.reserve(stmt.items.size());
    for (const sql::SelectItem& item : stmt.items) {
      Result<Value> v = EvalExpr(*item.expr, input_schema, row, params);
      if (!v.ok()) {
        scan_status = v.status();
        return false;
      }
      out.push_back(std::move(v).value());
    }
    result.rows.push_back(std::move(out));
    return true;
  });
  WVM_RETURN_IF_ERROR(scan_status);
  return result;
}

}  // namespace

Result<QueryResult> ExecuteSelect(const sql::SelectStmt& stmt,
                                  const Schema& input_schema,
                                  const RowSource& source,
                                  const ParamMap& params) {
  std::vector<const sql::Expr*> where;
  if (stmt.where != nullptr) sql::CollectConjuncts(*stmt.where, &where);
  return ExecuteSelectResidual(stmt, input_schema, source, where, params);
}

Result<QueryResult> ExecuteSelect(const sql::SelectStmt& stmt,
                                  const Schema& input_schema,
                                  const PushdownSource& source,
                                  const ParamMap& params) {
  std::vector<const sql::Expr*> residual;
  if (stmt.where != nullptr) {
    std::vector<const sql::Expr*> conjuncts;
    sql::CollectConjuncts(*stmt.where, &conjuncts);
    for (const sql::Expr* e : conjuncts) {
      if (source.absorb == nullptr || !source.absorb(*e)) {
        residual.push_back(e);
      }
    }
  }
  if (source.project != nullptr) {
    source.project(ReferencedColumns(stmt, input_schema, residual));
  }
  Status scan_status;
  RowSource rows = [&](const std::function<bool(const Row&)>& sink) {
    scan_status = source.scan(sink);
  };
  Result<QueryResult> result =
      ExecuteSelectResidual(stmt, input_schema, rows, residual, params);
  // A scan-side failure (e.g. session expiration mid-stream) outranks a
  // result assembled from the truncated stream.
  WVM_RETURN_IF_ERROR(scan_status);
  return result;
}

Result<QueryResult> ExecuteSelect(const sql::SelectStmt& stmt,
                                  const Table& table,
                                  const ParamMap& params) {
  PushdownSource source;
  source.scan = [&table](const std::function<bool(const Row&)>& sink) {
    return table.ScanRows([&](Rid, const Row& row) { return sink(row); });
  };
  return ExecuteSelect(stmt, table.schema(), source, params);
}

std::string QueryResult::ToString() const {
  std::vector<size_t> widths(column_names.size());
  for (size_t i = 0; i < column_names.size(); ++i) {
    widths[i] = column_names[i].size();
  }
  std::vector<std::vector<std::string>> cells;
  for (const Row& row : rows) {
    std::vector<std::string> line;
    for (size_t i = 0; i < row.size(); ++i) {
      line.push_back(row[i].ToString());
      if (i < widths.size() && line.back().size() > widths[i]) {
        widths[i] = line.back().size();
      }
    }
    cells.push_back(std::move(line));
  }
  std::string out;
  for (size_t i = 0; i < column_names.size(); ++i) {
    out += StrPrintf("%-*s  ", static_cast<int>(widths[i]),
                     column_names[i].c_str());
  }
  out += "\n";
  for (size_t i = 0; i < column_names.size(); ++i) {
    out += std::string(widths[i], '-') + "  ";
  }
  out += "\n";
  for (const auto& line : cells) {
    for (size_t i = 0; i < line.size(); ++i) {
      out += StrPrintf("%-*s  ", static_cast<int>(widths[i]),
                       line[i].c_str());
    }
    out += "\n";
  }
  return out;
}

}  // namespace wvm::query

#include "query/executor.h"

#include <algorithm>
#include <optional>
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

// A per-row input resolved once per statement: a plain column that names a
// schema column is read straight out of the row; anything else — an
// expression, or a name that does not resolve — is evaluated per row, so
// an unresolvable name still fails only when a row reaches it.
class RowInput {
 public:
  RowInput(const sql::Expr& expr, const Schema& schema) : expr_(&expr) {
    if (expr.kind != sql::ExprKind::kColumnRef) return;
    Result<size_t> idx = schema.IndexOf(expr.column);
    if (idx.ok()) column_ = idx.value();
  }

  // The input's value in `row`: a reference into the row for a resolved
  // column, else the evaluated expression, held in *scratch.
  Result<const Value*> Read(const Schema& schema, const Row& row,
                            const ParamMap& params, Value* scratch) const {
    if (column_ != kUnresolved) return &row[column_];
    WVM_ASSIGN_OR_RETURN(*scratch, EvalExpr(*expr_, schema, row, params));
    return scratch;
  }

 private:
  static constexpr size_t kUnresolved = static_cast<size_t>(-1);
  const sql::Expr* expr_;
  size_t column_ = kUnresolved;
};

// Running state of one aggregate within one group. Each function touches
// only its own fields: COUNT the count; SUM and AVG the count and the sum,
// kept as int64_t until a DOUBLE input widens it; MIN and MAX the count
// and the best value so far.
struct AggState {
  int64_t count = 0;  // non-NULL inputs (every row for COUNT(*))
  int64_t int_sum = 0;
  double double_sum = 0;
  bool is_double = false;  // the sum lives in double_sum
  Value best;

  Status Accumulate(sql::AggFunc f, const Value& v) {
    if (v.is_null()) return Status::OK();
    switch (f) {
      case sql::AggFunc::kCount:
        break;
      case sql::AggFunc::kSum:
      case sql::AggFunc::kAvg:
        WVM_RETURN_IF_ERROR(AddToSum(v));
        break;
      case sql::AggFunc::kMin:
      case sql::AggFunc::kMax:
        if (count > 0) {
          // Value's operator< aborts on incompatible types; SQL input must
          // not reach it.
          if (v.type() != best.type() &&
              !(v.IsNumeric() && best.IsNumeric())) {
            return Status::InvalidArgument(
                std::string("MIN/MAX cannot compare ") +
                TypeIdToString(best.type()) + " with " +
                TypeIdToString(v.type()));
          }
          if (f == sql::AggFunc::kMin ? !(v < best) : !(best < v)) break;
        }
        best = v;
        break;
    }
    ++count;
    return Status::OK();
  }

  // Sums in input order, as repeated ValueAdd would, but integers add in
  // 64 bits: an INT32 column cannot wrap at 32 bits.
  Status AddToSum(const Value& v) {
    if (!v.IsNumeric()) {
      return Status::InvalidArgument(
          std::string("SUM/AVG of non-numeric ") + TypeIdToString(v.type()));
    }
    if (v.type() == TypeId::kDouble && !is_double) {
      double_sum = static_cast<double>(int_sum);
      is_double = true;
    }
    if (is_double) {
      double_sum += v.AsDouble();
    } else if (__builtin_add_overflow(int_sum, v.AsInt64(), &int_sum)) {
      return Status::InvalidArgument("SUM overflows INT64");
    }
    return Status::OK();
  }

  Value Finalize(sql::AggFunc f) const {
    switch (f) {
      case sql::AggFunc::kCount:
        return Value::Int64(count);
      case sql::AggFunc::kSum:
        if (count == 0) return Value::Null(TypeId::kInt64);
        return is_double ? Value::Double(double_sum) : Value::Int64(int_sum);
      case sql::AggFunc::kAvg:
        if (count == 0) return Value::Null(TypeId::kDouble);
        return Value::Double(
            (is_double ? double_sum : static_cast<double>(int_sum)) /
            static_cast<double>(count));
      case sql::AggFunc::kMin:
      case sql::AggFunc::kMax:
        return count == 0 ? Value::Null(TypeId::kInt64) : best;
    }
    WVM_UNREACHABLE("bad aggregate function");
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
  // output depends only on the key, never on which of a group's rows
  // arrived first.
  struct Aggregate {
    sql::AggFunc func;
    std::optional<RowInput> input;  // empty for COUNT(*)
  };
  struct ItemPlan {
    bool is_aggregate;
    size_t pos;  // ordinal in `aggs`, or position within the group key
  };
  std::vector<Aggregate> aggs;
  std::vector<ItemPlan> plans;
  for (const sql::SelectItem& item : stmt.items) {
    const sql::Expr& e = *item.expr;
    if (e.kind == sql::ExprKind::kAggCall) {
      plans.push_back({true, aggs.size()});
      Aggregate agg{e.agg, std::nullopt};
      if (!e.agg_star) agg.input.emplace(*e.child0, schema);
      aggs.push_back(std::move(agg));
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
    plans.push_back({false, key_pos});
  }

  // Hash groups, probed with one reused key; a key is copied only when its
  // group is inserted. Group g's aggregate a is states[g * aggs.size() + a].
  std::unordered_map<Row, size_t, RowHash, RowEq> group_of;
  std::vector<const Row*> group_keys;  // node keys: stable across rehash
  std::vector<AggState> states;
  Row probe(key_cols.size());
  Value scratch;
  Status scan_status;
  source([&](const Row& row) {
    Result<bool> keep = KeepRow(where, schema, row, params);
    if (!keep.ok()) {
      scan_status = keep.status();
      return false;
    }
    if (!keep.value()) return true;
    for (size_t k = 0; k < key_cols.size(); ++k) probe[k] = row[key_cols[k]];
    auto it = group_of.find(probe);
    if (it == group_of.end()) {
      it = group_of.emplace(probe, group_keys.size()).first;
      group_keys.push_back(&it->first);
      states.resize(states.size() + aggs.size());
    }
    AggState* group = &states[it->second * aggs.size()];
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (!aggs[a].input.has_value()) {  // COUNT(*)
        ++group[a].count;
        continue;
      }
      Result<const Value*> v =
          aggs[a].input->Read(schema, row, params, &scratch);
      scan_status =
          v.ok() ? group[a].Accumulate(aggs[a].func, **v) : v.status();
      if (!scan_status.ok()) return false;
    }
    return true;
  });
  WVM_RETURN_IF_ERROR(scan_status);

  QueryResult result;
  for (const sql::SelectItem& item : stmt.items) {
    result.column_names.push_back(OutputName(item));
  }

  // A grand-total aggregate (no GROUP BY) always yields one row.
  if (stmt.group_by.empty() && group_keys.empty()) {
    Row out;
    for (const Aggregate& agg : aggs) {
      out.push_back(AggState{}.Finalize(agg.func));
    }
    result.rows.push_back(std::move(out));
    return result;
  }

  std::vector<size_t> order(group_keys.size());
  for (size_t g = 0; g < order.size(); ++g) order[g] = g;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return RowLess()(*group_keys[a], *group_keys[b]);
  });
  result.rows.reserve(order.size());
  for (size_t g : order) {
    const AggState* group = &states[g * aggs.size()];
    Row out;
    out.reserve(plans.size());
    for (const ItemPlan& plan : plans) {
      out.push_back(plan.is_aggregate
                        ? group[plan.pos].Finalize(aggs[plan.pos].func)
                        : (*group_keys[g])[plan.pos]);
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

  std::vector<RowInput> items;
  if (!stmt.select_star) {
    for (const sql::SelectItem& item : stmt.items) {
      items.emplace_back(*item.expr, input_schema);
    }
  }
  Value scratch;
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
    out.reserve(items.size());
    for (const RowInput& item : items) {
      Result<const Value*> v =
          item.Read(input_schema, row, params, &scratch);
      if (!v.ok()) {
        scan_status = v.status();
        return false;
      }
      out.push_back(**v);
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

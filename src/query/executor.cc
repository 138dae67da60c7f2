#include "query/executor.h"

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
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

// A SELECT bound to its input schema once, before any row is read: the
// residual WHERE, and either the select list or the grouping plan.
struct SelectPlan {
  struct Aggregate {
    sql::AggFunc func;
    std::optional<BoundExpr> input;  // empty for COUNT(*)
  };
  // One output column of a grouped SELECT.
  struct Output {
    bool is_aggregate;
    size_t pos;  // ordinal in `aggs`, or position within the group key
  };

  std::vector<std::string> column_names;
  std::vector<BoundExpr> where;  // residual conjuncts, WHERE order
  bool select_star = false;
  bool grouped = false;
  std::vector<BoundExpr> items;  // ungrouped select list
  // Grouped: group items are addressed by their position inside the group
  // key, so output depends only on the key, never on which of a group's
  // rows arrived first. The codec's columns are the GROUP BY columns; it
  // decodes the key bytes a source hands over.
  KeyCodec key_codec;
  std::vector<Aggregate> aggs;
  std::vector<Output> outputs;

  // Binds `stmt` with `residual` as its WHERE. Fails on a statement no row
  // can make valid (an unknown GROUP BY column, an aggregate inside an
  // expression, an ungrouped plain column).
  static Result<SelectPlan> Bind(const sql::SelectStmt& stmt,
                                 const Schema& schema,
                                 const std::vector<const sql::Expr*>& residual,
                                 const ParamMap& params) {
    SelectPlan plan;
    plan.select_star = stmt.select_star;
    for (const sql::Expr* e : residual) {
      plan.where.push_back(BoundExpr::Bind(*e, schema, params));
    }
    if (stmt.select_star) {
      for (const Column& c : schema.columns()) {
        plan.column_names.push_back(c.name);
      }
    }
    plan.grouped = !stmt.group_by.empty();
    for (const sql::SelectItem& item : stmt.items) {
      plan.column_names.push_back(OutputName(item));
      plan.items.push_back(BoundExpr::Bind(*item.expr, schema, params));
      plan.grouped = plan.grouped || plan.items.back().has_aggregate();
    }
    if (!plan.grouped) return plan;
    if (stmt.select_star) {
      return Status::InvalidArgument("SELECT * cannot be grouped");
    }
    std::vector<size_t> key_cols;
    for (const std::string& g : stmt.group_by) {
      WVM_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(g));
      key_cols.push_back(idx);
    }
    plan.key_codec = KeyCodec(schema, std::move(key_cols));
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const sql::Expr& e = *stmt.items[i].expr;
      if (e.kind == sql::ExprKind::kAggCall) {
        plan.outputs.push_back({true, plan.aggs.size()});
        Aggregate agg{e.agg, std::nullopt};
        if (!e.agg_star) agg.input = BoundExpr::Bind(*e.child0, schema, params);
        plan.aggs.push_back(std::move(agg));
        continue;
      }
      if (plan.items[i].has_aggregate()) {
        return Status::Unimplemented(
            "aggregates must be top-level select items");
      }
      if (e.kind != sql::ExprKind::kColumnRef) {
        return Status::Unimplemented(
            "non-aggregate select items must be plain columns when "
            "grouping");
      }
      size_t key_pos = stmt.group_by.size();
      for (size_t g = 0; g < stmt.group_by.size(); ++g) {
        if (EqualsIgnoreCaseAscii(stmt.group_by[g], e.column)) key_pos = g;
      }
      if (key_pos == stmt.group_by.size()) {
        return Status::InvalidArgument("column '" + e.column +
                                       "' is neither aggregated nor grouped");
      }
      plan.outputs.push_back({false, key_pos});
    }
    plan.items.clear();  // a grouped SELECT reads only keys and aggregates
    return plan;
  }

  // The input columns the plan reads off rows ("projection pushdown"): the
  // select list, aggregate inputs and the residual WHERE. Group keys arrive
  // as bytes, so they are not marked. Empty means every column — SELECT *,
  // or a name that does not resolve (the evaluator reports it identically
  // either way).
  std::vector<bool> ReferencedColumns(size_t num_columns) const {
    if (select_star) return {};
    std::vector<bool> needed(num_columns, false);
    bool all = false;
    auto mark = [&](const BoundExpr& e) {
      all = all || !e.resolved();
      e.MarkColumns(&needed);
    };
    for (const BoundExpr& e : where) mark(e);
    for (const BoundExpr& e : items) mark(e);
    for (const Aggregate& agg : aggs) {
      if (agg.input.has_value()) mark(*agg.input);
    }
    if (all) return {};
    return needed;
  }
};

// Streams the rows of `source` that pass the residual WHERE (logical AND;
// NULL and false both reject) into `emit`, a
// Status(const Row&, std::string_view key) callable.
// The first failure stops the scan; a scan-side failure (e.g. session
// expiration mid-stream) outranks one the truncated stream caused.
template <typename Emit>
Status ScanKept(const SelectPlan& plan, const PushdownSource& source,
                Emit emit) {
  Status status;
  WVM_RETURN_IF_ERROR(source.scan([&](const Row& row, std::string_view key) {
    for (const BoundExpr& e : plan.where) {
      Result<bool> keep = e.Test(row);
      if (!keep.ok()) status = keep.status();
      if (!keep.ok() || !keep.value()) return status.ok();
    }
    Status emitted = emit(row, key);
    if (emitted.ok()) return true;
    status = std::move(emitted);
    return false;
  }));
  return status;
}

Result<QueryResult> ExecuteAggregate(const SelectPlan& plan,
                                     const PushdownSource& source) {
  // Hash groups on the key bytes the source hands over, probed with a view
  // of them: a key is copied, and decoded to Values, only when its group
  // is inserted. Group g's aggregate a is states[g * aggs.size() + a].
  const std::vector<SelectPlan::Aggregate>& aggs = plan.aggs;
  std::unordered_map<std::string, size_t, KeyBytesHash, std::equal_to<>>
      group_of;
  std::vector<Row> group_keys;  // decoded, in insertion order
  std::vector<AggState> states;
  Value scratch;
  WVM_RETURN_IF_ERROR(ScanKept(plan, source, [&](const Row& row,
                                                 std::string_view key) {
    auto it = group_of.find(key);
    if (it == group_of.end()) {
      it = group_of.emplace(key, group_keys.size()).first;
      group_keys.push_back(plan.key_codec.Decode(key));
      states.resize(states.size() + aggs.size());
    }
    AggState* group = &states[it->second * aggs.size()];
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (!aggs[a].input.has_value()) {  // COUNT(*)
        ++group[a].count;
        continue;
      }
      WVM_ASSIGN_OR_RETURN(const Value* v, aggs[a].input->Eval(row, &scratch));
      WVM_RETURN_IF_ERROR(group[a].Accumulate(aggs[a].func, *v));
    }
    return Status::OK();
  }));

  QueryResult result;
  result.column_names = plan.column_names;

  // A grand-total aggregate (no GROUP BY) always yields one row.
  if (plan.key_codec.columns().empty() && group_keys.empty()) {
    Row out;
    for (const SelectPlan::Aggregate& agg : aggs) {
      out.push_back(AggState{}.Finalize(agg.func));
    }
    result.rows.push_back(std::move(out));
    return result;
  }

  std::vector<size_t> order(group_keys.size());
  for (size_t g = 0; g < order.size(); ++g) order[g] = g;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return RowLess()(group_keys[a], group_keys[b]);
  });
  result.rows.reserve(order.size());
  for (size_t g : order) {
    const AggState* group = &states[g * aggs.size()];
    Row out;
    out.reserve(plan.outputs.size());
    for (const SelectPlan::Output& o : plan.outputs) {
      out.push_back(o.is_aggregate ? group[o.pos].Finalize(aggs[o.pos].func)
                                   : group_keys[g][o.pos]);
    }
    result.rows.push_back(std::move(out));
  }
  return result;
}

}  // namespace

Result<QueryResult> ExecuteSelect(const sql::SelectStmt& stmt,
                                  const Schema& input_schema,
                                  const RowSource& source,
                                  const ParamMap& params) {
  // Keys are the bytes the row's values encode to as the columns store
  // them; a value its column cannot hold stops the read.
  KeyCodec codec;  // no columns until the SELECT groups
  PushdownSource rows;
  rows.group = [&](const std::vector<size_t>& key_cols) {
    codec = KeyCodec(input_schema, key_cols);
  };
  rows.scan = [&](const KeyedRowSink& sink) {
    Status status;
    std::string key;
    source([&](const Row& row) {
      if (!codec.FromValues(row, &key, /*whole_row=*/true)) {
        status = Status::InvalidArgument(
            "row " + RowToString(row) +
            " has a GROUP BY value its column cannot hold");
        return false;
      }
      return sink(row, key);
    });
    return status;
  };
  return ExecuteSelect(stmt, input_schema, rows, params);
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
  WVM_ASSIGN_OR_RETURN(
      SelectPlan plan,
      SelectPlan::Bind(stmt, input_schema, residual, params));
  if (source.project != nullptr) {
    source.project(plan.ReferencedColumns(input_schema.num_columns()));
  }
  if (plan.grouped) {
    if (source.group == nullptr) {
      return Status::InvalidArgument("the row source cannot group");
    }
    source.group(plan.key_codec.columns());
    return ExecuteAggregate(plan, source);
  }
  QueryResult result;
  result.column_names = plan.column_names;
  Value scratch;
  WVM_RETURN_IF_ERROR(ScanKept(plan, source, [&](const Row& row,
                                                 std::string_view) {
    if (plan.select_star) {
      result.rows.push_back(row);
      return Status::OK();
    }
    Row out;
    out.reserve(plan.items.size());
    for (const BoundExpr& item : plan.items) {
      WVM_ASSIGN_OR_RETURN(const Value* v, item.Eval(row, &scratch));
      out.push_back(*v);
    }
    result.rows.push_back(std::move(out));
    return Status::OK();
  }));
  return result;
}

Result<QueryResult> ExecuteSelect(const sql::SelectStmt& stmt,
                                  const Table& table,
                                  const ParamMap& params) {
  const Schema& schema = table.schema();
  std::vector<bool> needed;  // empty: every column
  KeyCodec codec;            // no columns until the SELECT groups
  PushdownSource source;
  source.project = [&needed](const std::vector<bool>& n) { needed = n; };
  source.group = [&](const std::vector<size_t>& key_cols) {
    codec = KeyCodec(schema, key_cols);
  };
  source.scan = [&](const KeyedRowSink& sink) {
    Row row;
    row.reserve(schema.num_columns());
    for (const Column& c : schema.columns()) row.push_back(Value::Null(c.type));
    std::string key;
    return table.heap()->Scan([&](Rid, const uint8_t* rec) {
      for (size_t i = 0; i < row.size(); ++i) {
        if (needed.empty() || needed[i]) {
          row[i] = DeserializeColumn(schema, rec, i);
        }
      }
      codec.FromRecord(rec, &key);
      return sink(row, key);
    });
  };
  return ExecuteSelect(stmt, schema, source, params);
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

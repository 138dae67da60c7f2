// Generated-SQL differential suite: a seeded grammar generator writes
// WHERE clauses, select lists and aggregates (COUNT, COUNT(*), SUM, AVG,
// MIN and MAX, grand totals and GROUP BY one or two columns, updatable
// ones included) over a 2VNL/3VNL table with a randomized maintenance
// history, and every query runs four ways:
//
//   1. the native heap pass (SnapshotSelect, index routing off);
//   2. the native routed read (SnapshotSelect, index routing on);
//   3. the §4.1 rewritten SQL, run by query::ExecuteSelect over the
//      widened physical table;
//   4. a reference: a tree-walk evaluator local to this file, run over the
//      Row-based Table-1 reference (ResolveVersion / MaterializeVersion),
//      which groups through an ordered map of its own.
//
// All four must agree on the status code and on the rows, in order. The
// generator covers column references (unknown names included), literals of
// every type, NULL and over-width strings, bound and unbound parameters,
// valid and invalid date strings against DATE, mirrored comparisons,
// IN-list ORs, CASE, IS [NOT] NULL, NOT, integer arithmetic on overflow
// operands and INT vs DOUBLE comparisons. No input may crash the parser,
// the rewriter or the executor.
//
// Two documented differences between the paths are normalized, not
// hidden: the native read evaluates version-invariant conjuncts before the
// reconstructed ones (and unresolvable ones last), so the reference uses
// that order and the rewritten statement is handed its conjuncts in it;
// and the rewritten SQL cannot detect session expiration (§4.1), so it is
// compared only where the reference did not expire, and it rejects unknown
// columns and GROUP BY over an updatable column at rewrite time, so those
// queries only have to fail there.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/rewriter.h"
#include "core/versioned_schema.h"
#include "core/vnl_engine.h"
#include "core/vnl_table.h"
#include "query/executor.h"
#include "sql/parser.h"
#include "tests/support/keyed_maintenance.h"
#include "tests/support/row_reference.h"

namespace wvm::core {
namespace {

constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();
constexpr int32_t kInt32Max = std::numeric_limits<int32_t>::max();
constexpr int32_t kInt32Min = std::numeric_limits<int32_t>::min();

// Unique key on id; secondary indexes on grp and on the DATE column day.
// cnt and wt are invariant but unindexed; qty (INT32), amt (INT64) and
// note (STRING) are updatable, so conjuncts over them are reconstructed.
Schema GenSchema() {
  Schema s({Column::Int64("id"), Column::String("grp", 4),
            Column::Date("day"), Column::Int32("cnt"), Column::Double("wt"),
            Column::Int32("qty", /*updatable=*/true),
            Column::Int64("amt", /*updatable=*/true),
            Column::String("note", 5, /*updatable=*/true)},
           {0});
  WVM_CHECK(s.AddSecondaryIndex("by_grp", {"grp"}).ok());
  WVM_CHECK(s.AddSecondaryIndex("by_day", {"day"}).ok());
  return s;
}

// Updatable values, extremes included, so arithmetic over them overflows.
Value RandomQty(Rng* rng) {
  if (rng->Bernoulli(0.1)) return Value::Null(TypeId::kInt32);
  if (rng->Bernoulli(0.15)) {
    return Value::Int32(rng->Bernoulli(0.5) ? kInt32Max - 1 : kInt32Min);
  }
  return Value::Int32(static_cast<int32_t>(rng->Uniform(-50, 50)));
}

Value RandomAmt(Rng* rng) {
  if (rng->Bernoulli(0.1)) return Value::Null(TypeId::kInt64);
  if (rng->Bernoulli(0.15)) {
    return Value::Int64(rng->Bernoulli(0.5) ? kInt64Max - 3 : kInt64Min + 1);
  }
  return Value::Int64(rng->Uniform(-1000, 1000));
}

Value RandomNote(Rng* rng) {
  static const std::vector<std::string> kNotes = {"a", "bb", "hello", "zz"};
  if (rng->Bernoulli(0.2)) return Value::Null(TypeId::kString);
  return Value::String(rng->PickFrom(kNotes));
}

// grp is sometimes full width ("g1xx"), so an over-width comparand
// ('g1xxy') ties with it on the whole slot.
Row MakeItem(Rng* rng, int64_t id) {
  return {Value::Int64(id),
          Value::String(StrPrintf("g%" PRId64, rng->Uniform(0, 4)) +
                        (rng->Bernoulli(0.2) ? "xx" : "")),
          Value::Date(1996, 10, static_cast<int>(rng->Uniform(1, 5))),
          rng->Bernoulli(0.15)
              ? Value::Null(TypeId::kInt32)
              : Value::Int32(static_cast<int32_t>(rng->Uniform(0, 9))),
          Value::Double(rng->Uniform(0, 8) / 2.0),
          RandomQty(rng),
          RandomAmt(rng),
          RandomNote(rng)};
}

// Parameters every query is run with. :missing is never bound.
query::ParamMap GenParams(Rng* rng) {
  return {{"i", Value::Int64(rng->Uniform(0, 40))},
          {"i32", Value::Int32(static_cast<int32_t>(rng->Uniform(0, 9)))},
          {"big", Value::Int64(kInt64Max)},
          {"small", Value::Int64(kInt64Min)},
          {"m32", Value::Int32(kInt32Min)},
          {"neg", Value::Int64(-1)},
          {"f", Value::Double(rng->Uniform(0, 8) / 2.0)},
          {"s", Value::String(StrPrintf("g%" PRId64, rng->Uniform(0, 4)))},
          {"d", Value::Date(1996, 10, static_cast<int>(rng->Uniform(1, 5)))},
          {"ds", Value::String(StrPrintf("10/0%" PRId64, rng->Uniform(1, 4)) +
                               "/96")},
          {"bad", Value::String("soon")},
          {"nul", Value::Null(TypeId::kInt64)},
          {"b", Value::Bool(true)}};
}

// --- The generator ---------------------------------------------------------

class SqlGen {
 public:
  explicit SqlGen(Rng* rng) : rng_(rng) {}

  std::string Select() {
    std::string sql = "SELECT ";
    std::vector<std::string> group_by;
    if (Coin(0.3)) {
      sql += AggregateItems(&group_by);
    } else if (rng_->Bernoulli(0.15)) {
      sql += "*";
    } else {
      const int items = static_cast<int>(rng_->Uniform(1, 3));
      for (int i = 0; i < items; ++i) {
        if (i > 0) sql += ", ";
        sql += Scalar(2);
      }
    }
    sql += " FROM t";
    std::vector<std::string> conjuncts;
    const int generic = static_cast<int>(rng_->Uniform(0, 3));
    for (int i = 0; i < generic; ++i) conjuncts.push_back(Pred(2));
    // Half the queries carry an index-binding conjunct, anywhere in the
    // WHERE, so the routed read is exercised as often as the heap pass.
    if (Coin(0.5)) {
      const size_t at = static_cast<size_t>(
          rng_->Uniform(0, static_cast<int64_t>(conjuncts.size())));
      conjuncts.insert(conjuncts.begin() + at, KeyPred());
    }
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      sql += (i == 0 ? " WHERE " : " AND ") + conjuncts[i];
    }
    if (!group_by.empty()) sql += " GROUP BY " + Join(group_by, ", ");
    return sql;
  }

 private:
  bool Coin(double p) { return rng_->Bernoulli(p); }
  template <typename T>
  const T& Pick(const std::vector<T>& v) { return rng_->PickFrom(v); }

  std::string Column() {
    static const std::vector<std::string> kCols = {
        "id", "grp", "day", "cnt", "wt", "qty", "amt", "note"};
    if (Coin(0.04)) return "nope";
    return Pick(kCols);
  }

  std::string Literal() {
    static const std::vector<std::string> kLits = {
        "0", "1", "7", "30", "2147483647", "3000000000",
        "9223372036854775807", "2.5", "0.0", "'g1'", "'g3'", "'abcdefgh'",
        "'10/02/96'", "'10/32/96'", "'x'", "NULL", "TRUE", "FALSE"};
    return Pick(kLits);
  }

  std::string Param() {
    static const std::vector<std::string> kParams = {
        ":i", ":i32", ":big", ":small", ":m32", ":neg", ":f", ":s",
        ":d", ":ds", ":bad", ":nul", ":b", ":missing"};
    return Pick(kParams);
  }

  // A comparand fitting `col` most of the time, so comparisons resolve to
  // rows rather than to type errors; sometimes of another type.
  std::string ComparandFor(const std::string& col) {
    if (Coin(0.1)) return Coin(0.5) ? Literal() : Param();
    if (col == "id") {
      return Coin(0.3) ? ":i" : std::to_string(rng_->Uniform(0, 45));
    }
    if (col == "grp") {
      static const std::vector<std::string> kG = {
          "'g0'", "'g1'", "'g2'", "'g4'", ":s", "'g1xx'", "'g1xxy'"};
      return Pick(kG);
    }
    if (col == "day") {
      static const std::vector<std::string> kD = {
          "'10/01/96'", "'10/03/1996'", ":d", ":ds", "'10/32/96'", ":bad",
          "'soon'"};
      return Pick(kD);
    }
    if (col == "cnt") {
      return Coin(0.2) ? ":i32" : std::to_string(rng_->Uniform(0, 9));
    }
    if (col == "wt") return Coin(0.5) ? ":f" : "1.5";
    if (col == "qty" || col == "amt") {
      static const std::vector<std::string> kN = {"0", "10", "-5", ":neg",
                                                  ":big", "2.5", "1"};
      return Pick(kN);
    }
    if (col == "note") {
      static const std::vector<std::string> kS = {"'a'", "'bb'", "'hello'",
                                                  "'helloworld'", ":s"};
      return Pick(kS);
    }
    return Literal();
  }

  // A grouped select list: zero to two GROUP BY columns (updatable ones
  // included), each usually selected, at a random place, and one to three
  // aggregates over a column or a scalar expression.
  std::string AggregateItems(std::vector<std::string>* group_by) {
    static const std::vector<std::string> kFuncs = {"COUNT", "SUM", "AVG",
                                                    "MIN", "MAX"};
    const int keys = static_cast<int>(rng_->Uniform(0, 2));
    for (int k = 0; k < keys; ++k) {
      const std::string col = Column();
      if (std::find(group_by->begin(), group_by->end(), col) ==
          group_by->end()) {
        group_by->push_back(col);
      }
    }
    std::vector<std::string> items;
    const int aggs = static_cast<int>(rng_->Uniform(1, 3));
    for (int a = 0; a < aggs; ++a) {
      if (Coin(0.15)) {
        items.push_back("COUNT(*)");
        continue;
      }
      items.push_back(Pick(kFuncs) + "(" +
                      (Coin(0.7) ? Column() : Scalar(1)) + ")");
    }
    for (const std::string& g : *group_by) {
      if (!Coin(0.8)) continue;
      const int64_t at =
          rng_->Uniform(0, static_cast<int64_t>(items.size()));
      items.insert(items.begin() + at, g);
    }
    return Join(items, ", ");
  }

  // An equality or IN-list over an indexed column (id, grp or day).
  std::string KeyPred() {
    static const std::vector<std::string> kKeys = {"id", "grp", "day"};
    const std::string col = Pick(kKeys);
    const int n = static_cast<int>(rng_->Uniform(1, 3));
    std::string p = "(";
    for (int i = 0; i < n; ++i) {
      if (i > 0) p += " OR ";
      p += Coin(0.3) ? ComparandFor(col) + " = " + col
                     : col + " = " + ComparandFor(col);
    }
    return p + ")";
  }

  std::string Scalar(int depth) {
    const double dice = rng_->UniformDouble(0.0, 1.0);
    if (depth <= 0 || dice < 0.35) return Column();
    if (dice < 0.5) return Literal();
    if (dice < 0.6) return Param();
    if (dice < 0.8) {
      static const std::vector<std::string> kOps = {" + ", " - ", " * ",
                                                    " / "};
      return "(" + Scalar(depth - 1) + Pick(kOps) + Scalar(depth - 1) + ")";
    }
    if (dice < 0.87) return "(-" + Scalar(depth - 1) + ")";
    std::string c = "CASE WHEN " + Pred(depth - 1) + " THEN " +
                    Scalar(depth - 1);
    if (Coin(0.7)) c += " ELSE " + Scalar(depth - 1);
    return c + " END";
  }

  std::string CmpOp() {
    static const std::vector<std::string> kOps = {" = ", " = ", " <> ",
                                                  " < ", " <= ", " > ",
                                                  " >= "};
    return Pick(kOps);
  }

  std::string Pred(int depth) {
    const double dice = rng_->UniformDouble(0.0, 1.0);
    if (depth <= 0 || dice < 0.45) {
      // column cmp comparand, mirrored half the time.
      const std::string col = Column();
      const std::string rhs = ComparandFor(col);
      return Coin(0.3) ? "(" + rhs + CmpOp() + col + ")"
                       : "(" + col + CmpOp() + rhs + ")";
    }
    if (dice < 0.6) {
      // IN-list shape: an OR of equalities over one column.
      const std::string col = Column();
      const int n = static_cast<int>(rng_->Uniform(2, 4));
      std::string p = "(";
      for (int i = 0; i < n; ++i) {
        if (i > 0) p += " OR ";
        p += Coin(0.2) ? ComparandFor(col) + " = " + col
                       : col + " = " + ComparandFor(col);
      }
      return p + ")";
    }
    if (dice < 0.7) {
      return "(" + Scalar(depth - 1) + CmpOp() + Scalar(depth - 1) + ")";
    }
    if (dice < 0.78) {
      return "(" + Scalar(depth - 1) +
             (Coin(0.5) ? " IS NULL)" : " IS NOT NULL)");
    }
    if (dice < 0.85) return "(NOT " + Pred(depth - 1) + ")";
    return "(" + Pred(depth - 1) + (Coin(0.5) ? " AND " : " OR ") +
           Pred(depth - 1) + ")";
  }

  Rng* rng_;
};

// --- The reference ---------------------------------------------------------
//
// A tree walk that resolves names and coerces comparands on every row: the
// evaluator the engine used before expressions were bound once per
// statement, with checked negation. It is a test oracle only.

Result<Value> RefCoerce(const Value& v, const Value& other) {
  if (v.type() == TypeId::kString && other.type() == TypeId::kDate &&
      !v.is_null()) {
    return Value::ParseDate(v.AsString());
  }
  return v;
}

Result<Value> RefCompare(const Value& a_in, const Value& b_in,
                         sql::BinaryOp op) {
  WVM_ASSIGN_OR_RETURN(Value a, RefCoerce(a_in, b_in));
  WVM_ASSIGN_OR_RETURN(Value b, RefCoerce(b_in, a_in));
  if (a.is_null() || b.is_null()) return Value::Null(TypeId::kBool);
  if (a.type() != b.type() && !(a.IsNumeric() && b.IsNumeric())) {
    return Status::InvalidArgument("cannot compare");
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
    default: return Status::Internal("not a comparison");
  }
}

Result<Value> RefEval(const sql::Expr& e, const Schema& schema,
                      const Row& row, const query::ParamMap& params) {
  using sql::BinaryOp;
  switch (e.kind) {
    case sql::ExprKind::kColumnRef: {
      WVM_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(e.column));
      return row[idx];
    }
    case sql::ExprKind::kLiteral:
      return e.literal;
    case sql::ExprKind::kParam: {
      auto it = params.find(e.param);
      if (it == params.end()) {
        return Status::InvalidArgument("unbound parameter :" + e.param);
      }
      return it->second;
    }
    case sql::ExprKind::kUnary: {
      WVM_ASSIGN_OR_RETURN(Value v, RefEval(*e.child0, schema, row, params));
      if (v.is_null()) return Value::Null(v.type());
      if (e.unary_op == sql::UnaryOp::kNeg) {
        if (v.type() == TypeId::kDouble) return Value::Double(-v.AsDouble());
        if (v.type() == TypeId::kInt32 && v.AsInt32() != kInt32Min) {
          return Value::Int32(-v.AsInt32());
        }
        if (v.type() == TypeId::kInt64 && v.AsInt64() != kInt64Min) {
          return Value::Int64(-v.AsInt64());
        }
        if (v.type() == TypeId::kInt32 || v.type() == TypeId::kInt64) {
          return Status::InvalidArgument("integer overflow");
        }
        return Status::InvalidArgument("negation of non-numeric value");
      }
      if (v.type() != TypeId::kBool) {
        return Status::InvalidArgument("NOT of non-boolean value");
      }
      return Value::Bool(!v.AsBool());
    }
    case sql::ExprKind::kBinary: {
      if (e.binary_op == BinaryOp::kAnd || e.binary_op == BinaryOp::kOr) {
        const bool is_and = e.binary_op == BinaryOp::kAnd;
        WVM_ASSIGN_OR_RETURN(Value l,
                             RefEval(*e.child0, schema, row, params));
        if (!l.is_null() && l.AsBool() != is_and) {
          return Value::Bool(!is_and);
        }
        WVM_ASSIGN_OR_RETURN(Value r,
                             RefEval(*e.child1, schema, row, params));
        if (!r.is_null() && r.AsBool() != is_and) {
          return Value::Bool(!is_and);
        }
        if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
        return Value::Bool(is_and);
      }
      WVM_ASSIGN_OR_RETURN(Value l, RefEval(*e.child0, schema, row, params));
      WVM_ASSIGN_OR_RETURN(Value r, RefEval(*e.child1, schema, row, params));
      switch (e.binary_op) {
        case BinaryOp::kAdd: return ValueAdd(l, r);
        case BinaryOp::kSub: return ValueSub(l, r);
        case BinaryOp::kMul: return ValueMul(l, r);
        case BinaryOp::kDiv: return ValueDiv(l, r);
        default: return RefCompare(l, r, e.binary_op);
      }
    }
    case sql::ExprKind::kAggCall:
      return Status::InvalidArgument("aggregate function in scalar context");
    case sql::ExprKind::kCase: {
      for (const sql::CaseWhen& w : e.whens) {
        WVM_ASSIGN_OR_RETURN(Value c,
                             RefEval(*w.condition, schema, row, params));
        if (!c.is_null() && c.AsBool()) {
          return RefEval(*w.result, schema, row, params);
        }
      }
      if (e.else_expr != nullptr) {
        return RefEval(*e.else_expr, schema, row, params);
      }
      return Value::Null(TypeId::kInt64);
    }
    case sql::ExprKind::kIsNull: {
      WVM_ASSIGN_OR_RETURN(Value v, RefEval(*e.child0, schema, row, params));
      return Value::Bool(v.is_null() != e.is_not_null);
    }
  }
  return Status::Internal("bad expression kind");
}

// Invokes `fn` on every column name `e` references.
template <typename Fn>
void ForEachColumn(const sql::Expr& e, const Fn& fn) {
  if (e.kind == sql::ExprKind::kColumnRef) fn(e.column);
  for (const sql::Expr* child : {e.child0.get(), e.child1.get(),
                                 e.else_expr.get()}) {
    if (child != nullptr) ForEachColumn(*child, fn);
  }
  for (const sql::CaseWhen& w : e.whens) {
    ForEachColumn(*w.condition, fn);
    ForEachColumn(*w.result, fn);
  }
}

// Where the native read evaluates a WHERE conjunct: before materializing
// (only version-invariant columns), after it (an updatable column), or in
// the executor (a name the logical schema lacks).
enum class Stage { kInvariant = 0, kReconstructed = 1, kResidual = 2 };

Stage StageOf(const sql::Expr& conjunct, const Schema& logical) {
  Stage stage = Stage::kInvariant;
  ForEachColumn(conjunct, [&](const std::string& name) {
    Result<size_t> idx = logical.IndexOf(name);
    if (!idx.ok()) {
      stage = Stage::kResidual;
    } else if (logical.column(idx.value()).updatable &&
               stage == Stage::kInvariant) {
      stage = Stage::kReconstructed;
    }
  });
  return stage;
}

// The WHERE conjuncts in native evaluation order: stable by stage.
std::vector<const sql::Expr*> NativeOrder(const sql::SelectStmt& stmt,
                                          const Schema& logical) {
  std::vector<const sql::Expr*> conjuncts;
  if (stmt.where != nullptr) sql::CollectConjuncts(*stmt.where, &conjuncts);
  std::stable_sort(conjuncts.begin(), conjuncts.end(),
                   [&](const sql::Expr* a, const sql::Expr* b) {
                     return StageOf(*a, logical) < StageOf(*b, logical);
                   });
  return conjuncts;
}

bool HasUnknownColumn(const sql::SelectStmt& stmt, const Schema& logical) {
  bool unknown = false;
  auto check = [&](const sql::Expr& e) {
    ForEachColumn(e, [&](const std::string& name) {
      unknown = unknown || !logical.IndexOf(name).ok();
    });
  };
  for (const sql::SelectItem& item : stmt.items) check(*item.expr);
  if (stmt.where != nullptr) check(*stmt.where);
  for (const std::string& g : stmt.group_by) {
    unknown = unknown || !logical.IndexOf(g).ok();
  }
  return unknown;
}

bool GroupsOnUpdatable(const sql::SelectStmt& stmt, const Schema& logical) {
  for (const std::string& g : stmt.group_by) {
    Result<size_t> idx = logical.IndexOf(g);
    if (idx.ok() && logical.column(idx.value()).updatable) return true;
  }
  return false;
}

// The reference aggregate: one function's running state over a group's
// inputs in row order. SUM and AVG add integers in 64 bits, checked, until
// a DOUBLE arrives; MIN and MAX keep the first of equal values and refuse
// to order values of incompatible types.
struct RefAccumulator {
  explicit RefAccumulator(sql::AggFunc f) : func(f) {}

  sql::AggFunc func;
  int64_t count = 0;
  bool is_double = false;
  int64_t int_sum = 0;
  double double_sum = 0;
  Value best;

  Status Add(const Value& v) {
    if (v.is_null()) return Status::OK();
    if (func == sql::AggFunc::kSum || func == sql::AggFunc::kAvg) {
      if (!v.IsNumeric()) return Status::InvalidArgument("SUM of non-number");
      if (v.type() == TypeId::kDouble && !is_double) {
        is_double = true;
        double_sum = static_cast<double>(int_sum);
      }
      if (is_double) {
        double_sum += v.AsDouble();
      } else if (__builtin_add_overflow(int_sum, v.AsInt64(), &int_sum)) {
        return Status::InvalidArgument("SUM overflow");
      }
    } else if (func == sql::AggFunc::kMin || func == sql::AggFunc::kMax) {
      if (count > 0 && v.type() != best.type() &&
          !(v.IsNumeric() && best.IsNumeric())) {
        return Status::InvalidArgument("MIN/MAX over mixed types");
      }
      if (count == 0 ||
          (func == sql::AggFunc::kMin ? v < best : best < v)) {
        best = v;
      }
    }
    ++count;
    return Status::OK();
  }

  Value Final() const {
    switch (func) {
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
    return Value();
  }
};

// Group values in Value order, NULLs first: the order grouped output is
// sorted in.
struct RefKeyLess {
  bool operator()(const Row& a, const Row& b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
};

// The reference read: every physical tuple in heap order through Table 1
// (Row form), then the WHERE conjuncts in native order, then the select
// list, each evaluated by the tree walk. A grouped read feeds each kept
// row to its group's accumulators as it arrives, so the first failing
// input ends the read where the native one does.
Result<query::QueryResult> ReferenceSelect(const VnlTable& table,
                                           Vn session_vn,
                                           const sql::SelectStmt& stmt,
                                           const query::ParamMap& params) {
  const VersionedSchema& vs = table.versioned_schema();
  const Schema& logical = vs.logical();
  std::vector<Row> physical;
  WVM_RETURN_IF_ERROR(table.physical_table().ScanRows([&](Rid, const Row& r) {
    physical.push_back(r);
    return true;
  }));
  const std::vector<const sql::Expr*> where = NativeOrder(stmt, logical);
  bool grouped = !stmt.group_by.empty();
  for (const sql::SelectItem& item : stmt.items) {
    grouped = grouped || item.expr->kind == sql::ExprKind::kAggCall;
  }
  std::vector<size_t> key_cols;
  for (const std::string& g : stmt.group_by) {
    WVM_ASSIGN_OR_RETURN(size_t idx, logical.IndexOf(g));
    key_cols.push_back(idx);
  }
  std::map<Row, std::vector<RefAccumulator>, RefKeyLess> groups;
  query::QueryResult out;
  if (stmt.select_star) {
    for (const Column& c : logical.columns()) {
      out.column_names.push_back(c.name);
    }
  } else {
    for (const sql::SelectItem& item : stmt.items) {
      out.column_names.push_back(item.alias.empty() ? item.expr->ToSql()
                                                    : item.alias);
    }
  }
  for (const Row& phys : physical) {
    const VersionResolution res = rowref::ResolveVersion(vs, phys, session_vn);
    if (res.outcome == ReadOutcome::kIgnore) continue;
    if (res.outcome == ReadOutcome::kExpired) {
      return Status::SessionExpired("reference: expired");
    }
    const Row row = rowref::MaterializeVersion(vs, phys, res);
    bool keep = true;
    for (const sql::Expr* c : where) {
      WVM_ASSIGN_OR_RETURN(Value v, RefEval(*c, logical, row, params));
      if (v.is_null() || !v.AsBool()) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    if (grouped) {
      Row key;
      for (size_t c : key_cols) key.push_back(row[c]);
      auto [it, inserted] = groups.try_emplace(key);
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        const sql::Expr& e = *stmt.items[i].expr;
        if (e.kind != sql::ExprKind::kAggCall) continue;
        if (inserted) it->second.emplace_back(e.agg);
      }
      size_t a = 0;
      for (const sql::SelectItem& item : stmt.items) {
        const sql::Expr& e = *item.expr;
        if (e.kind != sql::ExprKind::kAggCall) continue;
        RefAccumulator& acc = it->second[a++];
        if (e.agg_star) {
          ++acc.count;
          continue;
        }
        WVM_ASSIGN_OR_RETURN(Value v, RefEval(*e.child0, logical, row, params));
        WVM_RETURN_IF_ERROR(acc.Add(v));
      }
      continue;
    }
    if (stmt.select_star) {
      out.rows.push_back(row);
      continue;
    }
    Row projected;
    for (const sql::SelectItem& item : stmt.items) {
      WVM_ASSIGN_OR_RETURN(Value v, RefEval(*item.expr, logical, row, params));
      projected.push_back(std::move(v));
    }
    out.rows.push_back(std::move(projected));
  }
  if (!grouped) return out;
  if (key_cols.empty() && groups.empty()) {
    for (const sql::SelectItem& item : stmt.items) {
      groups[Row{}].emplace_back(item.expr->agg);
    }
  }
  for (const auto& [key, accs] : groups) {
    Row projected;
    size_t a = 0;
    for (const sql::SelectItem& item : stmt.items) {
      if (item.expr->kind == sql::ExprKind::kAggCall) {
        projected.push_back(accs[a++].Final());
        continue;
      }
      // A plain item is a GROUP BY column (the generator writes no other).
      for (size_t g = 0; g < stmt.group_by.size(); ++g) {
        if (stmt.group_by[g] == item.expr->column) {
          projected.push_back(key[g]);
        }
      }
    }
    out.rows.push_back(std::move(projected));
  }
  return out;
}

// The statement with its WHERE conjuncts in native evaluation order, for
// the rewrite path.
sql::SelectStmt InNativeOrder(const sql::SelectStmt& stmt,
                              const Schema& logical) {
  sql::SelectStmt out = stmt.Clone();
  out.where = nullptr;
  for (const sql::Expr* c : NativeOrder(stmt, logical)) {
    out.where = sql::AndMaybe(std::move(out.where), c->Clone());
  }
  return out;
}

// --- The comparison --------------------------------------------------------

void ExpectSameResult(const char* what,
                      const Result<query::QueryResult>& want,
                      const Result<query::QueryResult>& got,
                      bool compare_names) {
  SCOPED_TRACE(what);
  ASSERT_EQ(want.status().code(), got.status().code())
      << "want " << want.status().ToString() << "; got "
      << got.status().ToString();
  if (!want.ok()) return;
  if (compare_names) {
    EXPECT_EQ(want->column_names, got->column_names);
  }
  ASSERT_EQ(want->rows.size(), got->rows.size());
  for (size_t r = 0; r < want->rows.size(); ++r) {
    const Row& a = want->rows[r];
    const Row& b = got->rows[r];
    ASSERT_EQ(a.size(), b.size()) << "row " << r;
    for (size_t c = 0; c < a.size(); ++c) {
      EXPECT_TRUE(a[c] == b[c] && a[c].type() == b[c].type())
          << "row " << r << " col " << c << ": " << a[c].ToString() << " ("
          << TypeIdToString(a[c].type()) << ") vs " << b[c].ToString()
          << " (" << TypeIdToString(b[c].type()) << ")";
    }
  }
}

class GeneratedSqlDiffTest : public ::testing::Test {
 protected:
  // Runs `queries` generated queries against `session` four ways.
  void RunQueries(VnlEngine* engine, VnlTable* table,
                  const ReaderSession& session, const query::ParamMap& params,
                  SqlGen* gen, int queries) {
    const Schema& logical = table->logical_schema();
    for (int q = 0; q < queries; ++q) {
      const std::string sql = gen->Select();
      SCOPED_TRACE("query: " + sql);
      Result<sql::SelectStmt> stmt = sql::ParseSelect(sql);
      ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

      const Result<query::QueryResult> reference =
          ReferenceSelect(*table, session.session_vn, *stmt, params);

      engine->SetScanOptions({.index_routing = false});
      const Result<query::QueryResult> heap =
          table->SnapshotSelect(session, *stmt, params);
      engine->SetScanOptions({.index_routing = true});
      const Result<query::QueryResult> routed =
          table->SnapshotSelect(session, *stmt, params);
      ExpectSameResult("heap pass vs reference", reference, heap, true);
      ExpectSameResult("routed read vs reference", reference, routed, true);

      Result<sql::SelectStmt> rewritten =
          RewriteReaderQuery(InNativeOrder(*stmt, logical),
                             table->versioned_schema());
      if (HasUnknownColumn(*stmt, logical)) {
        EXPECT_FALSE(rewritten.ok());
        continue;
      }
      if (GroupsOnUpdatable(*stmt, logical)) {
        EXPECT_EQ(rewritten.status().code(), StatusCode::kUnimplemented);
        continue;
      }
      ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
      query::ParamMap with_session = params;
      with_session["sessionVN"] = Value::Int64(session.session_vn);
      const Result<query::QueryResult> via_rewrite = query::ExecuteSelect(
          *rewritten, table->physical_table(), with_session);
      if (reference.status().code() == StatusCode::kSessionExpired) continue;
      ExpectSameResult("rewritten SQL vs reference", reference, via_rewrite,
                       false);
      ++compared_;
      if (!reference.ok()) ++failed_;
    }
  }

  void RunSeed(uint64_t seed) {
    SCOPED_TRACE(StrPrintf("seed=%llu",
                           static_cast<unsigned long long>(seed)));
    Rng rng(seed);
    SqlGen gen(&rng);
    DiskManager disk;
    BufferPool pool(256, &disk);
    const int n = rng.Bernoulli(0.5) ? 2 : 3;
    auto engine_or = VnlEngine::Create(&pool, n);
    ASSERT_TRUE(engine_or.ok());
    VnlEngine* engine = engine_or.value().get();
    auto table_or = engine->CreateTable("t", GenSchema());
    ASSERT_TRUE(table_or.ok());
    VnlTable* table = table_or.value();

    const int64_t rows = rng.Uniform(20, 40);
    {
      Result<MaintenanceTxn*> load = engine->BeginMaintenance();
      ASSERT_TRUE(load.ok());
      for (int64_t id = 0; id < rows; ++id) {
        ASSERT_TRUE(table->Insert(*load, MakeItem(&rng, id)).ok());
      }
      ASSERT_TRUE(engine->Commit(*load).ok());
    }
    auto churn = [&](MaintenanceTxn* txn, int count) {
      for (int i = 0; i < count; ++i) {
        const int64_t id = rng.Uniform(0, rows + 5);
        const Row key = {Value::Int64(id)};
        const double dice = rng.UniformDouble(0.0, 1.0);
        if (dice < 0.5) {
          const Value qty = RandomQty(&rng);
          const Value amt = RandomAmt(&rng);
          const Value note = RandomNote(&rng);
          ASSERT_TRUE(testutil::UpdateKey(table, txn, key,
                                          [&](const Row& row) {
                                            Row next = row;
                                            next[5] = qty;
                                            next[6] = amt;
                                            next[7] = note;
                                            return next;
                                          })
                          .ok());
        } else if (dice < 0.75) {
          ASSERT_TRUE(testutil::DeleteKey(table, txn, key).ok());
        } else {
          StatusCode want;
          const Row item =
              rowref::PlanInsert(*table, MakeItem(&rng, id), &rng, &want);
          const Status s = table->Insert(txn, item);
          ASSERT_EQ(s.code(), want) << s.ToString();
        }
      }
    };

    const query::ParamMap params = GenParams(&rng);
    ReaderSession before = engine->OpenSession();
    RunQueries(engine, table, before, params, &gen, 20);

    Result<MaintenanceTxn*> txn = engine->BeginMaintenance();
    ASSERT_TRUE(txn.ok());
    churn(*txn, static_cast<int>(rng.Uniform(5, 15)));
    ReaderSession during = engine->OpenSession();
    RunQueries(engine, table, before, params, &gen, 20);
    RunQueries(engine, table, during, params, &gen, 20);
    ASSERT_TRUE(engine->Commit(*txn).ok());

    // Age `before` past the version window: its reads may expire.
    for (int round = 0; round < n; ++round) {
      txn = engine->BeginMaintenance();
      ASSERT_TRUE(txn.ok());
      churn(*txn, static_cast<int>(rng.Uniform(3, 10)));
      ASSERT_TRUE(engine->Commit(*txn).ok());
    }
    ReaderSession after = engine->OpenSession();
    RunQueries(engine, table, after, params, &gen, 20);
    RunQueries(engine, table, during, params, &gen, 10);
    RunQueries(engine, table, before, params, &gen, 10);
  }

  // Rewritten-SQL comparisons made, and how many of them were failures
  // (every path agreeing on an error code).
  int compared_ = 0;
  int failed_ = 0;
};

TEST_F(GeneratedSqlDiffTest, SeedsBatch0) {
  for (uint64_t seed = 0; seed < 12; ++seed) RunSeed(seed);
  EXPECT_GT(compared_, 0);
  EXPECT_GT(failed_, 0);
  EXPECT_LT(failed_, compared_);
}

TEST_F(GeneratedSqlDiffTest, SeedsBatch1) {
  for (uint64_t seed = 12; seed < 24; ++seed) RunSeed(seed);
  EXPECT_GT(compared_, 0);
  EXPECT_GT(failed_, 0);
  EXPECT_LT(failed_, compared_);
}

}  // namespace
}  // namespace wvm::core

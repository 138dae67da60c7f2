#include "query/executor.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/table.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "sql/parser.h"

namespace wvm::query {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : pool_(256, &disk_) {
    Schema schema(
        {
            Column::String("city", 20),
            Column::String("state", 2),
            Column::String("product_line", 12),
            Column::Date("date"),
            Column::Int64("total_sales", /*updatable=*/true),
        },
        {0, 1, 2, 3});
    table_ = std::make_unique<Table>("DailySales", schema, &pool_);

    Insert("San Jose", "CA", "golf equip", 19961014, 10000);
    Insert("San Jose", "CA", "golf equip", 19961015, 1500);
    Insert("San Jose", "CA", "racquetball", 19961014, 500);
    Insert("Berkeley", "CA", "racquetball", 19961014, 12000);
    Insert("Novato", "CA", "rollerblades", 19961013, 8000);
  }

  void Insert(const std::string& city, const std::string& state,
              const std::string& pl, int32_t date, int64_t sales) {
    Row row = {Value::String(city), Value::String(state), Value::String(pl),
               Value::Date(date / 10000, (date / 100) % 100, date % 100),
               Value::Int64(sales)};
    WVM_CHECK(table_->InsertRow(row).ok());
  }

  QueryResult Run(const std::string& sql, const ParamMap& params = {}) {
    Result<sql::SelectStmt> stmt = sql::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Result<QueryResult> r = ExecuteSelect(*stmt, *table_, params);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<Table> table_;
};

TEST_F(ExecutorTest, SelectStarReturnsAllRows) {
  QueryResult r = Run("SELECT * FROM DailySales");
  EXPECT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.column_names.size(), 5u);
  EXPECT_EQ(r.column_names[0], "city");
}

TEST_F(ExecutorTest, ProjectionAndWhere) {
  QueryResult r = Run(
      "SELECT city, total_sales FROM DailySales WHERE total_sales > 5000");
  EXPECT_EQ(r.rows.size(), 3u);
  for (const Row& row : r.rows) {
    EXPECT_GT(row[1].AsInt64(), 5000);
  }
}

TEST_F(ExecutorTest, ComputedProjection) {
  QueryResult r = Run(
      "SELECT total_sales * 2 AS doubled FROM DailySales "
      "WHERE city = 'Novato'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.column_names[0], "doubled");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 16000);
}

// Paper Example 2.1, first analyst query: total sales per city.
TEST_F(ExecutorTest, GroupBySumLikePaper) {
  QueryResult r = Run(
      "SELECT city, state, SUM(total_sales) FROM DailySales "
      "GROUP BY city, state");
  ASSERT_EQ(r.rows.size(), 3u);
  // Sorted by group key: Berkeley, Novato, San Jose.
  EXPECT_EQ(r.rows[0][0].AsString(), "Berkeley");
  EXPECT_EQ(r.rows[0][2].AsInt64(), 12000);
  EXPECT_EQ(r.rows[1][0].AsString(), "Novato");
  EXPECT_EQ(r.rows[1][2].AsInt64(), 8000);
  EXPECT_EQ(r.rows[2][0].AsString(), "San Jose");
  EXPECT_EQ(r.rows[2][2].AsInt64(), 12000);
}

// Paper Example 2.1, drill-down query.
TEST_F(ExecutorTest, DrillDownLikePaper) {
  QueryResult r = Run(
      "SELECT product_line, SUM(total_sales) FROM DailySales "
      "WHERE city = 'San Jose' AND state = 'CA' GROUP BY product_line");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "golf equip");
  EXPECT_EQ(r.rows[0][1].AsInt64(), 11500);
  EXPECT_EQ(r.rows[1][0].AsString(), "racquetball");
  EXPECT_EQ(r.rows[1][1].AsInt64(), 500);
}

// The drill-down total must equal the city total — the consistency the
// paper's analyst expects across the two queries.
TEST_F(ExecutorTest, DrillDownSumsMatchCityTotal) {
  QueryResult city = Run(
      "SELECT city, SUM(total_sales) FROM DailySales "
      "WHERE city = 'San Jose' GROUP BY city");
  QueryResult drill = Run(
      "SELECT product_line, SUM(total_sales) FROM DailySales "
      "WHERE city = 'San Jose' GROUP BY product_line");
  int64_t drill_total = 0;
  for (const Row& row : drill.rows) drill_total += row[1].AsInt64();
  ASSERT_EQ(city.rows.size(), 1u);
  EXPECT_EQ(city.rows[0][1].AsInt64(), drill_total);
}

TEST_F(ExecutorTest, GrandTotalAggregates) {
  QueryResult r = Run(
      "SELECT COUNT(*), SUM(total_sales), MIN(total_sales), "
      "MAX(total_sales), AVG(total_sales) FROM DailySales");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 5);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 32000);
  EXPECT_EQ(r.rows[0][2].AsInt64(), 500);
  EXPECT_EQ(r.rows[0][3].AsInt64(), 12000);
  EXPECT_DOUBLE_EQ(r.rows[0][4].AsDouble(), 6400.0);
}

TEST_F(ExecutorTest, GrandTotalOnEmptyInput) {
  QueryResult r = Run(
      "SELECT COUNT(*), SUM(total_sales) FROM DailySales "
      "WHERE city = 'Nowhere'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(ExecutorTest, GroupByOnEmptyInputYieldsNoRows) {
  QueryResult r = Run(
      "SELECT city, SUM(total_sales) FROM DailySales "
      "WHERE city = 'Nowhere' GROUP BY city");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(ExecutorTest, CountStarVsCountColumn) {
  // COUNT(column) skips NULLs; add a row with NULL sales.
  Row row = {Value::String("Oakland"), Value::String("CA"),
             Value::String("tents"), Value::Date(1996, 10, 16),
             Value::Null(TypeId::kInt64)};
  ASSERT_TRUE(table_->InsertRow(row).ok());
  QueryResult r =
      Run("SELECT COUNT(*), COUNT(total_sales) FROM DailySales");
  EXPECT_EQ(r.rows[0][0].AsInt64(), 6);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 5);
}

TEST_F(ExecutorTest, ParamsInWhere) {
  QueryResult r = Run("SELECT city FROM DailySales WHERE total_sales > :min",
                      {{"min", Value::Int64(9000)}});
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(ExecutorTest, NonGroupedNonAggregatedColumnIsError) {
  Result<sql::SelectStmt> stmt = sql::ParseSelect(
      "SELECT city, SUM(total_sales) FROM DailySales GROUP BY state");
  ASSERT_TRUE(stmt.ok());
  Result<QueryResult> r = ExecuteSelect(*stmt, *table_, {});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, UnknownColumnInWhereIsError) {
  Result<sql::SelectStmt> stmt =
      sql::ParseSelect("SELECT city FROM DailySales WHERE bogus = 1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(ExecuteSelect(*stmt, *table_, {}).ok());
}

TEST_F(ExecutorTest, ToStringRendersAlignedTable) {
  QueryResult r = Run("SELECT city, SUM(total_sales) FROM DailySales "
                      "GROUP BY city");
  std::string s = r.ToString();
  EXPECT_NE(s.find("city"), std::string::npos);
  EXPECT_NE(s.find("Berkeley"), std::string::npos);
  EXPECT_NE(s.find("12000"), std::string::npos);
}

TEST_F(ExecutorTest, CustomRowSource) {
  // The executor runs over any RowSource — here, a synthetic one.
  Schema schema({Column::Int64("x")});
  RowSource source = [](const std::function<bool(const Row&)>& sink) {
    for (int i = 1; i <= 4; ++i) {
      if (!sink({Value::Int64(i)})) return;
    }
  };
  Result<sql::SelectStmt> stmt =
      sql::ParseSelect("SELECT SUM(x) FROM ignored");
  ASSERT_TRUE(stmt.ok());
  Result<QueryResult> r = ExecuteSelect(*stmt, schema, source, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt64(), 10);
}

// COUNT, MIN and MAX never add their inputs, so non-numeric columns
// aggregate like numeric ones.
TEST_F(ExecutorTest, CountMinMaxOverNonNumericColumns) {
  QueryResult r = Run(
      "SELECT COUNT(city), MIN(city), MAX(city), MIN(date), MAX(date), "
      "COUNT(date) FROM DailySales");
  ASSERT_EQ(r.rows.size(), 1u);
  const Row& row = r.rows[0];
  EXPECT_EQ(row[0].AsInt64(), 5);
  EXPECT_EQ(row[1].AsString(), "Berkeley");
  EXPECT_EQ(row[2].AsString(), "San Jose");
  EXPECT_TRUE(row[3] == Value::Date(1996, 10, 13));
  EXPECT_TRUE(row[4] == Value::Date(1996, 10, 15));
  EXPECT_EQ(row[5].AsInt64(), 5);
}

TEST_F(ExecutorTest, GroupedMinMaxOverStrings) {
  QueryResult r = Run(
      "SELECT city, MIN(product_line), MAX(product_line) FROM DailySales "
      "GROUP BY city");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[2][0].AsString(), "San Jose");
  EXPECT_EQ(r.rows[2][1].AsString(), "golf equip");
  EXPECT_EQ(r.rows[2][2].AsString(), "racquetball");
}

// An input whose type changes between rows cannot be ordered: MIN/MAX
// fail with InvalidArgument instead of reaching Value's type check.
TEST_F(ExecutorTest, MinMaxOverMixedTypesIsInvalidArgument) {
  for (const char* sql :
       {"SELECT MIN(CASE WHEN total_sales > 5000 THEN city "
        "ELSE total_sales END) FROM DailySales",
        "SELECT MAX(CASE WHEN total_sales > 5000 THEN city "
        "ELSE total_sales END) FROM DailySales"}) {
    SCOPED_TRACE(sql);
    Result<sql::SelectStmt> stmt = sql::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok());
    Result<QueryResult> r = ExecuteSelect(*stmt, *table_, {});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(ExecutorTest, SumOfNonNumericIsInvalidArgument) {
  Result<sql::SelectStmt> stmt =
      sql::ParseSelect("SELECT SUM(city) FROM DailySales");
  ASSERT_TRUE(stmt.ok());
  Result<QueryResult> r = ExecuteSelect(*stmt, *table_, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// Runs `sql` over `rows` of a one-column schema.
Result<QueryResult> RunOverColumn(const std::string& sql, Column column,
                                  const std::vector<Row>& rows) {
  Schema schema({std::move(column)});
  RowSource source = [&rows](const std::function<bool(const Row&)>& sink) {
    for (const Row& row : rows) {
      if (!sink(row)) return;
    }
  };
  Result<sql::SelectStmt> stmt = sql::ParseSelect(sql);
  if (!stmt.ok()) return stmt.status();
  return ExecuteSelect(*stmt, schema, source, {});
}

// Integer sums accumulate in 64 bits: two INT32 rows of 2,000,000,000
// sum to 4,000,000,000 (an INT64), not a wrapped 32-bit value.
TEST(ExecutorAggregateTest, Int32SumAndAvgDoNotWrap) {
  const std::vector<Row> rows = {{Value::Int32(2000000000)},
                                 {Value::Int32(2000000000)}};
  Result<QueryResult> r =
      RunOverColumn("SELECT SUM(q), AVG(q) FROM t", Column::Int32("q"), rows);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].type(), TypeId::kInt64);
  EXPECT_EQ(r->rows[0][0].AsInt64(), 4000000000LL);
  EXPECT_DOUBLE_EQ(r->rows[0][1].AsDouble(), 2000000000.0);
}

TEST(ExecutorAggregateTest, Int64SumOverflowIsInvalidArgument) {
  const std::vector<Row> rows = {{Value::Int64(INT64_MAX)},
                                 {Value::Int64(1)}};
  Result<QueryResult> r =
      RunOverColumn("SELECT SUM(q) FROM t", Column::Int64("q"), rows);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// GROUP BY groups on the bytes a column stores, so a RowSource value its
// column cannot hold has no key: the read fails instead of grouping it.
TEST(ExecutorAggregateTest, GroupValueTheColumnCannotHoldIsInvalidArgument) {
  const std::vector<std::pair<Column, Value>> cases = {
      {Column::Int32("k"), Value::Int64(1LL << 40)},
      {Column::Int32("k"), Value::Double(2.5)},
      {Column::Int64("k"), Value::String("x")},
      {Column::Date("k"), Value::Int32(19961014)},
  };
  for (const auto& [column, bad] : cases) {
    SCOPED_TRACE(bad.ToString());
    const std::vector<Row> rows = {{Value::Null(column.type)}, {bad}};
    Result<QueryResult> r =
        RunOverColumn("SELECT k, COUNT(*) FROM t GROUP BY k", column, rows);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    // Ungrouped reads never make keys.
    EXPECT_TRUE(RunOverColumn("SELECT k FROM t", column, rows).ok());
  }
  // A row too short to have the GROUP BY column.
  Schema schema({Column::Int64("a"), Column::Int64("k")});
  RowSource short_rows = [](const std::function<bool(const Row&)>& sink) {
    sink({Value::Int64(1)});
  };
  Result<sql::SelectStmt> stmt =
      sql::ParseSelect("SELECT k, COUNT(*) FROM t GROUP BY k");
  ASSERT_TRUE(stmt.ok());
  Result<QueryResult> r = ExecuteSelect(*stmt, schema, short_rows, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// A group is the value its column would store: an over-width string is
// its truncation, an INT32 in an INT64 column that INT64, and -0.0 and
// +0.0, like every NaN, are one group.
TEST(ExecutorAggregateTest, GroupsAreWhatTheColumnStores) {
  Result<QueryResult> s = RunOverColumn(
      "SELECT k, COUNT(*) FROM t GROUP BY k", Column::String("k", 4),
      {{Value::String("abcdef")}, {Value::String("abcdxy")},
       {Value::String("ab")}});
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_EQ(s->rows.size(), 2u);
  EXPECT_EQ(s->rows[0][0].AsString(), "ab");
  EXPECT_EQ(s->rows[1][0].AsString(), "abcd");
  EXPECT_EQ(s->rows[1][1].AsInt64(), 2);

  Result<QueryResult> i = RunOverColumn(
      "SELECT k, COUNT(*) FROM t GROUP BY k", Column::Int64("k"),
      {{Value::Int32(7)}, {Value::Int64(7)}});
  ASSERT_TRUE(i.ok()) << i.status().ToString();
  ASSERT_EQ(i->rows.size(), 1u);
  EXPECT_EQ(i->rows[0][0].type(), TypeId::kInt64);
  EXPECT_EQ(i->rows[0][1].AsInt64(), 2);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  Result<QueryResult> d = RunOverColumn(
      "SELECT k, COUNT(*) FROM t GROUP BY k", Column::Double("k"),
      {{Value::Double(-0.0)}, {Value::Double(nan)}, {Value::Double(0.0)},
       {Value::Double(-nan)}});
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  ASSERT_EQ(d->rows.size(), 2u);
  EXPECT_EQ(d->rows[0][1].AsInt64() + d->rows[1][1].AsInt64(), 4);
  EXPECT_EQ(d->rows[0][1].AsInt64(), 2);
}

// A source that cannot hand over keys cannot run a grouped SELECT.
TEST(ExecutorAggregateTest, GroupedSelectNeedsAGroupingSource) {
  Schema schema({Column::Int64("k")});
  PushdownSource source;
  source.scan = [](const KeyedRowSink& sink) {
    sink({Value::Int64(1)}, "");
    return Status::OK();
  };
  Result<sql::SelectStmt> grouped =
      sql::ParseSelect("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(grouped.ok());
  Result<QueryResult> r = ExecuteSelect(*grouped, schema, source, {});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  Result<sql::SelectStmt> plain = sql::ParseSelect("SELECT k FROM t");
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(ExecuteSelect(*plain, schema, source, {}).ok());
}

// --- Reference-aggregation oracle -----------------------------------------
//
// Seeded tables of every key type, with NULLs, aggregated by ExecuteSelect
// and by an independent reference written here: an ordered std::map over
// group rows (its own typed order, NULLs first), each function computed
// from the group's collected inputs. Results must agree in rows, row
// order, value types and status.

Schema OracleSchema() {
  return Schema({Column::Int32("i32"), Column::Int64("i64"),
                 Column::Double("dbl"), Column::String("str", 8),
                 Column::Date("day")});
}

// One column value: NULL with probability 0.15, else from a small domain
// so groups repeat.
Value RandomValue(Rng* rng, TypeId type) {
  if (rng->Bernoulli(0.15)) return Value::Null(type);
  switch (type) {
    case TypeId::kInt32:
      return Value::Int32(static_cast<int32_t>(rng->Uniform(-3, 3)));
    case TypeId::kInt64:
      return Value::Int64(rng->Uniform(-1000000, 1000000));
    case TypeId::kDouble:
      return Value::Double(static_cast<double>(rng->Uniform(-400, 400)) / 8);
    case TypeId::kString: {
      static const std::vector<std::string> kWords = {"ant", "bee", "cat",
                                                      "dog", "eel"};
      return Value::String(rng->PickFrom(kWords));
    }
    case TypeId::kDate:
      return Value::Date(1996, 10, static_cast<int>(rng->Uniform(1, 4)));
    default:
      break;
  }
  WVM_UNREACHABLE("type outside the oracle schema");
}

// The reference's own order: NULL first, then by the column's payload.
bool RefValueLess(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && !b.is_null();
  switch (a.type()) {
    case TypeId::kDouble:
      return a.AsDouble() < b.AsDouble();
    case TypeId::kString:
      return a.AsString() < b.AsString();
    default:
      return a.AsInt64() < b.AsInt64();
  }
}

struct RefRowLess {
  bool operator()(const Row& a, const Row& b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end(), RefValueLess);
  }
};

struct OracleAgg {
  const char* func;    // COUNT, SUM, AVG, MIN, MAX
  const char* column;  // "*" for COUNT(*)
};

struct OracleQuery {
  std::vector<std::string> group_by;
  std::vector<OracleAgg> aggs;
  const char* where_sql;  // nullptr: no WHERE
  std::function<bool(const Row&)> where;

  std::string Sql() const {
    std::vector<std::string> items = group_by;
    for (const OracleAgg& a : aggs) {
      items.push_back(std::string(a.func) + "(" + a.column + ")");
    }
    std::string sql = "SELECT " + Join(items, ", ") + " FROM t";
    if (where_sql != nullptr) sql += std::string(" WHERE ") + where_sql;
    if (!group_by.empty()) sql += " GROUP BY " + Join(group_by, ", ");
    return sql;
  }
};

// One aggregate from a group's non-NULL inputs (every row for COUNT(*)).
Value RefAggregate(const std::string& func, const std::vector<Value>& in) {
  if (func == "COUNT") return Value::Int64(static_cast<int64_t>(in.size()));
  if (in.empty()) {
    return Value::Null(func == "AVG" ? TypeId::kDouble : TypeId::kInt64);
  }
  if (func == "MIN" || func == "MAX") {
    Value best = in[0];
    for (const Value& v : in) {
      if (func == "MIN" ? RefValueLess(v, best) : RefValueLess(best, v)) {
        best = v;
      }
    }
    return best;
  }
  const bool is_double = in[0].type() == TypeId::kDouble;
  int64_t int_sum = 0;
  double double_sum = 0;
  for (const Value& v : in) {
    if (is_double) {
      double_sum += v.AsDouble();
    } else {
      int_sum += v.AsInt64();
    }
  }
  const double total = is_double ? double_sum : static_cast<double>(int_sum);
  if (func == "AVG") {
    return Value::Double(total / static_cast<double>(in.size()));
  }
  return is_double ? Value::Double(double_sum) : Value::Int64(int_sum);
}

Result<QueryResult> ReferenceAggregate(const OracleQuery& q,
                                       const Schema& schema,
                                       const std::vector<Row>& rows) {
  std::vector<size_t> key_cols;
  for (const std::string& g : q.group_by) {
    key_cols.push_back(schema.IndexOf(g).value());
  }
  // Per group: one input list per aggregate.
  std::map<Row, std::vector<std::vector<Value>>, RefRowLess> groups;
  for (const Row& row : rows) {
    if (q.where && !q.where(row)) continue;
    Row key;
    for (size_t c : key_cols) key.push_back(row[c]);
    std::vector<std::vector<Value>>& inputs = groups[key];
    inputs.resize(q.aggs.size());
    for (size_t a = 0; a < q.aggs.size(); ++a) {
      const std::string column = q.aggs[a].column;
      if (column == "*") {
        inputs[a].push_back(Value::Int64(1));
        continue;
      }
      Result<size_t> idx = schema.IndexOf(column);
      if (!idx.ok()) return idx.status();
      if (!row[idx.value()].is_null()) inputs[a].push_back(row[idx.value()]);
    }
  }
  if (q.group_by.empty() && groups.empty()) {
    groups[Row{}].resize(q.aggs.size());
  }
  QueryResult result;
  for (const auto& [key, inputs] : groups) {
    Row out = key;
    for (size_t a = 0; a < q.aggs.size(); ++a) {
      out.push_back(RefAggregate(q.aggs[a].func, inputs[a]));
    }
    result.rows.push_back(std::move(out));
  }
  return result;
}

std::vector<OracleQuery> OracleQueries() {
  const std::vector<OracleAgg> all_numeric = {
      {"COUNT", "*"},   {"COUNT", "i64"}, {"SUM", "i64"}, {"AVG", "i64"},
      {"MIN", "i64"},   {"MAX", "i64"},   {"SUM", "i32"}, {"AVG", "i32"},
      {"SUM", "dbl"},   {"AVG", "dbl"},   {"MIN", "dbl"}, {"MAX", "dbl"}};
  const std::vector<OracleAgg> non_numeric = {
      {"COUNT", "str"}, {"MIN", "str"}, {"MAX", "str"},
      {"COUNT", "day"}, {"MIN", "day"}, {"MAX", "day"}};
  auto rejects_all = [](const Row&) { return false; };
  auto positive_i64 = [](const Row& row) {
    return !row[1].is_null() && row[1].AsInt64() > 0;
  };
  return {
      {{}, all_numeric, nullptr, nullptr},
      {{}, non_numeric, nullptr, nullptr},
      {{"i32"}, all_numeric, nullptr, nullptr},
      {{"i64"}, {{"COUNT", "*"}, {"SUM", "i32"}}, nullptr, nullptr},
      {{"dbl"}, {{"COUNT", "*"}, {"MAX", "str"}}, nullptr, nullptr},
      {{"str"}, all_numeric, nullptr, nullptr},
      {{"day"}, non_numeric, nullptr, nullptr},
      {{"str", "day"}, {{"COUNT", "*"}, {"SUM", "dbl"}, {"MIN", "i32"}},
       nullptr, nullptr},
      {{"day", "i32"}, {{"AVG", "i64"}, {"COUNT", "str"}}, "i64 > 0",
       positive_i64},
      // Grand total and grouped aggregate over empty input.
      {{}, all_numeric, "i64 > 5000000", rejects_all},
      {{"str"}, {{"COUNT", "*"}}, "i64 > 5000000", rejects_all},
      // A name that does not resolve fails only once a row reaches it.
      {{}, {{"COUNT", "*"}, {"SUM", "bogus"}}, nullptr, nullptr},
      {{}, {{"SUM", "bogus"}}, "i64 > 5000000", rejects_all},
      {{"str"}, {{"MIN", "bogus"}}, nullptr, nullptr},
  };
}

TEST(ExecutorAggregateTest, MatchesReferenceAggregation) {
  const Schema schema = OracleSchema();
  const std::vector<OracleQuery> queries = OracleQueries();
  for (uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE(StrPrintf("seed=%llu",
                           static_cast<unsigned long long>(seed)));
    Rng rng(seed);
    // Every fourth seed has no rows at all.
    const int64_t count = seed % 4 == 0 ? 0 : rng.Uniform(1, 300);
    std::vector<Row> rows;
    for (int64_t i = 0; i < count; ++i) {
      Row row;
      for (const Column& c : schema.columns()) {
        row.push_back(RandomValue(&rng, c.type));
      }
      rows.push_back(std::move(row));
    }
    RowSource source = [&rows](const std::function<bool(const Row&)>& sink) {
      for (const Row& row : rows) {
        if (!sink(row)) return;
      }
    };
    for (const OracleQuery& q : queries) {
      const std::string sql = q.Sql();
      SCOPED_TRACE(sql);
      Result<sql::SelectStmt> stmt = sql::ParseSelect(sql);
      ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
      Result<QueryResult> actual = ExecuteSelect(*stmt, schema, source, {});
      Result<QueryResult> expected = ReferenceAggregate(q, schema, rows);
      ASSERT_EQ(expected.ok(), actual.ok())
          << (expected.ok() ? actual.status() : expected.status())
                 .ToString();
      if (!expected.ok()) {
        EXPECT_EQ(expected.status().code(), actual.status().code());
        continue;
      }
      ASSERT_EQ(expected->rows.size(), actual->rows.size());
      for (size_t i = 0; i < expected->rows.size(); ++i) {
        const Row& want = expected->rows[i];
        const Row& got = actual->rows[i];
        ASSERT_EQ(want.size(), got.size());
        for (size_t c = 0; c < want.size(); ++c) {
          EXPECT_TRUE(want[c] == got[c] && want[c].type() == got[c].type())
              << "row " << i << " col " << c << ": want "
              << want[c].ToString() << " (" << TypeIdToString(want[c].type())
              << "), got " << got[c].ToString() << " ("
              << TypeIdToString(got[c].type()) << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace wvm::query

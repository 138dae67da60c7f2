#include "core/rewriter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/maintenance_rewriter.h"
#include "core/vnl_engine.h"
#include "query/executor.h"
#include "sql/parser.h"

namespace wvm::core {
namespace {

Schema DailySales() {
  return Schema(
      {
          Column::String("city", 20),
          Column::String("state", 2),
          Column::String("product_line", 12),
          Column::Date("date"),
          Column::Int32("total_sales", /*updatable=*/true),
      },
      {0, 1, 2, 3});
}

VersionedSchema MakeVs(int n = 2) {
  Result<VersionedSchema> vs = VersionedSchema::Create(DailySales(), n);
  WVM_CHECK(vs.ok());
  return std::move(vs).value();
}

// Paper Example 4.1: the analyst query and its rewritten form.
TEST(RewriterTest, GoldenExample41) {
  VersionedSchema vs = MakeVs();
  Result<sql::SelectStmt> stmt = sql::ParseSelect(
      "SELECT city, state, SUM(total_sales) FROM DailySales "
      "GROUP BY city, state");
  ASSERT_TRUE(stmt.ok());
  Result<sql::SelectStmt> rewritten = RewriteReaderQuery(*stmt, vs);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(
      rewritten->ToSql(),
      "SELECT city, state, "
      "SUM(CASE WHEN :sessionVN >= tupleVN THEN total_sales "
      "ELSE pre_total_sales END) "
      "FROM DailySales "
      "WHERE (:sessionVN >= tupleVN AND operation <> 'delete') "
      "OR (:sessionVN < tupleVN AND operation <> 'insert') "
      "GROUP BY city, state");
}

TEST(RewriterTest, ExistingWhereIsConjoinedAndRewritten) {
  VersionedSchema vs = MakeVs();
  Result<sql::SelectStmt> stmt = sql::ParseSelect(
      "SELECT product_line FROM DailySales WHERE total_sales > 1000");
  ASSERT_TRUE(stmt.ok());
  Result<sql::SelectStmt> rewritten = RewriteReaderQuery(*stmt, vs);
  ASSERT_TRUE(rewritten.ok());
  const std::string sql = rewritten->ToSql();
  // The user predicate survives, with the updatable column CASE-wrapped.
  EXPECT_NE(sql.find("CASE WHEN :sessionVN >= tupleVN THEN total_sales "
                     "ELSE pre_total_sales END > 1000"),
            std::string::npos)
      << sql;
  // The visibility condition is ANDed in front.
  EXPECT_NE(sql.find("operation <> 'delete'"), std::string::npos);
}

TEST(RewriterTest, NonUpdatableColumnsAreUntouched) {
  VersionedSchema vs = MakeVs();
  Result<sql::SelectStmt> stmt =
      sql::ParseSelect("SELECT city FROM DailySales WHERE state = 'CA'");
  ASSERT_TRUE(stmt.ok());
  Result<sql::SelectStmt> rewritten = RewriteReaderQuery(*stmt, vs);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten->items[0].expr->ToSql(), "city");
  EXPECT_EQ(rewritten->where->ToSql(),
            "((:sessionVN >= tupleVN AND operation <> 'delete') OR "
            "(:sessionVN < tupleVN AND operation <> 'insert')) AND "
            "state = 'CA'");
}

TEST(RewriterTest, SelectStarExpandsToLogicalColumns) {
  VersionedSchema vs = MakeVs();
  Result<sql::SelectStmt> stmt =
      sql::ParseSelect("SELECT * FROM DailySales");
  ASSERT_TRUE(stmt.ok());
  Result<sql::SelectStmt> rewritten = RewriteReaderQuery(*stmt, vs);
  ASSERT_TRUE(rewritten.ok());
  ASSERT_EQ(rewritten->items.size(), 5u);
  EXPECT_FALSE(rewritten->select_star);
  // The updatable column is CASE-wrapped; bookkeeping columns are hidden.
  EXPECT_EQ(rewritten->items[4].expr->kind, sql::ExprKind::kCase);
}

// --- BindIndexKeys: the index-routing predicate analyzer -------------------
//
// Bindings are access-path hints (every conjunct is re-evaluated on the
// candidate rows), so the analyzer may decline anything, but it must never
// produce a key set missing a genuinely matching key.

Schema KeyedSchema() {
  return Schema({Column::Int64("id"), Column::String("grp", 4),
                 Column::Int32("cnt"), Column::Double("wt"),
                 Column::Int64("qty", /*updatable=*/true),
                 Column::Date("day")},
                {0});
}

// Parses `where_sql`, binds its top-level conjuncts against KeyedSchema()
// and `params`, and hands the bound conjuncts to BindIndexKeys over an
// index on `columns`.
std::optional<std::vector<std::string>> Bind(
    const std::string& where_sql, const std::vector<size_t>& columns,
    const query::ParamMap& params = {}, size_t max_candidates = 64) {
  Result<sql::SelectStmt> stmt =
      sql::ParseSelect("SELECT * FROM t WHERE " + where_sql);
  WVM_CHECK(stmt.ok());
  std::vector<const sql::Expr*> conjuncts;
  sql::CollectConjuncts(*stmt->where, &conjuncts);
  const Schema schema = KeyedSchema();
  std::vector<query::BoundExpr> bound;
  for (const sql::Expr* e : conjuncts) {
    bound.push_back(query::BoundExpr::Bind(*e, schema, params));
  }
  return BindIndexKeys(bound, KeyCodec(schema, columns), max_candidates);
}

// The key bytes a stored KeyedSchema() tuple with `values` at `columns`
// carries.
std::string Key(const std::vector<size_t>& columns, const Row& values) {
  std::string out;
  WVM_CHECK(KeyCodec(KeyedSchema(), columns).FromValues(values, &out));
  return out;
}

TEST(BindIndexKeysTest, BindsSingleEquality) {
  auto keys = Bind("id = 7", {0});
  ASSERT_TRUE(keys.has_value());
  ASSERT_EQ(keys->size(), 1u);
  EXPECT_EQ((*keys)[0], Key({0}, {Value::Int64(7)}));
}

TEST(BindIndexKeysTest, BindsMirroredAndParamEqualities) {
  auto keys = Bind("7 = id", {0});
  ASSERT_TRUE(keys.has_value());
  ASSERT_EQ(keys->size(), 1u);

  keys = Bind("id = :k", {0}, {{"k", Value::Int64(3)}});
  ASSERT_TRUE(keys.has_value());
  ASSERT_EQ(keys->size(), 1u);
  EXPECT_EQ((*keys)[0], Key({0}, {Value::Int64(3)}));

  // Unbound parameter: the scan path owns the error report.
  EXPECT_FALSE(Bind("id = :missing", {0}).has_value());
}

TEST(BindIndexKeysTest, BindsInListOrWithDedup) {
  auto keys = Bind("id = 1 OR id = 2 OR id = 1", {0});
  ASSERT_TRUE(keys.has_value());
  EXPECT_EQ(*keys, (std::vector<std::string>{Key({0}, {Value::Int64(1)}),
                                             Key({0}, {Value::Int64(2)})}));
}

TEST(BindIndexKeysTest, MixedColumnOrIsDeclined) {
  EXPECT_FALSE(Bind("id = 1 OR grp = 'g1'", {0}).has_value());
}

TEST(BindIndexKeysTest, CompositeBindingTakesCartesianProduct) {
  auto keys = Bind("(id = 1 OR id = 2) AND (grp = 'a' OR grp = 'b')",
                   {0, 1});
  ASSERT_TRUE(keys.has_value());
  EXPECT_EQ(keys->size(), 4u);
  for (int64_t id : {1, 2}) {
    for (const char* grp : {"a", "b"}) {
      const std::string k =
          Key({0, 1}, {Value::Int64(id), Value::String(grp)});
      EXPECT_EQ(std::count(keys->begin(), keys->end(), k), 1)
          << id << " " << grp;
    }
  }
}

TEST(BindIndexKeysTest, PartiallyBoundKeyIsDeclined) {
  // Only grp bound; the composite (id, grp) access path needs both.
  EXPECT_FALSE(Bind("grp = 'a'", {0, 1}).has_value());
  // Range conjuncts never bind.
  EXPECT_FALSE(Bind("id > 3", {0}).has_value());
}

TEST(BindIndexKeysTest, FirstBindingConjunctWinsPerColumn) {
  // id = 1 AND id = 2 is contradictory; the analyzer keeps the first
  // binding and lets the re-evaluated second conjunct reject the row.
  auto keys = Bind("id = 1 AND id = 2", {0});
  ASSERT_TRUE(keys.has_value());
  ASSERT_EQ(keys->size(), 1u);
  EXPECT_EQ((*keys)[0], Key({0}, {Value::Int64(1)}));
}

TEST(BindIndexKeysTest, HashUnsafeComparandsAreDeclined) {
  // Doubles can be SQL-equal to an int without hashing equal.
  EXPECT_FALSE(Bind("id = 1.5", {0}).has_value());
  EXPECT_FALSE(Bind("wt = 0.5", {3}).has_value());
  // An over-width string literal can never equal a stored truncated value.
  EXPECT_FALSE(Bind("grp = 'abcdef'", {1}).has_value());
}

TEST(BindIndexKeysTest, NormalizesCrossWidthIntegers) {
  // `cnt` is Int32; the parser produces an Int64 literal. The bound key
  // is the bytes a stored INT32 5 carries.
  auto keys = Bind("cnt = 5", {2});
  ASSERT_TRUE(keys.has_value());
  ASSERT_EQ(keys->size(), 1u);
  EXPECT_EQ((*keys)[0], Key({2}, {Value::Int32(5)}));
  // A literal no INT32 can equal matches no key.
  keys = Bind("cnt = 4294967301", {2});
  ASSERT_TRUE(keys.has_value());
  EXPECT_TRUE(keys->empty());
}

// DATE columns bind exactly what the scan's comparison would match: a
// DATE value, or a string the binder parses as a date.
TEST(BindIndexKeysTest, BindsDateParamOnKeyWithDate) {
  auto keys = Bind("id = 4 AND day = :d", {0, 5},
                   {{"d", Value::Date(1996, 10, 14)}});
  ASSERT_TRUE(keys.has_value());
  ASSERT_EQ(keys->size(), 1u);
  EXPECT_EQ((*keys)[0],
            Key({0, 5}, {Value::Int64(4), Value::Date(1996, 10, 14)}));
}

TEST(BindIndexKeysTest, BindsParseableDateStringToParsedDate) {
  auto keys = Bind("id = 4 AND day = '10/14/96'", {0, 5});
  ASSERT_TRUE(keys.has_value());
  ASSERT_EQ(keys->size(), 1u);
  EXPECT_EQ((*keys)[0],
            Key({0, 5}, {Value::Int64(4), Value::Date(1996, 10, 14)}));
}

TEST(BindIndexKeysTest, UnparseableDateStringIsDeclined) {
  EXPECT_FALSE(Bind("id = 4 AND day = 'soon'", {0, 5}).has_value());
  EXPECT_FALSE(Bind("id = 4 AND day = '13/01/96'", {0, 5}).has_value());
}

TEST(BindIndexKeysTest, NonDateComparandOnDateIsDeclined) {
  EXPECT_FALSE(Bind("id = 4 AND day = 19961014", {0, 5}).has_value());
  EXPECT_FALSE(Bind("id = 4 AND day = 1.5", {0, 5}).has_value());
  EXPECT_FALSE(Bind("id = 4 AND day = :d", {0, 5},
                    {{"d", Value::Int64(19961014)}})
                   .has_value());
}

TEST(BindIndexKeysTest, BindsEveryDateInAnInList) {
  // Two spellings of the same date collapse to one key.
  auto keys = Bind(
      "id = 4 AND (day = '10/14/96' OR day = :d OR day = '10/14/1996')",
      {0, 5}, {{"d", Value::Date(1996, 10, 15)}});
  ASSERT_TRUE(keys.has_value());
  ASSERT_EQ(keys->size(), 2u);
  EXPECT_EQ((*keys)[0],
            Key({0, 5}, {Value::Int64(4), Value::Date(1996, 10, 14)}));
  EXPECT_EQ((*keys)[1],
            Key({0, 5}, {Value::Int64(4), Value::Date(1996, 10, 15)}));
}

TEST(BindIndexKeysTest, CandidateCapDeclinesWideInLists) {
  EXPECT_FALSE(
      Bind("id = 1 OR id = 2 OR id = 3", {0}, {}, /*max_candidates=*/2)
          .has_value());
  EXPECT_TRUE(
      Bind("id = 1 OR id = 2 OR id = 3", {0}, {}, /*max_candidates=*/3)
          .has_value());
}

TEST(RewriterTest, UnknownColumnFails) {
  VersionedSchema vs = MakeVs();
  Result<sql::SelectStmt> stmt =
      sql::ParseSelect("SELECT bogus FROM DailySales");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(RewriteReaderQuery(*stmt, vs).ok());
}

TEST(RewriterTest, NvnlCaseCascades) {
  VersionedSchema vs = MakeVs(4);
  sql::ExprPtr c = BuildVersionCase(vs, 4);
  EXPECT_EQ(c->ToSql(),
            "CASE WHEN :sessionVN >= tupleVN1 THEN total_sales "
            "WHEN :sessionVN >= tupleVN2 THEN pre_total_sales1 "
            "WHEN :sessionVN >= tupleVN3 THEN pre_total_sales2 "
            "ELSE pre_total_sales3 END");
}

TEST(RewriterTest, NvnlVisibilityPredicate) {
  VersionedSchema vs = MakeVs(3);
  sql::ExprPtr p = BuildVisibilityPredicate(vs);
  EXPECT_EQ(p->ToSql(),
            "(:sessionVN >= tupleVN1 AND operation1 <> 'delete') OR "
            "(:sessionVN < tupleVN1 AND :sessionVN >= tupleVN2 AND "
            "operation1 <> 'insert') OR "
            "(:sessionVN < tupleVN2 AND operation2 <> 'insert')");
}

// ---------------------------------------------------------------------------
// Equivalence property: for random maintenance histories, executing the
// REWRITTEN query on the raw physical table returns exactly what the
// native engine's snapshot scan + executor returns — the paper's central
// implementation claim (§4). Parameterized over n.

class RewriteEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RewriteEquivalenceTest, RandomHistoriesMatchNativeEngine) {
  const int n = GetParam();
  DiskManager disk;
  BufferPool pool(1024, &disk);
  auto engine_or = VnlEngine::Create(&pool, n);
  ASSERT_TRUE(engine_or.ok());
  VnlEngine& engine = **engine_or;
  auto table_or = engine.CreateTable("DailySales", DailySales());
  ASSERT_TRUE(table_or.ok());
  VnlTable& table = *table_or.value();

  Rng rng(1234 + n);
  const std::vector<std::string> cities = {"San Jose", "Berkeley", "Novato",
                                           "Oakland", "Fremont"};
  const std::vector<std::string> lines = {"golf equip", "racquetball",
                                          "rollerblades"};

  MaintenanceRewriter maintenance(&engine);
  auto key_is = [](const std::string& city, const std::string& pl, int day) {
    return StrPrintf("WHERE city = '%s' AND product_line = '%s' AND date = "
                     "'10/%d/96'",
                     city.c_str(), pl.c_str(), day);
  };

  const char* kQueries[] = {
      "SELECT city, state, SUM(total_sales) FROM DailySales "
      "GROUP BY city, state",
      "SELECT city, product_line, total_sales FROM DailySales "
      "WHERE total_sales > 5000",
      "SELECT COUNT(*), SUM(total_sales), MIN(total_sales), "
      "MAX(total_sales) FROM DailySales",
      "SELECT product_line, SUM(total_sales) FROM DailySales "
      "WHERE city = 'San Jose' GROUP BY product_line",
  };

  // Run several maintenance transactions with random batches; after each,
  // compare native vs rewrite for every live session version.
  std::vector<ReaderSession> sessions;
  for (int round = 0; round < 8; ++round) {
    Result<MaintenanceTxn*> txn_or = engine.BeginMaintenance();
    ASSERT_TRUE(txn_or.ok());
    MaintenanceTxn* txn = txn_or.value();
    const int ops = static_cast<int>(rng.Uniform(3, 10));
    for (int i = 0; i < ops; ++i) {
      const std::string city = rng.PickFrom(cities);
      const std::string pl = rng.PickFrom(lines);
      const int day = static_cast<int>(rng.Uniform(13, 16));
      const int choice = static_cast<int>(rng.Uniform(0, 2));
      if (choice == 0) {
        Status s = table.Insert(
            txn, {Value::String(city), Value::String("CA"),
                  Value::String(pl), Value::Date(1996, 10, day),
                  Value::Int32(static_cast<int32_t>(
                      rng.Uniform(100, 20000)))});
        // Key conflicts with live tuples are expected; skip them.
        ASSERT_TRUE(s.ok() || s.code() == StatusCode::kAlreadyExists);
      } else if (choice == 1) {
        const int32_t delta = static_cast<int32_t>(rng.Uniform(-500, 500));
        ASSERT_TRUE(maintenance
                        .Execute(txn, StrPrintf("UPDATE DailySales SET "
                                                "total_sales = total_sales + "
                                                "%d %s",
                                                delta,
                                                key_is(city, pl, day).c_str()))
                        .ok());
      } else {
        ASSERT_TRUE(maintenance
                        .Execute(txn, "DELETE FROM DailySales " +
                                          key_is(city, pl, day))
                        .ok());
      }
    }
    ASSERT_TRUE(engine.Commit(txn).ok());
    sessions.push_back(engine.OpenSession());

    // Compare every still-valid session under every query.
    for (const ReaderSession& s : sessions) {
      if (!engine.CheckSession(s).ok()) continue;
      for (const char* q : kQueries) {
        Result<sql::SelectStmt> stmt = sql::ParseSelect(q);
        ASSERT_TRUE(stmt.ok());
        Result<query::QueryResult> native = table.SnapshotSelect(s, *stmt);
        ASSERT_TRUE(native.ok()) << native.status().ToString();

        Result<sql::SelectStmt> rewritten =
            RewriteReaderQuery(*stmt, table.versioned_schema());
        ASSERT_TRUE(rewritten.ok());
        Result<query::QueryResult> via_rewrite = query::ExecuteSelect(
            *rewritten, table.physical_table(),
            {{"sessionVN", Value::Int64(s.session_vn)}});
        ASSERT_TRUE(via_rewrite.ok()) << via_rewrite.status().ToString();

        ASSERT_EQ(native->rows.size(), via_rewrite->rows.size())
            << "round " << round << " session " << s.session_vn << "\n"
            << q;
        // Grouped output is sorted; ungrouped scans share page order.
        for (size_t r = 0; r < native->rows.size(); ++r) {
          ASSERT_EQ(native->rows[r].size(), via_rewrite->rows[r].size());
          for (size_t c = 0; c < native->rows[r].size(); ++c) {
            EXPECT_TRUE(native->rows[r][c] == via_rewrite->rows[r][c])
                << q << "\nrow " << r << " col " << c << ": "
                << native->rows[r][c].ToString() << " vs "
                << via_rewrite->rows[r][c].ToString();
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllN, RewriteEquivalenceTest,
                         ::testing::Values(2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return StrPrintf("n%d", info.param);
                         });

}  // namespace
}  // namespace wvm::core

// Differential suite for §4.3 index-routed snapshot reads: for randomly
// generated tables, maintenance histories (including revives of logically
// deleted keys), and predicates, SnapshotSelect with index routing ON must
// return byte-identical rows — in the same order — as the forced heap-scan
// path, before, during, and after maintenance transactions, and fail with
// the same status when the scan path fails (session expiration, type
// errors). The routed path emits candidates in heap order precisely so
// this holds. Each routed read is also checked to have taken the index
// exactly when the session is inside the §4.1 version window.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/vnl_engine.h"
#include "core/vnl_table.h"
#include "query/executor.h"
#include "sql/parser.h"

namespace wvm::core {
namespace {

// Unique key on id; secondary indexes on the non-updatable group prefix
// (grp), on the sometimes-NULL tag column and on the DATE column day. cnt
// is indexed nowhere, so equality on it must fall back to the scan.
// qty/amt force reconstructed-side filters.
Schema DiffSchema() {
  Schema s({Column::Int64("id"), Column::String("grp", 4),
            Column::String("tag", 6), Column::Int32("cnt"),
            Column::Int64("qty", /*updatable=*/true),
            Column::Double("amt", /*updatable=*/true), Column::Date("day")},
           {0});
  WVM_CHECK(s.AddSecondaryIndex("by_grp", {"grp"}).ok());
  WVM_CHECK(s.AddSecondaryIndex("by_tag", {"tag"}).ok());
  WVM_CHECK(s.AddSecondaryIndex("by_day", {"day"}).ok());
  return s;
}

Row MakeItem(Rng* rng, int64_t id) {
  Row row;
  row.push_back(Value::Int64(id));
  row.push_back(Value::String("g" + std::to_string(rng->Uniform(0, 5))));
  if (rng->Bernoulli(0.2)) {
    row.push_back(Value::Null(TypeId::kString));
  } else {
    static const std::vector<std::string> kTags = {"alpha", "beta", "gamma",
                                                   "delta"};
    row.push_back(Value::String(rng->PickFrom(kTags)));
  }
  row.push_back(Value::Int32(static_cast<int32_t>(rng->Uniform(0, 100))));
  row.push_back(Value::Int64(rng->Uniform(-1000, 1000)));
  row.push_back(Value::Double(rng->UniformDouble(-10.0, 10.0)));
  row.push_back(
      Value::Date(1996, 10, static_cast<int>(rng->Uniform(1, 6))));
  return row;
}

// Query pool. Covers: unique-key point reads and IN-lists (hit, miss,
// param-bound, literal-on-the-left), composite conjunctions with residual
// predicates on updatable and unindexed columns, secondary-index routing
// (grp, tag, day) with narrow projections and aggregation, DATE bindings
// from a DATE param and from parseable string literals, contradictory
// equalities, mixed-column ORs and non-equality shapes (fallback), an
// over-width string literal (declined binding, constant-false filter),
// type-mismatched or unparseable comparands (declined binding; both paths
// fail with InvalidArgument), and a failing conjunct ahead of a binding one
// (the heap pass fails on every visible tuple in WHERE order, so routing
// declines). `routable` marks the queries the index serves whenever the
// session is inside the version window.
struct PoolQuery {
  const char* sql;
  bool routable;
};

const PoolQuery kQueries[] = {
    {"SELECT * FROM t WHERE id = 17", true},
    {"SELECT * FROM t WHERE 23 = id", true},
    {"SELECT id, qty FROM t WHERE id = :k", true},
    {"SELECT * FROM t WHERE id = 100000", true},
    {"SELECT id, amt FROM t WHERE id = 3 OR id = 7 OR id = 11 OR id = 3",
     true},
    {"SELECT * FROM t WHERE id = 5 AND qty > 0", true},
    {"SELECT * FROM t WHERE id = 5 AND cnt < 50", true},
    {"SELECT * FROM t WHERE id = 5 AND id = 6", true},
    {"SELECT id FROM t WHERE grp = 'g1'", true},
    {"SELECT id, qty FROM t WHERE grp = 'g2' AND qty > :q", true},
    {"SELECT grp, COUNT(*) AS c, SUM(qty) AS s FROM t "
     "WHERE grp = 'g0' OR grp = 'g3' GROUP BY grp",
     true},
    {"SELECT id FROM t WHERE tag = 'alpha'", true},
    {"SELECT id FROM t WHERE tag = 'alpha' OR tag = 'beta'", true},
    {"SELECT id FROM t WHERE grp = 'g1' AND tag = 'gamma'", true},
    {"SELECT id, day FROM t WHERE day = :d", true},
    {"SELECT id, qty FROM t WHERE day = '10/03/96' AND qty > :q", true},
    {"SELECT day, COUNT(*) AS c FROM t "
     "WHERE day = '10/02/1996' OR day = :d GROUP BY day",
     true},
    {"SELECT id FROM t WHERE tag = 'beta' AND day = :d", true},
    {"SELECT id FROM t WHERE grp = 'g1xxxxxx'", false},
    {"SELECT id FROM t WHERE id = 4 OR grp = 'g1'", false},
    {"SELECT id FROM t WHERE cnt = 42", false},
    {"SELECT id FROM t WHERE id > 10 AND id < 14", false},
    {"SELECT COUNT(*) AS c FROM t", false},
    {"SELECT id FROM t WHERE day = '10/32/96'", false},
    {"SELECT id FROM t WHERE day = 5", false},
    {"SELECT id FROM t WHERE grp = 5", false},
    {"SELECT id FROM t WHERE qty = 'x'", false},
    {"SELECT id FROM t WHERE id = 'x' AND grp = 'zz'", false},
};

class IndexReadDiffTest : public ::testing::Test {
 protected:
  // Every pool query through the forced heap pass and through the
  // index-routed path; both must agree row for row. With `in_window` each
  // routable query must take the index (one avoided scan per routed
  // read); without it every read must fall back to the heap pass.
  void ExpectRoutedMatchesScan(VnlEngine* engine, VnlTable* table,
                               const ReaderSession& session,
                               const query::ParamMap& params,
                               bool in_window) {
    for (const PoolQuery& q : kQueries) {
      SCOPED_TRACE(std::string("query: ") + q.sql);
      Result<sql::SelectStmt> stmt = sql::ParseSelect(q.sql);
      ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

      engine->SetScanOptions({.index_routing = false});
      Result<query::QueryResult> scan =
          table->SnapshotSelect(session, *stmt, params);

      engine->SetScanOptions({.index_routing = true});
      const uint64_t avoided = engine->scan_metrics().scans_avoided;
      Result<query::QueryResult> routed =
          table->SnapshotSelect(session, *stmt, params);
      EXPECT_EQ(engine->scan_metrics().scans_avoided - avoided,
                in_window && q.routable ? 1u : 0u);

      ASSERT_EQ(scan.ok(), routed.ok())
          << (scan.ok() ? routed.status() : scan.status()).ToString();
      if (!scan.ok()) {
        EXPECT_EQ(scan.status().code(), routed.status().code());
        continue;
      }
      EXPECT_EQ(scan->column_names, routed->column_names);
      ASSERT_EQ(scan->rows.size(), routed->rows.size());
      for (size_t i = 0; i < scan->rows.size(); ++i) {
        ASSERT_EQ(scan->rows[i].size(), routed->rows[i].size());
        for (size_t c = 0; c < scan->rows[i].size(); ++c) {
          EXPECT_TRUE(scan->rows[i][c] == routed->rows[i][c])
              << "row " << i << " col " << c << ": "
              << scan->rows[i][c].ToString() << " vs "
              << routed->rows[i][c].ToString();
        }
      }
    }
  }

  // One full randomized scenario: load, churn (updates, deletes, and
  // revives that move secondary postings), reads before / during / after
  // maintenance, GC, and (some seeds) expiration.
  void RunSeed(uint64_t seed) {
    SCOPED_TRACE(StrPrintf("seed=%llu",
                           static_cast<unsigned long long>(seed)));
    Rng rng(seed);
    DiskManager disk;
    BufferPool pool(1024, &disk);
    const int n = rng.Bernoulli(0.5) ? 2 : 3;
    auto engine_or = VnlEngine::Create(&pool, n);
    ASSERT_TRUE(engine_or.ok());
    VnlEngine* engine = engine_or.value().get();
    auto table_or = engine->CreateTable("t", DiffSchema());
    ASSERT_TRUE(table_or.ok());
    VnlTable* table = table_or.value();

    const int64_t rows = rng.Uniform(120, 400);
    {
      Result<MaintenanceTxn*> load = engine->BeginMaintenance();
      ASSERT_TRUE(load.ok());
      for (int64_t id = 0; id < rows; ++id) {
        ASSERT_TRUE(table->Insert(*load, MakeItem(&rng, id)).ok());
      }
      ASSERT_TRUE(engine->Commit(*load).ok());
    }

    const query::ParamMap params = {
        {"q", Value::Int64(rng.Uniform(-500, 500))},
        {"k", Value::Int64(rng.Uniform(0, rows))},
        {"d", Value::Date(1996, 10, static_cast<int>(rng.Uniform(1, 6)))}};
    ReaderSession before = engine->OpenSession();
    ExpectRoutedMatchesScan(engine, table, before, params, true);

    Result<MaintenanceTxn*> churn = engine->BeginMaintenance();
    ASSERT_TRUE(churn.ok());
    auto apply_random_ops = [&](int count) {
      for (int i = 0; i < count; ++i) {
        const int64_t id = rng.Uniform(0, rows + 20);
        const Row key = {Value::Int64(id)};
        const double dice = rng.UniformDouble(0.0, 1.0);
        if (dice < 0.45) {
          const int64_t delta = rng.Uniform(-300, 300);
          ASSERT_TRUE(table
                          ->UpdateByKey(*churn, key,
                                        [&](const Row& row) -> Result<Row> {
                                          Row next = row;
                                          next[4] = Value::Int64(
                                              next[4].AsInt64() + delta);
                                          next[5] = Value::Double(
                                              next[5].AsDouble() * 0.5);
                                          return next;
                                        })
                          .ok());
        } else if (dice < 0.7) {
          ASSERT_TRUE(table->DeleteByKey(*churn, key).ok());
        } else {
          // A re-insert over a logically deleted key is the Table-2 revive:
          // the fresh random grp/tag/day move secondary postings. Over a
          // live key it is a legitimate uniqueness error.
          const Status s = table->Insert(*churn, MakeItem(&rng, id));
          ASSERT_TRUE(s.ok() || s.code() == StatusCode::kAlreadyExists)
              << s.ToString();
        }
      }
    };
    apply_random_ops(static_cast<int>(rng.Uniform(15, 50)));

    // Gap 0 stays inside the window while maintenance is active.
    ReaderSession during = engine->OpenSession();
    ExpectRoutedMatchesScan(engine, table, before, params, true);
    ExpectRoutedMatchesScan(engine, table, during, params, true);

    apply_random_ops(static_cast<int>(rng.Uniform(5, 20)));
    ASSERT_TRUE(engine->Commit(*churn).ok());

    // `before` is now one commit behind with no maintenance active: inside
    // the §4.1 window for every n, so it is served off the index too.
    ReaderSession after = engine->OpenSession();
    ExpectRoutedMatchesScan(engine, table, before, params, true);
    ExpectRoutedMatchesScan(engine, table, after, params, true);

    // GC with `after` still open: reclaimable tuples vanish from both the
    // heap and the indexes; the routed path must keep agreeing.
    engine->CloseSession(before);
    ASSERT_TRUE(engine->CollectGarbage().ok());
    ExpectRoutedMatchesScan(engine, table, after, params, true);

    // Window edge: age `after` to gap n-1 (the oldest the window admits
    // with no maintenance active), where it still routes. A new
    // maintenance transaction shrinks the window past it, so the same
    // session must fall back to the scan, which expires it at tuple
    // granularity whenever it meets a tuple the transaction rewrote; the
    // routed path must fail with the same status.
    while (engine->current_vn() - after.session_vn < n - 1) {
      churn = engine->BeginMaintenance();
      ASSERT_TRUE(churn.ok());
      apply_random_ops(static_cast<int>(rng.Uniform(5, 15)));
      ASSERT_TRUE(engine->Commit(*churn).ok());
    }
    ExpectRoutedMatchesScan(engine, table, after, params, true);
    churn = engine->BeginMaintenance();
    ASSERT_TRUE(churn.ok());
    apply_random_ops(static_cast<int>(rng.Uniform(10, 30)));
    ExpectRoutedMatchesScan(engine, table, after, params, false);
    ASSERT_TRUE(engine->Commit(*churn).ok());
    ExpectRoutedMatchesScan(engine, table, after, params, false);
    ReaderSession fresh = engine->OpenSession();
    ExpectRoutedMatchesScan(engine, table, fresh, params, true);
  }
};

TEST_F(IndexReadDiffTest, SeedsBatch0) {
  for (uint64_t seed = 0; seed < 13; ++seed) RunSeed(seed);
}

TEST_F(IndexReadDiffTest, SeedsBatch1) {
  for (uint64_t seed = 13; seed < 26; ++seed) RunSeed(seed);
}

TEST_F(IndexReadDiffTest, SeedsBatch2) {
  for (uint64_t seed = 26; seed < 39; ++seed) RunSeed(seed);
}

TEST_F(IndexReadDiffTest, SeedsBatch3) {
  for (uint64_t seed = 39; seed < 52; ++seed) RunSeed(seed);
}

// --- Observability: the routed read is visible in stats and metrics -------

TEST(IndexReadStatsTest, RoutedSelectRecordsLookupsAndAvoidedScans) {
  Rng rng(7);
  DiskManager disk;
  BufferPool pool(256, &disk);
  auto engine_or = VnlEngine::Create(&pool, 2);
  ASSERT_TRUE(engine_or.ok());
  VnlEngine* engine = engine_or.value().get();
  auto table_or = engine->CreateTable("t", DiffSchema());
  ASSERT_TRUE(table_or.ok());
  VnlTable* table = table_or.value();
  {
    Result<MaintenanceTxn*> load = engine->BeginMaintenance();
    ASSERT_TRUE(load.ok());
    for (int64_t id = 0; id < 100; ++id) {
      ASSERT_TRUE(table->Insert(*load, MakeItem(&rng, id)).ok());
    }
    ASSERT_TRUE(engine->Commit(*load).ok());
  }
  ReaderSession s = engine->OpenSession();
  Result<sql::SelectStmt> stmt =
      sql::ParseSelect("SELECT * FROM t WHERE id = 42");
  ASSERT_TRUE(stmt.ok());

  engine->ResetScanMetrics();
  SnapshotScanStats stats;
  Result<query::QueryResult> res =
      table->SnapshotSelect(s, *stmt, {}, &stats);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->rows.size(), 1u);
  EXPECT_EQ(stats.index_lookups, 1u);
  EXPECT_EQ(stats.index_served_rows, 1u);

  const ScanMetrics m = engine->scan_metrics();
  EXPECT_EQ(m.index_lookups, 1u);
  EXPECT_EQ(m.index_served_rows, 1u);
  EXPECT_EQ(m.scans_avoided, 1u);
  // The routed read touched one candidate tuple, not the whole heap.
  EXPECT_EQ(m.rows_scanned, 1u);
}

// A comparison between incompatible types is a query error, never a
// process abort, and both read paths report it alike: the routed path
// when a candidate's conjunct fails to evaluate, the scan when its first
// row does.
TEST(IndexReadStatsTest, TypeMismatchedWhereFailsAlikeOnBothPaths) {
  Rng rng(13);
  DiskManager disk;
  BufferPool pool(256, &disk);
  auto engine_or = VnlEngine::Create(&pool, 2);
  ASSERT_TRUE(engine_or.ok());
  VnlEngine* engine = engine_or.value().get();
  auto table_or = engine->CreateTable("t", DiffSchema());
  ASSERT_TRUE(table_or.ok());
  VnlTable* table = table_or.value();
  {
    Result<MaintenanceTxn*> load = engine->BeginMaintenance();
    ASSERT_TRUE(load.ok());
    for (int64_t id = 0; id < 10; ++id) {
      ASSERT_TRUE(table->Insert(*load, MakeItem(&rng, id)).ok());
    }
    ASSERT_TRUE(engine->Commit(*load).ok());
  }
  ReaderSession s = engine->OpenSession();
  // {query, served off the index}
  const std::pair<const char*, bool> kMismatched[] = {
      {"SELECT id FROM t WHERE day = 5", false},
      {"SELECT id FROM t WHERE grp = 5", false},
      {"SELECT id FROM t WHERE qty = 'x'", false},
      {"SELECT id FROM t WHERE id = 'x'", false},
      {"SELECT id FROM t WHERE id = 3 AND day = 5", true},
      {"SELECT id FROM t WHERE id = 3 AND qty = 'x'", true},
  };
  for (const auto& [sql, routable] : kMismatched) {
    SCOPED_TRACE(sql);
    Result<sql::SelectStmt> stmt = sql::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok());
    engine->SetScanOptions({.index_routing = false});
    Result<query::QueryResult> scan = table->SnapshotSelect(s, *stmt, {});
    engine->SetScanOptions({.index_routing = true});
    const uint64_t avoided = engine->scan_metrics().scans_avoided;
    Result<query::QueryResult> routed = table->SnapshotSelect(s, *stmt, {});
    EXPECT_EQ(engine->scan_metrics().scans_avoided - avoided,
              routable ? 1u : 0u);
    EXPECT_EQ(scan.status().code(), StatusCode::kInvalidArgument)
        << scan.status().ToString();
    EXPECT_EQ(routed.status().code(), StatusCode::kInvalidArgument)
        << routed.status().ToString();
  }
}

TEST(IndexReadStatsTest, SnapshotLookupRecordsIndexProbes) {
  Rng rng(11);
  DiskManager disk;
  BufferPool pool(256, &disk);
  auto engine_or = VnlEngine::Create(&pool, 2);
  ASSERT_TRUE(engine_or.ok());
  VnlEngine* engine = engine_or.value().get();
  auto table_or = engine->CreateTable("t", DiffSchema());
  ASSERT_TRUE(table_or.ok());
  VnlTable* table = table_or.value();
  {
    Result<MaintenanceTxn*> load = engine->BeginMaintenance();
    ASSERT_TRUE(load.ok());
    for (int64_t id = 0; id < 10; ++id) {
      ASSERT_TRUE(table->Insert(*load, MakeItem(&rng, id)).ok());
    }
    ASSERT_TRUE(engine->Commit(*load).ok());
  }
  ReaderSession s = engine->OpenSession();
  SnapshotScanStats stats;
  auto hit = table->SnapshotLookup(s, {Value::Int64(4)}, &stats);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->has_value());
  EXPECT_EQ(stats.index_lookups, 1u);
  EXPECT_EQ(stats.index_served_rows, 1u);

  auto miss = table->SnapshotLookup(s, {Value::Int64(999)}, &stats);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->has_value());
  EXPECT_EQ(stats.index_lookups, 2u);
  EXPECT_EQ(stats.index_served_rows, 1u);
}

}  // namespace
}  // namespace wvm::core

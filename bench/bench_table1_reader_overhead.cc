// Table 1 / §4.1 reader-cost study: what does extracting the right tuple
// version cost a reader, compared with scanning an unversioned relation?
// Three paths are measured over the same logical data:
//   plain      — unversioned table, direct aggregate scan (lower bound)
//   2vnl       — native engine snapshot scan (decision procedure in C++)
//   rewrite    — the paper's §4.1 CASE-rewritten SQL on the widened table
// plus the global expiration check a session runs per query.
#include <benchmark/benchmark.h>

#include "bench/bench_json.h"
#include "common/logging.h"
#include "core/rewriter.h"
#include "core/vnl_engine.h"
#include "query/executor.h"
#include "sql/parser.h"
#include "warehouse/workload.h"

namespace wvm {
namespace {

constexpr int kRows = 4096;

Schema ItemSchema() {
  return Schema({Column::Int64("id"), Column::String("grp", 8),
                 Column::Int64("qty", /*updatable=*/true)},
                {0});
}

Row Item(int64_t id, int64_t qty) {
  return {Value::Int64(id), Value::String("g" + std::to_string(id % 16)),
          Value::Int64(qty)};
}

const char* kAggregateSql =
    "SELECT grp, SUM(qty) FROM items GROUP BY grp";

struct VnlFixture {
  VnlFixture() : pool(16384, &disk) {
    auto engine_or = core::VnlEngine::Create(&pool, 2);
    WVM_CHECK(engine_or.ok());
    engine = std::move(engine_or).value();
    auto table_or = engine->CreateTable("items", ItemSchema());
    WVM_CHECK(table_or.ok());
    table = table_or.value();

    Result<core::MaintenanceTxn*> load = engine->BeginMaintenance();
    WVM_CHECK(load.ok());
    for (int64_t i = 0; i < kRows; ++i) {
      WVM_CHECK(table->Insert(load.value(), Item(i, i)).ok());
    }
    WVM_CHECK(engine->Commit(load.value()).ok());

    // A second transaction updates half the tuples so that readers at the
    // old version exercise the pre-update path of Table 1.
    Result<core::MaintenanceTxn*> churn = engine->BeginMaintenance();
    WVM_CHECK(churn.ok());
    WVM_CHECK(table
                  ->Update(churn.value(),
                           [](const Row& row) -> Result<bool> {
                             return row[0].AsInt64() % 2 == 0;
                           },
                           [](const Row& row) -> Result<Row> {
                             Row next = row;
                             next[2] =
                                 Value::Int64(next[2].AsInt64() + 1000);
                             return next;
                           })
                  .ok());
    WVM_CHECK(engine->Commit(churn.value()).ok());
  }

  DiskManager disk;
  BufferPool pool;
  std::unique_ptr<core::VnlEngine> engine;
  core::VnlTable* table;
};

VnlFixture& Fixture() {
  static VnlFixture* fixture = new VnlFixture();
  return *fixture;
}

void BM_PlainTableAggregate(benchmark::State& state) {
  // Unversioned lower bound: same rows in a plain table.
  DiskManager disk;
  BufferPool pool(16384, &disk);
  Table table("items", ItemSchema(), &pool);
  for (int64_t i = 0; i < kRows; ++i) {
    WVM_CHECK(table.InsertRow(Item(i, i)).ok());
  }
  Result<sql::SelectStmt> stmt = sql::ParseSelect(kAggregateSql);
  WVM_CHECK(stmt.ok());
  for (auto _ : state) {
    Result<query::QueryResult> r = query::ExecuteSelect(*stmt, table, {});
    WVM_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().rows);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_PlainTableAggregate);

void BM_VnlNativeSnapshotAggregate(benchmark::State& state) {
  VnlFixture& fx = Fixture();
  // session_vn selects current (2) vs pre-update-heavy (1) reads.
  core::ReaderSession session;
  session.session_vn = state.range(0);
  Result<sql::SelectStmt> stmt = sql::ParseSelect(kAggregateSql);
  WVM_CHECK(stmt.ok());
  for (auto _ : state) {
    Result<query::QueryResult> r =
        fx.table->SnapshotSelect(session, *stmt);
    WVM_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().rows);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel(state.range(0) == 2 ? "current-version reads"
                                     : "pre-update reads (50% of tuples)");
}
BENCHMARK(BM_VnlNativeSnapshotAggregate)->Arg(2)->Arg(1);

void BM_VnlRewrittenSqlAggregate(benchmark::State& state) {
  VnlFixture& fx = Fixture();
  Result<sql::SelectStmt> stmt = sql::ParseSelect(kAggregateSql);
  WVM_CHECK(stmt.ok());
  Result<sql::SelectStmt> rewritten =
      core::RewriteReaderQuery(*stmt, fx.table->versioned_schema());
  WVM_CHECK(rewritten.ok());
  const query::ParamMap params = {
      {"sessionVN", Value::Int64(state.range(0))}};
  for (auto _ : state) {
    Result<query::QueryResult> r = query::ExecuteSelect(
        *rewritten, fx.table->physical_table(), params);
    WVM_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().rows);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel("query-rewrite path (§4.1 CASE expressions)");
}
BENCHMARK(BM_VnlRewrittenSqlAggregate)->Arg(2)->Arg(1);

// Selective predicate over the non-updatable grp column (1 of 16 groups
// matches): the streaming read path evaluates it on the raw physical row,
// so ~15/16 of the tuples are never copied. The `reconstructed_per_scan`
// counter shows how few logical rows one pass actually materializes;
// `full_materializations` must stay 0 (no snapshot-wide row vector).
const char* kSelectiveSql = "SELECT id, qty FROM items WHERE grp = 'g3'";

void BM_VnlSelectiveWhereStreaming(benchmark::State& state) {
  VnlFixture& fx = Fixture();
  core::ReaderSession session;
  session.session_vn = state.range(0);
  Result<sql::SelectStmt> stmt = sql::ParseSelect(kSelectiveSql);
  WVM_CHECK(stmt.ok());
  fx.engine->ResetScanMetrics();
  for (auto _ : state) {
    Result<query::QueryResult> r =
        fx.table->SnapshotSelect(session, *stmt);
    WVM_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().rows);
  }
  const core::ScanMetrics m = fx.engine->scan_metrics();
  WVM_CHECK(m.full_materializations == 0);
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["full_materializations"] =
      static_cast<double>(m.full_materializations);
  state.counters["reconstructed_per_scan"] =
      static_cast<double>(m.rows_reconstructed) /
      static_cast<double>(state.iterations());
  state.SetLabel("pushdown: predicate runs pre-reconstruction");
}
BENCHMARK(BM_VnlSelectiveWhereStreaming)->Arg(2)->Arg(1);

void BM_VnlSelectiveWhereMaterialized(benchmark::State& state) {
  // The pre-streaming shape of the read path: buffer the whole snapshot
  // into a vector, then run the executor over it. Kept as the comparison
  // baseline for the streaming benchmark above.
  VnlFixture& fx = Fixture();
  core::ReaderSession session;
  session.session_vn = state.range(0);
  Result<sql::SelectStmt> stmt = sql::ParseSelect(kSelectiveSql);
  WVM_CHECK(stmt.ok());
  for (auto _ : state) {
    Result<std::vector<Row>> rows = fx.table->SnapshotRows(session);
    WVM_CHECK(rows.ok());
    query::RowSource source =
        [&rows](const std::function<bool(const Row&)>& sink) {
          for (const Row& row : rows.value()) {
            if (!sink(row)) return;
          }
        };
    Result<query::QueryResult> r = query::ExecuteSelect(
        *stmt, fx.table->logical_schema(), source, {});
    WVM_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value().rows);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel("baseline: copy-everything snapshot vector");
}
BENCHMARK(BM_VnlSelectiveWhereMaterialized)->Arg(2)->Arg(1);

void BM_VnlPointLookup(benchmark::State& state) {
  VnlFixture& fx = Fixture();
  core::ReaderSession session;
  session.session_vn = 2;
  int64_t id = 0;
  for (auto _ : state) {
    Result<std::optional<Row>> r =
        fx.table->SnapshotLookup(session, {Value::Int64(id)});
    WVM_CHECK(r.ok());
    benchmark::DoNotOptimize(r.value());
    id = (id + 1) % kRows;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VnlPointLookup);

void BM_GlobalExpirationCheck(benchmark::State& state) {
  VnlFixture& fx = Fixture();
  core::ReaderSession session = fx.engine->OpenSession();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.engine->CheckSession(session).ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("per-query §4.1 check: one Version-relation read");
  fx.engine->CloseSession(session);
}
BENCHMARK(BM_GlobalExpirationCheck);

}  // namespace
}  // namespace wvm

WVM_BENCH_JSON_MAIN(bench_table1_reader_overhead)

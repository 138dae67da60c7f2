// Index-aware snapshot reads (§4.3). Loads a 100k-row summary table with
// a unique key and one secondary index, then measures the same queries
// down both read paths — hash-index routing vs the full heap scan — with
// and without maintenance overlap, plus the projection-pushdown saving on
// narrow SELECTs. A second, 2VNL table keyed on (store, day) covers point
// reads that bind a DATE key column, at gap 0 and one commit behind. The interesting metrics are deterministic counters
// (rows scanned, bytes copied, probes issued): those go in the committed
// baseline. Wall-clock speedups are printed and emitted for humans but
// excluded from the baseline, since bench_diff.py never fails on
// one-sided metrics.
#include <chrono>
#include <cstdio>

#include "bench/bench_json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/vnl_engine.h"
#include "query/executor.h"
#include "sql/parser.h"

namespace wvm {
namespace {

constexpr int64_t kRows = 100000;
constexpr int kGroups = 1000;  // ~100 rows per group: a selective query
constexpr int kPointProbes = 400;
constexpr int kPointScans = 20;  // heap-scan point reads are slow; sample
constexpr size_t kPoolPages = 8192;
constexpr int64_t kDatedRows = 20000;
constexpr int kDays = 28;  // one row per (store, day)

Schema SummarySchema() {
  Schema s({Column::Int64("id"), Column::String("grp", 8),
            Column::String("dim", 24),
            Column::Int64("qty", /*updatable=*/true)},
           {0});
  WVM_CHECK(s.AddSecondaryIndex("by_grp", {"grp"}).ok());
  return s;
}

Row MakeRow(int64_t id, int64_t qty) {
  return {Value::Int64(id), Value::String("g" + std::to_string(id % kGroups)),
          Value::String("dim-" + std::to_string(id % 9973)),
          Value::Int64(qty)};
}

Schema DatedSchema() {
  return Schema({Column::Int64("store"), Column::Date("day"),
                 Column::Int64("qty", /*updatable=*/true)},
                {0, 1});
}

Row MakeDatedRow(int64_t i) {
  return {Value::Int64(i / kDays),
          Value::Date(1996, 2, static_cast<int>(i % kDays) + 1),
          Value::Int64(i)};
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct PathCost {
  double secs = 0.0;
  uint64_t rows_scanned = 0;
  uint64_t bytes_copied = 0;
  uint64_t index_lookups = 0;
  uint64_t scans_avoided = 0;
  size_t rows_returned = 0;
};

// Runs `stmt` `reps` times in one session with index routing on or off and
// returns the per-query averages of time and scan-metric deltas.
PathCost RunPath(core::VnlEngine* engine, core::VnlTable* table,
                 const core::ReaderSession& session,
                 const sql::SelectStmt& stmt, const query::ParamMap& params,
                 bool routed, int reps) {
  engine->SetScanOptions({.index_routing = routed});
  const core::ScanMetrics m0 = engine->scan_metrics();
  const auto t0 = std::chrono::steady_clock::now();
  size_t rows = 0;
  for (int i = 0; i < reps; ++i) {
    Result<query::QueryResult> r = table->SnapshotSelect(session, stmt, params);
    WVM_CHECK(r.ok());
    rows = r.value().rows.size();
  }
  const double secs = Seconds(t0);
  const core::ScanMetrics m1 = engine->scan_metrics();
  const auto per = [reps](uint64_t a, uint64_t b) { return (b - a) / reps; };
  return {secs / reps,
          per(m0.rows_scanned, m1.rows_scanned),
          per(m0.bytes_copied, m1.bytes_copied),
          per(m0.index_lookups, m1.index_lookups),
          per(m0.scans_avoided, m1.scans_avoided),
          rows};
}

void Report(const char* label, const PathCost& scan, const PathCost& route,
            bool baseline_counters) {
  const double speedup = route.secs > 0 ? scan.secs / route.secs : 0.0;
  std::printf(
      "%-28s scan: %8.1fus scanned=%6llu bytes=%8llu | routed: %7.2fus "
      "scanned=%4llu bytes=%6llu probes=%llu | rows=%zu speedup=%.0fx\n",
      label, scan.secs * 1e6,
      static_cast<unsigned long long>(scan.rows_scanned),
      static_cast<unsigned long long>(scan.bytes_copied), route.secs * 1e6,
      static_cast<unsigned long long>(route.rows_scanned),
      static_cast<unsigned long long>(route.bytes_copied),
      static_cast<unsigned long long>(route.index_lookups),
      route.rows_returned, speedup);
  const std::string p(label);
  if (baseline_counters) {
    bench::Emit(p + "/scan_rows_scanned",
                static_cast<double>(scan.rows_scanned), "rows");
    bench::Emit(p + "/routed_rows_scanned",
                static_cast<double>(route.rows_scanned), "rows");
    bench::Emit(p + "/routed_index_lookups",
                static_cast<double>(route.index_lookups), "probes");
    bench::Emit(p + "/routed_scans_avoided",
                static_cast<double>(route.scans_avoided), "scans");
  }
  bench::Emit(p + "/scan_us", scan.secs * 1e6, "us");
  bench::Emit(p + "/routed_us", route.secs * 1e6, "us");
  bench::Emit(p + "/speedup", speedup, "items/s");
}

void Run() {
  DiskManager disk;
  BufferPool pool(kPoolPages, &disk);
  // n = 3: the old-session case below reads one commit behind; under
  // 3VNL that stays routable even while maintenance is active. The 2VNL
  // gap-1 case is RunDatedKey's.
  auto engine_or = core::VnlEngine::Create(&pool, 3);
  WVM_CHECK(engine_or.ok());
  core::VnlEngine& engine = **engine_or;
  auto table_or = engine.CreateTable("t", SummarySchema());
  WVM_CHECK(table_or.ok());
  core::VnlTable& table = *table_or.value();

  auto t0 = std::chrono::steady_clock::now();
  {
    Result<core::MaintenanceTxn*> txn = engine.BeginMaintenance();
    WVM_CHECK(txn.ok());
    for (int64_t i = 0; i < kRows; ++i) {
      WVM_CHECK(table.Insert(txn.value(), MakeRow(i, i)).ok());
    }
    WVM_CHECK(engine.Commit(txn.value()).ok());
  }
  std::printf("=== §4.3 index-aware reads: %lld rows loaded in %.2fs ===\n",
              static_cast<long long>(kRows), Seconds(t0));

  Result<sql::SelectStmt> point =
      sql::ParseSelect("SELECT id, grp, qty FROM t WHERE id = :k");
  Result<sql::SelectStmt> group = sql::ParseSelect(
      "SELECT id, qty FROM t WHERE grp = :g AND qty >= 0");
  Result<sql::SelectStmt> narrow = sql::ParseSelect("SELECT id FROM t");
  Result<sql::SelectStmt> wide = sql::ParseSelect("SELECT * FROM t");
  WVM_CHECK(point.ok() && group.ok() && narrow.ok() && wide.ok());
  const query::ParamMap params = {{"k", Value::Int64(kRows / 2)},
                                  {"g", Value::String("g123")}};

  // --- Quiescent table: no maintenance overlap ---------------------------
  core::ReaderSession fresh = engine.OpenSession();
  PathCost scan =
      RunPath(&engine, &table, fresh, *point, params, false, kPointScans);
  PathCost route =
      RunPath(&engine, &table, fresh, *point, params, true, kPointProbes);
  Report("point/quiescent", scan, route, /*baseline_counters=*/true);
  const double quiescent_speedup = scan.secs / route.secs;

  scan = RunPath(&engine, &table, fresh, *group, params, false, kPointScans);
  route = RunPath(&engine, &table, fresh, *group, params, true, kPointScans);
  Report("group/quiescent", scan, route, /*baseline_counters=*/true);

  // --- Overlapping maintenance: the 2VNL selling point -------------------
  // Update a 5% spread, keeping `fresh` open so it now needs pre-update
  // versions, and open a new session that reads current values. Routed
  // reads must stay cheap for both.
  Rng rng(99);
  {
    Result<core::MaintenanceTxn*> txn = engine.BeginMaintenance();
    WVM_CHECK(txn.ok());
    for (int i = 0; i < kRows / 20; ++i) {
      const int64_t id = rng.Uniform(0, kRows - 1);
      Result<bool> r = table.UpdateByKey(
          txn.value(), {Value::Int64(id)}, [](const Row& row) -> Result<Row> {
            Row next = row;
            next[3] = Value::Int64(next[3].AsInt64() + 1);
            return next;
          });
      WVM_CHECK(r.ok());
    }
    WVM_CHECK(engine.Commit(txn.value()).ok());
  }
  core::ReaderSession current = engine.OpenSession();

  scan = RunPath(&engine, &table, fresh, *point, params, false, kPointScans);
  route = RunPath(&engine, &table, fresh, *point, params, true, kPointProbes);
  Report("point/old_session", scan, route, /*baseline_counters=*/true);

  scan = RunPath(&engine, &table, current, *group, params, false, kPointScans);
  route = RunPath(&engine, &table, current, *group, params, true, kPointScans);
  Report("group/during_maintenance", scan, route, /*baseline_counters=*/true);

  engine.CloseSession(fresh);

  // --- Projection pushdown: bytes copied by narrow vs wide scans ---------
  engine.SetScanOptions({.index_routing = false});
  core::ScanMetrics m0 = engine.scan_metrics();
  Result<query::QueryResult> r = table.SnapshotSelect(current, *wide);
  WVM_CHECK(r.ok());
  core::ScanMetrics m1 = engine.scan_metrics();
  const uint64_t wide_bytes = m1.bytes_copied - m0.bytes_copied;
  r = table.SnapshotSelect(current, *narrow);
  WVM_CHECK(r.ok());
  core::ScanMetrics m2 = engine.scan_metrics();
  const uint64_t narrow_bytes = m2.bytes_copied - m1.bytes_copied;
  std::printf(
      "projection pushdown: SELECT * copies %llu bytes, SELECT id copies "
      "%llu (%.1fx less)\n",
      static_cast<unsigned long long>(wide_bytes),
      static_cast<unsigned long long>(narrow_bytes),
      static_cast<double>(wide_bytes) / static_cast<double>(narrow_bytes));
  bench::Emit("projection/wide_scan_bytes", static_cast<double>(wide_bytes),
              "bytes");
  bench::Emit("projection/narrow_scan_bytes",
              static_cast<double>(narrow_bytes), "bytes");
  engine.CloseSession(current);

  std::printf(
      "\nShape check (§4.3): routed point reads visit 1 tuple instead of "
      "%lld and must be\n>=10x faster; secondary-index group reads visit "
      "only the posting list; narrow\nprojections copy a fraction of the "
      "declared bytes.\n",
      static_cast<long long>(kRows));
  WVM_CHECK_MSG(quiescent_speedup >= 10.0,
                "routed point reads are not >=10x faster than heap scans");
}

// Point reads that bind a key including a DATE column, on a 2VNL engine:
// at gap 0, and from a session one commit behind with no maintenance
// active — still inside the §4.1 version window, so it routes too.
void RunDatedKey() {
  DiskManager disk;
  BufferPool pool(kPoolPages, &disk);
  auto engine_or = core::VnlEngine::Create(&pool, 2);
  WVM_CHECK(engine_or.ok());
  core::VnlEngine& engine = **engine_or;
  auto table_or = engine.CreateTable("dated", DatedSchema());
  WVM_CHECK(table_or.ok());
  core::VnlTable& table = *table_or.value();
  {
    Result<core::MaintenanceTxn*> txn = engine.BeginMaintenance();
    WVM_CHECK(txn.ok());
    for (int64_t i = 0; i < kDatedRows; ++i) {
      WVM_CHECK(table.Insert(txn.value(), MakeDatedRow(i)).ok());
    }
    WVM_CHECK(engine.Commit(txn.value()).ok());
  }
  Result<sql::SelectStmt> point = sql::ParseSelect(
      "SELECT store, day, qty FROM dated WHERE store = :s AND day = :d");
  WVM_CHECK(point.ok());
  const Row key = MakeDatedRow(kDatedRows / 2);
  const query::ParamMap params = {{"s", key[0]}, {"d", key[1]}};

  core::ReaderSession old = engine.OpenSession();
  PathCost scan =
      RunPath(&engine, &table, old, *point, params, false, kPointScans);
  PathCost route =
      RunPath(&engine, &table, old, *point, params, true, kPointProbes);
  Report("date_key/quiescent", scan, route, /*baseline_counters=*/true);

  {
    Result<core::MaintenanceTxn*> txn = engine.BeginMaintenance();
    WVM_CHECK(txn.ok());
    for (int64_t i = 0; i < kDatedRows; i += 20) {
      const Row k = MakeDatedRow(i);
      Result<bool> r = table.UpdateByKey(
          txn.value(), {k[0], k[1]}, [](const Row& row) -> Result<Row> {
            Row next = row;
            next[2] = Value::Int64(next[2].AsInt64() + 1);
            return next;
          });
      WVM_CHECK(r.ok() && r.value());
    }
    WVM_CHECK(engine.Commit(txn.value()).ok());
  }
  WVM_CHECK(engine.current_vn() - old.session_vn == 1);
  scan = RunPath(&engine, &table, old, *point, params, false, kPointScans);
  route = RunPath(&engine, &table, old, *point, params, true, kPointProbes);
  Report("point/gap1_2vnl", scan, route, /*baseline_counters=*/true);
  engine.CloseSession(old);
}

}  // namespace
}  // namespace wvm

int main() {
  wvm::Run();
  wvm::RunDatedKey();
  return wvm::bench::WriteBenchJson("bench_index_reads") ? 0 : 1;
}

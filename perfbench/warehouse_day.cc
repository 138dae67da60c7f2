// Warehouse-day benchmark: the paper's operating pattern on the 2VNL engine
// (VnlAdapter over core::VnlEngine, n = 2, default scan and maintenance
// options). One client thread runs a closed loop: each
// simulated day is one maintenance transaction that folds a DailySales
// delta into the view in chunks, with analyst SQL reads at fixed points
// between the chunks, after the commit and from a fresh session. Reads are
// reported per (query shape, session gap), because a 2VNL read costs very
// different amounts at gap 0 (index-routed) and gap >= 1 (heap pass).
//
//   warehouse_day --workload <refresh|analyst|online_day> --seed <n>
//                 --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// --trace 0 prints the end-to-end metrics of a run of at least --seconds;
// --trace 1 runs the seed's first episode once untraced and once traced and
// prints the per-layer metrics, including the tracing overhead. The last
// stdout line is one JSON object; every answer is checked against an
// independent model of the view, and any mismatch exits non-zero.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "baselines/vnl_adapter.h"
#include "common/rng.h"
#include "core/vnl_engine.h"
#include "sql/parser.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "support.h"
#include "warehouse/workload.h"

namespace perfbench {
namespace {

namespace core = wvm::core;
namespace wh = wvm::warehouse;
using Clock = std::chrono::steady_clock;
using wvm::Row;
using wvm::Value;

// MakeBatch wraps dates every 28 days, so after this preload every timed
// day updates groups that already exist.
constexpr int kPreloadDays = 28;
constexpr size_t kSetupRepeats = 5;
// A run that has not collected every percentile's samples in this long is
// reported as a failure instead of overrunning the caller's time limit.
constexpr double kMaxRunSeconds = 150.0;

const char* const kPointSql =
    "SELECT total_sales FROM DailySales WHERE city = :c AND state = :s "
    "AND product_line = :p AND date = :d";
const char* const kSliceSql =
    "SELECT product_line, SUM(total_sales) FROM DailySales WHERE city = :c "
    "GROUP BY product_line";
const char* const kRollupSql =
    "SELECT state, SUM(total_sales), COUNT(*) FROM DailySales GROUP BY state";

[[noreturn]] void Fail(const std::string& msg) {
  std::fprintf(stderr, "warehouse_day: FAIL: %s\n", msg.c_str());
  std::fflush(stdout);
  std::exit(1);
}

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Reads issued at one point of the day, in this order.
struct Mix {
  int points = 0;
  int slices = 0;
  int rollups = 0;
};

// One workload: the same day cycle, sized to stress different layers.
struct Shape {
  const char* name;
  int cities;
  int lines;  // product lines; the view holds cities * lines * 28 groups
  int preload_events_per_day;
  size_t pool_frames;
  int events_per_day;  // delta events of one maintenance transaction
  int chunks;          // ApplyDelta calls per transaction
  Mix during;  // after each chunk, from the session opened after the last
               // commit (gap 0, maintenance active)
  Mix stale;   // after the commit, same session (gap 1)
  Mix fresh;   // after GC, from a new session (gap 0)
  int read_every;    // days between read days (expiry probe, during, fresh)
  int stale_every;   // days between stale slots
  int episode_days;  // timed days after each set-up
};

// `analyst` and `online_day` share a ~56k-group view (~1.2k heap pages)
// that fits the pool. `analyst` runs tiny days under a heavy gap-0 read
// mix; `online_day` splits a mid-sized day into two chunks with reads,
// rollups included, between them. `refresh` runs an ~11k-group view whose
// pool holds a quarter of it, so maintenance misses, evicts and writes
// back; it reads only every third day (the post-commit checks). Every
// workload runs every operation, so every end-to-end metric has samples in
// every workload.
//
// A run is a sequence of episodes (set-up plus `episode_days` days), each
// from its own seed, until the run's time is up. Episodes are bounded
// because the generator keeps every unretracted event (~280 B each).
constexpr Shape kShapes[] = {
    // name, cities, lines, preload/day, pool, events/day, chunks,
    // during, stale, fresh, read_every, stale_every, episode_days
    {"refresh", 40, 10, 4500, 64, 1500, 1, {0, 0, 0}, {1, 0, 0}, {1, 1, 1},
     3, 6, 150},
    {"analyst", 100, 20, 8000, 4096, 400, 1, {2, 1, 0}, {1, 0, 0},
     {8, 4, 1}, 1, 2, 40},
    {"online_day", 100, 20, 8000, 4096, 4000, 2, {2, 1, 1}, {1, 0, 0},
     {2, 1, 0}, 1, 1, 30},
};

enum class Query { kPoint, kSlice, kRollup };
// Session class of a read: gap = currentVN - sessionVN when it is issued.
enum class ReadClass { kDuring, kAfter, kStale, kProbe };

// Counter snapshot taken around every timed call.
struct Snap {
  core::ScanMetrics scan;
  wvm::BufferPoolStats pool;
  wvm::DiskStats disk;
};

// Work done by one category of timed calls (counter deltas).
struct Counts {
  uint64_t ops = 0;
  uint64_t rows = 0;  // result rows
  core::ScanMetrics scan;
  wvm::BufferPoolStats pool;
  wvm::DiskStats disk;
  core::SnapshotScanStats snap;

  void Add(const Snap& a, const Snap& b) {
    ++ops;
    scan.rows_scanned += b.scan.rows_scanned - a.scan.rows_scanned;
    scan.bytes_copied += b.scan.bytes_copied - a.scan.bytes_copied;
    scan.parallel_scans += b.scan.parallel_scans - a.scan.parallel_scans;
    scan.index_lookups += b.scan.index_lookups - a.scan.index_lookups;
    scan.scans_avoided += b.scan.scans_avoided - a.scan.scans_avoided;
    pool.fetches += b.pool.fetches - a.pool.fetches;
    pool.hits += b.pool.hits - a.pool.hits;
    pool.misses += b.pool.misses - a.pool.misses;
    pool.evictions += b.pool.evictions - a.pool.evictions;
    pool.dirty_writebacks += b.pool.dirty_writebacks - a.pool.dirty_writebacks;
    disk.page_reads += b.disk.page_reads - a.disk.page_reads;
    disk.page_writes += b.disk.page_writes - a.disk.page_writes;
  }
  void AddSnapshotStats(const core::SnapshotScanStats& s) {
    snap.current_reads += s.current_reads;
    snap.pre_update_reads += s.pre_update_reads;
  }
};

// Timed-call categories; counters are kept per category. Read categories
// come first (up to kLookup), then maintenance.
enum Cat { kPoint, kSlice, kRollup, kStale, kProbe, kLookup, kMaint, kGc,
           kNumCats };

struct Session {
  core::ReaderSession s;
  // The first rollup answer of the session; every later one must match.
  std::optional<std::map<std::string, StateAgg>> rollup;
};

// End-to-end samples and totals of the timed calls. A run merges those of
// all its episodes.
struct Samples {
  std::vector<double> point_us, slice_us, rollup_ms, stale_ms, txn_ms,
      commit_us;
  // Per day: maintenance seconds (begin + apply + commit + GC) per delta
  // event, and, on days with reads, read seconds per completed read.
  std::vector<double> maint_s_per_event, read_s_per_read;
  double read_seconds = 0.0;   // parse + execute, every read attempt
  double maint_seconds = 0.0;  // begin + apply + commit + GC
  uint64_t reads_attempted = 0;
  uint64_t reads_completed = 0;
  uint64_t expired = 0;
  uint64_t events = 0;

  void Merge(const Samples& o) {
    for (auto [to, from] :
         {std::pair{&point_us, &o.point_us}, {&slice_us, &o.slice_us},
          {&rollup_ms, &o.rollup_ms}, {&stale_ms, &o.stale_ms},
          {&txn_ms, &o.txn_ms}, {&commit_us, &o.commit_us},
          {&maint_s_per_event, &o.maint_s_per_event},
          {&read_s_per_read, &o.read_s_per_read}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    read_seconds += o.read_seconds;
    maint_seconds += o.maint_seconds;
    reads_attempted += o.reads_attempted;
    reads_completed += o.reads_completed;
    expired += o.expired;
    events += o.events;
  }

  // Whether every percentile the run reports has its samples.
  bool Enough() const {
    return Percentile(point_us, 0.9) && Percentile(slice_us, 0.9) &&
           Percentile(rollup_ms, 0.9) && Percentile(txn_ms, 0.9) &&
           Percentile(stale_ms, 0.9) && Percentile(maint_s_per_event, 0.9) &&
           Percentile(read_s_per_read, 0.9);
  }
};

// One simulated warehouse: engine, generator, model and the day cycle.
class Bench {
 public:
  Bench(const Shape& shape, uint64_t seed, Tracer* tracer)
      : shape_(shape),
        gen_(GeneratorConfig(shape, seed)),
        pool_(shape.pool_frames, &disk_),
        rng_(seed ^ 0x5eed5eed5eedULL),
        tracer_(tracer) {}

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // Generator, preload and index build, up to the first timed call.
  // Returns its wall time in seconds.
  double Setup() {
    const auto t0 = Clock::now();
    wvm::Schema schema = gen_.view().view_schema();
    if (!schema.AddSecondaryIndex("by_city", {"city"}).ok()) {
      Fail("cannot declare by_city");
    }
    auto adapter = wvm::baselines::VnlAdapter::Create(&pool_, schema, 2);
    if (!adapter.ok()) {
      Fail("VnlAdapter::Create: " + adapter.status().ToString());
    }
    adapter_ = std::move(adapter).value();
    engine_ = adapter_->engine();
    table_ = adapter_->table();
    model_ = ViewModel(engine_->current_vn());

    const int batches = shape_.preload_events_per_day / shape_.events_per_day;
    for (int day = 1; day <= kPreloadDays; ++day) {
      Must(adapter_->BeginMaintenance(), "preload begin");
      for (int b = 0; b < batches; ++b) {
        wh::DeltaBatch batch = gen_.MakeBatch(day);
        NoteKeys(batch);
        model_.Stage(batch);
        auto applied = gen_.view().ApplyDelta(adapter_.get(), batch);
        if (!applied.ok()) {
          Fail("preload ApplyDelta: " + applied.status().ToString());
        }
      }
      CommitModel("preload commit");
      if (!engine_->CollectGarbage().ok()) Fail("preload GC");
      // Two sessions left open so the first timed day has a session to
      // expire (opened two commits back) and one at gap 0.
      if (day == kPreloadDays - 1) old_.s = engine_->OpenSession();
      if (day == kPreloadDays) prev_.s = engine_->OpenSession();
    }
    // Warm-up: one full read pass, checked, untimed.
    Session warm{engine_->OpenSession(), std::nullopt};
    CheckedRollup(&warm);
    engine_->CloseSession(warm.s);
    return Since(t0);
  }

  // One maintenance transaction with its reads.
  void RunDay() {
    const int day = kPreloadDays + ++days_;
    const bool read_day = days_ % shape_.read_every == 0;
    wh::DeltaBatch batch = gen_.MakeBatch(day);
    model_.Stage(batch);
    const uint64_t txn = ++trace_id_;
    double txn_seconds = 0.0;
    const double read_seconds_before = samples_.read_seconds;
    const uint64_t reads_before = samples_.reads_completed;

    Maint("core.begin", txn, &txn_seconds,
          [&] { Must(adapter_->BeginMaintenance(), "begin"); });
    const size_t n = batch.size();
    const size_t c = static_cast<size_t>(shape_.chunks);
    for (size_t i = 0; i < c; ++i) {
      const wh::DeltaBatch chunk(batch.begin() + n * i / c,
                                 batch.begin() + n * (i + 1) / c);
      Maint("warehouse.apply_delta", txn, &txn_seconds, [&] {
        auto st = gen_.view().ApplyDelta(adapter_.get(), chunk);
        if (!st.ok()) Fail("ApplyDelta: " + st.status().ToString());
        apply_.events += st->events;
        apply_.keys_coalesced += st->keys_coalesced;
        apply_.index_probes += st->index_probes;
        apply_.page_pins += st->page_pins;
        samples_.events += chunk.size();
      });
      if (read_day && i == 0) ProbeExpired();
      if (read_day) ReadMix(&prev_, shape_.during, ReadClass::kDuring);
    }
    const double commit_seconds =
        Maint("core.commit", txn, &txn_seconds,
              [&] { Must(adapter_->CommitMaintenance(), "commit"); });
    samples_.commit_us.push_back(commit_seconds * 1e6);
    samples_.txn_ms.push_back(txn_seconds * 1e3);
    if (!model_.Commit(engine_->current_vn())) Fail("model support underflow");

    if (days_ % shape_.stale_every == 0) {
      ReadMix(&prev_, shape_.stale, ReadClass::kStale);
    }
    double gc_seconds = 0.0;
    Maint("core.gc", txn, &gc_seconds, [&] {
      auto gc = engine_->CollectGarbage();
      if (!gc.ok()) Fail("CollectGarbage: " + gc.status().ToString());
      gc_reclaimed_ += gc->tuples_reclaimed;
    }, kGc);
    samples_.maint_s_per_event.push_back((txn_seconds + gc_seconds) /
                                         static_cast<double>(n));

    // Sessions rotate every day, so on a read day the oldest one is
    // exactly two commits back.
    Session fresh{engine_->OpenSession(), std::nullopt};
    if (read_day) ReadMix(&fresh, shape_.fresh, ReadClass::kAfter);
    if (!read_day || shape_.fresh.rollups == 0) CheckedRollup(&fresh);
    engine_->CloseSession(old_.s);
    old_ = std::move(prev_);
    prev_ = std::move(fresh);
    if (samples_.reads_completed > reads_before) {
      samples_.read_s_per_read.push_back(
          (samples_.read_seconds - read_seconds_before) /
          static_cast<double>(samples_.reads_completed - reads_before));
    }
  }

  int days() const { return days_; }
  const Shape& shape() const { return shape_; }
  const Counts& counts(Cat c) const { return counts_[c]; }
  const wh::SummaryView::ApplyStats& apply() const { return apply_; }

  const Samples& samples() const { return samples_; }

  // Reads per session class, for the guards and the per-layer counts.
  uint64_t during_reads_ = 0;
  uint64_t during_pre_update_reads_ = 0;  // during reads that met a PV
  uint64_t after_reads_ = 0;
  uint64_t stale_reads_ = 0;
  uint64_t gc_reclaimed_ = 0;

  uint64_t heap_pages() const { return table_->physical_pages(); }
  size_t live_rows() const { return model_.live_groups(); }
  core::ScanMetrics scan_total() const { return engine_->scan_metrics(); }

 private:
  static wh::DailySalesConfig GeneratorConfig(const Shape& shape,
                                              uint64_t seed) {
    if (shape.preload_events_per_day % shape.events_per_day != 0) {
      Fail("events_per_day must divide the preload day");
    }
    wh::DailySalesConfig cfg;
    cfg.num_cities = shape.cities;
    cfg.num_product_lines = shape.lines;
    cfg.events_per_batch = shape.events_per_day;
    cfg.seed = seed;
    return cfg;
  }

  static void Must(const wvm::Status& st, const char* what) {
    if (!st.ok()) Fail(std::string(what) + ": " + st.ToString());
  }

  void CommitModel(const char* what) {
    Must(adapter_->CommitMaintenance(), what);
    if (!model_.Commit(engine_->current_vn())) Fail("model support underflow");
  }

  // The distinct groups and cities the feed has produced; read parameters
  // are drawn from them.
  void NoteKeys(const wh::DeltaBatch& batch) {
    for (const wh::BaseEvent& e : batch) {
      if (key_set_.insert(e.dims).second) keys_.push_back(e.dims);
      if (city_set_.insert(e.dims[0].AsString()).second) {
        cities_.push_back(e.dims[0].AsString());
      }
    }
  }

  Snap Take() const {
    return {engine_->scan_metrics(), pool_.stats(), disk_.stats()};
  }

  // Times one maintenance-layer call inside a maint.txn span; adds its
  // duration to *seconds and returns it.
  double Maint(const char* span, uint64_t txn, double* seconds,
               const std::function<void()>& call, Cat cat = kMaint) {
    Tracer::Scope seg(tracer_, "maint.txn", txn);
    const Snap before = Take();
    const auto t0 = Clock::now();
    {
      Tracer::Scope s(tracer_, span, txn);
      call();
    }
    const double dt = Since(t0);
    counts_[cat].Add(before, Take());
    *seconds += dt;
    samples_.maint_seconds += dt;
    return dt;
  }

  // An untimed, untraced rollup checked against the model. Counters are
  // read only around timed calls, so it leaves every metric alone.
  void CheckedRollup(Session* s) {
    wvm::Result<wvm::sql::SelectStmt> stmt = wvm::sql::ParseSelect(kRollupSql);
    if (!stmt.ok()) Fail("parse rollup");
    auto r = table_->SnapshotSelect(s->s, stmt.value(), {});
    if (!r.ok()) Fail("checked rollup: " + r.status().ToString());
    CheckRollup(r.value(), s);
  }

  void ReadMix(Session* s, const Mix& mix, ReadClass cls) {
    for (int i = 0; i < mix.points; ++i) Read(s, Query::kPoint, cls);
    for (int i = 0; i < mix.slices; ++i) Read(s, Query::kSlice, cls);
    for (int i = 0; i < mix.rollups; ++i) Read(s, Query::kRollup, cls);
  }

  // The day's first read from the session opened two commits back: it
  // must expire, and the client restarts its session (§2.1) and retries.
  void ProbeExpired() {
    Read(&old_, Query::kPoint, ReadClass::kProbe);
    engine_->CloseSession(old_.s);
    old_ = Session{engine_->OpenSession(), std::nullopt};
    Read(&old_, Query::kPoint, ReadClass::kDuring);
  }

  void Read(Session* s, Query q, ReadClass cls) {
    const int64_t gap = engine_->current_vn() - s->s.session_vn;
    const bool maint = engine_->version_relation()->maintenance_active();
    const bool expect_gap1 =
        cls == ReadClass::kStale || cls == ReadClass::kProbe;
    if (gap != (expect_gap1 ? 1 : 0) ||
        maint != (cls == ReadClass::kDuring || cls == ReadClass::kProbe)) {
      Fail("read issued in the wrong session class");
    }

    wvm::query::ParamMap params;
    const Row* key = nullptr;
    const char* sql = kRollupSql;
    Cat cat = kRollup;
    const char* op = "op.rollup";
    if (q == Query::kPoint) {
      key = &keys_[static_cast<size_t>(
          rng_.Uniform(0, static_cast<int64_t>(keys_.size()) - 1))];
      params = {{"c", (*key)[0]}, {"s", (*key)[1]}, {"p", (*key)[2]},
                {"d", (*key)[3]}};
      sql = kPointSql;
      cat = kPoint;
      op = "op.point";
    } else if (q == Query::kSlice) {
      params = {{"c", Value::String(rng_.PickFrom(cities_))}};
      sql = kSliceSql;
      cat = kSlice;
      op = "op.slice";
    }
    if (cls == ReadClass::kStale) {
      cat = kStale;
      op = "op.stale";
    } else if (cls == ReadClass::kProbe) {
      cat = kProbe;
      op = "op.expired";
    }

    const uint64_t trace = ++trace_id_;
    std::optional<wvm::Result<wvm::query::QueryResult>> result;
    std::optional<wvm::Result<std::optional<Row>>> lookup;
    core::SnapshotScanStats stats;
    double seconds = 0.0;
    {
      Tracer::Scope op_span(tracer_, op, trace);
      const Snap before = Take();
      const auto t0 = Clock::now();
      std::optional<wvm::Result<wvm::sql::SelectStmt>> stmt;
      {
        Tracer::Scope span(tracer_, "sql.parse", trace);
        stmt.emplace(wvm::sql::ParseSelect(sql));
      }
      if (!stmt->ok()) Fail("parse: " + stmt->status().ToString());
      {
        Tracer::Scope span(tracer_, "core.select", trace);
        result.emplace(
            table_->SnapshotSelect(s->s, stmt->value(), params, &stats));
      }
      seconds = Since(t0);
      counts_[cat].Add(before, Take());
      counts_[cat].AddSnapshotStats(stats);

      // The same key through SnapshotLookup: the floor a routed point
      // SELECT could reach, and a cross-check of the two read paths.
      if (q == Query::kPoint && !expect_gap1) {
        core::SnapshotScanStats lstats;
        const Snap lb = Take();
        {
          Tracer::Scope span(tracer_, "core.lookup", trace);
          lookup.emplace(table_->SnapshotLookup(s->s, *key, &lstats));
        }
        counts_[kLookup].Add(lb, Take());
        counts_[kLookup].AddSnapshotStats(lstats);
      }
    }
    if (lookup.has_value()) {
      if (!lookup->ok()) Fail("SnapshotLookup: " + lookup->status().ToString());
      CheckLookup(lookup->value(), *key, s->s.session_vn);
    }

    ++samples_.reads_attempted;
    samples_.read_seconds += seconds;
    if (cls == ReadClass::kProbe) {
      if (result->ok() ||
          result->status().code() != wvm::StatusCode::kSessionExpired) {
        Fail("a session two commits behind was not expired");
      }
      ++samples_.expired;
      return;
    }
    if (!result->ok()) Fail("read failed: " + result->status().ToString());
    ++samples_.reads_completed;
    const wvm::query::QueryResult& r = result->value();
    counts_[cat].rows += r.rows.size();
    const int64_t vn = s->s.session_vn;
    switch (q) {
      case Query::kPoint:
        CheckPoint(r, *key, vn);
        break;
      case Query::kSlice:
        CheckSlice(r, params.at("c").AsString(), vn);
        break;
      case Query::kRollup:
        CheckRollup(r, s);
        break;
    }
    switch (cls) {
      case ReadClass::kDuring:
        ++during_reads_;
        if (stats.pre_update_reads > 0) ++during_pre_update_reads_;
        break;
      case ReadClass::kAfter:
        ++after_reads_;
        break;
      default:
        ++stale_reads_;
        break;
    }
    if (cls == ReadClass::kStale) {
      samples_.stale_ms.push_back(seconds * 1e3);
    } else if (q == Query::kPoint) {
      samples_.point_us.push_back(seconds * 1e6);
    } else if (q == Query::kSlice) {
      samples_.slice_us.push_back(seconds * 1e6);
    } else {
      samples_.rollup_ms.push_back(seconds * 1e3);
    }
  }

  void CheckPoint(const wvm::query::QueryResult& r, const Row& key,
                  int64_t vn) const {
    const std::optional<GroupAgg> want = model_.Get(key, vn);
    const bool ok =
        want.has_value()
            ? r.rows.size() == 1 && r.rows[0][0].AsInt64() == want->total
            : r.rows.empty();
    if (!ok) Fail("point answer differs from the model: " + RowToString(key));
  }

  void CheckLookup(const std::optional<Row>& row, const Row& key,
                   int64_t vn) const {
    const std::optional<GroupAgg> want = model_.Get(key, vn);
    const size_t total = gen_.view().total_col();
    const size_t support = gen_.view().support_col();
    const bool ok = want.has_value()
                        ? row.has_value() &&
                              (*row)[total].AsInt64() == want->total &&
                              (*row)[support].AsInt64() == want->support
                        : !row.has_value();
    if (!ok) Fail("lookup differs from the model: " + RowToString(key));
  }

  void CheckSlice(const wvm::query::QueryResult& r, const std::string& city,
                  int64_t vn) const {
    std::map<std::string, int64_t> got;
    for (const Row& row : r.rows) got[row[0].AsString()] = row[1].AsInt64();
    if (got != model_.Slice(city, vn)) {
      Fail("slice answer differs from the model for " + city);
    }
  }

  void CheckRollup(const wvm::query::QueryResult& r, Session* s) const {
    std::map<std::string, StateAgg> got;
    for (const Row& row : r.rows) {
      got[row[0].AsString()] = {row[1].AsInt64(), row[2].AsInt64()};
    }
    if (got != model_.Rollup(s->s.session_vn)) {
      Fail("rollup answer differs from the model");
    }
    if (!s->rollup.has_value()) {
      s->rollup = std::move(got);
    } else if (*s->rollup != got) {
      Fail("two rollups of one session differ");
    }
  }

  const Shape& shape_;
  wh::DailySalesWorkload gen_;
  wvm::DiskManager disk_;
  wvm::BufferPool pool_;
  std::unique_ptr<wvm::baselines::VnlAdapter> adapter_;
  core::VnlEngine* engine_ = nullptr;
  core::VnlTable* table_ = nullptr;
  ViewModel model_;
  wvm::Rng rng_;
  Tracer* tracer_;

  std::vector<Row> keys_;
  std::unordered_set<Row, wvm::RowHash, wvm::RowEq> key_set_;
  std::vector<std::string> cities_;
  std::set<std::string> city_set_;

  Session old_;   // opened two commits back; expires at the next chunk
  Session prev_;  // opened after the last commit
  int days_ = 0;
  uint64_t trace_id_ = 0;
  Samples samples_;
  Counts counts_[kNumCats];
  wh::SummaryView::ApplyStats apply_;
};

// Peak resident set size of this process so far (VmHWM).
double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) Fail("getrusage failed");
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// A named metric value with its unit, printed in insertion order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Pct(const std::vector<double>& samples, double q, const char* what) {
  std::optional<double> v = Percentile(samples, q);
  if (!v.has_value()) {
    Fail(std::string("too few samples for a percentile of ") + what);
  }
  return *v;
}

// Episode 0 runs the run's own seed, so a traced run repeats it exactly.
uint64_t EpisodeSeed(uint64_t seed, size_t episode) {
  return seed + 0x9e3779b97f4a7c15ULL * episode;
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Prints the sample count, mean, median and highest supported percentile
// of a series.
void Describe(const char* name, const std::vector<double>& s) {
  std::optional<double> top = HighestSupportedPercentile(s.size());
  std::printf("# %-14s n=%-6zu mean=%-10.4g p50=%-10.4g", name, s.size(),
              Mean(s), Percentile(s, 0.5).value_or(0.0));
  if (top.has_value()) {
    std::printf(" p%.1f=%.4g", *top * 100.0,
                Percentile(s, *top).value_or(0.0));
  }
  std::printf("\n");
}

// Workload-shape guards: a run that no longer exercises what its workload
// exists for fails instead of reporting numbers for a different workload.
void Guard(const Bench& b) {
  const Shape& sh = b.shape();
  if (b.scan_total().parallel_scans != 0) {
    Fail("parallel_scans != 0 at the default ScanOptions");
  }
  if (b.samples().expired == 0 || b.stale_reads_ == 0 ||
      b.after_reads_ == 0) {
    Fail("a session class (gap 1, expired, gap 0 after commit) saw no reads");
  }
  uint64_t disk_reads = 0, read_fetches = 0;
  for (int c = 0; c < kNumCats; ++c) {
    disk_reads += b.counts(static_cast<Cat>(c)).disk.page_reads;
    if (c <= kLookup) {
      read_fetches += b.counts(static_cast<Cat>(c)).pool.fetches;
    }
  }
  const uint64_t maint_fetches =
      b.counts(kMaint).pool.fetches + b.counts(kGc).pool.fetches;
  if (std::strcmp(sh.name, "refresh") == 0) {
    // Maintenance itself must page: reads would evict on any view larger
    // than the pool.
    const uint64_t maint_evictions =
        b.counts(kMaint).pool.evictions + b.counts(kGc).pool.evictions;
    if (b.heap_pages() <= sh.pool_frames || maint_evictions == 0) {
      Fail("refresh: the view must exceed the pool and maintenance evict");
    }
  } else if (std::strcmp(sh.name, "online_day") == 0) {
    if (b.during_pre_update_reads_ == 0) {
      Fail("online_day: no gap-0 read during maintenance met a pre-update "
           "version");
    }
  } else if (std::strcmp(sh.name, "analyst") == 0) {
    // New heap pages count as pool misses but read nothing from disk.
    if (disk_reads != 0) Fail("analyst: pool misses after warm-up");
    if (maint_fetches * 4 > read_fetches) {
      Fail("analyst: maintenance is over a quarter of the page work (" +
           std::to_string(maint_fetches) + " of " +
           std::to_string(read_fetches) + " fetches)");
    }
  }
}

double HeapBytesPerRow(const Bench& b) {
  return Ratio(static_cast<double>(b.heap_pages() * wvm::kPageSize),
               static_cast<double>(b.live_rows()));
}

// Timings are gated on their slow side: the p90 of a latency, and the
// rate that nine days in ten reach (the reciprocal of the p90 of per-day
// cost). On a shared host whose speed drifts, a run's mean and median move
// with the share of time it spent slowed; the p90 lies in the slowed
// periods every run has, and moves less (see README.md). Means and medians
// are printed on the `#` lines.
std::vector<Metric> EndToEnd(const Samples& s, double setup_s,
                             double peak_rss_mb, double heap_bytes_per_row) {
  auto n = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"heap_bytes_per_row", heap_bytes_per_row, "B"},
      {"maint_events_per_s_p10",
       1.0 / Pct(s.maint_s_per_event, 0.9, "maint_s_per_event"), "1/s"},
      {"maint_txn_ms_p90", Pct(s.txn_ms, 0.9, "maint_txn_ms"), "ms"},
      {"reads_per_s_p10",
       1.0 / Pct(s.read_s_per_read, 0.9, "read_s_per_read"), "1/s"},
      {"point_us_p90", Pct(s.point_us, 0.9, "point_us"), "us"},
      {"slice_us_p90", Pct(s.slice_us, 0.9, "slice_us"), "us"},
      {"rollup_ms_p90", Pct(s.rollup_ms, 0.9, "rollup_ms"), "ms"},
      {"stale_read_ms_p90", Pct(s.stale_ms, 0.9, "stale_read_ms"), "ms"},
      {"expired_read_ratio", Ratio(n(s.expired), n(s.reads_attempted)),
       "ratio"},
  };
}

// Per-layer metrics of the traced pass: span timings (p50 of the span's
// duration), per-layer self time, and the engine's own counters over the
// timed calls. The end-to-end metric each should move is listed in
// perfbench/README.md.
std::vector<Metric> PerLayer(const Bench& b, const Tracer& tracer,
                             double overhead_pct) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, std::vector<double>> dur_us;  // "parent/name" too
  std::map<std::string, double> self_ns;
  double root_ns = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    dur_us[s.name].push_back(us);
    if (s.parent >= 0) {
      dur_us[std::string(spans[s.parent].name) + "/" + s.name].push_back(us);
    } else {
      root_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
    self_ns[s.name] += static_cast<double>(self[i]);
  }
  auto p50 = [&](const std::string& key) {
    return Pct(dur_us[key], 0.5, key.c_str());
  };
  auto self_pct = [&](const char* name) {
    return 100.0 * Ratio(self_ns[name], root_ns);
  };

  const Counts& pt = b.counts(kPoint);
  const Counts& sl = b.counts(kSlice);
  const Counts& ru = b.counts(kRollup);
  const Counts& st = b.counts(kStale);
  const Counts& pr = b.counts(kProbe);
  const Counts& lk = b.counts(kLookup);
  const Counts& mt = b.counts(kMaint);
  const Counts& gc = b.counts(kGc);
  const Counts* reads[] = {&pt, &sl, &ru, &st, &pr};
  const Counts* all[] = {&pt, &sl, &ru, &st, &pr, &lk, &mt, &gc};
  double selects = 0, avoided = 0, pre = 0, cur = 0;
  for (const Counts* c : reads) {
    selects += static_cast<double>(c->ops);
    avoided += static_cast<double>(c->scan.scans_avoided);
    pre += static_cast<double>(c->snap.pre_update_reads);
    cur += static_cast<double>(c->snap.current_reads);
  }
  Counts sum;
  for (const Counts* c : all) {
    sum.pool.fetches += c->pool.fetches;
    sum.pool.hits += c->pool.hits;
    sum.pool.misses += c->pool.misses;
    sum.pool.evictions += c->pool.evictions;
    sum.pool.dirty_writebacks += c->pool.dirty_writebacks;
    sum.disk.page_reads += c->disk.page_reads;
    sum.disk.page_writes += c->disk.page_writes;
    sum.scan.rows_scanned += c->scan.rows_scanned;
    sum.scan.bytes_copied += c->scan.bytes_copied;
    sum.scan.index_lookups += c->scan.index_lookups;
    sum.scan.parallel_scans += c->scan.parallel_scans;
  }
  const wh::SummaryView::ApplyStats& ap = b.apply();
  const double events = static_cast<double>(ap.events);
  auto per = [](uint64_t a, uint64_t d) {
    return Ratio(static_cast<double>(a), static_cast<double>(d));
  };
  auto n = [](uint64_t v) { return static_cast<double>(v); };

  return {
      {"sql.parse_us_p50", p50("sql.parse"), "us"},
      {"core.select_point_us_p50", p50("op.point/core.select"), "us"},
      {"core.select_slice_us_p50", p50("op.slice/core.select"), "us"},
      {"core.select_rollup_ms_p50", p50("op.rollup/core.select") / 1e3,
       "ms"},
      {"core.lookup_us_p50", p50("core.lookup"), "us"},
      {"core.stale_select_ms_p50", p50("op.stale/core.select") / 1e3, "ms"},
      {"core.begin_us_p50", p50("core.begin"), "us"},
      {"core.commit_us_p50", p50("core.commit"), "us"},
      {"core.gc_ms_p50", p50("core.gc") / 1e3, "ms"},
      {"warehouse.apply_delta_ms_p50", p50("warehouse.apply_delta") / 1e3,
       "ms"},
      {"core.point_rows_scanned_per_row",
       per(pt.scan.rows_scanned, std::max<uint64_t>(pt.rows, 1)), "rows"},
      {"core.slice_rows_scanned_per_row",
       per(sl.scan.rows_scanned, std::max<uint64_t>(sl.rows, 1)), "rows"},
      {"core.rollup_bytes_copied_per_read",
       per(ru.scan.bytes_copied, ru.ops), "B"},
      {"core.index_routed_ratio", Ratio(avoided, selects), "ratio"},
      {"core.pre_update_read_ratio", Ratio(pre, pre + cur), "ratio"},
      {"warehouse.events_per_key", per(ap.events, ap.keys_coalesced),
       "count"},
      {"warehouse.index_probes_per_event", Ratio(n(ap.index_probes), events),
       "count"},
      {"warehouse.page_pins_per_event", Ratio(n(ap.page_pins), events),
       "count"},
      {"core.gc_tuples_reclaimed", n(b.gc_reclaimed_), "count"},
      {"storage.fetches_per_event",
       Ratio(n(mt.pool.fetches + gc.pool.fetches), events), "count"},
      {"storage.hit_ratio", per(sum.pool.hits, sum.pool.fetches), "ratio"},
      {"storage.evictions", n(sum.pool.evictions), "count"},
      {"storage.dirty_writebacks", n(sum.pool.dirty_writebacks), "count"},
      {"storage.disk_reads", n(sum.disk.page_reads), "count"},
      {"storage.disk_writes", n(sum.disk.page_writes), "count"},
      {"storage.point_fetches_per_read", per(pt.pool.fetches, pt.ops),
       "count"},
      {"storage.slice_fetches_per_read", per(sl.pool.fetches, sl.ops),
       "count"},
      {"storage.rollup_fetches_per_read", per(ru.pool.fetches, ru.ops),
       "count"},
      {"storage.heap_pages", n(b.heap_pages()), "count"},
      {"core.expired_sessions", n(b.samples().expired), "count"},
      {"core.parallel_scans", n(b.scan_total().parallel_scans), "count"},
      // Raw counts: identical across two runs with one seed.
      {"core.reads_gap0_during_maint", n(b.during_reads_), "count"},
      {"core.reads_gap0_pre_update", n(b.during_pre_update_reads_), "count"},
      {"core.reads_gap0_after_commit", n(b.after_reads_), "count"},
      {"core.reads_gap1", n(b.stale_reads_), "count"},
      {"core.rows_scanned", n(sum.scan.rows_scanned), "count"},
      {"core.bytes_copied", n(sum.scan.bytes_copied), "B"},
      {"core.index_lookups", n(sum.scan.index_lookups), "count"},
      {"core.scans_avoided", n(static_cast<uint64_t>(avoided)), "count"},
      {"core.pre_update_reads", n(static_cast<uint64_t>(pre)), "count"},
      {"warehouse.events", n(ap.events), "count"},
      {"warehouse.keys_coalesced", n(ap.keys_coalesced), "count"},
      {"warehouse.index_probes", n(ap.index_probes), "count"},
      {"warehouse.page_pins", n(ap.page_pins), "count"},
      {"storage.fetches", n(sum.pool.fetches), "count"},
      {"storage.misses", n(sum.pool.misses), "count"},
      {"self_pct.op.point", self_pct("op.point"), "%"},
      {"self_pct.op.slice", self_pct("op.slice"), "%"},
      {"self_pct.op.rollup", self_pct("op.rollup"), "%"},
      {"self_pct.op.stale", self_pct("op.stale"), "%"},
      {"self_pct.op.expired", self_pct("op.expired"), "%"},
      {"self_pct.maint.txn", self_pct("maint.txn"), "%"},
      {"self_pct.sql.parse", self_pct("sql.parse"), "%"},
      {"self_pct.core.select", self_pct("core.select"), "%"},
      {"self_pct.core.lookup", self_pct("core.lookup"), "%"},
      {"self_pct.core.begin", self_pct("core.begin"), "%"},
      {"self_pct.warehouse.apply_delta", self_pct("warehouse.apply_delta"),
       "%"},
      {"self_pct.core.commit", self_pct("core.commit"), "%"},
      {"self_pct.core.gc", self_pct("core.gc"), "%"},
      {"trace.overhead_pct", overhead_pct, "%"},
      {"trace.spans", n(spans.size()), "count"},
  };
}

void PrintResult(uint64_t attempted, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": 0, "
              "\"metrics\": {",
              static_cast<unsigned long long>(attempted));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Operations a run attempted: every read (an expired read and its retry
// count separately) and every maintenance transaction.
uint64_t Attempted(const Samples& s) {
  return s.reads_attempted + s.txn_ms.size();
}

// Tracing overhead: the mean relative change of the per-call medians
// (point, slice, rollup, maintenance transaction) between the traced and
// the untraced pass. Medians keep one slow call from posing as overhead.
double TraceOverheadPct(const Samples& plain, const Samples& traced) {
  const std::vector<double> Samples::*series[] = {
      &Samples::point_us, &Samples::slice_us, &Samples::rollup_ms,
      &Samples::txn_ms};
  double sum = 0.0;
  for (auto s : series) {
    sum += Pct(traced.*s, 0.5, "traced") / Pct(plain.*s, 0.5, "untraced");
  }
  return 100.0 * (sum / std::size(series) - 1.0);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (flag == "--trace-dir") {
      a.trace_dir = v;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) Fail("flags take one value each");
  if (!have_workload) Fail("--workload is required");
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Shape* shape = nullptr;
  for (const Shape& s : kShapes) {
    if (args.workload == s.name) shape = &s;
  }
  if (shape == nullptr) Fail("unknown workload " + args.workload);

  if (!args.trace) {
    Tracer off(false);
    Samples total;
    std::vector<double> setups;
    double peak_rss_mb = 0.0;
    double heap_bytes_per_row = 0.0;
    const auto t0 = Clock::now();
    // At least kSetupRepeats episodes, so set-up time is a median.
    while (setups.size() < kSetupRepeats || Since(t0) < args.seconds ||
           !total.Enough()) {
      Bench bench(*shape, EpisodeSeed(args.seed, setups.size()), &off);
      setups.push_back(bench.Setup());
      for (int d = 0; d < shape->episode_days; ++d) {
        if (Since(t0) > kMaxRunSeconds) Fail("run too slow to finish");
        bench.RunDay();
      }
      Guard(bench);
      total.Merge(bench.samples());
      if (setups.size() == 1) {
        // Read after a fixed amount of work: later episodes reuse freed
        // memory, and the generator's history grows with every day.
        peak_rss_mb = PeakRssMb();
        heap_bytes_per_row = HeapBytesPerRow(bench);
      }
    }
    std::printf("# workload=%s seed=%llu episodes=%zu days=%zu wall_s=%.2f\n",
                shape->name, static_cast<unsigned long long>(args.seed),
                setups.size(), total.txn_ms.size(), Since(t0));
    Describe("point_us", total.point_us);
    Describe("slice_us", total.slice_us);
    Describe("rollup_ms", total.rollup_ms);
    Describe("stale_read_ms", total.stale_ms);
    Describe("maint_txn_ms", total.txn_ms);
    Describe("commit_us", total.commit_us);
    std::printf("# whole-run rates: maint_events_per_s=%.6g reads_per_s=%.6g\n",
                Ratio(static_cast<double>(total.events), total.maint_seconds),
                Ratio(static_cast<double>(total.reads_completed),
                      total.read_seconds));
    PrintResult(Attempted(total), EndToEnd(total, Median(setups), peak_rss_mb,
                                           heap_bytes_per_row));
    return 0;
  }

  // Traced run: the seed's first episode, once without and once with
  // spans, alternating day by day so both passes see the same machine
  // state; per-layer numbers come from the traced pass.
  Tracer off(false);
  Tracer tracer(true);
  Bench plain(*shape, args.seed, &off);
  Bench traced(*shape, args.seed, &tracer);
  plain.Setup();
  traced.Setup();
  for (int d = 0; d < shape->episode_days; ++d) {
    plain.RunDay();
    traced.RunDay();
  }
  Guard(plain);
  Guard(traced);
  const double overhead =
      TraceOverheadPct(plain.samples(), traced.samples());

  const std::string path = args.trace_dir + "/trace-" + shape->name + "-" +
                           std::to_string(args.seed) + ".json";
  if (!tracer.WriteJson(path)) Fail("cannot write " + path);
  std::printf("# workload=%s seed=%llu days=%d spans=%zu trace=%s\n",
              shape->name, static_cast<unsigned long long>(args.seed),
              traced.days(), tracer.spans().size(), path.c_str());
  PrintResult(Attempted(traced.samples()), PerLayer(traced, tracer, overhead));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

// §7 garbage collection study: reclaiming logically deleted 2VNL tuples
// vs reclaiming MV2PL version-pool chains, as a function of the deleted /
// updated fraction and of the heap size, plus the effect of a pinned old
// session.
//
// 2VNL GC visits only the table's tombstone set, so its buffer-pool
// fetches track the tuples it reclaims (one read and one delete each), not
// the heap: a 0%-deleted heap costs zero fetches at any size. The bench
// aborts if that stops holding, and CI diffs the `reclaimed` and
// `gc_fetches` counters against bench/baselines/sec7_gc.json.
#include <chrono>
#include <cstdio>

#include "baselines/mv2pl_engine.h"
#include "baselines/vnl_adapter.h"
#include "bench/apply_to_key.h"
#include "bench/bench_json.h"
#include "common/logging.h"
#include "common/strings.h"

namespace wvm {
namespace {

constexpr int kRows = 20000;

Schema ItemSchema() {
  return Schema({Column::Int64("id"), Column::Int64("qty", true)}, {0});
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void VnlGc(int rows, double delete_fraction, bool pinned_session) {
  DiskManager disk;
  BufferPool pool(16384, &disk);
  auto adapter_or = baselines::VnlAdapter::Create(&pool, ItemSchema(), 2);
  WVM_CHECK(adapter_or.ok());
  baselines::VnlAdapter& adapter = **adapter_or;

  WVM_CHECK(adapter.BeginMaintenance().ok());
  for (int64_t i = 0; i < rows; ++i) {
    WVM_CHECK(bench::ApplyToKey(&adapter, i,
                                core::NetEffect::Insert(
                                    {Value::Int64(i), Value::Int64(i)}))
                  .ok());
  }
  WVM_CHECK(adapter.CommitMaintenance().ok());

  Result<uint64_t> pinned(0ULL);
  if (pinned_session) {
    pinned = adapter.OpenReader();
    WVM_CHECK(pinned.ok());
  }

  // Deleted keys are spread evenly over the heap.
  const int64_t to_delete = static_cast<int64_t>(rows * delete_fraction);
  WVM_CHECK(adapter.BeginMaintenance().ok());
  for (int64_t i = 0; i < to_delete; ++i) {
    WVM_CHECK(bench::ApplyToKey(&adapter, i * rows / to_delete,
                                core::NetEffect::Delete())
                  .ok());
  }
  WVM_CHECK(adapter.CommitMaintenance().ok());

  const uint64_t pages_before = adapter.StorageStats().main_pages;
  pool.ResetStats();
  const auto t0 = std::chrono::steady_clock::now();
  core::VnlEngine::GcStats stats =
      adapter.engine()->CollectGarbage().value();
  const double ms = MsSince(t0);
  const uint64_t fetches = pool.stats().fetches;
  // O(tombstones), not O(heap): one read and one delete per victim.
  WVM_CHECK_MSG(fetches <= 2 * stats.tuples_reclaimed,
                "2VNL GC fetched pages beyond its victims");

  std::printf(
      "2vnl   rows=%6d deleted=%5.1f%%  pinned-session=%-3s "
      "reclaimed=%6zu pending=%6zu  gc-fetches=%6llu  time=%7.3fms  "
      "main-pages=%llu\n",
      rows, delete_fraction * 100.0, pinned_session ? "yes" : "no",
      stats.tuples_reclaimed, stats.tuples_pending,
      static_cast<unsigned long long>(fetches), ms,
      static_cast<unsigned long long>(pages_before));
  const std::string tag =
      StrPrintf("2vnl/rows_%d/deleted_%g%%/pinned_%s", rows,
                delete_fraction * 100.0, pinned_session ? "yes" : "no");
  bench::Emit(tag + "/reclaimed",
              static_cast<double>(stats.tuples_reclaimed), "tuples");
  bench::Emit(tag + "/gc_fetches", static_cast<double>(fetches), "pages");
  bench::Emit(tag + "/time_ms", ms, "ms");
  if (pinned_session) WVM_CHECK(adapter.CloseReader(*pinned).ok());
}

void Mv2plGc(double update_fraction, int rounds) {
  DiskManager disk;
  BufferPool pool(16384, &disk);
  baselines::Mv2plEngine engine(&pool, ItemSchema());

  WVM_CHECK(engine.BeginMaintenance().ok());
  for (int64_t i = 0; i < kRows; ++i) {
    WVM_CHECK(bench::ApplyToKey(&engine, i,
                                core::NetEffect::Insert(
                                    {Value::Int64(i), Value::Int64(i)}))
                  .ok());
  }
  WVM_CHECK(engine.CommitMaintenance().ok());

  const int64_t to_update = static_cast<int64_t>(kRows * update_fraction);
  for (int round = 0; round < rounds; ++round) {
    WVM_CHECK(engine.BeginMaintenance().ok());
    for (int64_t i = 0; i < to_update; ++i) {
      WVM_CHECK(bench::ApplyToKey(
                    &engine, i,
                    core::NetEffect::Update({{1, Value::Int64(round)}}))
                    .ok());
    }
    WVM_CHECK(engine.CommitMaintenance().ok());
  }

  const uint64_t pool_before = engine.pool_records();
  const auto t0 = std::chrono::steady_clock::now();
  const Result<size_t> gc = engine.CollectPoolGarbage();
  const double ms = MsSince(t0);
  WVM_CHECK(gc.ok());
  const size_t reclaimed = gc.value();
  std::printf(
      "mv2pl  updated=%5.0f%% x%d rounds    pool-records=%6llu -> "
      "reclaimed=%6zu  time=%7.2fms\n",
      update_fraction * 100.0, rounds,
      static_cast<unsigned long long>(pool_before), reclaimed, ms);
  const std::string tag =
      StrPrintf("mv2pl/updated_%.0f%%_x%d", update_fraction * 100.0, rounds);
  bench::Emit(tag + "/reclaimed", static_cast<double>(reclaimed), "records");
  bench::Emit(tag + "/time_ms", ms, "ms");
}

void Run() {
  std::printf("=== §7: garbage collection ===\n");
  // Heap-size axis: GC cost must follow the deleted tuples, not the heap.
  for (int rows : {kRows, 10 * kRows}) {
    for (double f : {0.0, 0.01}) VnlGc(rows, f, /*pinned_session=*/false);
  }
  for (double f : {0.05, 0.25, 0.50}) {
    VnlGc(kRows, f, /*pinned_session=*/false);
  }
  VnlGc(kRows, 0.25, /*pinned_session=*/true);
  std::printf("\n");
  for (double f : {0.25, 0.50}) Mv2plGc(f, /*rounds=*/3);
  std::printf(
      "\nShape check: 2VNL GC visits only its tombstone set and frees "
      "whole tuples, so\nits fetches follow the deleted tuples, not the "
      "heap; a pinned old session\nblocks reclamation entirely (its "
      "snapshot still needs the pre-delete versions).\nMV2PL instead "
      "accumulates pool records proportional to update volume and\nmust "
      "walk chains to truncate them.\n");
}

}  // namespace
}  // namespace wvm

int main() {
  wvm::Run();
  return wvm::bench::WriteBenchJson("bench_sec7_gc") ? 0 : 1;
}

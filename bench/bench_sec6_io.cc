// §6 I/O study. The paper argues qualitatively:
//   * MV2PL (CFL+82) readers pay extra I/Os chasing version-pool chains,
//     and writers pay an extra I/O copying old versions out;
//   * BC92b's on-page cache avoids most pool I/O but reserves space in
//     every main tuple (fewer tuples per page);
//   * 2VNL never needs extra I/Os per tuple access, though its wider
//     tuples also mean fewer per page.
// This bench measures all of it: page fetches / misses / disk I/O per
// phase, per engine, with a buffer pool smaller than the working set.
#include <cinttypes>
#include <cstdio>

#include "baselines/mv2pl_engine.h"
#include "baselines/offline_engine.h"
#include "baselines/vnl_adapter.h"
#include "bench/apply_to_key.h"
#include "bench/bench_json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"

namespace wvm {
namespace {

constexpr int kRows = 20000;
constexpr int kUpdatesPerTxn = 5000;
constexpr size_t kPoolPages = 64;  // much smaller than the data

Schema WideSchema() {
  // A summary-table shape: fat non-updatable dimensions + one aggregate.
  return Schema({Column::Int64("id"), Column::String("dim", 64),
                 Column::Int64("qty", /*updatable=*/true)},
                {0});
}

Row MakeRow(int64_t id, int64_t qty) {
  return {Value::Int64(id), Value::String(StrPrintf("dim%" PRId64, id % 97)),
          Value::Int64(qty)};
}

struct Phase {
  uint64_t fetches;
  uint64_t misses;
  uint64_t disk_reads;
  uint64_t disk_writes;
};

Phase Delta(BufferPool* pool, DiskManager* disk, BufferPoolStats b0,
            DiskStats d0) {
  const BufferPoolStats b1 = pool->stats();
  const DiskStats d1 = disk->stats();
  return {b1.fetches - b0.fetches, b1.misses - b0.misses,
          d1.page_reads - d0.page_reads, d1.page_writes - d0.page_writes};
}

void RunEngine(const std::string& name) {
  DiskManager disk;
  BufferPool pool(kPoolPages, &disk);
  std::unique_ptr<baselines::WarehouseEngine> engine;
  baselines::Mv2plEngine* mv2pl = nullptr;
  if (name == "2vnl" || name == "3vnl") {
    auto a = baselines::VnlAdapter::Create(&pool, WideSchema(),
                                           name == "2vnl" ? 2 : 3);
    WVM_CHECK(a.ok());
    engine = std::move(a).value();
  } else if (name == "plain") {
    engine = std::make_unique<baselines::OfflineEngine>(&pool, WideSchema());
  } else {
    auto m = std::make_unique<baselines::Mv2plEngine>(
        &pool, WideSchema(),
        baselines::Mv2plEngine::Options(name == "mv2pl-bc92"));
    mv2pl = m.get();
    engine = std::move(m);
  }

  // Load.
  WVM_CHECK(engine->BeginMaintenance().ok());
  for (int64_t i = 0; i < kRows; ++i) {
    WVM_CHECK(
        bench::ApplyToKey(engine.get(), i,
                          core::NetEffect::Insert(MakeRow(i, i)))
            .ok());
  }
  WVM_CHECK(engine->CommitMaintenance().ok());

  // Open the "old" session BEFORE the update round so its reads need the
  // previous versions afterwards. The offline engine ("plain") excludes
  // maintenance while any session is open, so it gets no old session —
  // its "old scan" below is just a second fresh scan.
  const bool versioned = name != "plain";
  Result<uint64_t> old_reader(0ULL);
  if (versioned) {
    old_reader = engine->OpenReader();
    WVM_CHECK(old_reader.ok());
  }

  // Maintenance phase: update a spread of tuples.
  Rng rng(5);
  BufferPoolStats b0 = pool.stats();
  DiskStats d0 = disk.stats();
  WVM_CHECK(engine->BeginMaintenance().ok());
  for (int i = 0; i < kUpdatesPerTxn; ++i) {
    const int64_t id = rng.Uniform(0, kRows - 1);
    WVM_CHECK(bench::ApplyToKey(engine.get(), id,
                                core::NetEffect::Update({{2, Value::Int64(i)}}))
                  .ok());
  }
  WVM_CHECK(engine->CommitMaintenance().ok());
  Phase maint = Delta(&pool, &disk, b0, d0);

  // Fresh-session scan (current versions).
  Result<uint64_t> fresh_reader = engine->OpenReader();
  WVM_CHECK(fresh_reader.ok());
  b0 = pool.stats();
  d0 = disk.stats();
  WVM_CHECK(engine->ReadAll(*fresh_reader).ok());
  Phase fresh = Delta(&pool, &disk, b0, d0);

  // Old-session scan (needs pre-update versions for updated tuples).
  b0 = pool.stats();
  d0 = disk.stats();
  const uint64_t chases_before = mv2pl ? mv2pl->pool_version_reads() : 0;
  WVM_CHECK(
      engine->ReadAll(versioned ? *old_reader : *fresh_reader).ok());
  Phase old = Delta(&pool, &disk, b0, d0);
  const uint64_t chases =
      mv2pl ? mv2pl->pool_version_reads() - chases_before : 0;

  const baselines::EngineStorageStats storage = engine->StorageStats();
  std::printf(
      "%-12s tuple=%3zuB pages(main+aux)=%4llu+%-4llu | maint: fetch=%6llu "
      "miss=%6llu wr=%5llu | fresh scan: fetch=%5llu miss=%5llu | old scan: "
      "fetch=%5llu miss=%5llu pool-chases=%llu\n",
      name.c_str(), storage.main_tuple_bytes,
      static_cast<unsigned long long>(storage.main_pages),
      static_cast<unsigned long long>(storage.aux_pages),
      static_cast<unsigned long long>(maint.fetches),
      static_cast<unsigned long long>(maint.misses),
      static_cast<unsigned long long>(maint.disk_writes),
      static_cast<unsigned long long>(fresh.fetches),
      static_cast<unsigned long long>(fresh.misses),
      static_cast<unsigned long long>(old.fetches),
      static_cast<unsigned long long>(old.misses),
      static_cast<unsigned long long>(chases));
  bench::Emit(name + "/main_tuple_bytes",
              static_cast<double>(storage.main_tuple_bytes), "bytes");
  bench::Emit(name + "/main_pages",
              static_cast<double>(storage.main_pages), "pages");
  bench::Emit(name + "/aux_pages",
              static_cast<double>(storage.aux_pages), "pages");
  bench::Emit(name + "/maint_misses",
              static_cast<double>(maint.misses), "pages");
  bench::Emit(name + "/fresh_scan_misses",
              static_cast<double>(fresh.misses), "pages");
  bench::Emit(name + "/old_scan_misses",
              static_cast<double>(old.misses), "pages");
  bench::Emit(name + "/pool_chases", static_cast<double>(chases), "reads");

  if (versioned) WVM_CHECK(engine->CloseReader(*old_reader).ok());
  WVM_CHECK(engine->CloseReader(*fresh_reader).ok());
}

void Run() {
  std::printf(
      "=== §6: page I/O per phase (%d rows, %d updates/txn, %zu-page "
      "buffer pool) ===\n",
      kRows, kUpdatesPerTxn, kPoolPages);
  for (const char* name :
       {"plain", "2vnl", "3vnl", "mv2pl-cfl82", "mv2pl-bc92"}) {
    RunEngine(name);
  }
  std::printf(
      "\nShape check (§6): CFL82 shows pool chases and extra maintenance "
      "writes; BC92b\nremoves most chases but fattens every main tuple; "
      "2VNL has zero chases and no aux\npages — its only cost is the "
      "wider tuple (more pages in the main relation than\n'plain', fewer "
      "tuples per page).\n");
}

}  // namespace
}  // namespace wvm

int main() {
  wvm::Run();
  return wvm::bench::WriteBenchJson("bench_sec6_io") ? 0 : 1;
}

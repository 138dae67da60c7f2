#ifndef OPENWVM_CORE_SCAN_METRICS_H_
#define OPENWVM_CORE_SCAN_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/strings.h"

namespace wvm::core {

// Observability for the reader scan path: how much physical work snapshot
// reads performed, and — the point of the streaming read path — how much
// copying they avoided. A plain value snapshot of the engine-wide sink.
struct ScanMetrics {
  uint64_t rows_scanned = 0;        // physical tuples visited
  uint64_t rows_reconstructed = 0;  // logical rows materialized (copied)
  // Rejected by pushed-down predicates *before* materialization (the copy
  // the streaming path saved). Rows rejected after reconstruction show up
  // as rows_reconstructed - rows_emitted instead, so every scanned tuple
  // lands in exactly one of {ignored, filtered, reconstructed} and
  //   rows_scanned >= rows_filtered + rows_reconstructed
  // holds for any scan.
  uint64_t rows_filtered = 0;
  uint64_t rows_emitted = 0;        // rows handed to the sink/executor
  uint64_t bytes_copied = 0;        // declared attribute bytes reconstructed
  // Scans that buffered the whole snapshot into a vector before use.
  // SnapshotRows (a materializing API by contract) counts; the streaming
  // SnapshotSelect path must keep this at zero.
  uint64_t full_materializations = 0;
  // Always 0: snapshot reads are one serial heap pass since the
  // partitioned pass was removed. Kept until the perfbench report that
  // prints it (core.parallel_scans) drops its guard on it.
  uint64_t parallel_scans = 0;
  // Index-routed read path (§4.3): hash probes issued (point lookups and
  // routed SnapshotSelects), rows served out of index candidates, and
  // SnapshotSelects that skipped the heap pass entirely.
  uint64_t index_lookups = 0;
  uint64_t index_served_rows = 0;
  uint64_t scans_avoided = 0;

  std::string ToString() const {
    return StrPrintf(
        "scanned=%llu reconstructed=%llu filtered=%llu emitted=%llu "
        "bytes_copied=%llu full_materializations=%llu parallel_scans=%llu "
        "index_lookups=%llu index_served_rows=%llu scans_avoided=%llu",
        static_cast<unsigned long long>(rows_scanned),
        static_cast<unsigned long long>(rows_reconstructed),
        static_cast<unsigned long long>(rows_filtered),
        static_cast<unsigned long long>(rows_emitted),
        static_cast<unsigned long long>(bytes_copied),
        static_cast<unsigned long long>(full_materializations),
        static_cast<unsigned long long>(parallel_scans),
        static_cast<unsigned long long>(index_lookups),
        static_cast<unsigned long long>(index_served_rows),
        static_cast<unsigned long long>(scans_avoided));
  }
};

// Engine-wide accumulation point, shared by every VnlTable of one engine.
// Scans accumulate locally and publish once per scan, so the per-tuple hot
// loop performs no atomic operations.
class ScanMetricsSink {
 public:
  void RecordScan(uint64_t scanned, uint64_t reconstructed,
                  uint64_t filtered, uint64_t emitted, uint64_t bytes) {
    rows_scanned_.fetch_add(scanned, std::memory_order_relaxed);
    rows_reconstructed_.fetch_add(reconstructed, std::memory_order_relaxed);
    rows_filtered_.fetch_add(filtered, std::memory_order_relaxed);
    rows_emitted_.fetch_add(emitted, std::memory_order_relaxed);
    bytes_copied_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void RecordFullMaterialization() {
    full_materializations_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordIndexRoute(uint64_t lookups, uint64_t served_rows,
                        uint64_t scans_avoided) {
    index_lookups_.fetch_add(lookups, std::memory_order_relaxed);
    index_served_rows_.fetch_add(served_rows, std::memory_order_relaxed);
    scans_avoided_.fetch_add(scans_avoided, std::memory_order_relaxed);
  }

  ScanMetrics Snapshot() const {
    ScanMetrics m;
    m.rows_scanned = rows_scanned_.load(std::memory_order_relaxed);
    m.rows_reconstructed =
        rows_reconstructed_.load(std::memory_order_relaxed);
    m.rows_filtered = rows_filtered_.load(std::memory_order_relaxed);
    m.rows_emitted = rows_emitted_.load(std::memory_order_relaxed);
    m.bytes_copied = bytes_copied_.load(std::memory_order_relaxed);
    m.full_materializations =
        full_materializations_.load(std::memory_order_relaxed);
    m.index_lookups = index_lookups_.load(std::memory_order_relaxed);
    m.index_served_rows =
        index_served_rows_.load(std::memory_order_relaxed);
    m.scans_avoided = scans_avoided_.load(std::memory_order_relaxed);
    return m;
  }

  void Reset() {
    rows_scanned_.store(0, std::memory_order_relaxed);
    rows_reconstructed_.store(0, std::memory_order_relaxed);
    rows_filtered_.store(0, std::memory_order_relaxed);
    rows_emitted_.store(0, std::memory_order_relaxed);
    bytes_copied_.store(0, std::memory_order_relaxed);
    full_materializations_.store(0, std::memory_order_relaxed);
    index_lookups_.store(0, std::memory_order_relaxed);
    index_served_rows_.store(0, std::memory_order_relaxed);
    scans_avoided_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> rows_scanned_{0};
  std::atomic<uint64_t> rows_reconstructed_{0};
  std::atomic<uint64_t> rows_filtered_{0};
  std::atomic<uint64_t> rows_emitted_{0};
  std::atomic<uint64_t> bytes_copied_{0};
  std::atomic<uint64_t> full_materializations_{0};
  std::atomic<uint64_t> index_lookups_{0};
  std::atomic<uint64_t> index_served_rows_{0};
  std::atomic<uint64_t> scans_avoided_{0};
};

}  // namespace wvm::core

#endif  // OPENWVM_CORE_SCAN_METRICS_H_

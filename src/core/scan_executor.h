#ifndef OPENWVM_CORE_SCAN_EXECUTOR_H_
#define OPENWVM_CORE_SCAN_EXECUTOR_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace wvm::core {

// Engine-level knobs for the snapshot read path.
struct ScanOptions {
  // Worker threads a SnapshotSelect heap pass fans across. 1 = serial.
  int parallelism = 1;
  // Route SnapshotSelect through the unique-key / secondary hash indexes
  // when the WHERE clause binds them with equality (IN-list) conjuncts and
  // the session is inside the §4.1 version window, where per-tuple
  // expiration is impossible.
  // Off forces every query down the heap-scan path (differential testing).
  bool index_routing = true;
};

// A small persistent worker pool for partitioned heap scans. Workers are
// created on demand (grow-only, up to the largest EnsureWorkers request)
// and live until the executor is destroyed, so per-scan cost is one queue
// push per partition — no thread spawn on the read path.
//
// The pool is deliberately dumb: it runs opaque jobs. Partitioning, result
// buffering, feed order, and cancellation all live with the caller
// (VnlTable), which owns the scan's shared state and must not return until
// every job it submitted has signalled completion.
class ScanExecutor {
 public:
  ScanExecutor() = default;
  ~ScanExecutor();

  ScanExecutor(const ScanExecutor&) = delete;
  ScanExecutor& operator=(const ScanExecutor&) = delete;

  // Grows the pool to at least `n` workers.
  void EnsureWorkers(size_t n) EXCLUDES(mu_);

  // Enqueues a job. Jobs may run in any order, concurrently with each
  // other and with the submitting thread.
  void Submit(std::function<void()> job) EXCLUDES(mu_);

  size_t workers() const EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  std::vector<std::thread> threads_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace wvm::core

#endif  // OPENWVM_CORE_SCAN_EXECUTOR_H_

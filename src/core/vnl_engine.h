#ifndef OPENWVM_CORE_VNL_ENGINE_H_
#define OPENWVM_CORE_VNL_ENGINE_H_

#include <chrono>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/session.h"
#include "core/version_relation.h"
#include "core/vnl_table.h"

namespace wvm::core {

// Engine-level knobs for the snapshot read path.
struct ScanOptions {
  // Route SnapshotSelect through the unique-key / secondary hash indexes
  // when the WHERE clause binds them with equality (IN-list) conjuncts and
  // the session is inside the §4.1 version window, where per-tuple
  // expiration is impossible. Off forces every query down the heap pass
  // (the reference the routed path is diffed and benchmarked against).
  bool index_routing = true;
};

// The paper's warehouse database under nVNL concurrency control:
//  * a set of versioned relations sharing one Version relation and one
//    session manager,
//  * one maintenance transaction at a time (no locks; §2.2),
//  * reader sessions that never block and never place locks,
//  * §7 extensions: garbage collection and rollback without logging.
//
// n = 2 is the paper's 2VNL algorithm; larger n trades storage for longer
// guaranteed session lifetimes (§5).
class VnlEngine {
 public:
  // `pool` must outlive the engine.
  static Result<std::unique_ptr<VnlEngine>> Create(BufferPool* pool,
                                                   int n = 2);

  VnlEngine(const VnlEngine&) = delete;
  VnlEngine& operator=(const VnlEngine&) = delete;

  int n() const { return n_; }
  Vn current_vn() const { return version_relation_->current_vn(); }

  // --- Schema --------------------------------------------------------------

  Result<VnlTable*> CreateTable(const std::string& name, Schema logical)
      EXCLUDES(mu_);
  Result<VnlTable*> GetTable(const std::string& name) const EXCLUDES(mu_);

  // --- Reader sessions ------------------------------------------------------

  ReaderSession OpenSession() { return sessions_.Open(); }
  void CloseSession(const ReaderSession& s) { sessions_.Close(s); }
  // Global pessimistic expiration check (§4.1). Returns the buffer pool's
  // error when it cannot serve the Version relation.
  Status CheckSession(const ReaderSession& s) const {
    return sessions_.CheckNotExpired(s);
  }
  SessionManager* session_manager() { return &sessions_; }
  VersionRelation* version_relation() { return version_relation_.get(); }

  // --- Maintenance transactions ---------------------------------------------
  //
  // Begin, Commit and Abort each write the Version relation through the
  // buffer pool. When that write fails they return the pool's error and
  // leave currentVN, maintenanceActive and the transaction's active flag
  // as they were. A failed Abort may already have reverted the tuples;
  // retrying it finds none left stamped with the transaction's VN.

  // Starts the (single) maintenance transaction. Fails with
  // kFailedPrecondition while another is active.
  Result<MaintenanceTxn*> BeginMaintenance() EXCLUDES(mu_);

  // Publishes the transaction's version: its writes become the current
  // database version and the previous version stays readable.
  Status Commit(MaintenanceTxn* txn) EXCLUDES(mu_);

  // §2.1 alternative commit policy: waits until no reader session is
  // active before committing, so sessions never expire — at the price of
  // readers being able to starve the maintenance transaction (bounded
  // here by `timeout`, after which kDeadlineExceeded is returned and the
  // transaction remains active for a later retry or plain Commit).
  Status CommitWhenQuiescent(MaintenanceTxn* txn,
                             std::chrono::milliseconds timeout)
      EXCLUDES(mu_);

  // Rolls the transaction back *without any undo log* by reverting tuples
  // to their saved pre-update versions (§7). Reader sessions whose
  // versions cannot be faithfully reconstructed are force-expired; with
  // n > 2 and intact history slots the revert is lossless.
  Status Abort(MaintenanceTxn* txn) EXCLUDES(mu_);

  // --- Garbage collection (§7) -----------------------------------------------

  struct GcStats {
    size_t tuples_reclaimed = 0;
    // The GC backlog: logically deleted tuples left in the heap after the
    // call — versions a pinned session may still read, or, while a
    // maintenance transaction is active (the pass is then deferred), the
    // whole backlog. An O(1) read per table.
    size_t tuples_pending = 0;
  };
  // Physically removes logically deleted tuples no active or future
  // session can read. Each table visits only its tombstone set, never the
  // whole heap. Safe to run concurrently with readers. Heap I/O failures
  // surface as a non-OK status; unreclaimed tuples stay tombstoned.
  Result<GcStats> CollectGarbage() EXCLUDES(mu_);

  // --- Scan configuration -----------------------------------------------------

  // Knobs for SnapshotSelect. Options are read once at the start of each
  // read — changing them never affects a read already in flight.
  void SetScanOptions(const ScanOptions& opts) EXCLUDES(scan_mu_);
  ScanOptions scan_options() const EXCLUDES(scan_mu_);

  // --- Observability ---------------------------------------------------------

  // Engine-wide snapshot-read counters (aggregated over every table).
  ScanMetrics scan_metrics() const { return scan_metrics_.Snapshot(); }
  void ResetScanMetrics() { scan_metrics_.Reset(); }

 private:
  VnlEngine(BufferPool* pool, int n,
            std::unique_ptr<VersionRelation> version_relation)
      : pool_(pool),
        n_(n),
        version_relation_(std::move(version_relation)),
        sessions_(version_relation_.get(), n) {}

  // Shared tail of Commit/CommitWhenQuiescent: validates the transaction
  // and publishes its version.
  Status CommitLocked(MaintenanceTxn* txn) REQUIRES(mu_);

  BufferPool* const pool_;
  const int n_;
  std::unique_ptr<VersionRelation> version_relation_;
  SessionManager sessions_;
  ScanMetricsSink scan_metrics_;

  mutable Mutex mu_;  // guards tables_ and active_txn_
  std::map<std::string, std::unique_ptr<VnlTable>> tables_ GUARDED_BY(mu_);
  std::unique_ptr<MaintenanceTxn> active_txn_ GUARDED_BY(mu_);

  mutable Mutex scan_mu_;  // guards scan_options_
  ScanOptions scan_options_ GUARDED_BY(scan_mu_);
};

}  // namespace wvm::core

#endif  // OPENWVM_CORE_VNL_ENGINE_H_

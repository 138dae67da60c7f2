#ifndef OPENWVM_CORE_SESSION_H_
#define OPENWVM_CORE_SESSION_H_

#include <chrono>
#include <cstdint>
#include <map>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/version_meta.h"
#include "core/version_relation.h"

namespace wvm::core {

// A reader session (§1): a sequence of queries that must all observe the
// database state that was current when the session began. Sessions place
// no locks; they carry only their sessionVN.
struct ReaderSession {
  uint64_t id = 0;
  Vn session_vn = kNoVn;
};

// Tracks active reader sessions. Needed for:
//  * the global pessimistic expiration check of §4.1,
//  * garbage collection (§7): a dead tuple version is reclaimable only
//    when no active session can still read it,
//  * the commit-when-quiescent maintenance policy of §2.1,
//  * rollback without logging (§7): aborting invalidates sessions pinned
//    at versions whose pre-update values the abort cannot reconstruct.
class SessionManager {
 public:
  // `n` is the nVNL version count: a session stays valid while it overlaps
  // at most n-1 maintenance transactions (§5). n = 2 gives the paper's
  // exact §4.1 condition.
  explicit SessionManager(VersionRelation* version_relation, int n = 2)
      : version_relation_(version_relation), n_(n) {}

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  // Opens a session pinned at the current database version. Aborts when
  // the buffer pool cannot serve the Version relation's page.
  ReaderSession Open() EXCLUDES(mu_);

  void Close(const ReaderSession& session) EXCLUDES(mu_);

  // The paper's §4.1 global check (VersionRelation::Snapshot::Admits):
  //   valid iff sessionVN == currentVN, or
  //             (sessionVN == currentVN - 1 and not maintenanceActive).
  // Additionally a session forcibly expired by an abort is invalid.
  // Returns kSessionExpired when the session must be restarted, or the
  // buffer pool's error when it cannot serve the Version relation.
  Status CheckNotExpired(const ReaderSession& session) const EXCLUDES(mu_);

  // Smallest sessionVN among active sessions, or `fallback` when none.
  Vn MinActiveSessionVn(Vn fallback) const EXCLUDES(mu_);

  size_t active_sessions() const EXCLUDES(mu_);

  // Blocks until no session is active or `deadline` passes, whichever
  // comes first (commit-when-quiescent, §2.1). Returns true when quiescent.
  // Event-driven: Close signals the wait; there is no polling loop.
  bool WaitQuiescentUntil(
      std::chrono::steady_clock::time_point deadline) const EXCLUDES(mu_);

  // Forcibly expires sessions with sessionVN < vn (rollback support, §7).
  void ForceExpireBelow(Vn vn) EXCLUDES(mu_);

 private:
  VersionRelation* const version_relation_;
  const int n_;
  mutable Mutex mu_;
  mutable CondVar quiescent_cv_;
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  // session id -> sessionVN
  std::map<uint64_t, Vn> active_ GUARDED_BY(mu_);
  Vn force_expired_below_ GUARDED_BY(mu_) = kNoVn;
};

}  // namespace wvm::core

#endif  // OPENWVM_CORE_SESSION_H_

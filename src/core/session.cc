#include "core/session.h"

#include <algorithm>

#include "common/strings.h"

namespace wvm::core {

ReaderSession SessionManager::Open() {
  // Read currentVN exactly as a client of the rewrite implementation
  // would: from the Version relation. The read and the registration must
  // be one atomic step with respect to MinActiveSessionVn, or a garbage
  // collector running in between could miss the new session and reclaim
  // tuple versions it still needs.
  MutexLock lock(mu_);
  const Vn vn = version_relation_->Read().current_vn;
  ReaderSession session{next_id_++, vn};
  active_[session.id] = vn;
  return session;
}

void SessionManager::Close(const ReaderSession& session) {
  bool quiescent = false;
  {
    MutexLock lock(mu_);
    active_.erase(session.id);
    quiescent = active_.empty();
  }
  // Wake commit-when-quiescent waiters only on the last close; notify
  // outside the lock so a woken waiter does not immediately block on mu_.
  if (quiescent) quiescent_cv_.NotifyAll();
}

Status SessionManager::CheckNotExpired(const ReaderSession& session) const {
  {
    MutexLock lock(mu_);
    if (session.session_vn < force_expired_below_) {
      return Status::SessionExpired(
          "session invalidated by a maintenance rollback");
    }
  }
  const VersionRelation::Snapshot snap = version_relation_->Read();
  if (snap.Admits(session.session_vn, n_)) return Status::OK();
  return Status::SessionExpired(StrPrintf(
      "sessionVN=%lld expired (currentVN=%lld, maintenanceActive=%s)",
      static_cast<long long>(session.session_vn),
      static_cast<long long>(snap.current_vn),
      snap.maintenance_active ? "true" : "false"));
}

Vn SessionManager::MinActiveSessionVn(Vn fallback) const {
  MutexLock lock(mu_);
  if (active_.empty()) return fallback;
  Vn min_vn = fallback;
  bool first = true;
  for (const auto& [id, vn] : active_) {
    if (first || vn < min_vn) {
      min_vn = vn;
      first = false;
    }
  }
  return min_vn;
}

size_t SessionManager::active_sessions() const {
  MutexLock lock(mu_);
  return active_.size();
}

bool SessionManager::WaitQuiescentUntil(
    std::chrono::steady_clock::time_point deadline) const {
  MutexLock lock(mu_);
  return quiescent_cv_.WaitUntil(mu_, deadline, [this] {
    mu_.AssertHeld();  // predicate runs under the wait's lock
    return active_.empty();
  });
}

void SessionManager::ForceExpireBelow(Vn vn) {
  MutexLock lock(mu_);
  force_expired_below_ = std::max(force_expired_below_, vn);
}

}  // namespace wvm::core

#include "core/vnl_engine.h"

#include <utility>

#include "common/strings.h"
#include "core/invariant_checker.h"

namespace wvm::core {

Result<std::unique_ptr<VnlEngine>> VnlEngine::Create(BufferPool* pool,
                                                     int n) {
  if (n < 2) return Status::InvalidArgument("nVNL requires n >= 2");
  WVM_ASSIGN_OR_RETURN(auto version_relation,
                       VersionRelation::Create(pool, /*initial_vn=*/0));
  return std::unique_ptr<VnlEngine>(
      new VnlEngine(pool, n, std::move(version_relation)));
}

Result<VnlTable*> VnlEngine::CreateTable(const std::string& name,
                                         Schema logical) {
  WVM_ASSIGN_OR_RETURN(VersionedSchema vschema,
                       VersionedSchema::Create(std::move(logical), n_));
  MutexLock lock(mu_);
  const std::string key = ToLowerAscii(name);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  auto table = std::unique_ptr<VnlTable>(new VnlTable(
      name, std::move(vschema), pool_, &sessions_, &scan_metrics_, this));
  VnlTable* raw = table.get();
  tables_[key] = std::move(table);
  return raw;
}

Result<VnlTable*> VnlEngine::GetTable(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = tables_.find(ToLowerAscii(name));
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return it->second.get();
}

void VnlEngine::SetScanOptions(const ScanOptions& opts) {
  MutexLock lock(scan_mu_);
  scan_options_ = opts;
}

ScanOptions VnlEngine::scan_options() const {
  MutexLock lock(scan_mu_);
  return scan_options_;
}

Result<MaintenanceTxn*> VnlEngine::BeginMaintenance() {
  MutexLock lock(mu_);
  if (active_txn_ != nullptr) {
    return Status::FailedPrecondition(
        "a maintenance transaction is already active");
  }
  WVM_ASSIGN_OR_RETURN(Vn vn, version_relation_->BeginMaintenance());
  // currentVN is published only at commit, so the fresh transaction must
  // sit exactly one version past it.
  WVM_PARANOID_ASSERT_OK(
      CheckWriterProtocol(vn, version_relation_->current_vn()));
  txns_.push_back(MaintenanceTxn(this, vn));
  active_txn_ = &txns_.back();
  return active_txn_;
}

Status VnlEngine::CommitLocked(MaintenanceTxn* txn) {
  if (txn == nullptr || txn != active_txn_ || !txn->active()) {
    return Status::FailedPrecondition("transaction is not active");
  }
  WVM_RETURN_IF_ERROR(version_relation_->CommitMaintenance(txn->vn()));
  txn->active_ = false;
  active_txn_ = nullptr;
  return Status::OK();
}

Status VnlEngine::Commit(MaintenanceTxn* txn) {
  MutexLock lock(mu_);
  return CommitLocked(txn);
}

Status VnlEngine::CommitWhenQuiescent(MaintenanceTxn* txn,
                                      std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    {
      MutexLock lock(mu_);
      if (txn == nullptr || txn != active_txn_ || !txn->active()) {
        return Status::FailedPrecondition("transaction is not active");
      }
      if (sessions_.active_sessions() == 0) {
        return CommitLocked(txn);
      }
    }
    // Event-driven wait: SessionManager::Close signals when the last
    // session ends. A session opened between the wakeup and re-taking mu_
    // above simply sends us back into the wait (§2.1 starvation is
    // possible by design; the deadline bounds it).
    if (!sessions_.WaitQuiescentUntil(deadline)) {
      return Status::DeadlineExceeded(
          "reader sessions are starving the maintenance commit (§2.1)");
    }
  }
}

Status VnlEngine::Abort(MaintenanceTxn* txn) {
  MutexLock lock(mu_);
  if (txn == nullptr || txn != active_txn_ || !txn->active()) {
    return Status::FailedPrecondition("transaction is not active");
  }
  const Vn current = version_relation_->current_vn();
  bool lossless = true;
  for (auto& [name, table] : tables_) {
    // A failed revert leaves the transaction active: the caller may retry
    // the abort; clearing active_txn_ here would strand half-reverted
    // tuples behind a "committed" facade.
    WVM_ASSIGN_OR_RETURN(bool table_lossless,
                         table->RollbackTxn(txn->vn(), current));
    lossless &= table_lossless;
  }
  if (!lossless) {
    // Sessions older than the still-current version cannot be served
    // faithfully after an imprecise revert (§7 / DESIGN.md).
    sessions_.ForceExpireBelow(current);
  }
  WVM_RETURN_IF_ERROR(version_relation_->AbortMaintenance());
  txn->active_ = false;
  active_txn_ = nullptr;
  return Status::OK();
}

Result<VnlEngine::GcStats> VnlEngine::CollectGarbage() {
  MutexLock lock(mu_);
  // GC must not overlap a maintenance transaction: the writer may
  // re-insert over a logically deleted tuple the collector has already
  // chosen as a victim, and the physical delete would then kill a live
  // tuple. Holding mu_ keeps BeginMaintenance out for the duration; if a
  // transaction is already active, defer to the next gap — the paper's
  // "periodically running a process" (§3.3) runs between transactions.
  GcStats stats;
  if (active_txn_ == nullptr) {
    const Vn current = version_relation_->current_vn();
    const Vn min_session =
        sessions_.MinActiveSessionVn(/*fallback=*/current);
    for (auto& [name, table] : tables_) {
      WVM_ASSIGN_OR_RETURN(size_t reclaimed,
                           table->CollectGarbage(current, min_session));
      stats.tuples_reclaimed += reclaimed;
    }
  }
  for (auto& [name, table] : tables_) {
    stats.tuples_pending += table->tombstone_count();
  }
  return stats;
}

}  // namespace wvm::core

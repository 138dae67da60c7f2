#include "core/version_relation.h"

namespace wvm::core {

Result<std::unique_ptr<VersionRelation>> VersionRelation::Create(
    BufferPool* pool, Vn initial_vn) {
  auto vr = std::unique_ptr<VersionRelation>(new VersionRelation());
  Schema schema({Column::Int64("currentVN"),
                 Column::Bool("maintenanceActive")});
  // The object is not shared yet, but Create is not a constructor, so the
  // thread-safety analysis still wants the lock held for these writes.
  MutexLock lock(vr->mu_);
  vr->table_ = std::make_unique<Table>("Version", schema, pool);
  vr->current_vn_ = initial_vn;
  vr->maintenance_active_ = false;
  WVM_ASSIGN_OR_RETURN(
      vr->rid_, vr->table_->InsertRow(
                    {Value::Int64(initial_vn), Value::Bool(false)}));
  return vr;
}

Status VersionRelation::Persist(Vn current_vn, bool maintenance_active) {
  WVM_RETURN_IF_ERROR(table_->UpdateRow(
      rid_, {Value::Int64(current_vn), Value::Bool(maintenance_active)}));
  current_vn_ = current_vn;
  maintenance_active_ = maintenance_active;
  return Status::OK();
}

Vn VersionRelation::current_vn() const {
  MutexLock lock(mu_);
  return current_vn_;
}

bool VersionRelation::maintenance_active() const {
  MutexLock lock(mu_);
  return maintenance_active_;
}

Result<VersionRelation::Snapshot> VersionRelation::Read() const {
  MutexLock lock(mu_);
  // Also touch the stored tuple so the I/O experiments account for the
  // Version-relation read the rewrite implementation performs (§4.1).
  WVM_ASSIGN_OR_RETURN(Row row, table_->GetRow(rid_));
  return Snapshot{row[0].AsInt64(), row[1].AsBool()};
}

VersionRelation::Snapshot VersionRelation::Peek() const {
  MutexLock lock(mu_);
  return {current_vn_, maintenance_active_};
}

Result<Vn> VersionRelation::BeginMaintenance() {
  MutexLock lock(mu_);
  if (maintenance_active_) {
    return Status::FailedPrecondition(
        "a maintenance transaction is already active (the external "
        "protocol allows one at a time, §2.2)");
  }
  WVM_RETURN_IF_ERROR(Persist(current_vn_, /*maintenance_active=*/true));
  return current_vn_ + 1;
}

Status VersionRelation::CommitMaintenance(Vn maintenance_vn) {
  MutexLock lock(mu_);
  if (!maintenance_active_) {
    return Status::FailedPrecondition("no active maintenance transaction");
  }
  if (maintenance_vn != current_vn_ + 1) {
    return Status::Internal("maintenanceVN does not follow currentVN");
  }
  return Persist(maintenance_vn, /*maintenance_active=*/false);
}

Status VersionRelation::AbortMaintenance() {
  MutexLock lock(mu_);
  if (!maintenance_active_) {
    return Status::FailedPrecondition("no active maintenance transaction");
  }
  return Persist(current_vn_, /*maintenance_active=*/false);
}

}  // namespace wvm::core

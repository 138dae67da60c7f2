#include "core/version_relation.h"

#include "common/logging.h"

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

void VersionRelation::Persist() {
  Status s = table_->UpdateRow(
      rid_, {Value::Int64(current_vn_), Value::Bool(maintenance_active_)});
  WVM_CHECK_MSG(s.ok(), "Version relation update failed");
}

Vn VersionRelation::current_vn() const {
  MutexLock lock(mu_);
  return current_vn_;
}

bool VersionRelation::maintenance_active() const {
  MutexLock lock(mu_);
  return maintenance_active_;
}

VersionRelation::Snapshot VersionRelation::Read() const {
  MutexLock lock(mu_);
  // Also touch the stored tuple so the I/O experiments account for the
  // Version-relation read the rewrite implementation performs (§4.1).
  Result<Row> row = table_->GetRow(rid_);
  WVM_CHECK(row.ok());
  return {row.value()[0].AsInt64(), row.value()[1].AsBool()};
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
  maintenance_active_ = true;
  Persist();
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
  current_vn_ = maintenance_vn;
  maintenance_active_ = false;
  Persist();
  return Status::OK();
}

Status VersionRelation::AbortMaintenance() {
  MutexLock lock(mu_);
  if (!maintenance_active_) {
    return Status::FailedPrecondition("no active maintenance transaction");
  }
  maintenance_active_ = false;
  Persist();
  return Status::OK();
}

}  // namespace wvm::core

#include "baselines/vnl_adapter.h"

namespace wvm::baselines {

Result<std::unique_ptr<VnlAdapter>> VnlAdapter::Create(BufferPool* pool,
                                                       Schema logical,
                                                       int n) {
  WVM_ASSIGN_OR_RETURN(auto engine, core::VnlEngine::Create(pool, n));
  WVM_ASSIGN_OR_RETURN(core::VnlTable * table,
                       engine->CreateTable("warehouse", std::move(logical)));
  return std::unique_ptr<VnlAdapter>(
      new VnlAdapter(n, std::move(engine), table));
}

VnlAdapter::VnlAdapter(int n, std::unique_ptr<core::VnlEngine> engine,
                       core::VnlTable* table)
    : n_(n), engine_(std::move(engine)), table_(table) {
  select_all_.select_star = true;
  select_all_.table = table_->name();
}

Result<uint64_t> VnlAdapter::OpenReader() {
  core::ReaderSession session = engine_->OpenSession();
  MutexLock lock(mu_);
  sessions_[session.id] = session;
  return session.id;
}

Status VnlAdapter::CloseReader(uint64_t reader) {
  MutexLock lock(mu_);
  auto it = sessions_.find(reader);
  if (it == sessions_.end()) return Status::NotFound("unknown reader");
  engine_->CloseSession(it->second);
  sessions_.erase(it);
  return Status::OK();
}

Result<core::ReaderSession> VnlAdapter::SessionOf(uint64_t reader) const {
  MutexLock lock(mu_);
  auto it = sessions_.find(reader);
  if (it == sessions_.end()) return Status::NotFound("unknown reader");
  return it->second;
}

Result<std::vector<Row>> VnlAdapter::ReadAll(uint64_t reader) {
  WVM_ASSIGN_OR_RETURN(core::ReaderSession session, SessionOf(reader));
  WVM_ASSIGN_OR_RETURN(query::QueryResult all,
                       table_->SnapshotSelect(session, select_all_));
  return std::move(all.rows);
}

Result<std::optional<Row>> VnlAdapter::ReadKey(uint64_t reader,
                                               const Row& key) {
  WVM_ASSIGN_OR_RETURN(core::ReaderSession session, SessionOf(reader));
  return table_->SnapshotLookup(session, key);
}

Status VnlAdapter::BeginMaintenance() {
  MutexLock lock(mu_);
  WVM_ASSIGN_OR_RETURN(txn_, engine_->BeginMaintenance());
  return Status::OK();
}

core::MaintenanceTxn* VnlAdapter::CurrentTxn() const {
  MutexLock lock(mu_);
  return txn_;
}

Result<core::BatchApplyStats> VnlAdapter::MaintApplyBatch(
    const std::vector<core::BatchKeyOp>& ops) {
  return table_->ApplyBatch(CurrentTxn(), ops);
}

Status VnlAdapter::CommitMaintenance() {
  MutexLock lock(mu_);
  WVM_RETURN_IF_ERROR(engine_->Commit(txn_));
  txn_ = nullptr;
  return Status::OK();
}

EngineStorageStats VnlAdapter::StorageStats() const {
  return {table_->physical_pages(), 0,
          table_->versioned_schema().physical().RowByteSize()};
}

}  // namespace wvm::baselines

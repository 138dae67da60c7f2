#include "baselines/vnl_adapter.h"

#include <cmath>

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

Result<std::vector<Row>> VnlAdapter::ReadAll(uint64_t reader) {
  core::ReaderSession session;
  {
    MutexLock lock(mu_);
    auto it = sessions_.find(reader);
    if (it == sessions_.end()) return Status::NotFound("unknown reader");
    session = it->second;
  }
  return table_->SnapshotRows(session);
}

Result<std::optional<Row>> VnlAdapter::ReadKey(uint64_t reader,
                                               const Row& key) {
  core::ReaderSession session;
  {
    MutexLock lock(mu_);
    auto it = sessions_.find(reader);
    if (it == sessions_.end()) return Status::NotFound("unknown reader");
    session = it->second;
  }
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

Result<std::optional<Row>> VnlAdapter::MaintReadKey(const Row& key) {
  return table_->MaintenanceLookup(CurrentTxn(), key);
}

Status VnlAdapter::MaintInsert(const Row& row) {
  return table_->Insert(CurrentTxn(), row);
}

Status VnlAdapter::MaintUpdate(const Row& key, const Row& row) {
  const Schema& logical = table_->logical_schema();
  WVM_RETURN_IF_ERROR(logical.ValidateRow(row));
  // The full row becomes edits of every updatable column and of any other
  // it changes, which the engine refuses (§3.1). NaN equals NaN here.
  core::KeyDecider decide =
      [&](const std::optional<Row>& current) -> Result<core::NetEffect> {
    core::NetEffect effect = core::NetEffect::Update({});
    for (size_t i = 0; current.has_value() && i < row.size(); ++i) {
      const Value& now = (*current)[i];
      const bool nans = row[i].type() == TypeId::kDouble &&
                        now.type() == TypeId::kDouble &&
                        std::isnan(row[i].AsDouble()) &&
                        std::isnan(now.AsDouble());
      if (logical.column(i).updatable || (row[i] != now && !nans)) {
        effect.edits.push_back({i, row[i]});
      }
    }
    return effect;
  };
  return table_->ApplyBatch(CurrentTxn(), {{key, std::move(decide)}})
      .status();
}

Status VnlAdapter::MaintDelete(const Row& key) {
  return table_
      ->ApplyBatch(CurrentTxn(),
                   {{key,
                     [](const std::optional<Row>&) -> Result<core::NetEffect> {
                       return core::NetEffect::Delete();
                     }}})
      .status();
}

Result<WarehouseEngine::MaintBatchStats> VnlAdapter::MaintApplyBatch(
    const std::vector<MaintBatchOp>& ops) {
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

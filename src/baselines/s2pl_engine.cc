#include "baselines/s2pl_engine.h"

namespace wvm::baselines {

S2plEngine::S2plEngine(BufferPool* pool, Schema logical,
                       std::chrono::milliseconds lock_timeout)
    : RowEngine(std::move(logical)),
      table_(std::make_unique<Table>("s2pl", schema_, pool)),
      locks_(lock_timeout) {}

Result<uint64_t> S2plEngine::OpenReader() {
  MutexLock lock(mu_);
  const uint64_t id = next_reader_++;
  readers_[id] = true;
  return id;
}

Status S2plEngine::CloseReader(uint64_t reader) {
  {
    MutexLock lock(mu_);
    if (readers_.erase(reader) == 0) {
      return Status::NotFound("unknown reader");
    }
  }
  locks_.UnlockAll(reader);
  return Status::OK();
}

Result<std::vector<Row>> S2plEngine::ReadAll(uint64_t reader) {
  // Collect rids first, then lock + read each (locking inside the scan
  // callback would hold a page latch across a blocking wait).
  std::vector<Rid> rids;
  WVM_RETURN_IF_ERROR(table_->ScanRows([&](Rid rid, const Row&) {
    rids.push_back(rid);
    return true;
  }));
  std::vector<Row> rows;
  rows.reserve(rids.size());
  for (Rid rid : rids) {
    WVM_RETURN_IF_ERROR(locks_.Lock(reader, RidLockId(rid),
                                    txn::LockManager::Mode::kShared));
    Result<Row> row = table_->GetRow(rid);
    if (!row.ok()) {
      if (row.status().code() == StatusCode::kNotFound) continue;
      return row.status();
    }
    rows.push_back(std::move(row).value());
  }
  return rows;
}

Result<std::optional<Row>> S2plEngine::ReadKey(uint64_t reader,
                                               const Row& key) {
  Rid rid;
  {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return std::optional<Row>();
    rid = it->second;
  }
  WVM_RETURN_IF_ERROR(locks_.Lock(reader, RidLockId(rid),
                                  txn::LockManager::Mode::kShared));
  Result<Row> row = table_->GetRow(rid);
  if (!row.ok()) {
    if (row.status().code() == StatusCode::kNotFound) {
      return std::optional<Row>();
    }
    return row.status();
  }
  return std::optional<Row>(std::move(row).value());
}

Status S2plEngine::BeginMaintenance() {
  MutexLock lock(mu_);
  if (writer_active_) {
    return Status::FailedPrecondition("maintenance already active");
  }
  writer_active_ = true;
  return Status::OK();
}

Status S2plEngine::CommitMaintenance() {
  {
    MutexLock lock(mu_);
    if (!writer_active_) {
      return Status::FailedPrecondition("no active maintenance");
    }
    writer_active_ = false;
  }
  locks_.UnlockAll(kWriterOwner);
  return Status::OK();
}

Result<std::optional<Row>> S2plEngine::MaintReadKey(const Row& key) {
  Rid rid;
  {
    MutexLock lock(mu_);
    if (!writer_active_) {
      return Status::FailedPrecondition("no active maintenance");
    }
    auto it = index_.find(key);
    if (it == index_.end()) return std::optional<Row>();
    rid = it->second;
  }
  WVM_RETURN_IF_ERROR(locks_.Lock(kWriterOwner, RidLockId(rid),
                                  txn::LockManager::Mode::kShared));
  Result<Row> row = table_->GetRow(rid);
  if (!row.ok()) {
    if (row.status().code() == StatusCode::kNotFound) {
      return std::optional<Row>();
    }
    return row.status();
  }
  return std::optional<Row>(std::move(row).value());
}

Status S2plEngine::MaintInsert(const Row& row) {
  WVM_ASSIGN_OR_RETURN(Rid rid, table_->InsertRow(row));
  WVM_RETURN_IF_ERROR(locks_.Lock(kWriterOwner, RidLockId(rid),
                                  txn::LockManager::Mode::kExclusive));
  MutexLock lock(mu_);
  index_[schema_.KeyOf(row)] = rid;
  return Status::OK();
}

Status S2plEngine::MaintUpdate(const Row& key, const Row& row) {
  Rid rid;
  {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return Status::NotFound("no such key");
    rid = it->second;
  }
  WVM_RETURN_IF_ERROR(locks_.Lock(kWriterOwner, RidLockId(rid),
                                  txn::LockManager::Mode::kExclusive));
  return table_->UpdateRow(rid, row);
}

Status S2plEngine::MaintDelete(const Row& key) {
  Rid rid;
  {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return Status::NotFound("no such key");
    rid = it->second;
  }
  WVM_RETURN_IF_ERROR(locks_.Lock(kWriterOwner, RidLockId(rid),
                                  txn::LockManager::Mode::kExclusive));
  WVM_RETURN_IF_ERROR(table_->DeleteRow(rid));
  MutexLock lock(mu_);
  index_.erase(key);
  return Status::OK();
}

EngineStorageStats S2plEngine::StorageStats() const {
  return {table_->num_pages(), 0, schema_.RowByteSize()};
}

}  // namespace wvm::baselines

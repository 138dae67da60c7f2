#include "baselines/offline_engine.h"

namespace wvm::baselines {

OfflineEngine::OfflineEngine(BufferPool* pool, Schema logical)
    : RowEngine(std::move(logical)),
      table_(std::make_unique<Table>("offline", schema_, pool)) {}

Result<uint64_t> OfflineEngine::OpenReader() {
  MutexLock lock(gate_mu_);
  gate_cv_.Wait(gate_mu_, [&] {
    gate_mu_.AssertHeld();  // predicate runs under the wait's lock
    return !writer_active_ && !writer_waiting_;
  });
  ++active_readers_;
  const uint64_t id = next_reader_++;
  readers_[id] = true;
  return id;
}

Status OfflineEngine::CloseReader(uint64_t reader) {
  MutexLock lock(gate_mu_);
  auto it = readers_.find(reader);
  if (it == readers_.end()) return Status::NotFound("unknown reader");
  readers_.erase(it);
  --active_readers_;
  gate_cv_.NotifyAll();
  return Status::OK();
}

Result<std::vector<Row>> OfflineEngine::ReadAll(uint64_t reader) {
  {
    MutexLock lock(gate_mu_);
    if (readers_.count(reader) == 0) {
      return Status::NotFound("unknown reader");
    }
    // The session already holds the shared gate; reads proceed freely.
  }
  return table_->AllRows();
}

Result<std::optional<Row>> OfflineEngine::ReadKey(uint64_t reader,
                                                  const Row& key) {
  Rid rid{};
  {
    MutexLock lock(gate_mu_);
    if (readers_.count(reader) == 0) {
      return Status::NotFound("unknown reader");
    }
    Result<Rid> found = FindKey(key);
    if (!found.ok()) {
      if (found.status().code() == StatusCode::kNotFound) {
        return std::optional<Row>();
      }
      return found.status();
    }
    rid = found.value();
  }
  WVM_ASSIGN_OR_RETURN(Row row, table_->GetRow(rid));
  return std::optional<Row>(std::move(row));
}

Status OfflineEngine::BeginMaintenance() {
  MutexLock lock(gate_mu_);
  if (writer_active_ || writer_waiting_) {
    return Status::FailedPrecondition("maintenance already active");
  }
  writer_waiting_ = true;
  gate_cv_.Wait(gate_mu_, [&] {
    gate_mu_.AssertHeld();  // predicate runs under the wait's lock
    return active_readers_ == 0;
  });
  writer_waiting_ = false;
  writer_active_ = true;
  return Status::OK();
}

Status OfflineEngine::CommitMaintenance() {
  MutexLock lock(gate_mu_);
  if (!writer_active_) {
    return Status::FailedPrecondition("no active maintenance");
  }
  writer_active_ = false;
  gate_cv_.NotifyAll();
  return Status::OK();
}

Result<Rid> OfflineEngine::FindKey(const Row& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) return Status::NotFound("no such key");
  return it->second;
}

Result<std::optional<Row>> OfflineEngine::MaintReadKey(const Row& key) {
  MutexLock lock(gate_mu_);
  if (!writer_active_) {
    return Status::FailedPrecondition("no active maintenance");
  }
  Result<Rid> rid = FindKey(key);
  if (!rid.ok()) {
    if (rid.status().code() == StatusCode::kNotFound) {
      return std::optional<Row>();
    }
    return rid.status();
  }
  WVM_ASSIGN_OR_RETURN(Row row, table_->GetRow(rid.value()));
  return std::optional<Row>(std::move(row));
}

Status OfflineEngine::MaintInsert(const Row& row) {
  MutexLock lock(gate_mu_);
  const Row key = schema_.KeyOf(row);
  WVM_ASSIGN_OR_RETURN(Rid rid, table_->InsertRow(row));
  index_[key] = rid;
  return Status::OK();
}

Status OfflineEngine::MaintUpdate(const Row& key, const Row& row) {
  MutexLock lock(gate_mu_);
  WVM_ASSIGN_OR_RETURN(Rid rid, FindKey(key));
  return table_->UpdateRow(rid, row);
}

Status OfflineEngine::MaintDelete(const Row& key) {
  MutexLock lock(gate_mu_);
  WVM_ASSIGN_OR_RETURN(Rid rid, FindKey(key));
  WVM_RETURN_IF_ERROR(table_->DeleteRow(rid));
  index_.erase(key);
  return Status::OK();
}

EngineStorageStats OfflineEngine::StorageStats() const {
  return {table_->num_pages(), 0, schema_.RowByteSize()};
}

}  // namespace wvm::baselines

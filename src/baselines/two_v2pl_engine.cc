#include "baselines/two_v2pl_engine.h"

#include <chrono>

namespace wvm::baselines {

TwoV2plEngine::TwoV2plEngine(BufferPool* pool, Schema logical,
                             std::chrono::milliseconds certify_block_timeout)
    : RowEngine(std::move(logical)),
      table_(std::make_unique<Table>("2v2pl", schema_, pool)),
      certify_block_timeout_(certify_block_timeout) {}

Result<uint64_t> TwoV2plEngine::OpenReader() {
  MutexLock lock(mu_);
  const uint64_t id = next_reader_++;
  reader_reads_[id];
  return id;
}

Status TwoV2plEngine::CloseReader(uint64_t reader) {
  MutexLock lock(mu_);
  auto it = reader_reads_.find(reader);
  if (it == reader_reads_.end()) return Status::NotFound("unknown reader");
  for (const Row& key : it->second) {
    if (--read_counts_[key] == 0) read_counts_.erase(key);
  }
  reader_reads_.erase(it);
  cv_.NotifyAll();  // a certifying writer may be waiting on these locks
  return Status::OK();
}

Status TwoV2plEngine::NoteRead(uint64_t reader, const Row& key) {
  // New read locks on tuples under certification must wait — the classic
  // S / certify conflict. The wait is bounded: a reader that already
  // holds read locks the certifier is waiting on would deadlock here, so
  // a timeout aborts the read (presumed deadlock).
  const bool granted = cv_.WaitFor(mu_, certify_block_timeout_, [&] {
    mu_.AssertHeld();  // predicate runs under the wait's lock
    return !certifying_ || shadow_.count(key) == 0 ||
           reader_reads_[reader].count(key) > 0;
  });
  if (!granted) {
    return Status::DeadlineExceeded(
        "read blocked on certification (presumed deadlock)");
  }
  auto [it, inserted] = reader_reads_[reader].insert(key);
  if (inserted) ++read_counts_[key];
  return Status::OK();
}

Result<std::vector<Row>> TwoV2plEngine::ReadAll(uint64_t reader) {
  // Pass 1: collect rids and keys. Pass 2: acquire the read locks (may
  // block on certification). Pass 3: read the values — the locks prevent
  // a writer from certifying these tuples underneath us.
  std::vector<std::pair<Rid, Row>> entries;  // rid, key
  WVM_RETURN_IF_ERROR(table_->ScanRows([&](Rid rid, const Row& row) {
    entries.emplace_back(rid, schema_.KeyOf(row));
    return true;
  }));
  {
    MutexLock lock(mu_);
    if (reader_reads_.count(reader) == 0) {
      return Status::NotFound("unknown reader");
    }
    for (auto& [rid, key] : entries) {
      WVM_RETURN_IF_ERROR(NoteRead(reader, key));
    }
  }
  std::vector<Row> rows;
  rows.reserve(entries.size());
  for (auto& [rid, key] : entries) {
    Result<Row> row = table_->GetRow(rid);
    if (!row.ok()) {
      if (row.status().code() == StatusCode::kNotFound) continue;
      return row.status();
    }
    rows.push_back(std::move(row).value());
  }
  return rows;
}

Result<std::optional<Row>> TwoV2plEngine::ReadKey(uint64_t reader,
                                                  const Row& key) {
  Rid rid;
  {
    MutexLock lock(mu_);
    if (reader_reads_.count(reader) == 0) {
      return Status::NotFound("unknown reader");
    }
    WVM_RETURN_IF_ERROR(NoteRead(reader, key));
    auto it = index_.find(key);
    if (it == index_.end()) return std::optional<Row>();
    rid = it->second;
  }
  Result<Row> row = table_->GetRow(rid);
  if (!row.ok()) {
    if (row.status().code() == StatusCode::kNotFound) {
      return std::optional<Row>();
    }
    return row.status();
  }
  return std::optional<Row>(std::move(row).value());
}

Status TwoV2plEngine::BeginMaintenance() {
  MutexLock lock(mu_);
  if (writer_active_) {
    return Status::FailedPrecondition("maintenance already active");
  }
  writer_active_ = true;
  shadow_.clear();
  return Status::OK();
}

Result<std::optional<Row>> TwoV2plEngine::MaintReadKey(const Row& key) {
  Rid rid;
  {
    MutexLock lock(mu_);
    if (!writer_active_) {
      return Status::FailedPrecondition("no active maintenance");
    }
    auto shadowed = shadow_.find(key);
    if (shadowed != shadow_.end()) {
      if (!shadowed->second.has_value()) return std::optional<Row>();
      return shadowed->second;
    }
    auto it = index_.find(key);
    if (it == index_.end()) return std::optional<Row>();
    rid = it->second;
  }
  Result<Row> row = table_->GetRow(rid);
  if (!row.ok()) {
    if (row.status().code() == StatusCode::kNotFound) {
      return std::optional<Row>();
    }
    return row.status();
  }
  return std::optional<Row>(std::move(row).value());
}

Status TwoV2plEngine::MaintInsert(const Row& row) {
  MutexLock lock(mu_);
  shadow_[schema_.KeyOf(row)] = row;
  return Status::OK();
}

Status TwoV2plEngine::MaintUpdate(const Row& key, const Row& row) {
  MutexLock lock(mu_);
  shadow_[key] = row;
  return Status::OK();
}

Status TwoV2plEngine::MaintDelete(const Row& key) {
  MutexLock lock(mu_);
  shadow_[key] = std::nullopt;
  return Status::OK();
}

Status TwoV2plEngine::CommitMaintenance() {
  MutexLock lock(mu_);
  if (!writer_active_) {
    return Status::FailedPrecondition("no active maintenance");
  }
  // Certification: wait until no active reader holds a read lock on any
  // modified tuple (readers delay the writer's commit — §6).
  certifying_ = true;
  const auto start = std::chrono::steady_clock::now();
  cv_.Wait(mu_, [&] {
    mu_.AssertHeld();  // predicate runs under the wait's lock
    for (const auto& [key, value] : shadow_) {
      if (read_counts_.count(key) > 0) return false;
    }
    return true;
  });
  certify_wait_ += std::chrono::steady_clock::now() - start;

  // Install the second versions and discard the old ones (2V2PL deletes
  // the previous version at writer commit).
  for (auto& [key, value] : shadow_) {
    auto it = index_.find(key);
    if (value.has_value()) {
      if (it != index_.end()) {
        WVM_RETURN_IF_ERROR(table_->UpdateRow(it->second, *value));
      } else {
        WVM_ASSIGN_OR_RETURN(Rid rid, table_->InsertRow(*value));
        index_[key] = rid;
      }
    } else if (it != index_.end()) {
      WVM_RETURN_IF_ERROR(table_->DeleteRow(it->second));
      index_.erase(it);
    }
  }
  shadow_.clear();
  certifying_ = false;
  writer_active_ = false;
  cv_.NotifyAll();
  return Status::OK();
}

EngineStorageStats TwoV2plEngine::StorageStats() const {
  MutexLock lock(mu_);
  // Shadow versions live off-page in this model; charge one tuple's bytes
  // per shadowed key as auxiliary space, rounded up to pages.
  const size_t shadow_bytes = shadow_.size() * schema_.RowByteSize();
  return {table_->num_pages(),
          (shadow_bytes + kPageSize - 1) / kPageSize,
          schema_.RowByteSize()};
}

std::chrono::nanoseconds TwoV2plEngine::total_certify_wait() const {
  MutexLock lock(mu_);
  return certify_wait_;
}

}  // namespace wvm::baselines

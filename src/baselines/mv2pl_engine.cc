#include "baselines/mv2pl_engine.h"

#include "common/logging.h"

namespace wvm::baselines {

namespace {
constexpr int32_t kNullPage = -1;
}  // namespace

Mv2plEngine::Mv2plEngine(BufferPool* pool, Schema logical, Options options)
    : RowEngine(std::move(logical)), options_(options) {
  std::vector<Column> main_cols = schema_.columns();
  main_cols.push_back(Column::Int64("create_vn"));
  main_cols.push_back(Column::Bool("deleted"));
  main_cols.push_back(Column::Int32("ptr_page"));
  main_cols.push_back(Column::Int32("ptr_slot"));
  if (options_.inline_cache) {
    main_cols.push_back(Column::Bool("cache_valid"));
    main_cols.push_back(Column::Int64("cache_vn"));
    main_cols.push_back(Column::Bool("cache_deleted"));
    for (const Column& c : schema_.columns()) {
      Column copy = c;
      copy.name = "cache_" + copy.name;
      copy.updatable = false;
      main_cols.push_back(std::move(copy));
    }
  }
  main_schema_ = Schema(std::move(main_cols), schema_.key_indices());

  std::vector<Column> pool_cols = schema_.columns();
  pool_cols.push_back(Column::Int64("create_vn"));
  pool_cols.push_back(Column::Bool("deleted"));
  pool_cols.push_back(Column::Int32("next_page"));
  pool_cols.push_back(Column::Int32("next_slot"));
  pool_schema_ = Schema(std::move(pool_cols));

  main_table_ = std::make_unique<Table>("mv2pl_main", main_schema_, pool);
  pool_table_ = std::make_unique<Table>("mv2pl_pool", pool_schema_, pool);
}

Row Mv2plEngine::MakeMainRow(const Row& logical, int64_t vn, bool deleted,
                             Rid ptr) const {
  Row row = logical;
  row.push_back(Value::Int64(vn));
  row.push_back(Value::Bool(deleted));
  row.push_back(Value::Int32(ptr.valid() ? ptr.page_id : kNullPage));
  row.push_back(Value::Int32(ptr.valid() ? ptr.slot : 0));
  if (options_.inline_cache) {
    row.push_back(Value::Bool(false));   // cache_valid
    row.push_back(Value::Int64(0));      // cache_vn
    row.push_back(Value::Bool(false));   // cache_deleted
    for (const Column& c : schema_.columns()) {
      row.push_back(Value::Null(c.type));
    }
  }
  return row;
}

Row Mv2plEngine::MakePoolRow(const Row& logical, int64_t vn, bool deleted,
                             Rid next) const {
  Row row = logical;
  row.push_back(Value::Int64(vn));
  row.push_back(Value::Bool(deleted));
  row.push_back(Value::Int32(next.valid() ? next.page_id : kNullPage));
  row.push_back(Value::Int32(next.valid() ? next.slot : 0));
  return row;
}

Rid Mv2plEngine::MainPtr(const Row& main) const {
  const int32_t page = main[MainPtrPageCol()].AsInt32();
  if (page == kNullPage) return Rid{};
  return Rid{page, static_cast<uint16_t>(main[MainPtrSlotCol()].AsInt32())};
}

Result<std::optional<Row>> Mv2plEngine::VersionAt(const Row& main,
                                                  int64_t ts) const {
  auto logical_of = [this](const Row& row) {
    return Row(row.begin(), row.begin() + schema_.num_columns());
  };

  // Newest version lives in the main tuple.
  if (main[MainVnCol()].AsInt64() <= ts) {
    if (main[MainDeletedCol()].AsBool()) return std::optional<Row>();
    return std::optional<Row>(logical_of(main));
  }
  // BC92b: the on-page cache slot holds the previous version.
  if (options_.inline_cache && main[CacheValidCol()].AsBool() &&
      main[CacheVnCol()].AsInt64() <= ts) {
    if (main[CacheDeletedCol()].AsBool()) return std::optional<Row>();
    Row out;
    out.reserve(schema_.num_columns());
    for (size_t i = 0; i < schema_.num_columns(); ++i) {
      out.push_back(main[CacheLogicalCol(i)]);
    }
    return std::optional<Row>(std::move(out));
  }
  // Chase the version pool chain (each hop is a counted record fetch —
  // the extra reader I/O of §6).
  Rid next = MainPtr(main);
  while (next.valid()) {
    pool_version_reads_.fetch_add(1, std::memory_order_relaxed);
    Result<Row> node_or = pool_table_->GetRow(next);
    if (!node_or.ok()) return node_or.status();
    const Row& node = node_or.value();
    if (node[PoolVnCol()].AsInt64() <= ts) {
      if (node[PoolVnCol() + 1].AsBool()) return std::optional<Row>();
      return std::optional<Row>(logical_of(node));
    }
    const int32_t page = node[PoolVnCol() + 2].AsInt32();
    next = page == kNullPage
               ? Rid{}
               : Rid{page,
                     static_cast<uint16_t>(node[PoolVnCol() + 3].AsInt32())};
  }
  // No version <= ts on the chain. If the tuple was created after ts the
  // tuple is simply invisible; a garbage-collected chain is expiration.
  // Creation is detectable: an intact chain ends in the original insert.
  // After GC we cannot distinguish, so be conservative only when the
  // tuple predates ts (its oldest surviving version is newer than ts
  // because older ones were collected).
  return std::optional<Row>();
}

Result<uint64_t> Mv2plEngine::OpenReader() {
  MutexLock lock(mu_);
  const uint64_t id = next_reader_++;
  readers_[id] = committed_vn_;
  return id;
}

Status Mv2plEngine::CloseReader(uint64_t reader) {
  MutexLock lock(mu_);
  if (readers_.erase(reader) == 0) return Status::NotFound("unknown reader");
  return Status::OK();
}

Result<std::vector<Row>> Mv2plEngine::ReadAll(uint64_t reader) {
  int64_t ts;
  {
    MutexLock lock(mu_);
    auto it = readers_.find(reader);
    if (it == readers_.end()) return Status::NotFound("unknown reader");
    ts = it->second;
  }
  std::vector<Row> mains;
  WVM_RETURN_IF_ERROR(main_table_->ScanRows([&](Rid, const Row& row) {
    mains.push_back(row);
    return true;
  }));
  std::vector<Row> rows;
  for (const Row& main : mains) {
    WVM_ASSIGN_OR_RETURN(std::optional<Row> v, VersionAt(main, ts));
    if (v.has_value()) rows.push_back(std::move(*v));
  }
  return rows;
}

Result<std::optional<Row>> Mv2plEngine::ReadKey(uint64_t reader,
                                                const Row& key) {
  int64_t ts;
  Rid rid;
  {
    MutexLock lock(mu_);
    auto it = readers_.find(reader);
    if (it == readers_.end()) return Status::NotFound("unknown reader");
    ts = it->second;
    auto idx = index_.find(key);
    if (idx == index_.end()) return std::optional<Row>();
    rid = idx->second;
  }
  Result<Row> main = main_table_->GetRow(rid);
  if (!main.ok()) {
    if (main.status().code() == StatusCode::kNotFound) {
      return std::optional<Row>();
    }
    return main.status();
  }
  return VersionAt(main.value(), ts);
}

Status Mv2plEngine::BeginMaintenance() {
  MutexLock lock(mu_);
  if (writer_active_) {
    return Status::FailedPrecondition("maintenance already active");
  }
  writer_active_ = true;
  writer_vn_ = committed_vn_ + 1;
  return Status::OK();
}

Result<std::optional<Row>> Mv2plEngine::MaintReadKey(const Row& key) {
  MutexLock lock(mu_);
  if (!writer_active_) {
    return Status::FailedPrecondition("no active maintenance");
  }
  auto it = index_.find(key);
  if (it == index_.end()) return std::optional<Row>();
  WVM_ASSIGN_OR_RETURN(Row main, main_table_->GetRow(it->second));
  if (main[MainDeletedCol()].AsBool()) return std::optional<Row>();
  return std::optional<Row>(
      Row(main.begin(), main.begin() + schema_.num_columns()));
}

Result<Row> Mv2plEngine::PushVersion(Row main) {
  const int64_t vn = main[MainVnCol()].AsInt64();
  const bool deleted = main[MainDeletedCol()].AsBool();
  Row logical(main.begin(), main.begin() + schema_.num_columns());

  if (!options_.inline_cache) {
    // CFL+82: copy the current version into the pool (one extra write).
    WVM_ASSIGN_OR_RETURN(
        Rid pool_rid,
        pool_table_->InsertRow(
            MakePoolRow(logical, vn, deleted, MainPtr(main))));
    main[MainPtrPageCol()] = Value::Int32(pool_rid.page_id);
    main[MainPtrSlotCol()] = Value::Int32(pool_rid.slot);
    return main;
  }

  // BC92b: spill the old cache entry (if any) to the pool, then move the
  // current version into the cache slot.
  if (main[CacheValidCol()].AsBool()) {
    Row cached;
    cached.reserve(schema_.num_columns());
    for (size_t i = 0; i < schema_.num_columns(); ++i) {
      cached.push_back(main[CacheLogicalCol(i)]);
    }
    WVM_ASSIGN_OR_RETURN(
        Rid pool_rid,
        pool_table_->InsertRow(MakePoolRow(
            cached, main[CacheVnCol()].AsInt64(),
            main[CacheDeletedCol()].AsBool(), MainPtr(main))));
    main[MainPtrPageCol()] = Value::Int32(pool_rid.page_id);
    main[MainPtrSlotCol()] = Value::Int32(pool_rid.slot);
  }
  main[CacheValidCol()] = Value::Bool(true);
  main[CacheVnCol()] = Value::Int64(vn);
  main[CacheDeletedCol()] = Value::Bool(deleted);
  for (size_t i = 0; i < schema_.num_columns(); ++i) {
    main[CacheLogicalCol(i)] = logical[i];
  }
  return main;
}

Status Mv2plEngine::MaintInsert(const Row& row) {
  MutexLock lock(mu_);
  const Row key = schema_.KeyOf(row);
  auto it = index_.find(key);
  if (it == index_.end()) {
    WVM_ASSIGN_OR_RETURN(
        Rid rid,
        main_table_->InsertRow(MakeMainRow(row, writer_vn_, false, Rid{})));
    index_[key] = rid;
    return Status::OK();
  }
  // A deleted tuple revives in place.
  WVM_ASSIGN_OR_RETURN(Row main, main_table_->GetRow(it->second));
  if (main[MainVnCol()].AsInt64() < writer_vn_) {
    WVM_ASSIGN_OR_RETURN(main, PushVersion(std::move(main)));
  }
  for (size_t i = 0; i < schema_.num_columns(); ++i) main[i] = row[i];
  main[MainVnCol()] = Value::Int64(writer_vn_);
  main[MainDeletedCol()] = Value::Bool(false);
  return main_table_->UpdateRow(it->second, main);
}

Status Mv2plEngine::MaintUpdate(const Row& key, const Row& row) {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return Status::NotFound("no such key");
  WVM_ASSIGN_OR_RETURN(Row main, main_table_->GetRow(it->second));
  if (main[MainVnCol()].AsInt64() < writer_vn_) {
    WVM_ASSIGN_OR_RETURN(main, PushVersion(std::move(main)));
  }
  for (size_t i = 0; i < schema_.num_columns(); ++i) main[i] = row[i];
  main[MainVnCol()] = Value::Int64(writer_vn_);
  return main_table_->UpdateRow(it->second, main);
}

Status Mv2plEngine::MaintDelete(const Row& key) {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return Status::NotFound("no such key");
  WVM_ASSIGN_OR_RETURN(Row main, main_table_->GetRow(it->second));
  if (main[MainVnCol()].AsInt64() < writer_vn_) {
    WVM_ASSIGN_OR_RETURN(main, PushVersion(std::move(main)));
  }
  main[MainVnCol()] = Value::Int64(writer_vn_);
  main[MainDeletedCol()] = Value::Bool(true);
  return main_table_->UpdateRow(it->second, main);
}

Status Mv2plEngine::CommitMaintenance() {
  MutexLock lock(mu_);
  if (!writer_active_) {
    return Status::FailedPrecondition("no active maintenance");
  }
  committed_vn_ = writer_vn_;
  writer_active_ = false;
  return Status::OK();
}

Result<size_t> Mv2plEngine::CollectPoolGarbage() {
  MutexLock lock(mu_);
  int64_t min_ts = committed_vn_;
  for (const auto& [id, ts] : readers_) min_ts = std::min(min_ts, ts);

  // For each main tuple, keep chain nodes until the first one visible at
  // min_ts; everything older is unreachable by current or future readers.
  size_t reclaimed = 0;
  std::vector<std::pair<Rid, Row>> mains;
  WVM_RETURN_IF_ERROR(main_table_->ScanRows([&](Rid rid, const Row& row) {
    mains.emplace_back(rid, row);
    return true;
  }));
  for (auto& [rid, main] : mains) {
    // Find the cut point: walk the chain, stop after the first node with
    // create_vn <= min_ts.
    bool covered = main[MainVnCol()].AsInt64() <= min_ts;
    if (options_.inline_cache && !covered &&
        main[CacheValidCol()].AsBool()) {
      covered = main[CacheVnCol()].AsInt64() <= min_ts;
    }
    Rid cur = MainPtr(main);
    if (covered) {
      // The whole pool chain is unreachable.
      Row updated = main;
      updated[MainPtrPageCol()] = Value::Int32(kNullPage);
      updated[MainPtrSlotCol()] = Value::Int32(0);
      WVM_CHECK(main_table_->UpdateRow(rid, updated).ok());
      while (cur.valid()) {
        Result<Row> node = pool_table_->GetRow(cur);
        if (!node.ok()) break;
        const int32_t page = (*node)[PoolVnCol() + 2].AsInt32();
        Rid next = page == kNullPage
                       ? Rid{}
                       : Rid{page, static_cast<uint16_t>(
                                       (*node)[PoolVnCol() + 3].AsInt32())};
        WVM_CHECK(pool_table_->DeleteRow(cur).ok());
        ++reclaimed;
        cur = next;
      }
      continue;
    }
    // Walk until the first covered node, then truncate behind it.
    while (cur.valid()) {
      Result<Row> node_or = pool_table_->GetRow(cur);
      if (!node_or.ok()) break;
      Row node = std::move(node_or).value();
      const int32_t page = node[PoolVnCol() + 2].AsInt32();
      Rid next = page == kNullPage
                     ? Rid{}
                     : Rid{page, static_cast<uint16_t>(
                                     node[PoolVnCol() + 3].AsInt32())};
      if (node[PoolVnCol()].AsInt64() <= min_ts && next.valid()) {
        node[PoolVnCol() + 2] = Value::Int32(kNullPage);
        node[PoolVnCol() + 3] = Value::Int32(0);
        WVM_CHECK(pool_table_->UpdateRow(cur, node).ok());
        // Drop everything behind the cut.
        Rid drop = next;
        while (drop.valid()) {
          Result<Row> d = pool_table_->GetRow(drop);
          if (!d.ok()) break;
          const int32_t dp = (*d)[PoolVnCol() + 2].AsInt32();
          Rid dn = dp == kNullPage
                       ? Rid{}
                       : Rid{dp, static_cast<uint16_t>(
                                     (*d)[PoolVnCol() + 3].AsInt32())};
          WVM_CHECK(pool_table_->DeleteRow(drop).ok());
          ++reclaimed;
          drop = dn;
        }
        break;
      }
      cur = next;
    }
  }
  return reclaimed;
}

EngineStorageStats Mv2plEngine::StorageStats() const {
  return {main_table_->num_pages(), pool_table_->num_pages(),
          main_schema_.RowByteSize()};
}

}  // namespace wvm::baselines

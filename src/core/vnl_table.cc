#include "core/vnl_table.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>

#include "common/logging.h"
#include "common/strings.h"
#include "core/invariant_checker.h"
#include "core/rewriter.h"
#include "core/vnl_engine.h"
#include "query/eval.h"

namespace wvm::core {

VnlTable::VnlTable(std::string name, VersionedSchema vschema,
                   BufferPool* pool, SessionManager* sessions,
                   ScanMetricsSink* metrics, VnlEngine* engine)
    : name_(std::move(name)),
      vschema_(std::move(vschema)),
      phys_(std::make_unique<Table>(name_, vschema_.physical(), pool)),
      sessions_(sessions),
      metrics_(metrics),
      engine_(engine),
      key_codec_(vschema_.physical(), vschema_.logical().key_indices()) {
  const Schema& logical = vschema_.logical();
  std::vector<size_t> fixed;
  for (size_t i = 0; i < logical.num_columns(); ++i) {
    if (!logical.column(i).updatable) fixed.push_back(i);
  }
  fixed_codec_ = KeyCodec(vschema_.physical(), std::move(fixed));
  for (const SecondaryIndexSpec& spec : logical.secondary_indexes()) {
    secondary_codecs_.emplace_back(vschema_.physical(), spec.column_indices);
  }
  MutexLock lock(index_mu_);
  secondary_postings_.resize(secondary_codecs_.size());
}

Status VnlTable::CheckTxn(const MaintenanceTxn* txn) const {
  if (txn == nullptr || !txn->active()) {
    return Status::FailedPrecondition(
        "operation requires an active maintenance transaction");
  }
  return Status::OK();
}

std::optional<Rid> VnlTable::IndexLookup(std::string_view key) const {
  MutexLock lock(index_mu_);
  auto it = key_index_.find(key);
  if (it == key_index_.end()) return std::nullopt;
  return it->second;
}

void VnlTable::IndexTuple(const uint8_t* rec, Rid rid, bool add) {
  const bool has_key = vschema_.logical().has_unique_key();
  if (!has_key && secondary_codecs_.empty()) return;
  std::string key;
  MutexLock lock(index_mu_);
  if (has_key) {
    key_codec_.FromRecord(rec, &key);
    if (add) {
      key_index_[key] = rid;
    } else if (auto it = key_index_.find(key);
               it != key_index_.end() && it->second == rid) {
      // Erase only our own entry: a stale duplicate must never knock out
      // a live tuple's mapping.
      key_index_.erase(it);
    }
  }
  for (size_t s = 0; s < secondary_codecs_.size(); ++s) {
    secondary_codecs_[s].FromRecord(rec, &key);
    MovePosting(s, key, rid, add);
  }
}

void VnlTable::MovePosting(size_t s, const std::string& key, Rid rid,
                           bool add) {
  KeyMap<std::vector<Rid>>& postings = secondary_postings_[s];
  if (add) {
    postings[key].push_back(rid);
    return;
  }
  auto it = postings.find(key);
  if (it == postings.end()) return;
  std::vector<Rid>& rids = it->second;
  rids.erase(std::remove(rids.begin(), rids.end(), rid), rids.end());
  if (rids.empty()) postings.erase(it);
}

Result<Rid> VnlTable::WriteTuple(Rid rid, const uint8_t* before,
                                 const uint8_t* after) {
  // Slot 0's operation on either side, decoded before anything is written.
  bool was_deleted = false;
  bool is_deleted = false;
  if (before != nullptr) {
    WVM_ASSIGN_OR_RETURN(Op op, vschema_.RawOperation(before, 0));
    was_deleted = op == Op::kDelete;
  }
  if (after != nullptr) {
    WVM_ASSIGN_OR_RETURN(Op op, vschema_.RawOperation(after, 0));
    is_deleted = op == Op::kDelete;
  }
  TableHeap* heap = phys_->heap();
  if (before == nullptr) {
    WVM_ASSIGN_OR_RETURN(rid, heap->Insert(after));
    IndexTuple(after, rid, /*add=*/true);
  } else if (after == nullptr) {
    IndexTuple(before, rid, /*add=*/false);
    const Status deleted = heap->Delete(rid);
    if (!deleted.ok()) {
      IndexTuple(before, rid, /*add=*/true);
      return deleted;
    }
  } else {
    WVM_PARANOID_ASSERT_OK(CheckNonUpdatablesKept(vschema_, before, after));
    WVM_RETURN_IF_ERROR(heap->Update(rid, after));
  }
  if (is_deleted || was_deleted) {
    MutexLock lock(tomb_mu_);
    if (is_deleted) {
      tombstones_[rid] = vschema_.RawTupleVn(after, 0);
    } else {
      tombstones_.erase(rid);
    }
  }
  return rid;
}

Status VnlTable::ApplyDecision(MaintenanceTxn* txn,
                               const MaintenanceDecision& d, Target* target,
                               const NetEffect& effect) {
  // The cell edits a copy, so the write sees both records: in the room
  // FetchTarget left after the fetched record, or, for Table 2's
  // no-conflict row, in a fresh record whose older version slots are empty
  // (the cell writes all of slot 0).
  const size_t size = phys_->heap()->record_size();
  std::vector<uint8_t> fresh;
  uint8_t* rec;
  if (target != nullptr) {
    rec = target->rec.data() + size;
    std::memcpy(rec, target->rec.data(), size);
  } else {
    fresh.resize(size);
    rec = fresh.data();
    for (int slot = 1; slot < vschema_.num_slots(); ++slot) {
      vschema_.ClearSlot(rec, slot);
    }
  }
  // Order matters: preserve the old version (push back / PV <- CV) before
  // overwriting the current values.
  if (d.push_back) vschema_.PushBack(rec);
  if (d.pv_from_cv) vschema_.CopyCurrentToPre(rec, 0);
  if (d.pv_null) vschema_.SetPreNull(rec, 0);
  if (d.cv_from_mv && effect.kind == NetEffect::Kind::kInsert) {
    vschema_.SetCurrent(rec, effect.row);
    // Table 2's one allowed conflict, a re-insert over a logically deleted
    // tuple, keeps its non-updatable attributes (§3.1), for every n.
    if (target != nullptr) {
      WVM_RETURN_IF_ERROR(CheckReviveKeepsFixed(target->rec.data(), rec));
    }
  } else if (d.cv_from_mv) {
    // Logical column i is physical column i.
    for (const ColumnEdit& e : effect.edits) {
      SerializeColumn(vschema_.physical(), e.value, e.column, rec);
    }
  }
  if (d.set_tuple_vn) {
    WVM_CHECK(d.new_op.has_value());
    vschema_.SetSlot(rec, 0, txn->vn(), *d.new_op);
  } else if (d.new_op.has_value()) {
    vschema_.SetSlot(rec, 0, vschema_.RawTupleVn(rec, 0), *d.new_op);
  }
  if (d.pop_slot) vschema_.PushForward(rec);
  const bool deletes = d.action == PhysicalAction::kDeleteTuple;

#ifdef WVM_PARANOID_CHECKS
  {
    std::optional<TupleVersionState> paranoid_before;
    std::optional<TupleVersionState> paranoid_after;
    if (target != nullptr) paranoid_before = target->state;
    if (!deletes) {
      Result<TupleVersionState> after = StateOf(rec);
      WVM_PARANOID_ASSERT_OK(after.status());
      paranoid_after = after.value();
    }
    WVM_PARANOID_ASSERT_OK(
        CheckTupleTransition(txn->vn(), paranoid_before, paranoid_after));
  }
#endif

  WVM_RETURN_IF_ERROR(
      WriteTuple(target != nullptr ? target->rid : Rid{},
                 target != nullptr ? target->rec.data() : nullptr,
                 deletes ? nullptr : rec)
          .status());
  ++(target == nullptr ? txn->stats_.physical_inserts
     : deletes          ? txn->stats_.physical_deletes
                        : txn->stats_.physical_updates);
  return Status::OK();
}

Result<TupleVersionState> VnlTable::StateOf(const uint8_t* rec) const {
  WVM_ASSIGN_OR_RETURN(Op op, vschema_.RawOperation(rec, 0));
  return TupleVersionState{vschema_.RawTupleVn(rec, 0), op,
                           vschema_.n() > 2 && !vschema_.RawSlotEmpty(rec, 1)};
}

Status VnlTable::CheckReviveKeepsFixed(const uint8_t* before,
                                       const uint8_t* after) const {
  const size_t changed = fixed_codec_.Mismatch(before, after);
  if (changed == fixed_codec_.columns().size()) return Status::OK();
  return Status::InvalidArgument(
      "row changes non-updatable attribute '" +
      vschema_.logical().column(fixed_codec_.columns()[changed]).name +
      "', fixed when its tuple was inserted");
}

Result<VnlTable::Target> VnlTable::FetchTarget(MaintenanceTxn* txn,
                                               Rid rid) const {
  Target target{rid, std::vector<uint8_t>(2 * phys_->heap()->record_size()),
                {}};
  WVM_RETURN_IF_ERROR(phys_->heap()->Read(rid, target.rec.data()));
  ++txn->stats_.page_pins;
  WVM_ASSIGN_OR_RETURN(target.state, StateOf(target.rec.data()));
  return target;
}

Status VnlTable::ApplyEffect(MaintenanceTxn* txn,
                             std::optional<std::string_view> key,
                             const NetEffect& effect,
                             std::optional<Target> target) {
  // Updates and deletes address only tuples the maintenance cursor would
  // see: present and not a logically deleted corpse.
  const bool visible =
      target.has_value() && target->state.op != Op::kDelete;
  WVM_RETURN_IF_ERROR(
      CheckNetEffect(vschema_.logical(), key_codec_, key, visible, effect));
  MaintenanceDecision d;
  size_t* applied = nullptr;
  switch (effect.kind) {
    case NetEffect::Kind::kNone:
      return Status::OK();
    case NetEffect::Kind::kInsert: {
      std::optional<TupleVersionState> existing;
      if (target.has_value()) existing = target->state;
      WVM_ASSIGN_OR_RETURN(d, DecideInsert(txn->vn(), existing));
      applied = &txn->stats_.logical_inserts;
      break;
    }
    case NetEffect::Kind::kUpdate: {
      WVM_ASSIGN_OR_RETURN(d, DecideUpdate(txn->vn(), target->state));
      applied = &txn->stats_.logical_updates;
      break;
    }
    case NetEffect::Kind::kDelete: {
      WVM_ASSIGN_OR_RETURN(d, DecideDelete(txn->vn(), target->state));
      applied = &txn->stats_.logical_deletes;
      break;
    }
  }
  WVM_RETURN_IF_ERROR(
      ApplyDecision(txn, d, target ? &*target : nullptr, effect));
  ++*applied;
  return Status::OK();
}

Result<NetEffect::Kind> VnlTable::ApplyKey(MaintenanceTxn* txn,
                                           std::string_view key,
                                           const KeyDecider& decide) {
  if (!vschema_.logical().has_unique_key()) {
    return Status::FailedPrecondition("table has no unique key");
  }
  std::optional<Rid> rid = IndexLookup(key);
  ++txn->stats_.index_probes;
  std::optional<Target> target;
  if (rid.has_value()) {
    WVM_ASSIGN_OR_RETURN(target, FetchTarget(txn, *rid));
  }
  // The decider sees the current logical row, or nullopt for absent keys
  // and corpses.
  std::optional<Row> current;
  if (target.has_value() && target->state.op != Op::kDelete) {
    current = vschema_.RawCurrentLogical(target->rec.data());
  }
  WVM_ASSIGN_OR_RETURN(NetEffect effect, decide(current));
  WVM_RETURN_IF_ERROR(ApplyEffect(txn, key, effect, std::move(target)));
  return effect.kind;
}

Status VnlTable::Insert(MaintenanceTxn* txn, const Row& logical_row) {
  WVM_RETURN_IF_ERROR(CheckTxn(txn));
  const Schema& logical = vschema_.logical();
  if (!logical.has_unique_key()) {
    // No key can conflict: always Table 2 line 3.
    return ApplyEffect(txn, std::nullopt, NetEffect::Insert(logical_row),
                       std::nullopt);
  }
  WVM_RETURN_IF_ERROR(logical.ValidateRow(logical_row));
  std::string key;
  key_codec_.FromValues(logical_row, &key, /*whole_row=*/true);
  return ApplyKey(txn, key,
                  [&logical_row](const std::optional<Row>&)
                      -> Result<NetEffect> {
                    return NetEffect::Insert(logical_row);
                  })
      .status();
}

Result<size_t> VnlTable::Update(MaintenanceTxn* txn,
                                const sql::UpdateStmt& stmt,
                                const query::ParamMap& params) {
  WVM_RETURN_IF_ERROR(CheckTxn(txn));
  const Schema& logical = vschema_.logical();
  // SET binds first; each target must be an updatable column (§3.1).
  SetList sets;
  for (const auto& [name, expr] : stmt.sets) {
    WVM_ASSIGN_OR_RETURN(size_t col, logical.IndexOf(name));
    if (!logical.column(col).updatable) {
      return Status::InvalidArgument(
          StrPrintf("UPDATE sets non-updatable column '%s' (§3.1)",
                    logical.column(col).name.c_str()));
    }
    sets.emplace_back(col, query::BoundExpr::Bind(*expr, logical, params));
  }
  return RunCursor(txn, stmt.where.get(), params, &sets);
}

Result<size_t> VnlTable::Delete(MaintenanceTxn* txn,
                                const sql::DeleteStmt& stmt,
                                const query::ParamMap& params) {
  WVM_RETURN_IF_ERROR(CheckTxn(txn));
  return RunCursor(txn, stmt.where.get(), params, nullptr);
}

Result<BatchApplyStats> VnlTable::ApplyBatch(
    MaintenanceTxn* txn, const std::vector<BatchKeyOp>& ops) {
  WVM_RETURN_IF_ERROR(CheckTxn(txn));
  const size_t probes_before = txn->stats_.index_probes;
  const size_t pins_before = txn->stats_.page_pins;
  BatchApplyStats out;
  std::string key;  // reused, so a probe allocates nothing
  for (const BatchKeyOp& op : ops) {
    key_codec_.FromValues(op.key, &key);
    WVM_ASSIGN_OR_RETURN(NetEffect::Kind applied,
                         ApplyKey(txn, key, op.decide));
    ++out.keys;
    switch (applied) {
      case NetEffect::Kind::kNone:
        ++out.noops;
        break;
      case NetEffect::Kind::kInsert:
        ++out.inserts;
        break;
      case NetEffect::Kind::kUpdate:
        ++out.updates;
        break;
      case NetEffect::Kind::kDelete:
        ++out.deletes;
        break;
    }
  }
  out.index_probes = txn->stats_.index_probes - probes_before;
  out.page_pins = txn->stats_.page_pins - pins_before;
  return out;
}

namespace {

// The logical columns a projection mask keeps (every column when it is
// empty).
std::vector<size_t> ProjectedColumns(const VersionedSchema& vs,
                                     const std::vector<bool>& projection) {
  if (projection.empty()) return vs.logical_columns();
  std::vector<size_t> columns;
  for (size_t i = 0; i < projection.size(); ++i) {
    if (projection[i]) columns.push_back(i);
  }
  return columns;
}

// Declared attribute bytes of logical columns `columns`: what copying
// them costs.
uint64_t AttributeBytes(const Schema& logical,
                        const std::vector<size_t>& columns) {
  uint64_t bytes = 0;
  for (size_t i : columns) bytes += logical.column(i).width;
  return bytes;
}

}  // namespace

// The Table-1 reader step: all per-tuple read logic, on record bytes. One
// instance serves one read: a session's snapshot, or the maintenance
// cursor at maintenanceVN (Table 1's first row: each tuple's latest).
class VnlTable::ReaderStep {
 public:
  // `invariant` and `reconstructed` are the pushed-down WHERE conjuncts,
  // bound once for the read; they must outlive the step. `key_cols` are
  // the logical GROUP BY columns (none: the read makes no keys).
  // `maintenance` marks the maintenance cursor: it publishes nothing,
  // counts probes and fetches there, and yields Rids (cursor()), not rows.
  ReaderStep(const VersionedSchema& vs, Vn session_vn,
             const std::vector<query::BoundExpr>& invariant,
             const std::vector<query::BoundExpr>& reconstructed,
             const std::vector<bool>& projection,
             const std::vector<size_t>& key_cols,
             MaintenanceTxn::Stats* maintenance = nullptr)
      : vs_(vs),
        session_vn_(session_vn),
        maintenance_(maintenance),
        invariant_(invariant),
        reconstructed_(reconstructed),
        projection_(ProjectedColumns(vs, projection)),
        row_bytes_(AttributeBytes(vs.logical(), projection_)),
        key_bytes_(AttributeBytes(vs.logical(), key_cols)) {
    // One codec per version a tuple can resolve to, current first: a key
    // over an updatable column reads that version's copy of it.
    for (int slot = -1; !key_cols.empty() && slot < vs.num_slots(); ++slot) {
      key_codecs_.emplace_back(vs.physical(),
                               vs.VersionColumns(key_cols, slot));
    }
  }

  // An unfiltered read of every column.
  ReaderStep(const VersionedSchema& vs, Vn session_vn)
      : ReaderStep(vs, session_vn, kNoConjuncts, kNoConjuncts, {}, {}) {}

  // Runs one physical record through Table 1 and the pushed-down WHERE.
  // True when a row survives, filled into *out in place; false when the
  // tuple is invisible or filtered out, or when the read failed (status()
  // is then non-OK and the source must stop). A source passes the same
  // *out for every record of a read: its NULL placeholders are written on
  // first use, and each surviving tuple overwrites only the projected
  // columns.
  bool Visit(const uint8_t* rec, Row* out) {
    ++scanned_;
    // Table-1 classification happens before any filtering, so expiration
    // semantics are identical to an unfiltered scan: a too-old session
    // fails even when the offending tuple would have been filtered out.
    const VersionResolution res = ResolveVersionRaw(vs_, rec, session_vn_);
    WVM_PARANOID_ASSERT_OK(
        CheckReaderResolutionRaw(vs_, rec, session_vn_, res));
    // Single-writer cross-check: the maintenance cursor resolves every
    // tuple to its current version unless one carries a later VN.
    if (res.slot >= 0 && maintenance_ != nullptr) {
      return Fail(Status::Internal(StrPrintf(
          "tuple stamped with future VN %lld > maintenance VN %lld: "
          "single-writer protocol violated",
          static_cast<long long>(vs_.RawTupleVn(rec, 0)),
          static_cast<long long>(session_vn_))));
    }
    switch (res.outcome) {
      case ReadOutcome::kIgnore:
        ++counts_.ignored;
        return false;
      case ReadOutcome::kExpired:
        return Fail(Status::SessionExpired(StrPrintf(
            "session at VN %lld hit a tuple modified more than %d "
            "maintenance transactions ago",
            static_cast<long long>(session_vn_), vs_.n() - 1)));
      case ReadOutcome::kRow:
        break;
    }
    ++(res.slot < 0 ? counts_.current_reads : counts_.pre_update_reads);
    // Version-invariant conjuncts, in WHERE order. Their columns hold the
    // same value in every version, so one that does not run on the record
    // bytes evaluates on the current logical row, decoded at most once per
    // tuple and only when one is reached; a rejected tuple is never
    // materialized.
    bool decoded = false;
    for (const query::BoundExpr& c : invariant_) {
      bool keep;
      if (c.on_record()) {
        keep = c.TestRecord(rec);
      } else {
        if (!decoded) {
          if (current_.empty()) current_ = LogicalPlaceholders(vs_);
          MaterializeVersionRawInto(vs_, rec, {ReadOutcome::kRow, -1},
                                    vs_.logical_columns(), &current_);
          decoded = true;
        }
        Result<bool> r = c.Test(current_);
        if (!r.ok()) return Fail(r.status());
        keep = r.value();
      }
      if (!keep) {
        ++filtered_;
        return false;
      }
    }
    if (out->empty()) *out = LogicalPlaceholders(vs_);
    MaterializeVersionRawInto(vs_, rec, res, projection_, out);
    ++reconstructed_rows_;
    for (const query::BoundExpr& c : reconstructed_) {
      Result<bool> keep = c.Test(*out);
      if (!keep.ok()) return Fail(keep.status());
      // Post-materialization rejections are not "filtered" — the copy was
      // already paid; they show up as reconstructed - emitted.
      if (!keep.value()) return false;
    }
    if (!key_codecs_.empty()) {
      key_codecs_[res.slot + 1].FromRecord(rec, &key_);
      ++keys_made_;
    }
    return true;
  }

  // The GROUP BY key bytes of the row Visit last let through (empty when
  // the read makes no keys).
  std::string_view key() const { return key_; }
  // The maintenance cursor's Rids, in source order (null: a snapshot read).
  std::vector<Rid>* cursor() {
    return maintenance_ != nullptr ? &cursor_ : nullptr;
  }

  Vn session_vn() const { return session_vn_; }
  MaintenanceTxn::Stats* maintenance() const { return maintenance_; }

  // Stops the read with `st` (also a source's heap-read failure). Always
  // false, so Visit can return it.
  bool Fail(Status st) {
    status_ = std::move(st);
    return false;
  }
  const Status& status() const { return status_; }

  // Reports a snapshot read once: `emitted` rows reached the sink.
  void Publish(ScanMetricsSink* metrics, SnapshotScanStats* stats,
               uint64_t emitted) const {
    if (maintenance_ != nullptr) return;
    if (stats != nullptr) {
      stats->current_reads += counts_.current_reads;
      stats->pre_update_reads += counts_.pre_update_reads;
      stats->ignored += counts_.ignored;
    }
    if (metrics != nullptr) {
      metrics->RecordScan(
          scanned_, reconstructed_rows_, filtered_, emitted,
          reconstructed_rows_ * row_bytes_ + keys_made_ * key_bytes_);
    }
  }

 private:
  static inline const std::vector<query::BoundExpr> kNoConjuncts;

  const VersionedSchema& vs_;
  Vn session_vn_;
  MaintenanceTxn::Stats* maintenance_;
  const std::vector<query::BoundExpr>& invariant_;
  const std::vector<query::BoundExpr>& reconstructed_;
  std::vector<size_t> projection_;  // logical columns materialized
  uint64_t row_bytes_;              // their declared widths
  uint64_t key_bytes_;              // declared widths of the GROUP BY columns
  std::vector<KeyCodec> key_codecs_;  // [slot + 1]; empty: no keys
  std::string key_;
  std::vector<Rid> cursor_;
  Row current_;  // current version, decoded for generic invariant conjuncts

  uint64_t scanned_ = 0;
  uint64_t reconstructed_rows_ = 0;
  uint64_t filtered_ = 0;
  uint64_t keys_made_ = 0;
  SnapshotScanStats counts_;
  Status status_;
};

Status VnlTable::StreamSnapshot(ReaderStep* step, const RowSink& sink,
                                SnapshotScanStats* stats) const {
  uint64_t emitted = 0;
  Row row;
  std::vector<Rid>* cursor = step->cursor();
  const Status scanned = phys_->heap()->Scan([&](Rid rid, const uint8_t* rec) {
    if (step->Visit(rec, &row)) {
      ++emitted;
      if (cursor != nullptr) {
        cursor->push_back(rid);
        return true;
      }
      return sink(row, step->key());
    }
    return step->status().ok();
  });
  if (!scanned.ok()) step->Fail(scanned);
  step->Publish(metrics_, stats, emitted);
  return step->status();
}

Status VnlTable::StreamCandidates(const std::vector<Rid>& rids,
                                  std::optional<std::string_view> key,
                                  uint64_t lookups,
                                  uint64_t scans_avoided, ReaderStep* step,
                                  const RowSink& sink,
                                  SnapshotScanStats* stats) const {
  std::vector<uint8_t> rec(phys_->heap()->record_size());
  uint64_t emitted = 0;
  Row row;
  std::vector<Rid>* cursor = step->cursor();
  for (Rid rid : rids) {
    const Status read = phys_->heap()->Read(rid, rec.data());
    // Reclaimed between probe and read: the heap pass would not see it
    // either.
    if (read.code() == StatusCode::kNotFound) continue;
    if (!read.ok()) {
      step->Fail(read);
      break;
    }
    // Slot-reuse guard: between the probe and the read, GC may reclaim the
    // tuple and an insert may recycle its Rid for a different key. A
    // record that no longer carries the probed key is, for this read,
    // simply absent.
    if (key.has_value() && !key_codec_.RecordHasKey(rec.data(), *key)) {
      continue;
    }
    if (step->Visit(rec.data(), &row)) {
      ++emitted;
      if (cursor != nullptr) {
        cursor->push_back(rid);
      } else if (!sink(row, step->key())) {
        break;
      }
    } else if (!step->status().ok()) {
      break;
    }
  }
  step->Publish(metrics_, stats, emitted);
  if (MaintenanceTxn::Stats* maintenance = step->maintenance()) {
    maintenance->index_probes += lookups;
    maintenance->page_pins += rids.size();
    return step->status();
  }
  if (stats != nullptr) {
    stats->index_lookups += lookups;
    stats->index_served_rows += emitted;
  }
  if (metrics_ != nullptr) {
    metrics_->RecordIndexRoute(lookups, emitted, scans_avoided);
  }
  return step->status();
}

Result<std::optional<Row>> VnlTable::SnapshotLookup(
    const ReaderSession& session, const Row& key,
    SnapshotScanStats* stats) const {
  if (!vschema_.logical().has_unique_key()) {
    return Status::FailedPrecondition("table has no unique key");
  }
  // An over-width probe string is truncated the way an insert stores it.
  std::string probe;
  key_codec_.FromValues(key, &probe);
  std::vector<Rid> candidates;
  if (std::optional<Rid> rid = IndexLookup(probe)) candidates.push_back(*rid);
  ReaderStep step(vschema_, session.session_vn);
  std::optional<Row> found;
  WVM_RETURN_IF_ERROR(StreamCandidates(
      candidates, probe, /*lookups=*/1, /*scans_avoided=*/0, &step,
      [&found](const Row& row, std::string_view) {
        found = row;
        return false;
      },
      stats));
  return found;
}

Result<query::QueryResult> VnlTable::SnapshotSelect(
    const ReaderSession& session, const sql::SelectStmt& stmt,
    const query::ParamMap& params, SnapshotScanStats* stats) const {
  const Schema& logical = vschema_.logical();
  // WHERE conjuncts the scan absorbs, bound once and split by pushdown
  // eligibility: `invariant` conjuncts touch only non-updatable logical
  // columns (same value in every version — evaluable pre-reconstruction
  // on the record); `reconstructed` conjuncts touch updatable columns and
  // must wait for the version's logical row. Conjuncts naming anything
  // outside the logical schema, or containing aggregates, stay in the
  // executor's residual WHERE. Both lists keep WHERE order.
  std::vector<query::BoundExpr> invariant;
  std::vector<query::BoundExpr> reconstructed;
  query::PushdownSource source;
  source.absorb = [&](const sql::Expr& conjunct) {
    query::BoundExpr bound = query::BoundExpr::Bind(
        conjunct, logical, params, &vschema_.physical());
    if (!bound.resolved() || bound.has_aggregate()) return false;
    (bound.touches_updatable() ? reconstructed : invariant)
        .push_back(std::move(bound));
    return true;
  };
  std::vector<bool> projection;
  std::vector<size_t> key_cols;
  source.project = [&](const std::vector<bool>& needed) {
    projection = needed;
    if (projection.empty()) return;
    // The scan evaluates the absorbed `reconstructed` conjuncts on the
    // materialized row itself, so their columns must survive projection
    // even when the SELECT list never mentions them. (`invariant`
    // conjuncts run before materialization and need nothing kept.)
    for (const query::BoundExpr& c : reconstructed) c.MarkColumns(&projection);
  };
  source.group = [&](const std::vector<size_t>& cols) { key_cols = cols; };
  source.scan = [&](const RowSink& sink) {
    ReaderStep step(vschema_, session.session_vn, invariant, reconstructed,
                    projection, key_cols);
    return Stream(&step, invariant, sink, stats);
  };
  return query::ExecuteSelect(stmt, logical, source, params);
}

Result<size_t> VnlTable::RunCursor(MaintenanceTxn* txn,
                                   const sql::Expr* where,
                                   const query::ParamMap& params,
                                   const SetList* sets) {
  const Schema& logical = vschema_.logical();
  // The whole WHERE is the read's, split as SnapshotSelect splits what it
  // absorbs; only the columns `reconstructed` conjuncts read are decoded.
  std::vector<query::BoundExpr> invariant;
  std::vector<query::BoundExpr> reconstructed;
  if (where != nullptr) {
    std::vector<const sql::Expr*> conjuncts;
    sql::CollectConjuncts(*where, &conjuncts);
    for (const sql::Expr* c : conjuncts) {
      query::BoundExpr bound =
          query::BoundExpr::Bind(*c, logical, params, &vschema_.physical());
      (bound.touches_updatable() ? reconstructed : invariant)
          .push_back(std::move(bound));
    }
  }
  std::vector<bool> projection(logical.num_columns(), false);
  for (const query::BoundExpr& c : reconstructed) c.MarkColumns(&projection);
  ReaderStep step(vschema_, txn->vn(), invariant, reconstructed, projection,
                  {}, &txn->stats_);
  WVM_RETURN_IF_ERROR(Stream(
      &step, invariant, [](const Row&, std::string_view) { return true; },
      nullptr));
  const std::vector<Rid> cursor = std::move(*step.cursor());

  // Deferred fetch: the cursor holds Rids only; each tuple is read when it
  // is written, and SET sees its current values of the columns it reads.
  static const SetList kNoSets;  // a DELETE
  const SetList& set_list = sets != nullptr ? *sets : kNoSets;
  std::vector<bool> reads(logical.num_columns(), false);
  for (const auto& [col, expr] : set_list) expr.MarkColumns(&reads);
  const std::vector<size_t> read_cols = ProjectedColumns(vschema_, reads);
  Row current = LogicalPlaceholders(vschema_);
  NetEffect effect = sets ? NetEffect::Update({}) : NetEffect::Delete();
  Value scratch;
  for (Rid rid : cursor) {
    WVM_ASSIGN_OR_RETURN(Target target, FetchTarget(txn, rid));
    MaterializeVersionRawInto(vschema_, target.rec.data(),
                              {ReadOutcome::kRow, -1}, read_cols, &current);
    effect.edits.clear();
    for (const auto& [col, expr] : set_list) {
      WVM_ASSIGN_OR_RETURN(const Value* v, expr.Eval(current, &scratch));
      WVM_ASSIGN_OR_RETURN(Value value,
                           query::CoerceToColumn(logical.column(col), *v));
      effect.edits.push_back({col, std::move(value)});
    }
    WVM_RETURN_IF_ERROR(
        ApplyEffect(txn, std::nullopt, effect, std::move(target)));
  }
  return cursor.size();
}

Status VnlTable::Stream(ReaderStep* step,
                        const std::vector<query::BoundExpr>& invariant,
                        const RowSink& sink, SnapshotScanStats* stats) const {
  if (engine_ == nullptr || !engine_->scan_options().index_routing) {
    return StreamSnapshot(step, sink, stats);
  }
  const Schema& logical = vschema_.logical();
  // Eligibility is the §4.1 version window itself (gap <= n-1, one less
  // while maintenance is active): inside it no tuple the session can meet
  // resolves kExpired, so skipping unprobed tuples cannot change the
  // read's status. Peek() reads the window under the Version relation's
  // latch without fetching its page. The maintenance transaction reads
  // the latest versions, which never expire.
  if (step->maintenance() == nullptr &&
      !engine_->version_relation()->Peek().Admits(step->session_vn(),
                                                  vschema_.n())) {
    return StreamSnapshot(step, sink, stats);
  }
  // The heap pass evaluates invariant conjuncts in WHERE order on every
  // visible tuple, so one that can fail to evaluate raises its error on
  // tuples a later binding conjunct would reject — tuples the index never
  // fetches. Such reads take the heap pass too.
  bool may_fail = false;
  for (const query::BoundExpr& c : invariant) {
    if (may_fail && c.key_column().has_value()) {
      return StreamSnapshot(step, sink, stats);
    }
    may_fail = may_fail || c.can_fail();
  }

  // Bindings are access-path hints only: every absorbed conjunct is
  // re-evaluated on each candidate, so a superset of the matching keys is
  // safe. The unique key wins over secondary indexes (at most one
  // candidate per bound key).
  std::optional<std::vector<std::string>> keys;
  size_t secondary = secondary_codecs_.size();  // none: the unique key
  if (logical.has_unique_key()) keys = BindIndexKeys(invariant, key_codec_);
  for (size_t s = 0; s < secondary_codecs_.size() && !keys.has_value(); ++s) {
    keys = BindIndexKeys(invariant, secondary_codecs_[s]);
    secondary = s;
  }
  if (!keys.has_value()) return StreamSnapshot(step, sink, stats);
  std::vector<Rid> candidates;
  {
    MutexLock lock(index_mu_);
    for (const std::string& k : *keys) {
      if (secondary == secondary_codecs_.size()) {
        auto it = key_index_.find(k);
        if (it != key_index_.end()) candidates.push_back(it->second);
        continue;
      }
      auto it = secondary_postings_[secondary].find(k);
      if (it == secondary_postings_[secondary].end()) continue;
      candidates.insert(candidates.end(), it->second.begin(),
                        it->second.end());
    }
  }

  // Emit in heap order so the routed stream is byte-identical to the
  // heap pass's. A heap appends pages in allocation order and page ids
  // only grow, so Rid order is heap order.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return StreamCandidates(candidates, /*key=*/std::nullopt, keys->size(),
                          /*scans_avoided=*/1, step, sink, stats);
}

Result<bool> VnlTable::RollbackTxn(Vn txn_vn, Vn current_vn) {
  bool lossless = true;
  TableHeap* heap = phys_->heap();
  const size_t size = heap->record_size();
  // Copy the victims' records out first; reverts mutate the heap.
  std::vector<Rid> rids;
  std::vector<uint8_t> recs;
  WVM_RETURN_IF_ERROR(heap->Scan([&](Rid rid, const uint8_t* rec) {
    if (vschema_.RawTupleVn(rec, 0) == txn_vn) {
      rids.push_back(rid);
      recs.insert(recs.end(), rec, rec + size);
    }
    return true;
  }));

  std::vector<uint8_t> rec(size);  // the reverted record
  for (size_t v = 0; v < rids.size(); ++v) {
    const uint8_t* before = recs.data() + v * size;
    std::memcpy(rec.data(), before, size);
    WVM_ASSIGN_OR_RETURN(Op op, vschema_.RawOperation(before, 0));
    const bool has_history =
        vschema_.n() > 2 && !vschema_.RawSlotEmpty(before, 1);
    bool removed = false;
    if (op == Op::kInsert) {
      if (has_history) {
        // The insert pushed older versions back; popping the slot restores
        // them exactly (its non-updatable attributes were the corpse's).
        vschema_.PushForward(rec.data());
      } else {
        // A 2VNL insert over a logically deleted key destroyed the
        // pre-delete values; older sessions cannot be reconstructed.
        // A genuinely fresh insert is lossless, but the two cases are
        // indistinguishable without a log, so stay conservative.
        removed = true;
        lossless = false;
      }
    } else {
      // Restore the current values from the saved pre-update values.
      if (op == Op::kUpdate) vschema_.CopyPreToCurrent(rec.data(), 0);
      // (op == delete: current values were never overwritten.)
      if (has_history) {
        vschema_.PushForward(rec.data());  // slot 0 restored from slot 1
      } else {
        // The pre-transaction {tupleVN, operation, PV} are unrecoverable
        // in 2VNL; stamp the tuple as of current_vn. Sessions at
        // current_vn read the (correct) current values; older sessions
        // must expire.
        vschema_.SetSlot(rec.data(), 0, current_vn, Op::kUpdate);
        vschema_.CopyCurrentToPre(rec.data(), 0);
        lossless = false;
      }
    }
    WVM_RETURN_IF_ERROR(
        WriteTuple(rids[v], before, removed ? nullptr : rec.data()).status());
  }
  return lossless;
}

size_t VnlTable::tombstone_count() const {
  MutexLock lock(tomb_mu_);
  return tombstones_.size();
}

Result<size_t> VnlTable::CollectGarbage(Vn current_vn,
                                        Vn min_active_session_vn) {
  // A logically deleted tuple is reclaimable once every session that could
  // still see any of its versions is gone: active sessions all have
  // sessionVN >= tupleVN (so they ignore it), and new sessions start at
  // currentVN >= tupleVN. Only tombstoned tuples can qualify.
  std::vector<Rid> victims;
  {
    MutexLock lock(tomb_mu_);
    for (const auto& [rid, vn] : tombstones_) {
      if (vn <= current_vn && min_active_session_vn >= vn) {
        victims.push_back(rid);
      }
    }
  }
#ifdef WVM_PARANOID_CHECKS
  {
    // The oracle re-derives the victims with the full-heap rule. A heap
    // the pool cannot serve is GC's error to report; a differing set is a
    // broken tombstone invariant.
    const Status oracle = CheckGcVictims(vschema_, *phys_, current_vn,
                                         min_active_session_vn, victims);
    if (oracle.code() == StatusCode::kInternal) {
      WVM_PARANOID_ASSERT_OK(oracle);
    }
    WVM_RETURN_IF_ERROR(oracle);
  }
#endif
  // GC runs under the engine mutex (no concurrent maintenance), so an
  // index probe sees either a victim's entries plus its live heap slot, or
  // neither — never an entry whose slot has been reused. A failed delete
  // keeps the corpse, its entries and its tombstone.
  TableHeap* heap = phys_->heap();
  std::vector<uint8_t> rec(heap->record_size());
  for (Rid rid : victims) {
    WVM_RETURN_IF_ERROR(heap->Read(rid, rec.data()));
    WVM_RETURN_IF_ERROR(WriteTuple(rid, rec.data(), nullptr).status());
  }
  return victims.size();
}

}  // namespace wvm::core

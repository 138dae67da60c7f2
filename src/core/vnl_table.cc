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
      secondary_specs_(vschema_.logical().secondary_indexes()) {
  MutexLock lock(index_mu_);
  secondary_postings_.resize(secondary_specs_.size());
}

Status VnlTable::CheckTxn(const MaintenanceTxn* txn) const {
  if (txn == nullptr || !txn->active()) {
    return Status::FailedPrecondition(
        "operation requires an active maintenance transaction");
  }
  return Status::OK();
}

Row VnlTable::ExtractNormalizedKey(const Row& row,
                                   const std::vector<size_t>& cols) const {
  const Schema& logical = vschema_.logical();
  Row key;
  key.reserve(cols.size());
  for (size_t c : cols) {
    key.push_back(NormalizeValueForColumn(logical.column(c), row[c]));
  }
  return key;
}

std::vector<Row> VnlTable::SecondaryKeysOf(const Row& row) const {
  std::vector<Row> keys;
  keys.reserve(secondary_specs_.size());
  for (const SecondaryIndexSpec& spec : secondary_specs_) {
    keys.push_back(ExtractNormalizedKey(row, spec.column_indices));
  }
  return keys;
}

std::optional<Rid> VnlTable::IndexLookup(const Row& key) const {
  if (!vschema_.logical().has_unique_key()) return std::nullopt;
  // Normalize through the column codec: heap rows only ever carry
  // round-tripped values, so an over-width probe string must be truncated
  // the same way to hit.
  const Row normalized = NormalizeKey(key);
  MutexLock lock(index_mu_);
  auto it = key_index_.find(normalized);
  if (it == key_index_.end()) return std::nullopt;
  return it->second;
}

void VnlTable::IndexTupleInserted(const Row& phys, Rid rid) {
  const Schema& logical = vschema_.logical();
  const bool has_key = logical.has_unique_key();
  if (!has_key && secondary_specs_.empty()) return;
  MutexLock lock(index_mu_);
  if (has_key) {
    key_index_[ExtractNormalizedKey(phys, logical.key_indices())] = rid;
  }
  for (size_t s = 0; s < secondary_specs_.size(); ++s) {
    secondary_postings_[s][ExtractNormalizedKey(
                               phys, secondary_specs_[s].column_indices)]
        .push_back(rid);
  }
}

void VnlTable::IndexTupleErased(const Row& phys, Rid rid) {
  const Schema& logical = vschema_.logical();
  const bool has_key = logical.has_unique_key();
  if (!has_key && secondary_specs_.empty()) return;
  MutexLock lock(index_mu_);
  if (has_key) {
    auto it =
        key_index_.find(ExtractNormalizedKey(phys, logical.key_indices()));
    // Erase only our own entry: a stale duplicate must never knock out a
    // live tuple's mapping.
    if (it != key_index_.end() && it->second == rid) key_index_.erase(it);
  }
  for (size_t s = 0; s < secondary_specs_.size(); ++s) {
    auto it = secondary_postings_[s].find(
        ExtractNormalizedKey(phys, secondary_specs_[s].column_indices));
    if (it == secondary_postings_[s].end()) continue;
    std::vector<Rid>& rids = it->second;
    rids.erase(std::remove(rids.begin(), rids.end(), rid), rids.end());
    if (rids.empty()) secondary_postings_[s].erase(it);
  }
}

void VnlTable::IndexTupleRevived(const std::vector<Row>& old_secondary_keys,
                                 const Row& new_phys, Rid rid) {
  if (secondary_specs_.empty()) return;
  MutexLock lock(index_mu_);
  for (size_t s = 0; s < secondary_specs_.size(); ++s) {
    Row new_key = ExtractNormalizedKey(new_phys,
                                       secondary_specs_[s].column_indices);
    if (RowEq()(old_secondary_keys[s], new_key)) continue;
    auto it = secondary_postings_[s].find(old_secondary_keys[s]);
    if (it != secondary_postings_[s].end()) {
      std::vector<Rid>& rids = it->second;
      rids.erase(std::remove(rids.begin(), rids.end(), rid), rids.end());
      if (rids.empty()) secondary_postings_[s].erase(it);
    }
    secondary_postings_[s][std::move(new_key)].push_back(rid);
  }
}

Status VnlTable::ApplyDecision(MaintenanceTxn* txn,
                               const MaintenanceDecision& d, Rid rid,
                               Row phys, const Row* mv_logical) {
  // A Table-2 re-insert over a logically deleted key executes as a
  // physical UPDATE whose SetCurrent may overwrite non-updatable columns
  // (the corpse's values are dead). This holds for both the cross-
  // transaction revive (nets to insert) and a same-transaction
  // delete-then-insert (nets to update), so the trigger is the before
  // image being logically deleted. Capture the old secondary keys before
  // the mutation steps below clobber them.
  bool revive = false;
  std::optional<Op> before_op;
  if (d.action != PhysicalAction::kInsertTuple) {
    WVM_ASSIGN_OR_RETURN(Op op, vschema_.Operation(phys, 0));
    before_op = op;
    revive = d.action == PhysicalAction::kUpdateTuple && d.cv_from_mv &&
             op == Op::kDelete;
  }
  std::vector<Row> old_secondary_keys;
  if (revive && !secondary_specs_.empty()) {
    old_secondary_keys = SecondaryKeysOf(phys);
  }
#ifdef WVM_PARANOID_CHECKS
  // For non-insert actions `phys` still holds the pre-mutation image here;
  // a fresh insert has no "before" (MakeInsertRow built `phys` from air).
  std::optional<TupleVersionState> paranoid_before;
  if (d.action != PhysicalAction::kInsertTuple) {
    Result<Op> before_op = vschema_.Operation(phys, 0);
    WVM_PARANOID_ASSERT_OK(before_op.status());
    paranoid_before = TupleVersionState{
        vschema_.TupleVn(phys, 0), before_op.value(),
        vschema_.n() > 2 && !vschema_.SlotEmpty(phys, 1)};
  }
#endif
  // Order matters: preserve the old version (push back / PV <- CV) before
  // overwriting the current values.
  if (d.push_back) vschema_.PushBack(&phys);
  if (d.pv_from_cv) vschema_.CopyCurrentToPre(&phys, 0);
  if (d.pv_null) vschema_.SetPreNull(&phys, 0);
  if (d.cv_from_mv) {
    WVM_CHECK(mv_logical != nullptr);
    vschema_.SetCurrent(&phys, *mv_logical);
  }
  if (d.set_tuple_vn) {
    WVM_CHECK(d.new_op.has_value());
    vschema_.SetSlot(&phys, 0, txn->vn(), *d.new_op);
  } else if (d.new_op.has_value()) {
    phys[vschema_.OperationIndex(0)] =
        Value::String(OpToString(*d.new_op));
  }
  // An nVNL pop undoes a same-transaction revive, so slot 0 may be the
  // corpse's delete stamp again; it is the one update whose resulting op
  // the decision does not name.
  std::optional<Op> popped_op;
  if (d.pop_slot) {
    vschema_.PushForward(&phys);
    WVM_ASSIGN_OR_RETURN(popped_op, vschema_.Operation(phys, 0));
  }

#ifdef WVM_PARANOID_CHECKS
  {
    std::optional<TupleVersionState> paranoid_after;
    if (d.action != PhysicalAction::kDeleteTuple) {
      Result<Op> after_op = vschema_.Operation(phys, 0);
      WVM_PARANOID_ASSERT_OK(after_op.status());
      paranoid_after = TupleVersionState{
          vschema_.TupleVn(phys, 0), after_op.value(),
          vschema_.n() > 2 && !vschema_.SlotEmpty(phys, 1)};
    }
    WVM_PARANOID_ASSERT_OK(
        CheckTupleTransition(txn->vn(), paranoid_before, paranoid_after));
  }
#endif

  switch (d.action) {
    case PhysicalAction::kInsertTuple: {
      WVM_ASSIGN_OR_RETURN(Rid new_rid, phys_->InsertRow(phys));
      WVM_PARANOID_ASSERT_OK(
          CheckSecondaryIndexMutation(d.action, before_op, d.new_op));
      IndexTupleInserted(phys, new_rid);
      ++txn->stats_.physical_inserts;
      return Status::OK();
    }
    case PhysicalAction::kUpdateTuple: {
      WVM_RETURN_IF_ERROR(phys_->UpdateRow(rid, phys));
      if (revive) {
        WVM_PARANOID_ASSERT_OK(
            CheckSecondaryIndexMutation(d.action, before_op, d.new_op));
        if (!secondary_specs_.empty()) {
          IndexTupleRevived(old_secondary_keys, phys, rid);
        }
      }
      // Plain in-place version updates never touch postings: indexes cover
      // only non-updatable attributes (§4.3).
      // Tombstones follow slot 0 from what the decision already says — a
      // plain update that keeps a live op costs no decode and no lookup.
      if (popped_op.has_value()) {
        if (*popped_op == Op::kDelete) {
          MarkTombstone(rid, vschema_.TupleVn(phys, 0));
        } else {
          ClearTombstone(rid);
        }
      } else if (d.new_op == Op::kDelete) {
        MarkTombstone(rid, vschema_.TupleVn(phys, 0));
      } else if (revive) {
        ClearTombstone(rid);
      }
      ++txn->stats_.physical_updates;
      return Status::OK();
    }
    case PhysicalAction::kDeleteTuple: {
      // Erase the postings before the heap slot disappears: readers that
      // probe the index either see the posting and a live slot, or
      // neither.
      WVM_PARANOID_ASSERT_OK(
          CheckSecondaryIndexMutation(d.action, before_op, d.new_op));
      IndexTupleErased(phys, rid);
      WVM_RETURN_IF_ERROR(phys_->DeleteRow(rid));
      ClearTombstone(rid);
      ++txn->stats_.physical_deletes;
      return Status::OK();
    }
  }
  WVM_UNREACHABLE("bad physical action");
}

Result<TupleVersionState> VnlTable::StateOf(const Row& phys) const {
  WVM_ASSIGN_OR_RETURN(Op op, vschema_.Operation(phys, 0));
  return TupleVersionState{vschema_.TupleVn(phys, 0), op,
                           vschema_.n() > 2 && !vschema_.SlotEmpty(phys, 1)};
}

Status VnlTable::CheckUpdatablesOnly(const Row& phys,
                                     const Row& next) const {
  const Schema& logical = vschema_.logical();
  for (size_t i = 0; i < logical.num_columns(); ++i) {
    if (!logical.column(i).updatable && !(phys[i] == next[i])) {
      return Status::InvalidArgument(
          "update changes non-updatable attribute '" +
          logical.column(i).name + "'");
    }
  }
  return Status::OK();
}

Result<VnlTable::Target> VnlTable::FetchTarget(MaintenanceTxn* txn,
                                               Rid rid) const {
  WVM_ASSIGN_OR_RETURN(Row phys, phys_->GetRow(rid));
  ++txn->stats_.page_pins;
  WVM_ASSIGN_OR_RETURN(TupleVersionState state, StateOf(phys));
  return Target{rid, std::move(phys), state};
}

Status VnlTable::InsertFresh(MaintenanceTxn* txn, const Row& logical_row) {
  // MakeInsertRow already writes slot 0 and the null PV, so the physical
  // insert carries none of the cell's bookkeeping steps.
  MaintenanceDecision fresh;
  fresh.action = PhysicalAction::kInsertTuple;
  return ApplyDecision(txn, fresh, Rid{},
                       vschema_.MakeInsertRow(logical_row, txn->vn()),
                       nullptr);
}

Status VnlTable::ApplyEffect(MaintenanceTxn* txn, const Row* key,
                             const NetEffect& effect,
                             std::optional<Target> target) {
  // Updates and deletes address only tuples the maintenance cursor would
  // see: present and not a logically deleted corpse.
  const bool visible =
      target.has_value() && target->state.op != Op::kDelete;
  const Schema& logical = vschema_.logical();
  switch (effect.kind) {
    case NetEffect::Kind::kNone:
      return Status::OK();
    case NetEffect::Kind::kInsert: {
      WVM_RETURN_IF_ERROR(logical.ValidateRow(effect.row));
      if (key != nullptr &&
          !RowEq()(ExtractNormalizedKey(effect.row, logical.key_indices()),
                   NormalizeKey(*key))) {
        return Status::InvalidArgument(
            "inserted row's key differs from the key it is applied to");
      }
      ++txn->stats_.logical_inserts;
      std::optional<TupleVersionState> existing;
      if (target.has_value()) existing = target->state;
      WVM_ASSIGN_OR_RETURN(MaintenanceDecision d,
                           DecideInsert(txn->vn(), existing));
      if (d.action == PhysicalAction::kInsertTuple) {
        return InsertFresh(txn, effect.row);
      }
      return ApplyDecision(txn, d, target->rid, std::move(target->phys),
                           &effect.row);
    }
    case NetEffect::Kind::kUpdate: {
      if (!visible) return Status::NotFound("no such key");
      WVM_RETURN_IF_ERROR(logical.ValidateRow(effect.row));
      // Non-updatable attributes (including the unique key) must not
      // change.
      WVM_RETURN_IF_ERROR(CheckUpdatablesOnly(target->phys, effect.row));
      WVM_ASSIGN_OR_RETURN(MaintenanceDecision d,
                           DecideUpdate(txn->vn(), target->state));
      ++txn->stats_.logical_updates;
      return ApplyDecision(txn, d, target->rid, std::move(target->phys),
                           &effect.row);
    }
    case NetEffect::Kind::kDelete: {
      if (!visible) return Status::NotFound("no such key");
      WVM_ASSIGN_OR_RETURN(MaintenanceDecision d,
                           DecideDelete(txn->vn(), target->state));
      ++txn->stats_.logical_deletes;
      return ApplyDecision(txn, d, target->rid, std::move(target->phys),
                           nullptr);
    }
  }
  WVM_UNREACHABLE("bad net-effect kind");
}

Result<NetEffect::Kind> VnlTable::ApplyKey(MaintenanceTxn* txn,
                                           const Row& key,
                                           const KeyDecider& decide) {
  std::optional<Rid> rid = IndexLookup(key);
  ++txn->stats_.index_probes;
  std::optional<Target> target;
  if (rid.has_value()) {
    WVM_ASSIGN_OR_RETURN(target, FetchTarget(txn, *rid));
  }
  // The decider sees what MaintenanceLookup would return: the current
  // logical row, or nullopt for absent keys and corpses.
  std::optional<Row> current;
  if (target.has_value() && target->state.op != Op::kDelete) {
    current = vschema_.CurrentLogical(target->phys);
  }
  WVM_ASSIGN_OR_RETURN(NetEffect effect, decide(current));
  WVM_RETURN_IF_ERROR(ApplyEffect(txn, &key, effect, std::move(target)));
  return effect.kind;
}

Status VnlTable::Insert(MaintenanceTxn* txn, const Row& logical_row) {
  WVM_RETURN_IF_ERROR(CheckTxn(txn));
  const Schema& logical = vschema_.logical();
  WVM_RETURN_IF_ERROR(logical.ValidateRow(logical_row));
  if (!logical.has_unique_key()) {
    // No key can conflict: always Table 2 line 3.
    ++txn->stats_.logical_inserts;
    return InsertFresh(txn, logical_row);
  }
  return ApplyKey(txn, logical.KeyOf(logical_row),
                  [&logical_row](const std::optional<Row>&)
                      -> Result<NetEffect> {
                    return NetEffect{NetEffect::Kind::kInsert, logical_row};
                  })
      .status();
}

Result<std::vector<Rid>> VnlTable::CollectCursor(
    Vn maintenance_vn, const RowPredicate& pred) const {
  std::vector<Rid> matches;
  Status status;
  const Status scanned = phys_->ScanRows([&](Rid rid, const Row& phys) {
    // Single-writer protocol cross-check: no tuple may carry a VN the
    // maintenance transaction has not reached yet.
    if (vschema_.TupleVn(phys, 0) > maintenance_vn) {
      status = Status::Internal(StrPrintf(
          "tuple stamped with future VN %lld > maintenance VN %lld: "
          "single-writer protocol violated",
          static_cast<long long>(vschema_.TupleVn(phys, 0)),
          static_cast<long long>(maintenance_vn)));
      return false;
    }
    Result<Op> op = vschema_.Operation(phys, 0);
    if (!op.ok()) {
      status = op.status();
      return false;
    }
    // The maintenance transaction reads the latest version (first row of
    // Table 1); logically deleted tuples are invisible to it.
    if (op.value() == Op::kDelete) return true;
    // The logical attributes are the prefix of the physical row, so the
    // predicate can run on it directly — no per-row projection copy.
    Result<bool> keep = pred(phys);
    if (!keep.ok()) {
      status = keep.status();
      return false;
    }
    if (keep.value()) matches.push_back(rid);
    return true;
  });
  WVM_RETURN_IF_ERROR(scanned);
  WVM_RETURN_IF_ERROR(status);
  return matches;
}

Result<size_t> VnlTable::Update(MaintenanceTxn* txn,
                                const RowPredicate& pred,
                                const RowTransform& transform) {
  WVM_RETURN_IF_ERROR(CheckTxn(txn));
  WVM_ASSIGN_OR_RETURN(std::vector<Rid> cursor,
                       CollectCursor(txn->vn(), pred));
  for (Rid rid : cursor) {
    // Deferred fetch: the cursor holds Rids only; the row is read when the
    // decision procedure actually needs it.
    WVM_ASSIGN_OR_RETURN(Target target, FetchTarget(txn, rid));
    WVM_ASSIGN_OR_RETURN(Row next,
                         transform(vschema_.CurrentLogical(target.phys)));
    WVM_RETURN_IF_ERROR(
        ApplyEffect(txn, nullptr, {NetEffect::Kind::kUpdate, std::move(next)},
                    std::move(target)));
  }
  return cursor.size();
}

Result<size_t> VnlTable::Delete(MaintenanceTxn* txn,
                                const RowPredicate& pred) {
  WVM_RETURN_IF_ERROR(CheckTxn(txn));
  WVM_ASSIGN_OR_RETURN(std::vector<Rid> cursor,
                       CollectCursor(txn->vn(), pred));
  for (Rid rid : cursor) {
    WVM_ASSIGN_OR_RETURN(Target target, FetchTarget(txn, rid));
    WVM_RETURN_IF_ERROR(ApplyEffect(
        txn, nullptr, {NetEffect::Kind::kDelete, {}}, std::move(target)));
  }
  return cursor.size();
}

Result<bool> VnlTable::UpdateByKey(MaintenanceTxn* txn, const Row& key,
                                   const RowTransform& transform) {
  WVM_RETURN_IF_ERROR(CheckTxn(txn));
  WVM_ASSIGN_OR_RETURN(
      NetEffect::Kind applied,
      ApplyKey(txn, key,
               [&transform](const std::optional<Row>& current)
                   -> Result<NetEffect> {
                 if (!current.has_value()) return NetEffect{};
                 WVM_ASSIGN_OR_RETURN(Row next, transform(*current));
                 return NetEffect{NetEffect::Kind::kUpdate, std::move(next)};
               }));
  return applied != NetEffect::Kind::kNone;
}

Result<bool> VnlTable::DeleteByKey(MaintenanceTxn* txn, const Row& key) {
  WVM_RETURN_IF_ERROR(CheckTxn(txn));
  WVM_ASSIGN_OR_RETURN(
      NetEffect::Kind applied,
      ApplyKey(txn, key,
               [](const std::optional<Row>& current) -> Result<NetEffect> {
                 if (!current.has_value()) return NetEffect{};
                 return NetEffect{NetEffect::Kind::kDelete, {}};
               }));
  return applied != NetEffect::Kind::kNone;
}

Result<BatchApplyStats> VnlTable::ApplyBatch(
    MaintenanceTxn* txn, const std::vector<BatchKeyOp>& ops) {
  WVM_RETURN_IF_ERROR(CheckTxn(txn));
  if (!vschema_.logical().has_unique_key()) {
    return Status::FailedPrecondition(
        "batched maintenance requires a unique key");
  }
  const size_t probes_before = txn->stats_.index_probes;
  const size_t pins_before = txn->stats_.page_pins;
  BatchApplyStats out;
  for (const BatchKeyOp& op : ops) {
    WVM_ASSIGN_OR_RETURN(NetEffect::Kind applied,
                         ApplyKey(txn, op.key, op.decide));
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

Result<std::optional<Row>> VnlTable::MaintenanceLookup(
    MaintenanceTxn* txn, const Row& key) const {
  WVM_RETURN_IF_ERROR(CheckTxn(txn));
  if (!vschema_.logical().has_unique_key()) {
    return Status::FailedPrecondition("table has no unique key");
  }
  std::optional<Rid> rid = IndexLookup(key);
  ++txn->stats_.index_probes;
  if (!rid.has_value()) return std::optional<Row>();
  WVM_ASSIGN_OR_RETURN(Target target, FetchTarget(txn, *rid));
  if (target.state.op == Op::kDelete) return std::optional<Row>();
  return std::optional<Row>(vschema_.CurrentLogical(target.phys));
}

Result<std::vector<Row>> VnlTable::MaintenanceRows(
    MaintenanceTxn* txn) const {
  WVM_RETURN_IF_ERROR(CheckTxn(txn));
  WVM_ASSIGN_OR_RETURN(
      std::vector<Rid> cursor,
      CollectCursor(txn->vn(), [](const Row&) { return true; }));
  std::vector<Row> rows;
  rows.reserve(cursor.size());
  for (Rid rid : cursor) {
    WVM_ASSIGN_OR_RETURN(Row phys, phys_->GetRow(rid));
    rows.push_back(vschema_.CurrentLogical(phys));
  }
  return rows;
}

Row VnlTable::NormalizeKey(const Row& key) const {
  const Schema& logical = vschema_.logical();
  Row out;
  out.reserve(key.size());
  for (size_t i = 0; i < key.size() && i < logical.key_indices().size();
       ++i) {
    out.push_back(NormalizeValueForColumn(
        logical.column(logical.key_indices()[i]), key[i]));
  }
  return out;
}

namespace {

// Logical payload bytes a projected materialization actually copies: the
// summed widths of the kept columns (everything when the mask is empty).
uint64_t ProjectedAttributeBytes(const Schema& logical,
                                 const std::vector<bool>& projection) {
  if (projection.empty()) return logical.AttributeBytes();
  uint64_t bytes = 0;
  for (size_t i = 0; i < logical.num_columns() && i < projection.size();
       ++i) {
    if (projection[i]) bytes += logical.column(i).width;
  }
  return bytes;
}

// A WHERE conjunct of the shape `column cmp literal-or-param` over a
// version-invariant int, DATE or string column, lowered to a direct
// comparison on the serialized record bytes: a rejected tuple costs one
// memcmp / integer load, no Value, no Row. Conjuncts that don't fit the
// shape (arithmetic, IS NULL, doubles, NULL operands, comparands of
// another type) stay generic, evaluated on a deserialized row with
// identical semantics.
struct CompiledPredicate {
  enum class Kind { kInt, kString };
  Kind kind = Kind::kInt;
  size_t col = 0;      // physical column index (== logical: prefix)
  size_t offset = 0;   // byte offset of the value slot in the record
  bool is_int32 = false;
  uint16_t width = 0;  // string slot width
  sql::BinaryOp op = sql::BinaryOp::kEq;
  int64_t rhs_int = 0;
  std::string rhs_str;    // zero-padded to `width`
  bool rhs_longer = false;  // literal exceeded the column width

  bool Eval(const uint8_t* rec) const {
    // SQL ternary logic: NULL cmp anything is NULL, which rejects.
    if (RecordColumnIsNull(rec, col)) return false;
    int cmp;
    if (kind == Kind::kInt) {
      int64_t v;
      if (is_int32) {
        int32_t x;
        std::memcpy(&x, rec + offset, 4);
        v = x;
      } else {
        std::memcpy(&v, rec + offset, 8);
      }
      cmp = v < rhs_int ? -1 : (v > rhs_int ? 1 : 0);
    } else {
      // Both sides are zero-padded fixed-width images, so memcmp over the
      // slot matches std::string comparison of the decoded values. A
      // literal longer than the width can only tie on the prefix, and the
      // decoded value is then strictly smaller.
      cmp = std::memcmp(rec + offset, rhs_str.data(), width);
      cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
      if (cmp == 0 && rhs_longer) cmp = -1;
    }
    switch (op) {
      case sql::BinaryOp::kEq: return cmp == 0;
      case sql::BinaryOp::kNe: return cmp != 0;
      case sql::BinaryOp::kLt: return cmp < 0;
      case sql::BinaryOp::kLe: return cmp <= 0;
      case sql::BinaryOp::kGt: return cmp > 0;
      case sql::BinaryOp::kGe: return cmp >= 0;
      default: return false;
    }
  }
};

bool IsComparisonOp(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kEq:
    case sql::BinaryOp::kNe:
    case sql::BinaryOp::kLt:
    case sql::BinaryOp::kLe:
    case sql::BinaryOp::kGt:
    case sql::BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

sql::BinaryOp MirrorOp(sql::BinaryOp op) {
  switch (op) {
    case sql::BinaryOp::kLt: return sql::BinaryOp::kGt;
    case sql::BinaryOp::kLe: return sql::BinaryOp::kGe;
    case sql::BinaryOp::kGt: return sql::BinaryOp::kLt;
    case sql::BinaryOp::kGe: return sql::BinaryOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

std::optional<CompiledPredicate> TryCompilePredicate(
    const sql::Expr& e, const Schema& logical, const Schema& physical,
    const query::ParamMap& params) {
  if (e.kind != sql::ExprKind::kBinary || !IsComparisonOp(e.binary_op)) {
    return std::nullopt;
  }
  const sql::Expr* lhs = e.child0.get();
  const sql::Expr* rhs = e.child1.get();
  sql::BinaryOp op = e.binary_op;
  auto is_const = [](const sql::Expr* x) {
    return x->kind == sql::ExprKind::kLiteral ||
           x->kind == sql::ExprKind::kParam;
  };
  if (lhs->kind != sql::ExprKind::kColumnRef || !is_const(rhs)) {
    if (rhs->kind == sql::ExprKind::kColumnRef && is_const(lhs)) {
      std::swap(lhs, rhs);
      op = MirrorOp(op);
    } else {
      return std::nullopt;
    }
  }
  Result<size_t> idx = logical.IndexOf(lhs->column);
  if (!idx.ok()) return std::nullopt;
  Value v;
  if (rhs->kind == sql::ExprKind::kLiteral) {
    v = rhs->literal;
  } else {
    auto it = params.find(rhs->param);
    if (it == params.end()) return std::nullopt;  // generic path reports it
    v = it->second;
  }
  if (v.is_null()) return std::nullopt;

  CompiledPredicate out;
  const Column& col = logical.column(idx.value());
  switch (col.type) {
    case TypeId::kInt32:
    case TypeId::kInt64:
      if (v.type() != TypeId::kInt32 && v.type() != TypeId::kInt64) {
        return std::nullopt;  // double comparand: keep CompareValues' rules
      }
      out.is_int32 = col.type == TypeId::kInt32;
      out.rhs_int = v.AsInt64();
      break;
    case TypeId::kDate:
      // The packed yyyymmdd int32 orders exactly like the date.
      if (v.type() != TypeId::kDate) return std::nullopt;
      out.is_int32 = true;
      out.rhs_int = v.AsDateRaw();
      break;
    case TypeId::kString: {
      if (v.type() != TypeId::kString) return std::nullopt;
      const std::string& s = v.AsString();
      out.kind = CompiledPredicate::Kind::kString;
      out.width = col.width;
      out.rhs_longer = s.size() > col.width;
      out.rhs_str = s.substr(0, std::min<size_t>(s.size(), col.width));
      out.rhs_str.resize(col.width, '\0');
      break;
    }
    default:
      return std::nullopt;  // bool/double: generic evaluation
  }
  out.col = idx.value();
  out.offset = physical.ColumnOffset(idx.value());
  out.op = op;
  return out;
}

}  // namespace

// The Table-1 reader step: all per-tuple read logic, on record bytes. One
// instance serves one read.
class VnlTable::ReaderStep {
 public:
  ReaderStep(const VersionedSchema& vs, Vn session_vn,
             const std::vector<const sql::Expr*>& invariant,
             std::vector<const sql::Expr*> reconstructed,
             const query::ParamMap& params, std::vector<bool> projection)
      : vs_(vs),
        session_vn_(session_vn),
        reconstructed_(std::move(reconstructed)),
        params_(params),
        projection_(std::move(projection)),
        row_bytes_(ProjectedAttributeBytes(vs.logical(), projection_)) {
    invariant_.reserve(invariant.size());
    for (const sql::Expr* e : invariant) {
      invariant_.push_back(
          {e, TryCompilePredicate(*e, vs.logical(), vs.physical(), params)});
    }
  }

  // Runs one physical record through Table 1 and the pushed-down WHERE.
  // True when a row survives (in *out); false when the tuple is invisible
  // or filtered out, or when the read failed (status() is then non-OK and
  // the source must stop).
  bool Visit(const uint8_t* rec, Row* out) {
    ++scanned_;
    // Table-1 classification happens before any filtering, so expiration
    // semantics are identical to an unfiltered scan: a too-old session
    // fails even when the offending tuple would have been filtered out.
    const VersionResolution res = ResolveVersionRaw(vs_, rec, session_vn_);
    WVM_PARANOID_ASSERT_OK(
        CheckReaderResolutionRaw(vs_, rec, session_vn_, res));
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
    // same value in every version, so a generic one evaluates on the
    // current logical row, decoded at most once per tuple and only when
    // one is reached; a rejected tuple is never materialized.
    Row current;
    for (const Conjunct& c : invariant_) {
      bool keep;
      if (c.compiled.has_value()) {
        keep = c.compiled->Eval(rec);
      } else {
        if (current.empty()) {
          current = MaterializeVersionRawProjected(
              vs_, rec, {ReadOutcome::kRow, -1}, {});
        }
        Result<bool> r =
            query::EvalPredicate(*c.expr, vs_.logical(), current, params_);
        if (!r.ok()) return Fail(r.status());
        keep = r.value();
      }
      if (!keep) {
        ++filtered_;
        return false;
      }
    }
    *out = MaterializeVersionRawProjected(vs_, rec, res, projection_);
    ++reconstructed_rows_;
    for (const sql::Expr* e : reconstructed_) {
      Result<bool> keep =
          query::EvalPredicate(*e, vs_.logical(), *out, params_);
      if (!keep.ok()) return Fail(keep.status());
      // Post-materialization rejections are not "filtered" — the copy was
      // already paid; they show up as reconstructed - emitted.
      if (!keep.value()) return false;
    }
    return true;
  }

  // Stops the read with `st` (also a source's heap-read failure). Always
  // false, so Visit can return it.
  bool Fail(Status st) {
    status_ = std::move(st);
    return false;
  }
  const Status& status() const { return status_; }

  // Whether invariant conjunct `i` is a byte comparison (which, unlike a
  // generic conjunct, never fails to evaluate).
  bool compiled(size_t i) const {
    return invariant_[i].compiled.has_value();
  }

  // Reports the read once: `emitted` rows reached the sink.
  void Publish(ScanMetricsSink* metrics, SnapshotScanStats* stats,
               uint64_t emitted) const {
    if (stats != nullptr) {
      stats->current_reads += counts_.current_reads;
      stats->pre_update_reads += counts_.pre_update_reads;
      stats->ignored += counts_.ignored;
    }
    if (metrics != nullptr) {
      metrics->RecordScan(scanned_, reconstructed_rows_, filtered_, emitted,
                          reconstructed_rows_ * row_bytes_);
    }
  }

 private:
  struct Conjunct {
    const sql::Expr* expr;
    std::optional<CompiledPredicate> compiled;
  };

  const VersionedSchema& vs_;
  Vn session_vn_;
  std::vector<Conjunct> invariant_;
  std::vector<const sql::Expr*> reconstructed_;
  const query::ParamMap& params_;
  std::vector<bool> projection_;  // empty = every logical column
  uint64_t row_bytes_;

  uint64_t scanned_ = 0;
  uint64_t reconstructed_rows_ = 0;
  uint64_t filtered_ = 0;
  SnapshotScanStats counts_;
  Status status_;
};

Status VnlTable::StreamSnapshot(ReaderStep* step, const RowSink& sink,
                                SnapshotScanStats* stats) const {
  uint64_t emitted = 0;
  Row row;
  const Status scanned = phys_->heap()->Scan([&](Rid, const uint8_t* rec) {
    if (step->Visit(rec, &row)) {
      ++emitted;
      return sink(row);
    }
    return step->status().ok();
  });
  if (!scanned.ok()) step->Fail(scanned);
  step->Publish(metrics_, stats, emitted);
  return step->status();
}

Status VnlTable::StreamCandidates(const std::vector<Rid>& rids,
                                  const Row* key, uint64_t lookups,
                                  uint64_t scans_avoided, ReaderStep* step,
                                  const RowSink& sink,
                                  SnapshotScanStats* stats) const {
  const Schema& physical = vschema_.physical();
  const std::vector<size_t>& key_cols = vschema_.logical().key_indices();
  std::vector<uint8_t> rec(phys_->heap()->record_size());
  uint64_t emitted = 0;
  Row row;
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
    if (key != nullptr) {
      bool same = key->size() == key_cols.size();
      for (size_t i = 0; same && i < key_cols.size(); ++i) {
        same = DeserializeColumn(physical, rec.data(), key_cols[i]) ==
               (*key)[i];
      }
      if (!same) continue;
    }
    if (step->Visit(rec.data(), &row)) {
      ++emitted;
      if (!sink(row)) break;
    } else if (!step->status().ok()) {
      break;
    }
  }
  step->Publish(metrics_, stats, emitted);
  if (stats != nullptr) {
    stats->index_lookups += lookups;
    stats->index_served_rows += emitted;
  }
  if (metrics_ != nullptr) {
    metrics_->RecordIndexRoute(lookups, emitted, scans_avoided);
  }
  return step->status();
}

Result<std::vector<Row>> VnlTable::SnapshotRows(
    const ReaderSession& session, SnapshotScanStats* stats) const {
  const query::ParamMap no_params;
  ReaderStep step(vschema_, session.session_vn, {}, {}, no_params, {});
  std::vector<Row> rows;
  WVM_RETURN_IF_ERROR(StreamSnapshot(
      &step,
      [&rows](const Row& row) {
        rows.push_back(row);
        return true;
      },
      stats));
  // SnapshotRows is a materializing API by contract; callers that want the
  // streaming path should use SnapshotSelect.
  if (metrics_ != nullptr) metrics_->RecordFullMaterialization();
  return rows;
}

Result<std::optional<Row>> VnlTable::SnapshotLookup(
    const ReaderSession& session, const Row& key,
    SnapshotScanStats* stats) const {
  if (!vschema_.logical().has_unique_key()) {
    return Status::FailedPrecondition("table has no unique key");
  }
  const Row probe = NormalizeKey(key);
  std::vector<Rid> candidates;
  {
    MutexLock lock(index_mu_);
    auto it = key_index_.find(probe);
    if (it != key_index_.end()) candidates.push_back(it->second);
  }
  const query::ParamMap no_params;
  ReaderStep step(vschema_, session.session_vn, {}, {}, no_params, {});
  std::optional<Row> found;
  WVM_RETURN_IF_ERROR(StreamCandidates(
      candidates, &probe, /*lookups=*/1, /*scans_avoided=*/0, &step,
      [&found](const Row& row) {
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
  // WHERE conjuncts the scan absorbs, split by pushdown eligibility:
  // `invariant` conjuncts touch only non-updatable logical columns (same
  // value in every version — evaluable pre-reconstruction on the record);
  // `reconstructed` conjuncts touch updatable columns and must wait for
  // the version's logical row. Conjuncts referencing anything outside the
  // logical schema, or containing aggregates, stay in the executor's
  // residual WHERE. Both lists keep WHERE order.
  std::vector<const sql::Expr*> invariant;
  std::vector<const sql::Expr*> reconstructed;
  query::PushdownSource source;
  source.absorb = [&](const sql::Expr& conjunct) {
    if (sql::ContainsAggregate(conjunct)) return false;
    bool pushable = true;
    bool touches_updatable = false;
    sql::ForEachColumnRef(conjunct, [&](const sql::Expr& ref) {
      Result<size_t> idx = logical.IndexOf(ref.column);
      if (!idx.ok()) {
        pushable = false;
        return;
      }
      if (logical.column(idx.value()).updatable) touches_updatable = true;
    });
    if (!pushable) return false;
    (touches_updatable ? reconstructed : invariant).push_back(&conjunct);
    return true;
  };
  std::vector<bool> projection;
  source.project = [&](const std::vector<bool>& needed) {
    projection = needed;
    if (projection.empty()) return;
    // The scan evaluates the absorbed `reconstructed` conjuncts on the
    // materialized row itself, so their columns must survive projection
    // even when the SELECT list never mentions them. (`invariant`
    // conjuncts run before materialization and need nothing kept.)
    for (const sql::Expr* e : reconstructed) {
      sql::ForEachColumnRef(*e, [&](const sql::Expr& ref) {
        Result<size_t> idx = logical.IndexOf(ref.column);
        if (idx.ok() && idx.value() < projection.size()) {
          projection[idx.value()] = true;
        }
      });
    }
  };
  source.scan = [&](const RowSink& sink) {
    const ScanOptions opts =
        engine_ != nullptr ? engine_->scan_options() : ScanOptions{};
    ReaderStep step(vschema_, session.session_vn, invariant, reconstructed,
                    params, projection);
    if (opts.index_routing) {
      Status routed;
      if (TryStreamViaIndex(session, invariant, params, &step, sink, stats,
                            &routed)) {
        return routed;
      }
    }
    return StreamSnapshot(&step, sink, stats);
  };
  return query::ExecuteSelect(stmt, logical, source, params);
}

bool VnlTable::TryStreamViaIndex(
    const ReaderSession& session,
    const std::vector<const sql::Expr*>& invariant_filter,
    const query::ParamMap& params, ReaderStep* step, const RowSink& sink,
    SnapshotScanStats* stats, Status* status) const {
  if (engine_ == nullptr) return false;
  const Schema& logical = vschema_.logical();
  // Eligibility is the §4.1 version window itself (gap <= n-1, one less
  // while maintenance is active): inside it no tuple the session can meet
  // resolves kExpired, so skipping unprobed tuples cannot change the
  // read's status. Sessions outside it take the heap pass, which decides
  // expiration on every heap tuple — including ones the WHERE rejects —
  // keeping the two paths status-identical. Peek() reads the window under
  // the Version relation's latch without fetching its page.
  if (!engine_->version_relation()->Peek().Admits(session.session_vn,
                                                  vschema_.n())) {
    return false;
  }
  // The heap pass evaluates invariant conjuncts in WHERE order on every
  // visible tuple, so one that can fail to evaluate (generic, and not a
  // binding shape) raises its error on tuples a later binding conjunct
  // would reject — tuples the index never fetches. Such reads take the
  // heap pass too.
  bool may_fail = false;
  for (size_t i = 0; i < invariant_filter.size(); ++i) {
    if (!may_fail && step->compiled(i)) continue;
    const bool binds =
        BindsIndexColumn(*invariant_filter[i], logical, params);
    if (may_fail && binds) return false;
    may_fail = !binds;
  }

  // Bindings are access-path hints only: every absorbed conjunct is
  // re-evaluated on each candidate, so a superset of the matching keys is
  // safe. The unique key wins over secondary indexes (at most one
  // candidate per bound key).
  std::vector<Rid> candidates;
  uint64_t lookups = 0;
  bool bound = false;
  if (logical.has_unique_key()) {
    std::optional<std::vector<Row>> keys = BindIndexKeys(
        invariant_filter, logical, logical.key_indices(), params);
    if (keys.has_value()) {
      bound = true;
      MutexLock lock(index_mu_);
      for (const Row& k : *keys) {
        ++lookups;
        auto it = key_index_.find(k);
        if (it != key_index_.end()) candidates.push_back(it->second);
      }
    }
  }
  for (size_t s = 0; s < secondary_specs_.size() && !bound; ++s) {
    std::optional<std::vector<Row>> keys = BindIndexKeys(
        invariant_filter, logical, secondary_specs_[s].column_indices,
        params);
    if (!keys.has_value()) continue;
    bound = true;
    MutexLock lock(index_mu_);
    for (const Row& k : *keys) {
      ++lookups;
      auto it = secondary_postings_[s].find(k);
      if (it == secondary_postings_[s].end()) continue;
      candidates.insert(candidates.end(), it->second.begin(),
                        it->second.end());
    }
  }
  if (!bound) return false;

  // Emit in heap order so the routed stream is byte-identical to the
  // heap pass's. A heap appends pages in allocation order and page ids
  // only grow, so Rid order is heap order.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  *status = StreamCandidates(candidates, /*key=*/nullptr, lookups,
                             /*scans_avoided=*/1, step, sink, stats);
  return true;
}

Result<bool> VnlTable::RollbackTxn(Vn txn_vn, Vn current_vn) {
  bool lossless = true;
  // Materialize the victims first; reverts mutate the heap.
  std::vector<std::pair<Rid, Row>> victims;
  WVM_RETURN_IF_ERROR(phys_->ScanRows([&](Rid rid, const Row& phys) {
    if (vschema_.TupleVn(phys, 0) == txn_vn) victims.emplace_back(rid, phys);
    return true;
  }));

  for (auto& [rid, phys] : victims) {
    WVM_ASSIGN_OR_RETURN(Op op, vschema_.Operation(phys, 0));
    const bool has_history =
        vschema_.n() > 2 && !vschema_.SlotEmpty(phys, 1);

    if (op == Op::kInsert) {
      if (has_history) {
        // The insert pushed older versions back; popping the slot restores
        // them exactly (CV of a deleted tuple is never read).
        vschema_.PushForward(&phys);
        WVM_RETURN_IF_ERROR(phys_->UpdateRow(rid, phys));
        WVM_RETURN_IF_ERROR(SyncTombstone(rid, phys));
      } else {
        IndexTupleErased(phys, rid);
        WVM_RETURN_IF_ERROR(phys_->DeleteRow(rid));
        ClearTombstone(rid);
        // A 2VNL insert over a logically deleted key destroyed the
        // pre-delete values; older sessions cannot be reconstructed.
        // A genuinely fresh insert is lossless, but the two cases are
        // indistinguishable without a log, so stay conservative.
        lossless = false;
      }
      continue;
    }

    if (op == Op::kUpdate) {
      // Restore the current values from the saved pre-update values.
      for (size_t u = 0; u < vschema_.updatable().size(); ++u) {
        phys[vschema_.updatable()[u]] = phys[vschema_.PreIndex(u, 0)];
      }
    }
    // (op == delete: current values were never overwritten.)

    if (has_history) {
      vschema_.PushForward(&phys);  // slot 0 restored from slot 1: exact
    } else {
      // The pre-transaction {tupleVN, operation, PV} are unrecoverable in
      // 2VNL; stamp the tuple as of current_vn. Sessions at current_vn
      // read the (correct) current values; older sessions must expire.
      vschema_.SetSlot(&phys, 0, current_vn, Op::kUpdate);
      vschema_.CopyCurrentToPre(&phys, 0);
      lossless = false;
    }
    WVM_RETURN_IF_ERROR(phys_->UpdateRow(rid, phys));
    WVM_RETURN_IF_ERROR(SyncTombstone(rid, phys));
  }
  return lossless;
}

void VnlTable::MarkTombstone(Rid rid, Vn vn) {
  MutexLock lock(tomb_mu_);
  tombstones_[rid] = vn;
}

void VnlTable::ClearTombstone(Rid rid) {
  MutexLock lock(tomb_mu_);
  tombstones_.erase(rid);
}

Status VnlTable::SyncTombstone(Rid rid, const Row& phys) {
  WVM_ASSIGN_OR_RETURN(Op op, vschema_.Operation(phys, 0));
  if (op == Op::kDelete) {
    MarkTombstone(rid, vschema_.TupleVn(phys, 0));
  } else {
    ClearTombstone(rid);
  }
  return Status::OK();
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
  for (Rid rid : victims) {
    WVM_ASSIGN_OR_RETURN(Row phys, phys_->GetRow(rid));
    // Postings go first, atomically with reclamation from a reader's view:
    // GC runs under the engine mutex (no concurrent maintenance), so an
    // index probe sees either the posting plus a live heap slot, or
    // neither — never a posting whose slot has been reused.
    IndexTupleErased(phys, rid);
    const Status deleted = phys_->DeleteRow(rid);
    if (!deleted.ok()) {
      // The corpse stays: restore its postings; its tombstone was kept.
      IndexTupleInserted(phys, rid);
      return deleted;
    }
    ClearTombstone(rid);
  }
  return victims.size();
}

}  // namespace wvm::core

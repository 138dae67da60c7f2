#include "tests/support/row_reference.h"

#include "common/logging.h"

namespace wvm::core::rowref {

Vn TupleVn(const VersionedSchema& vs, const Row& phys, int slot) {
  const Value& v = phys[vs.TupleVnIndex(slot)];
  return v.is_null() ? kNoVn : v.AsInt64();
}

Result<Op> Operation(const VersionedSchema& vs, const Row& phys, int slot) {
  const Value& v = phys[vs.OperationIndex(slot)];
  if (v.is_null()) return Status::Corruption("NULL operation attribute");
  return OpFromString(v.AsString());
}

bool SlotEmpty(const VersionedSchema& vs, const Row& phys, int slot) {
  return TupleVn(vs, phys, slot) == kNoVn;
}

int PopulatedSlots(const VersionedSchema& vs, const Row& phys) {
  int m = 0;
  while (m < vs.num_slots() && !SlotEmpty(vs, phys, m)) ++m;
  return m;
}

Row CurrentLogical(const VersionedSchema& vs, const Row& phys) {
  return Row(phys.begin(), phys.begin() + vs.logical().num_columns());
}

Row PreUpdateLogical(const VersionedSchema& vs, const Row& phys, int slot) {
  Row out = CurrentLogical(vs, phys);
  for (size_t u = 0; u < vs.updatable().size(); ++u) {
    out[vs.updatable()[u]] = phys[vs.PreIndex(u, slot)];
  }
  return out;
}

void SetSlot(const VersionedSchema& vs, Row* phys, int slot, Vn vn, Op op) {
  (*phys)[vs.TupleVnIndex(slot)] = Value::Int64(vn);
  (*phys)[vs.OperationIndex(slot)] = Value::String(OpToString(op));
}

void ClearSlot(const VersionedSchema& vs, Row* phys, int slot) {
  (*phys)[vs.TupleVnIndex(slot)] = Value::Int64(kNoVn);
  (*phys)[vs.OperationIndex(slot)] = Value::Null(TypeId::kString);
  SetPreNull(vs, phys, slot);
}

void CopyCurrentToPre(const VersionedSchema& vs, Row* phys, int slot) {
  for (size_t u = 0; u < vs.updatable().size(); ++u) {
    (*phys)[vs.PreIndex(u, slot)] = (*phys)[vs.updatable()[u]];
  }
}

void CopyPreToCurrent(const VersionedSchema& vs, Row* phys, int slot) {
  for (size_t u = 0; u < vs.updatable().size(); ++u) {
    (*phys)[vs.updatable()[u]] = (*phys)[vs.PreIndex(u, slot)];
  }
}

void SetPreNull(const VersionedSchema& vs, Row* phys, int slot) {
  for (size_t u = 0; u < vs.updatable().size(); ++u) {
    (*phys)[vs.PreIndex(u, slot)] =
        Value::Null(vs.logical().column(vs.updatable()[u]).type);
  }
}

void SetCurrent(const VersionedSchema& vs, Row* phys,
                const Row& logical_values) {
  WVM_CHECK(logical_values.size() == vs.logical().num_columns());
  for (size_t i = 0; i < logical_values.size(); ++i) {
    (*phys)[i] = logical_values[i];
  }
}

namespace {

// Copies version group `from` onto version group `to`.
void MoveSlot(const VersionedSchema& vs, Row* phys, int to, int from) {
  (*phys)[vs.TupleVnIndex(to)] = (*phys)[vs.TupleVnIndex(from)];
  (*phys)[vs.OperationIndex(to)] = (*phys)[vs.OperationIndex(from)];
  for (size_t u = 0; u < vs.updatable().size(); ++u) {
    (*phys)[vs.PreIndex(u, to)] = (*phys)[vs.PreIndex(u, from)];
  }
}

}  // namespace

void PushBack(const VersionedSchema& vs, Row* phys) {
  for (int slot = vs.num_slots() - 1; slot >= 1; --slot) {
    MoveSlot(vs, phys, slot, slot - 1);
  }
}

void PushForward(const VersionedSchema& vs, Row* phys) {
  for (int slot = 0; slot < vs.num_slots() - 1; ++slot) {
    MoveSlot(vs, phys, slot, slot + 1);
  }
  ClearSlot(vs, phys, vs.num_slots() - 1);
}

Row MakeInsertRow(const VersionedSchema& vs, const Row& logical_values,
                  Vn vn) {
  WVM_CHECK(logical_values.size() == vs.logical().num_columns());
  Row phys = logical_values;
  phys.resize(vs.physical().num_columns());
  for (int slot = 0; slot < vs.num_slots(); ++slot) {
    ClearSlot(vs, &phys, slot);
  }
  SetSlot(vs, &phys, 0, vn, Op::kInsert);
  return phys;
}

void ApplyDecision(const VersionedSchema& vs, const MaintenanceDecision& d,
                   Vn vn, Row* phys, const Row* mv_logical) {
  // Preserve the old version (push back / PV <- CV) before overwriting the
  // current values.
  if (d.push_back) PushBack(vs, phys);
  if (d.pv_from_cv) CopyCurrentToPre(vs, phys, 0);
  if (d.pv_null) SetPreNull(vs, phys, 0);
  if (d.cv_from_mv) {
    WVM_CHECK(mv_logical != nullptr);
    SetCurrent(vs, phys, *mv_logical);
  }
  if (d.set_tuple_vn) {
    WVM_CHECK(d.new_op.has_value());
    SetSlot(vs, phys, 0, vn, *d.new_op);
  } else if (d.new_op.has_value()) {
    (*phys)[vs.OperationIndex(0)] = Value::String(OpToString(*d.new_op));
  }
  if (d.pop_slot) PushForward(vs, phys);
}

bool RollbackTuple(const VersionedSchema& vs, Row* phys, Vn current_vn) {
  Result<Op> op = Operation(vs, *phys, 0);
  WVM_CHECK(op.ok());
  const bool has_history = vs.n() > 2 && !SlotEmpty(vs, *phys, 1);
  if (op.value() == Op::kInsert) {
    // Popping the insert's slot restores the pushed-back versions; with
    // none, the tuple did not exist before the transaction.
    if (!has_history) return false;
    PushForward(vs, phys);
    return true;
  }
  // An update overwrote CV; a delete left it alone.
  if (op.value() == Op::kUpdate) CopyPreToCurrent(vs, phys, 0);
  if (has_history) {
    PushForward(vs, phys);
  } else {
    // 2VNL lost the pre-transaction slot: stamp the tuple as of the last
    // committed version.
    SetSlot(vs, phys, 0, current_vn, Op::kUpdate);
    CopyCurrentToPre(vs, phys, 0);
  }
  return true;
}

namespace {

bool IsCorpse(const VersionedSchema& vs, const std::optional<Row>& phys) {
  return phys.has_value() && Operation(vs, *phys, 0).value() == Op::kDelete;
}

// The physical tuple in `table`'s heap whose key columns hold `row`'s key.
std::optional<Row> KeyTuple(const VnlTable& table, const Row& row) {
  std::optional<Row> found;
  WVM_CHECK(table.physical_table()
                .ScanRows([&](Rid, const Row& phys) {
                  for (size_t k : table.logical_schema().key_indices()) {
                    if (!(phys[k] == row[k])) return true;
                  }
                  found = phys;
                  return false;
                })
                .ok());
  return found;
}

}  // namespace

StatusCode InsertOutcome(const VersionedSchema& vs,
                         const std::optional<Row>& existing, const Row& row) {
  if (!existing.has_value()) return StatusCode::kOk;
  if (!IsCorpse(vs, existing)) return StatusCode::kAlreadyExists;
  const Schema& logical = vs.logical();
  for (size_t i = 0; i < logical.num_columns(); ++i) {
    if (!logical.column(i).updatable && !((*existing)[i] == row[i])) {
      return StatusCode::kInvalidArgument;
    }
  }
  return StatusCode::kOk;
}

Row WithNonUpdatablesOf(const VersionedSchema& vs, const Row& phys, Row row) {
  const Schema& logical = vs.logical();
  for (size_t i = 0; i < logical.num_columns(); ++i) {
    if (!logical.column(i).updatable) row[i] = phys[i];
  }
  return row;
}

Row PlanInsert(const VnlTable& table, Row drawn, Rng* rng, StatusCode* want) {
  const VersionedSchema& vs = table.versioned_schema();
  const std::optional<Row> existing = KeyTuple(table, drawn);
  if (IsCorpse(vs, existing) && rng->Bernoulli(0.5)) {
    drawn = WithNonUpdatablesOf(vs, *existing, std::move(drawn));
  }
  *want = InsertOutcome(vs, existing, drawn);
  return drawn;
}

VersionResolution ResolveVersion(const VersionedSchema& vs, const Row& phys,
                                 Vn session_vn) {
  const int m = PopulatedSlots(vs, phys);
  WVM_CHECK_MSG(m >= 1, "physical tuple with no version slots");

  // Case 1 (§3.2 / §5): the session saw this modification commit.
  if (session_vn >= TupleVn(vs, phys, 0)) {
    Result<Op> op = Operation(vs, phys, 0);
    WVM_CHECK(op.ok());
    if (op.value() == Op::kDelete) return {ReadOutcome::kIgnore, -1};
    return {ReadOutcome::kRow, -1};
  }

  // The least tupleVN_j > sessionVN: slots run newest (0) to oldest
  // (m-1), so the largest index whose VN exceeds sessionVN.
  int j = 0;
  while (j + 1 < m && TupleVn(vs, phys, j + 1) > session_vn) ++j;

  // Case 3: sessionVN predates the oldest retained version. With every
  // slot occupied history may have been pushed off the end (expired);
  // with a slot free the oldest entry must be the tuple's insert.
  if (j == m - 1 && session_vn < TupleVn(vs, phys, m - 1) - 1) {
    if (m == vs.n() - 1) return {ReadOutcome::kExpired, j};
    Result<Op> oldest_op = Operation(vs, phys, m - 1);
    WVM_CHECK(oldest_op.ok());
    if (oldest_op.value() != Op::kInsert) return {ReadOutcome::kExpired, j};
  }

  // Case 2: the pre-update version of slot j (Table 1, second row).
  Result<Op> op = Operation(vs, phys, j);
  WVM_CHECK(op.ok());
  if (op.value() == Op::kInsert) return {ReadOutcome::kIgnore, j};
  return {ReadOutcome::kRow, j};
}

Row MaterializeVersion(const VersionedSchema& vs, const Row& phys,
                       const VersionResolution& res) {
  WVM_CHECK(res.outcome == ReadOutcome::kRow);
  return res.slot < 0 ? CurrentLogical(vs, phys)
                      : PreUpdateLogical(vs, phys, res.slot);
}

ReadOutcome ReadVersion(const VersionedSchema& vs, const Row& phys,
                        Vn session_vn, Row* out) {
  const VersionResolution res = ResolveVersion(vs, phys, session_vn);
  if (res.outcome == ReadOutcome::kRow) {
    *out = MaterializeVersion(vs, phys, res);
  }
  return res.outcome;
}

}  // namespace wvm::core::rowref

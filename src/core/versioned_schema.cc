#include "core/versioned_schema.h"

#include <cstring>

#include "common/logging.h"

namespace wvm::core {

Result<VersionedSchema> VersionedSchema::Create(Schema logical, int n) {
  if (n < 2) {
    return Status::InvalidArgument("nVNL requires n >= 2");
  }
  for (const Column& c : logical.columns()) {
    if (c.name == kTupleVnName || c.name == kOperationName ||
        c.name.rfind(kPrePrefix, 0) == 0) {
      return Status::InvalidArgument(
          "logical column name '" + c.name +
          "' collides with 2VNL bookkeeping columns");
    }
  }
  for (size_t k : logical.key_indices()) {
    if (logical.column(k).updatable) {
      return Status::InvalidArgument(
          "unique-key attribute '" + logical.column(k).name +
          "' cannot be updatable (§3.1: group-by keys never change)");
    }
  }

  VersionedSchema vs;
  vs.n_ = n;
  vs.updatable_ = logical.UpdatableIndices();
  vs.logical_cols_ = logical.num_columns();
  vs.updatable_ordinal_.assign(vs.logical_cols_, -1);
  for (size_t u = 0; u < vs.updatable_.size(); ++u) {
    vs.updatable_ordinal_[vs.updatable_[u]] = static_cast<int>(u);
  }

  std::vector<Column> phys_cols = logical.columns();
  for (int slot = 0; slot < n - 1; ++slot) {
    phys_cols.push_back(Column::Int64(TupleVnColumnName(slot, n)));
    phys_cols.push_back(Column::String(OperationColumnName(slot, n),
                                       kOperationWidth));
    for (size_t u : vs.updatable_) {
      Column pre = logical.column(u);
      pre.name = PreColumnName(pre.name, slot, n);
      pre.updatable = false;
      phys_cols.push_back(std::move(pre));
    }
  }
  vs.physical_ = Schema(std::move(phys_cols), logical.key_indices());
  vs.logical_ = std::move(logical);
  return vs;
}

size_t VersionedSchema::TupleVnIndex(int slot) const {
  WVM_CHECK(slot >= 0 && slot < n_ - 1);
  return logical_cols_ + static_cast<size_t>(slot) * (2 + updatable_.size());
}

size_t VersionedSchema::OperationIndex(int slot) const {
  return TupleVnIndex(slot) + 1;
}

size_t VersionedSchema::PreIndex(size_t updatable_ordinal, int slot) const {
  WVM_CHECK(updatable_ordinal < updatable_.size());
  return TupleVnIndex(slot) + 2 + updatable_ordinal;
}

Vn VersionedSchema::TupleVn(const Row& phys, int slot) const {
  const Value& v = phys[TupleVnIndex(slot)];
  return v.is_null() ? kNoVn : v.AsInt64();
}

Result<Op> VersionedSchema::Operation(const Row& phys, int slot) const {
  const Value& v = phys[OperationIndex(slot)];
  if (v.is_null()) return Status::Corruption("NULL operation attribute");
  return OpFromString(v.AsString());
}

int VersionedSchema::PopulatedSlots(const Row& phys) const {
  int m = 0;
  while (m < n_ - 1 && !SlotEmpty(phys, m)) ++m;
  return m;
}

Vn VersionedSchema::RawTupleVn(const uint8_t* rec, int slot) const {
  const size_t idx = TupleVnIndex(slot);
  if (RecordColumnIsNull(rec, idx)) return kNoVn;
  int64_t vn;
  std::memcpy(&vn, rec + physical_.ColumnOffset(idx), 8);
  return vn;
}

Result<Op> VersionedSchema::RawOperation(const uint8_t* rec,
                                         int slot) const {
  const size_t idx = OperationIndex(slot);
  if (RecordColumnIsNull(rec, idx)) {
    return Status::Corruption("NULL operation attribute");
  }
  // The operation column is exactly kOperationWidth (6) bytes and all
  // three stored spellings fill it completely, so a fixed-width compare
  // decodes without allocating.
  static_assert(kOperationWidth == 6);
  const uint8_t* slot_bytes = rec + physical_.ColumnOffset(idx);
  if (std::memcmp(slot_bytes, "insert", 6) == 0) return Op::kInsert;
  if (std::memcmp(slot_bytes, "update", 6) == 0) return Op::kUpdate;
  if (std::memcmp(slot_bytes, "delete", 6) == 0) return Op::kDelete;
  return Status::InvalidArgument("unknown operation value in record");
}

int VersionedSchema::RawPopulatedSlots(const uint8_t* rec) const {
  int m = 0;
  while (m < n_ - 1 && !RawSlotEmpty(rec, m)) ++m;
  return m;
}

void VersionedSchema::SetSlot(Row* phys, int slot, Vn vn, Op op) const {
  (*phys)[TupleVnIndex(slot)] = Value::Int64(vn);
  (*phys)[OperationIndex(slot)] = Value::String(OpToString(op));
}

void VersionedSchema::ClearSlot(Row* phys, int slot) const {
  (*phys)[TupleVnIndex(slot)] = Value::Int64(kNoVn);
  (*phys)[OperationIndex(slot)] = Value::Null(TypeId::kString);
  for (size_t u = 0; u < updatable_.size(); ++u) {
    (*phys)[PreIndex(u, slot)] =
        Value::Null(logical_.column(updatable_[u]).type);
  }
}

void VersionedSchema::CopyCurrentToPre(Row* phys, int slot) const {
  for (size_t u = 0; u < updatable_.size(); ++u) {
    (*phys)[PreIndex(u, slot)] = (*phys)[updatable_[u]];
  }
}

void VersionedSchema::SetPreNull(Row* phys, int slot) const {
  for (size_t u = 0; u < updatable_.size(); ++u) {
    (*phys)[PreIndex(u, slot)] =
        Value::Null(logical_.column(updatable_[u]).type);
  }
}

void VersionedSchema::SetCurrent(Row* phys, const Row& logical_values) const {
  WVM_CHECK(logical_values.size() == logical_cols_);
  for (size_t i = 0; i < logical_cols_; ++i) {
    (*phys)[i] = logical_values[i];
  }
}

void VersionedSchema::PushBack(Row* phys) const {
  for (int slot = n_ - 2; slot >= 1; --slot) {
    (*phys)[TupleVnIndex(slot)] = (*phys)[TupleVnIndex(slot - 1)];
    (*phys)[OperationIndex(slot)] = (*phys)[OperationIndex(slot - 1)];
    for (size_t u = 0; u < updatable_.size(); ++u) {
      (*phys)[PreIndex(u, slot)] = (*phys)[PreIndex(u, slot - 1)];
    }
  }
}

void VersionedSchema::PushForward(Row* phys) const {
  for (int slot = 0; slot < n_ - 2; ++slot) {
    (*phys)[TupleVnIndex(slot)] = (*phys)[TupleVnIndex(slot + 1)];
    (*phys)[OperationIndex(slot)] = (*phys)[OperationIndex(slot + 1)];
    for (size_t u = 0; u < updatable_.size(); ++u) {
      (*phys)[PreIndex(u, slot)] = (*phys)[PreIndex(u, slot + 1)];
    }
  }
  ClearSlot(phys, n_ - 2);
}

Row VersionedSchema::MakeInsertRow(const Row& logical_values, Vn vn) const {
  WVM_CHECK(logical_values.size() == logical_cols_);
  Row phys = logical_values;
  phys.resize(physical_.num_columns());
  for (int slot = 0; slot < n_ - 1; ++slot) ClearSlot(&phys, slot);
  SetSlot(&phys, 0, vn, Op::kInsert);
  SetPreNull(&phys, 0);
  return phys;
}

Row VersionedSchema::CurrentLogical(const Row& phys) const {
  return Row(phys.begin(), phys.begin() + logical_cols_);
}

Row VersionedSchema::PreUpdateLogical(const Row& phys, int slot) const {
  Row out = CurrentLogical(phys);
  for (size_t u = 0; u < updatable_.size(); ++u) {
    out[updatable_[u]] = phys[PreIndex(u, slot)];
  }
  return out;
}

size_t VersionedSchema::PaperAttributeBytes() const {
  size_t pre_bytes = 0;
  for (size_t u : updatable_) pre_bytes += logical_.column(u).width;
  // Per version group: 4-byte tupleVN + 1-byte operation + pre columns.
  return logical_.AttributeBytes() +
         static_cast<size_t>(n_ - 1) * (4 + 1 + pre_bytes);
}

VersionResolution ResolveVersion(const VersionedSchema& vs, const Row& phys,
                                 Vn session_vn) {
  const int m = vs.PopulatedSlots(phys);
  WVM_CHECK_MSG(m >= 1, "physical tuple with no version slots");

  // Case 1 (§3.2 / §5): the session saw this modification commit.
  if (session_vn >= vs.TupleVn(phys, 0)) {
    Result<Op> op = vs.Operation(phys, 0);
    WVM_CHECK(op.ok());
    if (op.value() == Op::kDelete) return {ReadOutcome::kIgnore, -1};
    return {ReadOutcome::kRow, -1};
  }

  // Find the least tupleVN_j > sessionVN; slots are ordered newest (0) to
  // oldest (m-1), so that is the largest index whose VN exceeds sessionVN.
  int j = 0;
  while (j + 1 < m && vs.TupleVn(phys, j + 1) > session_vn) ++j;

  // Case 3: the state at sessionVN predates the oldest retained version
  // AND history may have been truncated (every slot is occupied, so a
  // version could have been pushed off the end). When slots remain free
  // the oldest entry is the tuple's original insert — the full history is
  // present and the tuple simply did not exist at sessionVN, which the
  // operation check below classifies as kIgnore.
  if (j == m - 1 && session_vn < vs.TupleVn(phys, m - 1) - 1) {
    if (m == vs.n() - 1) return {ReadOutcome::kExpired, j};
    Result<Op> oldest_op = vs.Operation(phys, m - 1);
    WVM_CHECK(oldest_op.ok());
    // Defensive: a partially-filled tuple whose oldest record is not the
    // insert would indicate lost history; never serve a wrong version.
    if (oldest_op.value() != Op::kInsert) return {ReadOutcome::kExpired, j};
  }

  // Case 2: read the pre-update version of slot j (Table 1, second row).
  Result<Op> op = vs.Operation(phys, j);
  WVM_CHECK(op.ok());
  if (op.value() == Op::kInsert) return {ReadOutcome::kIgnore, j};
  return {ReadOutcome::kRow, j};
}

Row MaterializeVersion(const VersionedSchema& vs, const Row& phys,
                       const VersionResolution& res) {
  WVM_CHECK(res.outcome == ReadOutcome::kRow);
  return res.slot < 0 ? vs.CurrentLogical(phys)
                      : vs.PreUpdateLogical(phys, res.slot);
}

VersionResolution ResolveVersionRaw(const VersionedSchema& vs,
                                    const uint8_t* rec, Vn session_vn) {
  const int m = vs.RawPopulatedSlots(rec);
  WVM_CHECK_MSG(m >= 1, "physical tuple with no version slots");

  // Case 1 (§3.2 / §5): the session saw this modification commit.
  if (session_vn >= vs.RawTupleVn(rec, 0)) {
    Result<Op> op = vs.RawOperation(rec, 0);
    WVM_CHECK(op.ok());
    if (op.value() == Op::kDelete) return {ReadOutcome::kIgnore, -1};
    return {ReadOutcome::kRow, -1};
  }

  int j = 0;
  while (j + 1 < m && vs.RawTupleVn(rec, j + 1) > session_vn) ++j;

  // Case 3: see ResolveVersion — the raw twin mirrors its case analysis
  // exactly so the two paths are interchangeable.
  if (j == m - 1 && session_vn < vs.RawTupleVn(rec, m - 1) - 1) {
    if (m == vs.n() - 1) return {ReadOutcome::kExpired, j};
    Result<Op> oldest_op = vs.RawOperation(rec, m - 1);
    WVM_CHECK(oldest_op.ok());
    if (oldest_op.value() != Op::kInsert) return {ReadOutcome::kExpired, j};
  }

  // Case 2: read the pre-update version of slot j (Table 1, second row).
  Result<Op> op = vs.RawOperation(rec, j);
  WVM_CHECK(op.ok());
  if (op.value() == Op::kInsert) return {ReadOutcome::kIgnore, j};
  return {ReadOutcome::kRow, j};
}

Row LogicalPlaceholders(const VersionedSchema& vs) {
  const Schema& logical = vs.logical();
  Row out;
  out.reserve(logical.num_columns());
  for (const Column& c : logical.columns()) {
    out.push_back(Value::Null(c.type));
  }
  return out;
}

void MaterializeVersionRawInto(const VersionedSchema& vs, const uint8_t* rec,
                               const VersionResolution& res,
                               const std::vector<bool>& needed, Row* out) {
  WVM_CHECK(res.outcome == ReadOutcome::kRow);
  const size_t logical_cols = vs.logical().num_columns();
  WVM_CHECK(out->size() == logical_cols);
  WVM_CHECK(needed.empty() || needed.size() == logical_cols);
  for (size_t i = 0; i < logical_cols; ++i) {
    if (!needed.empty() && !needed[i]) continue;
    size_t src = i;
    if (res.slot >= 0) {
      const int u = vs.UpdatableOrdinal(i);
      if (u >= 0) src = vs.PreIndex(static_cast<size_t>(u), res.slot);
    }
    (*out)[i] = DeserializeColumn(vs.physical(), rec, src);
  }
}

ReadOutcome ReadVersion(const VersionedSchema& vs, const Row& phys,
                        Vn session_vn, Row* out) {
  const VersionResolution res = ResolveVersion(vs, phys, session_vn);
  if (res.outcome == ReadOutcome::kRow) {
    *out = MaterializeVersion(vs, phys, res);
  }
  return res.outcome;
}

}  // namespace wvm::core

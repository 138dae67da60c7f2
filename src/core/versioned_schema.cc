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
  for (size_t i = 0; i < vs.logical_cols_; ++i) {
    vs.logical_columns_.push_back(i);
  }
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

std::vector<size_t> VersionedSchema::VersionColumns(
    const std::vector<size_t>& logical, int slot) const {
  std::vector<size_t> physical;
  physical.reserve(logical.size());
  for (size_t i : logical) physical.push_back(VersionColumn(i, slot));
  return physical;
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

Row VersionedSchema::RawCurrentLogical(const uint8_t* rec) const {
  Row out;
  out.reserve(logical_cols_);
  for (size_t i = 0; i < logical_cols_; ++i) {
    out.push_back(DeserializeColumn(physical_, rec, i));
  }
  return out;
}

void VersionedSchema::SetSlot(uint8_t* rec, int slot, Vn vn, Op op) const {
  SerializeColumn(physical_, Value::Int64(vn), TupleVnIndex(slot), rec);
  SerializeColumn(physical_, Value::String(OpToString(op)),
                  OperationIndex(slot), rec);
}

void VersionedSchema::ClearSlot(uint8_t* rec, int slot) const {
  SerializeColumn(physical_, Value::Int64(kNoVn), TupleVnIndex(slot), rec);
  SerializeColumn(physical_, Value::Null(TypeId::kString),
                  OperationIndex(slot), rec);
  SetPreNull(rec, slot);
}

void VersionedSchema::CopyCurrentToPre(uint8_t* rec, int slot) const {
  for (size_t u = 0; u < updatable_.size(); ++u) {
    CopyRecordColumn(physical_, PreIndex(u, slot), updatable_[u], rec);
  }
}

void VersionedSchema::CopyPreToCurrent(uint8_t* rec, int slot) const {
  for (size_t u = 0; u < updatable_.size(); ++u) {
    CopyRecordColumn(physical_, updatable_[u], PreIndex(u, slot), rec);
  }
}

void VersionedSchema::SetPreNull(uint8_t* rec, int slot) const {
  for (size_t u = 0; u < updatable_.size(); ++u) {
    SerializeColumn(physical_, Value::Null(logical_.column(updatable_[u]).type),
                    PreIndex(u, slot), rec);
  }
}

void VersionedSchema::SetCurrent(uint8_t* rec,
                                 const Row& logical_values) const {
  WVM_CHECK(logical_values.size() == logical_cols_);
  for (size_t i = 0; i < logical_cols_; ++i) {
    SerializeColumn(physical_, logical_values[i], i, rec);
  }
}

void VersionedSchema::PushBack(uint8_t* rec) const {
  const size_t group = 2 + updatable_.size();
  for (int slot = n_ - 2; slot >= 1; --slot) {
    for (size_t c = 0; c < group; ++c) {
      CopyRecordColumn(physical_, TupleVnIndex(slot) + c,
                       TupleVnIndex(slot - 1) + c, rec);
    }
  }
}

void VersionedSchema::PushForward(uint8_t* rec) const {
  const size_t group = 2 + updatable_.size();
  for (int slot = 0; slot < n_ - 2; ++slot) {
    for (size_t c = 0; c < group; ++c) {
      CopyRecordColumn(physical_, TupleVnIndex(slot) + c,
                       TupleVnIndex(slot + 1) + c, rec);
    }
  }
  ClearSlot(rec, n_ - 2);
}

void VersionedSchema::MakeInsertRow(const Row& logical_values, Vn vn,
                                    uint8_t* rec) const {
  std::memset(rec, 0, physical_.NullBitmapBytes());
  SetCurrent(rec, logical_values);
  for (int slot = 1; slot < n_ - 1; ++slot) ClearSlot(rec, slot);
  SetSlot(rec, 0, vn, Op::kInsert);
  SetPreNull(rec, 0);
}

size_t VersionedSchema::PaperAttributeBytes() const {
  size_t pre_bytes = 0;
  for (size_t u : updatable_) pre_bytes += logical_.column(u).width;
  // Per version group: 4-byte tupleVN + 1-byte operation + pre columns.
  return logical_.AttributeBytes() +
         static_cast<size_t>(n_ - 1) * (4 + 1 + pre_bytes);
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

  // Find the least tupleVN_j > sessionVN; slots are ordered newest (0) to
  // oldest (m-1), so that is the largest index whose VN exceeds sessionVN.
  int j = 0;
  while (j + 1 < m && vs.RawTupleVn(rec, j + 1) > session_vn) ++j;

  // Case 3: the state at sessionVN predates the oldest retained version
  // AND history may have been truncated (every slot is occupied, so a
  // version could have been pushed off the end). When slots remain free
  // the oldest entry is the tuple's original insert — the full history is
  // present and the tuple simply did not exist at sessionVN, which the
  // operation check below classifies as kIgnore.
  if (j == m - 1 && session_vn < vs.RawTupleVn(rec, m - 1) - 1) {
    if (m == vs.n() - 1) return {ReadOutcome::kExpired, j};
    Result<Op> oldest_op = vs.RawOperation(rec, m - 1);
    WVM_CHECK(oldest_op.ok());
    // Defensive: a partially-filled tuple whose oldest record is not the
    // insert would indicate lost history; never serve a wrong version.
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
                               const std::vector<size_t>& columns, Row* out) {
  WVM_CHECK(res.outcome == ReadOutcome::kRow);
  WVM_CHECK(out->size() == vs.logical().num_columns());
  for (size_t i : columns) {
    (*out)[i] = DeserializeColumn(vs.physical(), rec,
                                  vs.VersionColumn(i, res.slot));
  }
}

}  // namespace wvm::core

#ifndef OPENWVM_CORE_VERSIONED_SCHEMA_H_
#define OPENWVM_CORE_VERSIONED_SCHEMA_H_

#include <cstdint>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "core/version_meta.h"

namespace wvm::core {

// Widens a logical relation schema with nVNL version bookkeeping (§3.1, §5):
// the logical attributes followed by n-1 version groups, each holding
// {tupleVN_i, operation_i, pre-update copies of the updatable attributes}.
// Slot 0 is the most recent modification (the paper's tupleVN1), slot n-2
// the least recent. For n = 2 the column names are unsuffixed, exactly as in
// Figure 3 (tupleVN, operation, pre_total_sales).
class VersionedSchema {
 public:
  // `n` is the number of simultaneously available database versions (>= 2).
  static Result<VersionedSchema> Create(Schema logical, int n = 2);

  const Schema& logical() const { return logical_; }
  const Schema& physical() const { return physical_; }
  int n() const { return n_; }
  int num_slots() const { return n_ - 1; }

  // Logical column positions of updatable attributes.
  const std::vector<size_t>& updatable() const { return updatable_; }
  // Every logical column position, in order: the column list of a
  // whole-row materialization.
  const std::vector<size_t>& logical_columns() const {
    return logical_columns_;
  }

  // Physical column indexes of a version group's columns. Logical column
  // `i` is physical column `i`: logical columns come first.
  size_t TupleVnIndex(int slot) const;
  size_t OperationIndex(int slot) const;
  // Physical index of the pre-update copy of the u-th updatable attribute
  // in version slot `slot`.
  size_t PreIndex(size_t updatable_ordinal, int slot) const;

  // --- Record accessors --------------------------------------------------
  // Physical tuples exist only as serialized records (catalog SerializeRow
  // layout over physical()). The slot accessors read a version group's
  // bookkeeping off the record bytes without constructing a Value.

  Vn RawTupleVn(const uint8_t* rec, int slot) const;
  Result<Op> RawOperation(const uint8_t* rec, int slot) const;
  bool RawSlotEmpty(const uint8_t* rec, int slot) const {
    return RawTupleVn(rec, slot) == kNoVn;
  }
  // Number of populated version slots (contiguous from slot 0).
  int RawPopulatedSlots(const uint8_t* rec) const;
  // Current logical version (the CV attributes, the record's logical
  // prefix), decoded.
  Row RawCurrentLogical(const uint8_t* rec) const;

  // The physical column that holds logical column `i` in the version a
  // reader resolved to `slot` (VersionResolution::slot): `i` itself for
  // the current version (-1) and for a non-updatable column, else the
  // column's pre-update copy in that slot. The one slot -> column rule:
  // projected materialization and the per-version GROUP BY key codecs both
  // ask it.
  size_t VersionColumn(size_t i, int slot) const {
    const int u = slot < 0 ? -1 : updatable_ordinal_[i];
    return u < 0 ? i : PreIndex(static_cast<size_t>(u), slot);
  }
  // VersionColumn of each of `logical`, in list order.
  std::vector<size_t> VersionColumns(const std::vector<size_t>& logical,
                                     int slot) const;

  // --- Record mutators ---------------------------------------------------
  // The moves of Tables 2-4 (§3.3) and §5 as in-place edits of a record.
  // A move between version columns copies slot bytes and the null bit (a
  // pre-update column has its CV column's type and width); a Value is
  // encoded only where it enters the tuple: MV, and a slot's VN and
  // operation.

  void SetSlot(uint8_t* rec, int slot, Vn vn, Op op) const;
  void ClearSlot(uint8_t* rec, int slot) const;
  // PV_slot <- CV for every updatable attribute.
  void CopyCurrentToPre(uint8_t* rec, int slot) const;
  // CV <- PV_slot for every updatable attribute (rollback, §7).
  void CopyPreToCurrent(uint8_t* rec, int slot) const;
  // PV_slot <- NULLs (used on logical insert, §3.1).
  void SetPreNull(uint8_t* rec, int slot) const;
  // CV <- values (logical-width row).
  void SetCurrent(uint8_t* rec, const Row& logical_values) const;

  // nVNL "push back" (§5): shift version groups one slot older, freeing
  // slot 0. The oldest group falls off. No-op when n == 2 (slot 0 is
  // simply overwritten by the caller).
  void PushBack(uint8_t* rec) const;
  // Inverse shift, used to cancel a push when an insert made earlier in the
  // same maintenance transaction is deleted again (net effect = nothing).
  void PushForward(uint8_t* rec) const;

  // Writes the record of a fresh physical tuple for a logical insert at
  // `vn` into `rec` (physical().RowByteSize() bytes).
  void MakeInsertRow(const Row& logical_values, Vn vn, uint8_t* rec) const;

  // --- Storage accounting (Figure 3) --------------------------------------

  // Attribute bytes under the paper's Figure 3 accounting: 4-byte tupleVN
  // and 1-byte operation per version group. Reproduces 42 -> 51 (+~20%)
  // for DailySales.
  size_t PaperAttributeBytes() const;

 private:
  VersionedSchema() = default;

  Schema logical_;
  Schema physical_;
  int n_ = 2;
  std::vector<size_t> updatable_;  // logical indices
  std::vector<int> updatable_ordinal_;  // logical index -> ordinal or -1
  std::vector<size_t> logical_columns_;  // 0 .. logical_cols_ - 1
  size_t logical_cols_ = 0;
};

// Outcome of reading one physical tuple on behalf of a reader session.
enum class ReadOutcome {
  kRow,      // a logical row is visible
  kIgnore,   // the tuple is invisible at this session's version
  kExpired,  // the session overlapped too many maintenance txns (§3.2 c3)
};

// Table 1 classification without materializing the logical row: which
// version (if any) of the physical tuple the session reads. `slot` is -1
// when the current values (CV) apply, otherwise the version slot whose
// pre-update values (PV) apply. The streaming scan uses this to defer —
// and for filtered-out tuples skip entirely — the per-row copy.
struct VersionResolution {
  ReadOutcome outcome;
  int slot = -1;
};

// Implements the paper's Table 1 plus the nVNL case analysis of §5 on a
// serialized physical record, without constructing any Value: the version
// of the tuple that was current at `session_vn`.
VersionResolution ResolveVersionRaw(const VersionedSchema& vs,
                                    const uint8_t* rec, Vn session_vn);

// Typed NULLs, one per logical column: the row MaterializeVersionRawInto
// fills in place.
Row LogicalPlaceholders(const VersionedSchema& vs);

// Byte-level materialization, the reader's only form: writes the logical
// columns `columns` (logical positions; vs.logical_columns() for a whole
// row) of the version `res` refers to into *out, in place — current
// values, with the resolved slot's pre-update values substituted for
// updatable attributes (VersionColumn). Only valid when
// `res.outcome == kRow`. *out must hold logical arity (start from
// LogicalPlaceholders); positions outside `columns` are left untouched. A
// reader that reuses one row per read thus writes its NULL placeholders
// once and overwrites only the projected columns per tuple: every
// downstream column index stays valid, narrow SELECTs skip decoding wide
// unused attributes, and no per-tuple row is allocated.
void MaterializeVersionRawInto(const VersionedSchema& vs, const uint8_t* rec,
                               const VersionResolution& res,
                               const std::vector<size_t>& columns, Row* out);

}  // namespace wvm::core

#endif  // OPENWVM_CORE_VERSIONED_SCHEMA_H_

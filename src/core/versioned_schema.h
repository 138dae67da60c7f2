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

  // Physical column index of logical column `i` (identity: logical columns
  // come first in the physical layout).
  size_t PhysicalIndexOfLogical(size_t i) const { return i; }
  size_t TupleVnIndex(int slot) const;
  size_t OperationIndex(int slot) const;
  // Physical index of the pre-update copy of the u-th updatable attribute
  // in version slot `slot`.
  size_t PreIndex(size_t updatable_ordinal, int slot) const;

  // --- Physical-row accessors -------------------------------------------

  Vn TupleVn(const Row& phys, int slot) const;
  Result<Op> Operation(const Row& phys, int slot) const;
  bool SlotEmpty(const Row& phys, int slot) const {
    return TupleVn(phys, slot) == kNoVn;
  }
  // Number of populated version slots (contiguous from slot 0).
  int PopulatedSlots(const Row& phys) const;

  // --- Raw-record accessors ---------------------------------------------
  // Byte-level equivalents of the Row accessors above, operating on a
  // serialized physical record. The reader's per-tuple step classifies
  // tuples on raw bytes and defers every Value construction until a
  // version is known to be both visible and unfiltered.

  Vn RawTupleVn(const uint8_t* rec, int slot) const;
  Result<Op> RawOperation(const uint8_t* rec, int slot) const;
  bool RawSlotEmpty(const uint8_t* rec, int slot) const {
    return RawTupleVn(rec, slot) == kNoVn;
  }
  int RawPopulatedSlots(const uint8_t* rec) const;

  // Ordinal of logical column `i` within updatable() (its pre-column
  // group position), or -1 when the column is not updatable.
  int UpdatableOrdinal(size_t i) const { return updatable_ordinal_[i]; }

  void SetSlot(Row* phys, int slot, Vn vn, Op op) const;
  void ClearSlot(Row* phys, int slot) const;
  // PV_slot <- CV for every updatable attribute.
  void CopyCurrentToPre(Row* phys, int slot) const;
  // PV_slot <- NULLs (used on logical insert, §3.1).
  void SetPreNull(Row* phys, int slot) const;
  // CV <- values (logical-width row).
  void SetCurrent(Row* phys, const Row& logical_values) const;

  // nVNL "push back" (§5): shift version groups one slot older, freeing
  // slot 0. The oldest group falls off. No-op when n == 2 (slot 0 is
  // simply overwritten by the caller).
  void PushBack(Row* phys) const;
  // Inverse shift, used to cancel a push when an insert made earlier in the
  // same maintenance transaction is deleted again (net effect = nothing).
  void PushForward(Row* phys) const;

  // --- Projections --------------------------------------------------------

  // Builds a fresh physical row for a logical insert at `vn`.
  Row MakeInsertRow(const Row& logical_values, Vn vn) const;

  // Current logical version (CV attributes).
  Row CurrentLogical(const Row& phys) const;
  // Pre-update logical version of version slot `slot`: updatable attributes
  // from the slot's pre columns, non-updatable from the current values
  // (they cannot change, §3.2).
  Row PreUpdateLogical(const Row& phys, int slot) const;

  // --- Storage accounting (Figure 3) --------------------------------------

  // Declared attribute bytes of the physical schema (our actual layout:
  // 8-byte VNs, 6-byte operation strings).
  size_t PhysicalAttributeBytes() const {
    return physical_.AttributeBytes();
  }
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
  size_t logical_cols_ = 0;
};

// Outcome of reading one physical tuple on behalf of a reader session.
enum class ReadOutcome {
  kRow,      // a logical row is visible (in *out)
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
// Row form: the Table-1 reference the byte-level resolver is tested
// against (readers classify records with ResolveVersionRaw).
VersionResolution ResolveVersion(const VersionedSchema& vs, const Row& phys,
                                 Vn session_vn);

// Byte-level twin of ResolveVersion: identical case analysis, run on a
// serialized physical record without constructing any Value.
VersionResolution ResolveVersionRaw(const VersionedSchema& vs,
                                    const uint8_t* rec, Vn session_vn);

// Materializes the logical row a resolution refers to. Only valid when
// `res.outcome == kRow`. Row reference form, kept as the Table-1 oracle
// the byte-level reader is tested against.
Row MaterializeVersion(const VersionedSchema& vs, const Row& phys,
                       const VersionResolution& res);

// Typed NULLs, one per logical column: the row MaterializeVersionRawInto
// fills in place.
Row LogicalPlaceholders(const VersionedSchema& vs);

// Byte-level materialization, the reader's only form: writes the logical
// columns marked in `needed` (size = logical column count; empty = all) of
// the version `res` refers to into *out, in place — current values, with
// the resolved slot's pre-update values substituted for updatable
// attributes. *out must hold logical arity (start from
// LogicalPlaceholders); positions outside `needed` are left untouched. A
// reader that reuses one row per read thus writes its NULL placeholders
// once and overwrites only the projected columns per tuple: every
// downstream column index stays valid, narrow SELECTs skip decoding wide
// unused attributes, and no per-tuple row is allocated.
void MaterializeVersionRawInto(const VersionedSchema& vs, const uint8_t* rec,
                               const VersionResolution& res,
                               const std::vector<bool>& needed, Row* out);

// Implements the paper's Table 1 plus the nVNL case analysis of §5:
// returns the version of the tuple that was current at `session_vn`.
// Convenience wrapper over ResolveVersion + MaterializeVersion.
ReadOutcome ReadVersion(const VersionedSchema& vs, const Row& phys,
                        Vn session_vn, Row* out);

}  // namespace wvm::core

#endif  // OPENWVM_CORE_VERSIONED_SCHEMA_H_

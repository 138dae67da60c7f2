#ifndef OPENWVM_TESTS_SUPPORT_ROW_REFERENCE_H_
#define OPENWVM_TESTS_SUPPORT_ROW_REFERENCE_H_

#include <optional>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/rng.h"
#include "core/decision_tables.h"
#include "core/versioned_schema.h"
#include "core/vnl_table.h"

// The Row form of paper Tables 1-4 (§3.1-§3.3, §5): a physical tuple held
// as a decoded Row of VersionedSchema::physical(), with the slot
// accessors, the slot mutators, the maintenance edit of one decision-table
// cell, the rollback revert and the Table-1 reader written over Values.
//
// The engine keeps tuples only as record bytes (VersionedSchema's Raw*
// accessors and byte mutators, ResolveVersionRaw,
// MaterializeVersionRawInto). This separate implementation is the
// reference those byte forms are diffed against: a record the engine
// writes must equal SerializeRow of the Row this code computes, and a
// record the engine reads must resolve as this code resolves its Row.
namespace wvm::core::rowref {

// --- Accessors ---------------------------------------------------------

Vn TupleVn(const VersionedSchema& vs, const Row& phys, int slot);
Result<Op> Operation(const VersionedSchema& vs, const Row& phys, int slot);
bool SlotEmpty(const VersionedSchema& vs, const Row& phys, int slot);
// Number of populated version slots (contiguous from slot 0).
int PopulatedSlots(const VersionedSchema& vs, const Row& phys);

// Current logical version (CV attributes).
Row CurrentLogical(const VersionedSchema& vs, const Row& phys);
// Pre-update logical version of version slot `slot`: updatable attributes
// from the slot's pre columns, non-updatable from the current values.
Row PreUpdateLogical(const VersionedSchema& vs, const Row& phys, int slot);

// --- Mutators (twins of the VersionedSchema byte mutators) -------------

void SetSlot(const VersionedSchema& vs, Row* phys, int slot, Vn vn, Op op);
void ClearSlot(const VersionedSchema& vs, Row* phys, int slot);
void CopyCurrentToPre(const VersionedSchema& vs, Row* phys, int slot);
void CopyPreToCurrent(const VersionedSchema& vs, Row* phys, int slot);
void SetPreNull(const VersionedSchema& vs, Row* phys, int slot);
void SetCurrent(const VersionedSchema& vs, Row* phys,
                const Row& logical_values);
void PushBack(const VersionedSchema& vs, Row* phys);
void PushForward(const VersionedSchema& vs, Row* phys);
Row MakeInsertRow(const VersionedSchema& vs, const Row& logical_values,
                  Vn vn);

// --- Maintenance (Tables 2-4) and rollback (§7) ------------------------

// Applies the edits of one decision-table cell to *phys, as maintenance
// transaction `vn` (the heap action itself is the caller's: kInsertTuple
// means *phys is a new tuple, kDeleteTuple that it leaves the heap).
// `mv_logical` carries the operation's values when the cell copies
// CV <- MV.
void ApplyDecision(const VersionedSchema& vs, const MaintenanceDecision& d,
                   Vn vn, Row* phys, const Row* mv_logical);

// Reverts one tuple stamped by an aborted transaction. `current_vn` is the
// last committed version. Returns false when the tuple must leave the heap
// instead (an insert with no older version to restore).
bool RollbackTuple(const VersionedSchema& vs, Row* phys, Vn current_vn);

// --- Table 2's conflicts under §3.1 --------------------------------------
//
// A tuple's non-updatable attributes are fixed when it is physically
// inserted: a re-insert over a logically deleted tuple keeps them, like an
// update. Generators use these to predict what an engine Insert returns.

// The status an insert of `row` (logical) must return when `existing` is
// the physical tuple holding its key (nullopt: none): kAlreadyExists over a
// live tuple, kInvalidArgument over a logically deleted one whose
// non-updatable values (compared as Values) differ from the row's, kOk
// otherwise.
StatusCode InsertOutcome(const VersionedSchema& vs,
                         const std::optional<Row>& existing, const Row& row);

// `row` with the non-updatable values of physical tuple `phys`: the row a
// re-insert over it may carry.
Row WithNonUpdatablesOf(const VersionedSchema& vs, const Row& phys, Row row);

// A generator's insert of the row it drew into `table`, whose heap it
// scans for the tuple holding the row's key: over a logically deleted
// tuple, half the time (one `rng` draw, taken only then) the row
// takes the corpse's non-updatable values, so generated histories hold
// both revives that succeed and revives that must fail. Returns the row to
// insert; *want is the status the insert must return.
Row PlanInsert(const VnlTable& table, Row drawn, Rng* rng, StatusCode* want);

// --- Table 1 -------------------------------------------------------------

VersionResolution ResolveVersion(const VersionedSchema& vs, const Row& phys,
                                 Vn session_vn);
// The logical row a resolution refers to; `res.outcome` must be kRow.
Row MaterializeVersion(const VersionedSchema& vs, const Row& phys,
                       const VersionResolution& res);
// ResolveVersion + MaterializeVersion: the version of the tuple current at
// `session_vn`, in *out when the outcome is kRow.
ReadOutcome ReadVersion(const VersionedSchema& vs, const Row& phys,
                        Vn session_vn, Row* out);

}  // namespace wvm::core::rowref

#endif  // OPENWVM_TESTS_SUPPORT_ROW_REFERENCE_H_

#ifndef OPENWVM_CORE_INVARIANT_CHECKER_H_
#define OPENWVM_CORE_INVARIANT_CHECKER_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/table.h"
#include "common/logging.h"
#include "common/status.h"
#include "core/decision_tables.h"
#include "core/version_meta.h"
#include "core/versioned_schema.h"

namespace wvm::core {

// Runtime verification of the 2VNL/nVNL protocol (paper Tables 1-4).
//
// The checks are an *independent* encoding of the legal (operation,
// tupleVN, currentVN) transitions — they do not call the decision tables
// they police, so a bug in decision_tables.cc or in the mutation plumbing
// trips them rather than being replayed. The Status-returning functions
// below are always compiled (and unit-tested directly); the engine hooks
// fire through WVM_PARANOID_ASSERT_OK, which expands to nothing unless the
// library is built with -DWVM_PARANOID_CHECKS=1 (the WVM_PARANOID CMake
// option), so release builds carry zero checking overhead.

// --- Writer side (Tables 2-4, §3.3) ---------------------------------------

// Single-writer protocol: the sole maintenance transaction is stamped
// currentVN + 1.
Status CheckWriterProtocol(Vn maintenance_vn, Vn current_vn);

// Validates one physical tuple mutation performed by the maintenance
// transaction at `maintenance_vn`. `before` / `after` are the tuple's
// slot-0 version state on either side of the mutation; std::nullopt means
// the tuple is physically absent on that side. Every legal cell of
// Tables 2-4 maps to one accepted transition; anything else — updating a
// deleted tuple, inserting over a live one, stamping a VN other than
// maintenanceVN, physically removing committed history — is rejected.
Status CheckTupleTransition(Vn maintenance_vn,
                            const std::optional<TupleVersionState>& before,
                            const std::optional<TupleVersionState>& after);

// §4.3 net-effect rule for secondary indexes: postings cover only
// non-updatable attributes, so they may move ONLY when a tuple physically
// appears or disappears — never for a logical *update* (Tables 2-4 execute
// those as in-place version updates that cannot change indexed values) and
// never for a logical delete kept as a versioned tuple. The one physical
// UPDATE allowed through is the Table-2 re-insert over a logically deleted
// key (`before_op == delete`): the tuple gets a brand-new logical identity
// and its non-updatable attributes may legitimately differ from the
// corpse's. That covers both the cross-transaction revive (nets to insert)
// and the same-transaction delete-then-insert (nets to update). `before_op`
// is the tuple's slot-0 operation before the mutation (nullopt when the
// tuple did not exist). Call before mutating postings with the decision
// being applied.
Status CheckSecondaryIndexMutation(PhysicalAction action,
                                   const std::optional<Op>& before_op,
                                   const std::optional<Op>& new_op);

// --- Reader side (Table 1, §3.2 / §5) -------------------------------------

// One populated version group's stamp, newest (slot 0) first.
struct SlotStamp {
  Vn vn;
  Op op;
};

// Validates a version-resolution decision against the slot stamps it was
// derived from. `slots` is the populated prefix of the tuple's version
// groups, `n` the relation's nVNL arity (2 for 2VNL).
Status CheckReaderResolution(Vn session_vn,
                             const std::vector<SlotStamp>& slots, int n,
                             const VersionResolution& res);

// Convenience wrapper: extracts the populated slot stamps from a
// serialized physical record, then checks.
Status CheckReaderResolutionRaw(const VersionedSchema& vs,
                                const uint8_t* rec, Vn session_vn,
                                const VersionResolution& res);

// --- Garbage collection (§7) ---------------------------------------------

// Oracle for the tombstone-driven collector: `victims` must be exactly the
// tuples the full-heap rule selects — slot-0 operation delete, tupleVN <=
// currentVN and minActiveSessionVN >= tupleVN — in Rid order. The heap is
// walked with one Table::ScanRows pass (heap order is Rid order), so a
// pool that cannot serve the heap returns its (non-kInternal) error
// instead of aborting; a differing set is kInternal.
Status CheckGcVictims(const VersionedSchema& vs, const Table& heap,
                      Vn current_vn, Vn min_active_session_vn,
                      const std::vector<Rid>& victims);

}  // namespace wvm::core

// Aborts with the violation's description when `expr` (a Status
// expression) is non-OK. Compiled out entirely — arguments unevaluated —
// without WVM_PARANOID_CHECKS, so the hooks in the hot read/write paths
// cost nothing in release builds.
#ifdef WVM_PARANOID_CHECKS
#define WVM_PARANOID_ASSERT_OK(expr)                             \
  do {                                                           \
    const ::wvm::Status _wvm_paranoid_status = (expr);           \
    if (!_wvm_paranoid_status.ok()) {                            \
      const std::string _wvm_paranoid_msg =                      \
          _wvm_paranoid_status.ToString();                       \
      WVM_CHECK_MSG(false, _wvm_paranoid_msg.c_str());           \
    }                                                            \
  } while (0)
#else
#define WVM_PARANOID_ASSERT_OK(expr) \
  do {                               \
  } while (0)
#endif

#endif  // OPENWVM_CORE_INVARIANT_CHECKER_H_

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

// §3.1: a tuple's non-updatable attributes are fixed when it is physically
// inserted — pre-update copies exist only for updatable ones, so every
// version takes the others from the one current copy. An in-place update
// of record `before` to `after` (any Tables 2-4 cell, a re-insert over a
// logically deleted tuple, a rollback revert) must therefore keep each
// non-updatable column's bytes and null bit. The indexes cover only such
// columns (§4.3), so this is also why an update never moves a posting.
Status CheckNonUpdatablesKept(const VersionedSchema& vs,
                              const uint8_t* before, const uint8_t* after);

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
// walked with one TableHeap::Scan pass on record bytes (heap order is Rid
// order), so a pool that cannot serve the heap returns its (non-kInternal)
// error instead of aborting; a differing set is kInternal.
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

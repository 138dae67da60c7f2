#include "core/decision_tables.h"

#include "common/logging.h"
#include "common/strings.h"

namespace wvm::core {

Result<MaintenanceDecision> DecideInsert(
    Vn maintenance_vn, const std::optional<TupleVersionState>& existing) {
  MaintenanceDecision d;
  if (!existing.has_value()) {
    // Table 2, third row: no conflicting tuple.
    d.action = PhysicalAction::kInsertTuple;
    d.pv_null = true;
    d.cv_from_mv = true;
    d.set_tuple_vn = true;
    d.new_op = Op::kInsert;
    return d;
  }
  WVM_CHECK(existing->tuple_vn <= maintenance_vn);
  if (existing->tuple_vn < maintenance_vn) {
    // Table 2, first row: a conflict with a live tuple is impossible in a
    // valid transaction; only a previously deleted tuple can share the key.
    if (existing->op != Op::kDelete) {
      return Status::AlreadyExists(StrPrintf(
          "insert conflicts with a live tuple (operation=%s, tupleVN=%lld)",
          OpToString(existing->op),
          static_cast<long long>(existing->tuple_vn)));
    }
    d.action = PhysicalAction::kUpdateTuple;
    d.push_back = true;
    d.pv_null = true;
    d.cv_from_mv = true;
    d.set_tuple_vn = true;
    d.new_op = Op::kInsert;
    return d;
  }
  // Table 2, second row: same maintenance transaction touched this tuple.
  if (existing->op != Op::kDelete) {
    return Status::AlreadyExists(
        "insert conflicts with a tuple inserted/updated by this "
        "maintenance transaction");
  }
  // Net effect of delete-then-insert is update; PV keeps pre-delete values.
  d.action = PhysicalAction::kUpdateTuple;
  d.cv_from_mv = true;
  d.new_op = Op::kUpdate;
  return d;
}

Result<MaintenanceDecision> DecideUpdate(Vn maintenance_vn,
                                         const TupleVersionState& state) {
  WVM_CHECK(state.tuple_vn <= maintenance_vn);
  if (state.op == Op::kDelete) {
    // Impossible cells of Table 3: the maintenance cursor reads the
    // current version and never sees deleted tuples.
    return Status::Internal("update of a logically deleted tuple");
  }
  MaintenanceDecision d;
  d.action = PhysicalAction::kUpdateTuple;
  if (state.tuple_vn < maintenance_vn) {
    // Table 3, first row: preserve the pre-update version.
    d.push_back = true;
    d.pv_from_cv = true;
    d.cv_from_mv = true;
    d.set_tuple_vn = true;
    d.new_op = Op::kUpdate;
  } else {
    // Table 3, second row: already modified by this txn; the net-effect
    // operation and the saved PV are unchanged (insert stays insert).
    d.cv_from_mv = true;
  }
  return d;
}

Result<MaintenanceDecision> DecideDelete(Vn maintenance_vn,
                                         const TupleVersionState& state) {
  WVM_CHECK(state.tuple_vn <= maintenance_vn);
  if (state.op == Op::kDelete) {
    return Status::Internal("delete of a logically deleted tuple");
  }
  MaintenanceDecision d;
  if (state.tuple_vn < maintenance_vn) {
    // Table 4, first row: logical delete is a physical update that saves
    // the pre-delete values.
    d.action = PhysicalAction::kUpdateTuple;
    d.push_back = true;
    d.pv_from_cv = true;
    d.set_tuple_vn = true;
    d.new_op = Op::kDelete;
    return d;
  }
  // Table 4, second row.
  if (state.op == Op::kInsert) {
    if (state.has_older_slots) {
      // nVNL: the same-txn insert pushed older history back one slot;
      // deleting it again just pops that push (net effect: nothing —
      // the tuple reverts to its pre-transaction versions).
      d.action = PhysicalAction::kUpdateTuple;
      d.pop_slot = true;
    } else {
      // 2VNL (or a genuinely fresh insert): remove the tuple physically.
      d.action = PhysicalAction::kDeleteTuple;
    }
    return d;
  }
  // update -> delete in the same txn: net effect delete, PV already holds
  // the pre-transaction values.
  d.action = PhysicalAction::kUpdateTuple;
  d.new_op = Op::kDelete;
  return d;
}

}  // namespace wvm::core

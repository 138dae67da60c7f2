#include "core/invariant_checker.h"

#include "common/strings.h"

namespace wvm::core {

namespace {

Status Violation(const char* what, Vn a, Vn b) {
  return Status::Internal(StrPrintf("%s (VN %lld vs %lld)", what,
                                    static_cast<long long>(a),
                                    static_cast<long long>(b)));
}

}  // namespace

Status CheckWriterProtocol(Vn maintenance_vn, Vn current_vn) {
  if (maintenance_vn != current_vn + 1) {
    return Violation(
        "single-writer protocol violated: maintenanceVN must be "
        "currentVN + 1",
        maintenance_vn, current_vn);
  }
  return Status::OK();
}

Status CheckSecondaryIndexMutation(PhysicalAction action,
                                   const std::optional<Op>& before_op,
                                   const std::optional<Op>& new_op) {
  (void)new_op;
  switch (action) {
    case PhysicalAction::kInsertTuple:
    case PhysicalAction::kDeleteTuple:
      // A tuple physically appearing/disappearing legitimately moves
      // postings for every index, §4.3 notwithstanding.
      return Status::OK();
    case PhysicalAction::kUpdateTuple:
      if (before_op.has_value() && *before_op == Op::kDelete) {
        // Table-2 re-insert over a logically deleted key: executed as a
        // physical update (netting to insert across transactions, or to
        // update within one), but the tuple's logical identity is new and
        // its non-updatable attributes may change — postings must follow.
        return Status::OK();
      }
      return Status::Internal(
          "secondary-index postings mutated by an in-place version update: "
          "indexes over non-updatable attributes are maintenance-free for "
          "logical updates and deletes (§4.3)");
  }
  return Status::Internal("bad physical action");
}

Status CheckTupleTransition(Vn maintenance_vn,
                            const std::optional<TupleVersionState>& before,
                            const std::optional<TupleVersionState>& after) {
  if (maintenance_vn <= kNoVn) {
    return Status::Internal("maintenance VN must be positive");
  }

  // Physical removal: the only legal cell is Table 4's delete of a tuple
  // this same transaction inserted — committed versions are never
  // physically destroyed by maintenance.
  if (!after.has_value()) {
    if (!before.has_value()) {
      return Status::Internal("physical delete of an absent tuple");
    }
    if (before->tuple_vn != maintenance_vn ||
        before->op != Op::kInsert) {
      return Status::Internal(
          "physical delete of a committed version (only a "
          "same-transaction insert may vanish, Table 4)");
    }
    if (before->has_older_slots) {
      return Status::Internal(
          "physical delete would drop pushed-back history (the nVNL "
          "cell of Table 4 pops the slot instead)");
    }
    return Status::OK();
  }

  // Materializing a tuple out of nothing: Table 2's
  // no-conflicting-tuple row.
  if (!before.has_value()) {
    if (after->op != Op::kInsert) {
      return Status::Internal(
          "a fresh physical tuple must carry operation=insert (Table 2)");
    }
    if (after->tuple_vn != maintenance_vn) {
      return Violation("fresh insert must be stamped maintenanceVN",
                       after->tuple_vn, maintenance_vn);
    }
    return Status::OK();
  }

  if (before->tuple_vn > maintenance_vn) {
    return Violation(
        "tuple already stamped past the single writer's maintenanceVN",
        before->tuple_vn, maintenance_vn);
  }

  if (after->tuple_vn < maintenance_vn) {
    // The only mutation that leaves slot 0 older than maintenanceVN is
    // the nVNL pop: deleting a same-transaction insert that had pushed
    // older history back reverts the tuple to its pre-transaction stamp.
    if (before->tuple_vn != maintenance_vn ||
        before->op != Op::kInsert || !before->has_older_slots) {
      return Status::Internal(
          "mutation left slot 0 older than maintenanceVN without a "
          "legal pop (Table 4 nVNL cell)");
    }
    return Status::OK();
  }
  if (after->tuple_vn > maintenance_vn) {
    return Violation("mutation stamped a VN past maintenanceVN",
                     after->tuple_vn, maintenance_vn);
  }

  // From here, after->tuple_vn == maintenance_vn.
  if (before->tuple_vn < maintenance_vn) {
    // First touch by this transaction: the first rows of Tables 2-4.
    if (before->op == Op::kDelete) {
      // Only a re-insert may follow a committed delete; the impossible
      // cells of Tables 3/4 update or delete a deleted tuple.
      if (after->op != Op::kInsert) {
        return Status::Internal(
            "update/delete of a logically deleted tuple (impossible "
            "cells of Tables 3/4)");
      }
      return Status::OK();
    }
    // A live tuple may be updated or deleted, never inserted over.
    if (after->op == Op::kInsert) {
      return Status::Internal(
          "insert over a live tuple (impossible cell of Table 2)");
    }
    return Status::OK();
  }

  // Same-transaction retouch: the second rows of Tables 2-4 record net
  // effects, and the tuple keeps its maintenanceVN stamp.
  switch (before->op) {
    case Op::kDelete:
      // delete-then-insert nets to update (the saved PV still holds the
      // pre-transaction values).
      if (after->op != Op::kUpdate) {
        return Status::Internal(
            "a same-transaction delete may only be re-inserted over, "
            "netting to update (Table 2)");
      }
      return Status::OK();
    case Op::kInsert:
      // insert-then-update stays insert; insert-then-delete leaves no
      // tuple at maintenanceVN (physical delete or pop, handled above).
      if (after->op != Op::kInsert) {
        return Status::Internal(
            "a same-transaction insert must keep operation=insert "
            "(Table 3) or vanish (Table 4)");
      }
      return Status::OK();
    case Op::kUpdate:
      // update-then-update stays update; update-then-delete nets to
      // delete. Netting back to insert is impossible.
      if (after->op == Op::kInsert) {
        return Status::Internal(
            "a same-transaction update cannot net to insert");
      }
      return Status::OK();
  }
  return Status::Internal("unknown before-operation");
}

Status CheckReaderResolution(Vn session_vn,
                             const std::vector<SlotStamp>& slots, int n,
                             const VersionResolution& res) {
  if (slots.empty()) {
    return Status::Internal("tuple with no populated version slots");
  }
  const int m = static_cast<int>(slots.size());
  if (n < 2 || m > n - 1) {
    return Status::Internal("populated slots exceed the relation's arity");
  }
  for (int i = 0; i + 1 < m; ++i) {
    if (slots[i].vn < slots[i + 1].vn) {
      return Status::Internal(
          "version slots out of order (newest must be slot 0)");
    }
  }

  // Table 1, first row: the session saw slot 0's modification commit, so
  // only the current values (or the fact of their deletion) apply.
  if (session_vn >= slots[0].vn) {
    if (res.slot != -1) {
      return Status::Internal(
          "session at or past tupleVN must resolve to the current "
          "values (Table 1, first row)");
    }
    if (slots[0].op == Op::kDelete) {
      if (res.outcome != ReadOutcome::kIgnore) {
        return Status::Internal(
            "reader surfaced a logically deleted current version");
      }
    } else if (res.outcome != ReadOutcome::kRow) {
      return Status::Internal("reader skipped a live current version");
    }
    return Status::OK();
  }

  // Pre-update reads (Table 1, second row / §5): the resolved slot must
  // be the oldest version still newer than the session.
  const int j = res.slot;
  if (j < 0 || j >= m) {
    return Status::Internal(
        "resolved slot out of range for a pre-update read");
  }
  if (!(slots[j].vn > session_vn &&
        (j + 1 == m || slots[j + 1].vn <= session_vn))) {
    return Status::Internal(
        "resolved slot is not the oldest version newer than the "
        "session (§5)");
  }

  switch (res.outcome) {
    case ReadOutcome::kExpired:
      // §3.2 case 3: legal only when the session predates even the
      // oldest retained version and history may have been truncated.
      if (j != m - 1 || session_vn >= slots[m - 1].vn - 1) {
        return Status::Internal(
            "expiration declared while a readable version remains "
            "(§3.2 case 3)");
      }
      if (m < n - 1 && slots[m - 1].op == Op::kInsert) {
        return Status::Internal(
            "expired a session whose full history is present (the "
            "oldest retained record is the tuple's insert)");
      }
      return Status::OK();
    case ReadOutcome::kIgnore:
      // The tuple did not exist at the session's version: slot j must be
      // the insert.
      if (slots[j].op != Op::kInsert) {
        return Status::Internal(
            "pre-update version ignored although the tuple existed "
            "(Table 1, second row)");
      }
      return Status::OK();
    case ReadOutcome::kRow:
      if (slots[j].op == Op::kInsert) {
        return Status::Internal(
            "reader surfaced a version from before the tuple's insert "
            "(Table 1, second row)");
      }
      if (j == m - 1 && m == n - 1 &&
          session_vn < slots[m - 1].vn - 1) {
        return Status::Internal(
            "reader served a version older than the retained history "
            "instead of expiring (§3.2 case 3)");
      }
      return Status::OK();
  }
  return Status::Internal("unknown read outcome");
}

Status CheckReaderResolutionRaw(const VersionedSchema& vs,
                                const uint8_t* rec, Vn session_vn,
                                const VersionResolution& res) {
  const int m = vs.RawPopulatedSlots(rec);
  std::vector<SlotStamp> slots;
  slots.reserve(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    Result<Op> op = vs.RawOperation(rec, i);
    if (!op.ok()) return op.status();
    slots.push_back({vs.RawTupleVn(rec, i), op.value()});
  }
  return CheckReaderResolution(session_vn, slots, vs.n(), res);
}

Status CheckGcVictims(const VersionedSchema& vs, const Table& heap,
                      Vn current_vn, Vn min_active_session_vn,
                      const std::vector<Rid>& victims) {
  std::vector<Rid> expected;
  Status decoded;
  WVM_RETURN_IF_ERROR(heap.ScanRows([&](Rid rid, const Row& phys) {
    Result<Op> op = vs.Operation(phys, 0);
    if (!op.ok()) {
      decoded = op.status();
      return false;
    }
    const Vn vn = vs.TupleVn(phys, 0);
    if (op.value() == Op::kDelete && vn <= current_vn &&
        min_active_session_vn >= vn) {
      expected.push_back(rid);
    }
    return true;
  }));
  WVM_RETURN_IF_ERROR(decoded);
  if (expected != victims) {
    return Status::Internal(StrPrintf(
        "GC victims diverge from the full-heap rule: tombstone set yields "
        "%zu, heap holds %zu reclaimable corpses (currentVN %lld, "
        "minActiveSessionVN %lld)",
        victims.size(), expected.size(),
        static_cast<long long>(current_vn),
        static_cast<long long>(min_active_session_vn)));
  }
  return Status::OK();
}

}  // namespace wvm::core

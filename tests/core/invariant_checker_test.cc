#include "core/invariant_checker.h"

#include <gtest/gtest.h>

namespace wvm::core {
namespace {

TupleVersionState State(Vn vn, Op op, bool older = false) {
  return TupleVersionState{vn, op, older};
}

// ---------------------------------------------------------------------------
// Single-writer protocol.

TEST(WriterProtocolTest, MaintenanceVnIsCurrentPlusOne) {
  EXPECT_TRUE(CheckWriterProtocol(1, 0).ok());
  EXPECT_TRUE(CheckWriterProtocol(8, 7).ok());
  EXPECT_FALSE(CheckWriterProtocol(7, 7).ok());   // re-using currentVN
  EXPECT_FALSE(CheckWriterProtocol(9, 7).ok());   // skipping a version
  EXPECT_FALSE(CheckWriterProtocol(6, 7).ok());   // going backwards
}

// ---------------------------------------------------------------------------
// Writer transitions: every legal cell of Tables 2-4 is accepted.

TEST(TupleTransitionTest, LegalTable2Cells) {
  // No conflicting tuple: fresh physical insert.
  EXPECT_TRUE(
      CheckTupleTransition(5, std::nullopt, State(5, Op::kInsert)).ok());
  // Re-insert over a tuple deleted by an earlier txn.
  EXPECT_TRUE(
      CheckTupleTransition(5, State(3, Op::kDelete), State(5, Op::kInsert))
          .ok());
  // Re-insert over a same-txn delete nets to update.
  EXPECT_TRUE(
      CheckTupleTransition(5, State(5, Op::kDelete), State(5, Op::kUpdate))
          .ok());
}

TEST(TupleTransitionTest, LegalTable3Cells) {
  // First update of a committed tuple.
  EXPECT_TRUE(
      CheckTupleTransition(5, State(3, Op::kInsert), State(5, Op::kUpdate))
          .ok());
  EXPECT_TRUE(
      CheckTupleTransition(5, State(3, Op::kUpdate), State(5, Op::kUpdate))
          .ok());
  // Updating a same-txn insert keeps operation=insert.
  EXPECT_TRUE(
      CheckTupleTransition(5, State(5, Op::kInsert), State(5, Op::kInsert))
          .ok());
  // Updating a same-txn update stays update.
  EXPECT_TRUE(
      CheckTupleTransition(5, State(5, Op::kUpdate), State(5, Op::kUpdate))
          .ok());
}

TEST(TupleTransitionTest, LegalTable4Cells) {
  // Logical delete of a committed tuple.
  EXPECT_TRUE(
      CheckTupleTransition(5, State(3, Op::kInsert), State(5, Op::kDelete))
          .ok());
  EXPECT_TRUE(
      CheckTupleTransition(5, State(3, Op::kUpdate), State(5, Op::kDelete))
          .ok());
  // Delete of a same-txn update nets to delete.
  EXPECT_TRUE(
      CheckTupleTransition(5, State(5, Op::kUpdate), State(5, Op::kDelete))
          .ok());
  // Delete of a same-txn insert: physical removal (2VNL)...
  EXPECT_TRUE(
      CheckTupleTransition(5, State(5, Op::kInsert), std::nullopt).ok());
  // ...or the nVNL pop back to the pre-transaction stamp.
  EXPECT_TRUE(CheckTupleTransition(5,
                                   State(5, Op::kInsert, /*older=*/true),
                                   State(3, Op::kDelete))
                  .ok());
}

// Each impossible cell of Tables 2-4 fires the checker.

TEST(TupleTransitionTest, IllegalInsertOverLiveTuple) {
  // Table 2, impossible cells: insert conflicting with a live tuple.
  EXPECT_FALSE(
      CheckTupleTransition(5, State(3, Op::kInsert), State(5, Op::kInsert))
          .ok());
  EXPECT_FALSE(
      CheckTupleTransition(5, State(3, Op::kUpdate), State(5, Op::kInsert))
          .ok());
}

TEST(TupleTransitionTest, IllegalUpdateOfDeletedTuple) {
  // Table 3, impossible cells: the cursor never yields deleted tuples.
  EXPECT_FALSE(
      CheckTupleTransition(5, State(3, Op::kDelete), State(5, Op::kUpdate))
          .ok());
  // Table 4's twin: deleting an already-deleted tuple.
  EXPECT_FALSE(
      CheckTupleTransition(5, State(3, Op::kDelete), State(5, Op::kDelete))
          .ok());
  // Same-txn delete followed by anything but the re-insert-as-update.
  EXPECT_FALSE(
      CheckTupleTransition(5, State(5, Op::kDelete), State(5, Op::kDelete))
          .ok());
  EXPECT_FALSE(
      CheckTupleTransition(5, State(5, Op::kDelete), State(5, Op::kInsert))
          .ok());
}

TEST(TupleTransitionTest, IllegalVersionStamps) {
  // A mutation must stamp exactly maintenanceVN.
  EXPECT_FALSE(
      CheckTupleTransition(5, std::nullopt, State(4, Op::kInsert)).ok());
  EXPECT_FALSE(
      CheckTupleTransition(5, std::nullopt, State(6, Op::kInsert)).ok());
  EXPECT_FALSE(
      CheckTupleTransition(5, State(3, Op::kInsert), State(6, Op::kUpdate))
          .ok());
  // A tuple stamped past maintenanceVN means a second writer slipped in.
  EXPECT_FALSE(
      CheckTupleTransition(5, State(6, Op::kInsert), State(5, Op::kUpdate))
          .ok());
  // Leaving slot 0 older than maintenanceVN without a legal pop.
  EXPECT_FALSE(
      CheckTupleTransition(5, State(3, Op::kUpdate), State(3, Op::kUpdate))
          .ok());
}

TEST(TupleTransitionTest, IllegalPhysicalDeletes) {
  // Physically destroying committed versions.
  EXPECT_FALSE(
      CheckTupleTransition(5, State(3, Op::kInsert), std::nullopt).ok());
  EXPECT_FALSE(
      CheckTupleTransition(5, State(5, Op::kUpdate), std::nullopt).ok());
  EXPECT_FALSE(CheckTupleTransition(5, std::nullopt, std::nullopt).ok());
  // Deleting a same-txn insert that pushed history back must pop, not
  // physically remove the tuple.
  EXPECT_FALSE(CheckTupleTransition(5, State(5, Op::kInsert, true),
                                    std::nullopt)
                   .ok());
}

TEST(TupleTransitionTest, IllegalSameTxnNetEffects) {
  // insert-then-update may not net to update or delete in place.
  EXPECT_FALSE(
      CheckTupleTransition(5, State(5, Op::kInsert), State(5, Op::kUpdate))
          .ok());
  EXPECT_FALSE(
      CheckTupleTransition(5, State(5, Op::kInsert), State(5, Op::kDelete))
          .ok());
  // update-then-anything may not net back to insert.
  EXPECT_FALSE(
      CheckTupleTransition(5, State(5, Op::kUpdate), State(5, Op::kInsert))
          .ok());
}

// ---------------------------------------------------------------------------
// Reader resolutions (Table 1 / §5).

VersionResolution Res(ReadOutcome outcome, int slot) {
  return {outcome, slot};
}

TEST(ReaderResolutionTest, LegalCurrentVersionReads) {
  const std::vector<SlotStamp> live = {{5, Op::kUpdate}};
  EXPECT_TRUE(CheckReaderResolution(5, live, 2,
                                    Res(ReadOutcome::kRow, -1))
                  .ok());
  EXPECT_TRUE(CheckReaderResolution(7, live, 2,
                                    Res(ReadOutcome::kRow, -1))
                  .ok());
  const std::vector<SlotStamp> deleted = {{5, Op::kDelete}};
  EXPECT_TRUE(CheckReaderResolution(5, deleted, 2,
                                    Res(ReadOutcome::kIgnore, -1))
                  .ok());
}

TEST(ReaderResolutionTest, LegalPreUpdateReads) {
  const std::vector<SlotStamp> updated = {{5, Op::kUpdate}};
  EXPECT_TRUE(CheckReaderResolution(4, updated, 2,
                                    Res(ReadOutcome::kRow, 0))
                  .ok());
  const std::vector<SlotStamp> inserted = {{5, Op::kInsert}};
  EXPECT_TRUE(CheckReaderResolution(4, inserted, 2,
                                    Res(ReadOutcome::kIgnore, 0))
                  .ok());
  EXPECT_TRUE(CheckReaderResolution(3, inserted, 2,
                                    Res(ReadOutcome::kExpired, 0))
                  .ok());
}

TEST(ReaderResolutionTest, IllegalCurrentVersionDecisions) {
  const std::vector<SlotStamp> live = {{5, Op::kUpdate}};
  // Serving the pre-update version to a session that saw slot 0 commit.
  EXPECT_FALSE(CheckReaderResolution(5, live, 2,
                                     Res(ReadOutcome::kRow, 0))
                   .ok());
  // Skipping a live current version.
  EXPECT_FALSE(CheckReaderResolution(5, live, 2,
                                     Res(ReadOutcome::kIgnore, -1))
                   .ok());
  // Surfacing a deleted current version.
  const std::vector<SlotStamp> deleted = {{5, Op::kDelete}};
  EXPECT_FALSE(CheckReaderResolution(5, deleted, 2,
                                     Res(ReadOutcome::kRow, -1))
                   .ok());
}

TEST(ReaderResolutionTest, IllegalPreUpdateDecisions) {
  const std::vector<SlotStamp> updated = {{5, Op::kUpdate}};
  // Surfacing a version from before the tuple's insert.
  const std::vector<SlotStamp> inserted = {{5, Op::kInsert}};
  EXPECT_FALSE(CheckReaderResolution(4, inserted, 2,
                                     Res(ReadOutcome::kRow, 0))
                   .ok());
  // Ignoring a pre-update version that did exist.
  EXPECT_FALSE(CheckReaderResolution(4, updated, 2,
                                     Res(ReadOutcome::kIgnore, 0))
                   .ok());
  // Expiring a session that can still read the pre-update version.
  EXPECT_FALSE(CheckReaderResolution(4, updated, 2,
                                     Res(ReadOutcome::kExpired, 0))
                   .ok());
  // Serving a 2VNL session older than the retained history.
  EXPECT_FALSE(CheckReaderResolution(3, updated, 2,
                                     Res(ReadOutcome::kRow, 0))
                   .ok());
}

TEST(ReaderResolutionTest, NVnlSlotSelection) {
  // n = 4: three slots, VNs 7 (newest), 5, 3.
  const std::vector<SlotStamp> slots = {
      {7, Op::kUpdate}, {5, Op::kUpdate}, {3, Op::kInsert}};
  // Session at 6 reads slot 0's pre-update version.
  EXPECT_TRUE(CheckReaderResolution(6, slots, 4,
                                    Res(ReadOutcome::kRow, 0))
                  .ok());
  // Session at 4 reads slot 1's.
  EXPECT_TRUE(CheckReaderResolution(4, slots, 4,
                                    Res(ReadOutcome::kRow, 1))
                  .ok());
  // Session at 2 predates the insert: the tuple did not exist.
  EXPECT_TRUE(CheckReaderResolution(2, slots, 4,
                                    Res(ReadOutcome::kIgnore, 2))
                  .ok());
  // Resolving the wrong slot fires.
  EXPECT_FALSE(CheckReaderResolution(4, slots, 4,
                                     Res(ReadOutcome::kRow, 0))
                   .ok());
  EXPECT_FALSE(CheckReaderResolution(6, slots, 4,
                                     Res(ReadOutcome::kRow, 1))
                   .ok());
  // All slots full: a session older than the truncation horizon expires.
  EXPECT_FALSE(CheckReaderResolution(1, slots, 4,
                                     Res(ReadOutcome::kRow, 2))
                   .ok());
  EXPECT_TRUE(CheckReaderResolution(1, slots, 4,
                                    Res(ReadOutcome::kExpired, 2))
                  .ok());
  // Free slots + oldest record is the insert: full history is present,
  // expiring would be premature.
  const std::vector<SlotStamp> partial = {{7, Op::kUpdate},
                                          {5, Op::kInsert}};
  EXPECT_FALSE(CheckReaderResolution(2, partial, 4,
                                     Res(ReadOutcome::kExpired, 1))
                   .ok());
  EXPECT_TRUE(CheckReaderResolution(2, partial, 4,
                                    Res(ReadOutcome::kIgnore, 1))
                  .ok());
}

TEST(ReaderResolutionTest, MalformedTuples) {
  EXPECT_FALSE(CheckReaderResolution(5, {}, 2,
                                     Res(ReadOutcome::kRow, -1))
                   .ok());
  // More populated slots than the arity allows.
  const std::vector<SlotStamp> overfull = {{5, Op::kUpdate},
                                           {3, Op::kUpdate}};
  EXPECT_FALSE(CheckReaderResolution(5, overfull, 2,
                                     Res(ReadOutcome::kRow, -1))
                   .ok());
  // Slots out of order.
  const std::vector<SlotStamp> disordered = {
      {3, Op::kUpdate}, {5, Op::kUpdate}, {4, Op::kInsert}};
  EXPECT_FALSE(CheckReaderResolution(6, disordered, 4,
                                     Res(ReadOutcome::kRow, -1))
                   .ok());
}

// ---------------------------------------------------------------------------
// §3.1: non-updatable bytes are fixed when a tuple is physically inserted,
// so every in-place update keeps them (and secondary postings, which cover
// only such columns, never move on one).

// (k key, s non-updatable, v updatable), stored at `vn` as an insert.
struct FixedTuple {
  VersionedSchema vs;
  std::vector<uint8_t> rec;

  FixedTuple(int n, const Row& row, Vn vn)
      : vs(VersionedSchema::Create(
               Schema({Column::Int64("k"), Column::String("s", 4),
                       Column::Int64("v", /*updatable=*/true)},
                      {0}),
               n)
               .value()),
        rec(vs.physical().RowByteSize()) {
    vs.MakeInsertRow(row, vn, rec.data());
  }
};

Row KSV(int64_t k, const char* s, int64_t v) {
  return {Value::Int64(k), s == nullptr ? Value::Null(TypeId::kString)
                                        : Value::String(s),
          Value::Int64(v)};
}

TEST(NonUpdatablesKeptTest, AcceptsEveryCellThatKeepsThem) {
  for (int n : {2, 3}) {
    FixedTuple t(n, KSV(1, "a", 10), 1);
    std::vector<uint8_t> after = t.rec;
    // Table 3 first row (update), then Table 4 (delete), then a revive
    // over the corpse with the same s, and a rollback-style revert.
    t.vs.PushBack(after.data());
    t.vs.CopyCurrentToPre(after.data(), 0);
    t.vs.SetCurrent(after.data(), KSV(1, "a", 20));
    t.vs.SetSlot(after.data(), 0, 2, Op::kUpdate);
    EXPECT_TRUE(CheckNonUpdatablesKept(t.vs, t.rec.data(), after.data()).ok());
    std::vector<uint8_t> deleted = after;
    t.vs.SetSlot(deleted.data(), 0, 2, Op::kDelete);
    EXPECT_TRUE(CheckNonUpdatablesKept(t.vs, after.data(), deleted.data()).ok());
    std::vector<uint8_t> revived = deleted;
    t.vs.SetCurrent(revived.data(), KSV(1, "a", 30));
    t.vs.SetSlot(revived.data(), 0, 2, Op::kUpdate);
    EXPECT_TRUE(
        CheckNonUpdatablesKept(t.vs, deleted.data(), revived.data()).ok());
    std::vector<uint8_t> reverted = revived;
    t.vs.CopyPreToCurrent(reverted.data(), 0);
    EXPECT_TRUE(
        CheckNonUpdatablesKept(t.vs, revived.data(), reverted.data()).ok());
  }
}

TEST(NonUpdatablesKeptTest, RejectsRevivesThatChangeThem) {
  // A re-insert over a logically deleted tuple, across transactions (nets
  // to insert) or within one (nets to update), with a different s: every
  // version older sessions read would show the new s.
  for (Op net : {Op::kInsert, Op::kUpdate}) {
    FixedTuple t(3, KSV(1, "a", 10), 1);
    t.vs.SetSlot(t.rec.data(), 0, 2, Op::kDelete);
    std::vector<uint8_t> revived = t.rec;
    t.vs.SetCurrent(revived.data(), KSV(1, "b", 20));
    t.vs.SetSlot(revived.data(), 0, 3, net);
    const Status s =
        CheckNonUpdatablesKept(t.vs, t.rec.data(), revived.data());
    EXPECT_EQ(s.code(), StatusCode::kInternal) << OpToString(net);
    EXPECT_NE(s.message().find("'s'"), std::string::npos) << s.ToString();
  }
}

TEST(NonUpdatablesKeptTest, RejectsAnyRewriteOfANonUpdatableColumn) {
  // Whatever the slot-0 operations on either side, an in-place update may
  // not change a non-updatable column's bytes, its null bit, or the key.
  for (Op before_op : {Op::kInsert, Op::kUpdate, Op::kDelete}) {
    for (Op after_op : {Op::kInsert, Op::kUpdate, Op::kDelete}) {
      for (const Row& next :
           {KSV(1, "b", 10), KSV(1, nullptr, 10), KSV(2, "a", 10)}) {
        FixedTuple t(2, KSV(1, "a", 10), 1);
        t.vs.SetSlot(t.rec.data(), 0, 1, before_op);
        std::vector<uint8_t> after = t.rec;
        t.vs.SetCurrent(after.data(), next);
        t.vs.SetSlot(after.data(), 0, 2, after_op);
        EXPECT_FALSE(
            CheckNonUpdatablesKept(t.vs, t.rec.data(), after.data()).ok())
            << OpToString(before_op) << " -> " << OpToString(after_op)
            << ": " << RowToString(next);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The checker agrees with the engine's own resolution on every reachable
// (sessionVN, tupleVN, operation) combination — the hooks must never fire
// on a correct engine.

TEST(ReaderResolutionTest, AcceptsEveryEngineDecision2Vnl) {
  const VersionedSchema vs =
      VersionedSchema::Create(
          Schema({Column::Int64("k"), Column::Int64("v", /*updatable=*/true)},
                 {0}),
          2)
          .value();
  std::vector<uint8_t> rec(vs.physical().RowByteSize());
  for (Vn tuple_vn = 1; tuple_vn <= 6; ++tuple_vn) {
    for (Vn session_vn = 0; session_vn <= 7; ++session_vn) {
      for (Op op : {Op::kInsert, Op::kUpdate, Op::kDelete}) {
        vs.MakeInsertRow({Value::Int64(1), Value::Int64(2)}, tuple_vn,
                         rec.data());
        vs.SetSlot(rec.data(), 0, tuple_vn, op);
        const VersionResolution res =
            ResolveVersionRaw(vs, rec.data(), session_vn);
        const std::vector<SlotStamp> slots = {{tuple_vn, op}};
        const Status s = CheckReaderResolution(session_vn, slots, 2, res);
        EXPECT_TRUE(s.ok())
            << "sessionVN=" << session_vn << " tupleVN=" << tuple_vn
            << " op=" << OpToString(op) << ": " << s.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace wvm::core

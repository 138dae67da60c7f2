#include "core/decision_tables.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/versioned_schema.h"

namespace wvm::core {
namespace {

// ---------------------------------------------------------------------------
// Table 1 (reader decision table), exhaustively, as the engine runs it: the
// resolution of a 2VNL tuple whose version slot is stamped {tuple_vn, op}.

VersionResolution Resolve2Vnl(Vn session_vn, Vn tuple_vn, Op op) {
  const VersionedSchema vs =
      VersionedSchema::Create(
          Schema({Column::Int64("k"), Column::Int64("v", /*updatable=*/true)},
                 {0}),
          2)
          .value();
  std::vector<uint8_t> rec(vs.physical().RowByteSize());
  vs.MakeInsertRow({Value::Int64(1), Value::Int64(2)}, tuple_vn, rec.data());
  vs.SetSlot(rec.data(), 0, tuple_vn, op);
  return ResolveVersionRaw(vs, rec.data(), session_vn);
}

bool ReadsCurrent(const VersionResolution& r) {
  return r.outcome == ReadOutcome::kRow && r.slot == -1;
}
bool ReadsPreUpdate(const VersionResolution& r) {
  return r.outcome == ReadOutcome::kRow && r.slot == 0;
}
bool Ignores(const VersionResolution& r) {
  return r.outcome == ReadOutcome::kIgnore;
}

TEST(Table1Test, CurrentVersionRow) {
  // sessionVN >= tupleVN: read current, unless deleted.
  EXPECT_TRUE(ReadsCurrent(Resolve2Vnl(5, 5, Op::kInsert)));
  EXPECT_TRUE(ReadsCurrent(Resolve2Vnl(6, 5, Op::kInsert)));
  EXPECT_TRUE(ReadsCurrent(Resolve2Vnl(5, 5, Op::kUpdate)));
  EXPECT_TRUE(Ignores(Resolve2Vnl(5, 5, Op::kDelete)));
}

TEST(Table1Test, PreUpdateVersionRow) {
  // sessionVN == tupleVN - 1: read pre-update, unless inserted.
  EXPECT_TRUE(Ignores(Resolve2Vnl(4, 5, Op::kInsert)));
  EXPECT_TRUE(ReadsPreUpdate(Resolve2Vnl(4, 5, Op::kUpdate)));
  EXPECT_TRUE(ReadsPreUpdate(Resolve2Vnl(4, 5, Op::kDelete)));
}

TEST(Table1Test, ExpiredCase) {
  // sessionVN < tupleVN - 1 (§3.2 case 3).
  for (Op op : {Op::kInsert, Op::kUpdate, Op::kDelete}) {
    EXPECT_EQ(Resolve2Vnl(3, 5, op).outcome, ReadOutcome::kExpired);
    EXPECT_EQ(Resolve2Vnl(1, 5, op).outcome, ReadOutcome::kExpired);
  }
}

// ---------------------------------------------------------------------------
// Table 2 (insert), exhaustively over all cells.

TEST(Table2Test, NoConflictingTupleRow) {
  Result<MaintenanceDecision> d = DecideInsert(5, std::nullopt);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->action, PhysicalAction::kInsertTuple);
  EXPECT_TRUE(d->pv_null);
  EXPECT_TRUE(d->cv_from_mv);
  EXPECT_TRUE(d->set_tuple_vn);
  EXPECT_EQ(d->new_op, Op::kInsert);
  EXPECT_FALSE(d->push_back);
}

TEST(Table2Test, OlderVnRow) {
  // Conflict with a live tuple from an earlier txn: impossible cells.
  EXPECT_EQ(DecideInsert(5, TupleVersionState{3, Op::kInsert})
                .status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(DecideInsert(5, TupleVersionState{3, Op::kUpdate})
                .status().code(),
            StatusCode::kAlreadyExists);
  // Previously deleted: physical update that re-inserts.
  Result<MaintenanceDecision> d =
      DecideInsert(5, TupleVersionState{3, Op::kDelete});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->action, PhysicalAction::kUpdateTuple);
  EXPECT_TRUE(d->pv_null);
  EXPECT_TRUE(d->cv_from_mv);
  EXPECT_TRUE(d->set_tuple_vn);
  EXPECT_EQ(d->new_op, Op::kInsert);
  EXPECT_TRUE(d->push_back);
}

TEST(Table2Test, SameVnRow) {
  EXPECT_EQ(DecideInsert(5, TupleVersionState{5, Op::kInsert})
                .status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(DecideInsert(5, TupleVersionState{5, Op::kUpdate})
                .status().code(),
            StatusCode::kAlreadyExists);
  // delete + insert in the same txn: net effect is update.
  Result<MaintenanceDecision> d =
      DecideInsert(5, TupleVersionState{5, Op::kDelete});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->action, PhysicalAction::kUpdateTuple);
  EXPECT_TRUE(d->cv_from_mv);
  EXPECT_FALSE(d->pv_null);        // PV keeps the pre-delete values
  EXPECT_FALSE(d->set_tuple_vn);   // already stamped with this VN
  EXPECT_EQ(d->new_op, Op::kUpdate);
  EXPECT_FALSE(d->push_back);      // the delete already pushed
}

// ---------------------------------------------------------------------------
// Table 3 (update), exhaustively.

TEST(Table3Test, OlderVnRow) {
  for (Op op : {Op::kInsert, Op::kUpdate}) {
    Result<MaintenanceDecision> d =
        DecideUpdate(5, TupleVersionState{3, op});
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->action, PhysicalAction::kUpdateTuple);
    EXPECT_TRUE(d->pv_from_cv);
    EXPECT_TRUE(d->cv_from_mv);
    EXPECT_TRUE(d->set_tuple_vn);
    EXPECT_EQ(d->new_op, Op::kUpdate);
    EXPECT_TRUE(d->push_back);
  }
  // Updating a deleted tuple is impossible.
  EXPECT_FALSE(DecideUpdate(5, TupleVersionState{3, Op::kDelete}).ok());
}

TEST(Table3Test, SameVnRowPreservesNetEffect) {
  for (Op op : {Op::kInsert, Op::kUpdate}) {
    Result<MaintenanceDecision> d =
        DecideUpdate(5, TupleVersionState{5, op});
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->action, PhysicalAction::kUpdateTuple);
    EXPECT_TRUE(d->cv_from_mv);
    EXPECT_FALSE(d->pv_from_cv);      // PV already holds the right values
    EXPECT_FALSE(d->set_tuple_vn);
    EXPECT_FALSE(d->new_op.has_value());  // insert stays insert
    EXPECT_FALSE(d->push_back);
  }
  EXPECT_FALSE(DecideUpdate(5, TupleVersionState{5, Op::kDelete}).ok());
}

// ---------------------------------------------------------------------------
// Table 4 (delete), exhaustively.

TEST(Table4Test, OlderVnRow) {
  for (Op op : {Op::kInsert, Op::kUpdate}) {
    Result<MaintenanceDecision> d =
        DecideDelete(5, TupleVersionState{3, op});
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->action, PhysicalAction::kUpdateTuple);
    EXPECT_TRUE(d->pv_from_cv);
    EXPECT_FALSE(d->cv_from_mv);  // CV is left alone; readers ignore it
    EXPECT_TRUE(d->set_tuple_vn);
    EXPECT_EQ(d->new_op, Op::kDelete);
    EXPECT_TRUE(d->push_back);
  }
  EXPECT_FALSE(DecideDelete(5, TupleVersionState{3, Op::kDelete}).ok());
}

TEST(Table4Test, SameVnDeleteOfInsertIsPhysical) {
  Result<MaintenanceDecision> d =
      DecideDelete(5, TupleVersionState{5, Op::kInsert, false});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->action, PhysicalAction::kDeleteTuple);
}

TEST(Table4Test, SameVnDeleteOfInsertWithHistoryPopsSlot) {
  // nVNL: the same-txn insert pushed history back; deleting pops it.
  Result<MaintenanceDecision> d =
      DecideDelete(5, TupleVersionState{5, Op::kInsert, true});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->action, PhysicalAction::kUpdateTuple);
  EXPECT_TRUE(d->pop_slot);
}

TEST(Table4Test, SameVnDeleteOfUpdateIsNetDelete) {
  Result<MaintenanceDecision> d =
      DecideDelete(5, TupleVersionState{5, Op::kUpdate});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->action, PhysicalAction::kUpdateTuple);
  EXPECT_EQ(d->new_op, Op::kDelete);
  EXPECT_FALSE(d->pv_from_cv);  // PV keeps the pre-transaction values
  EXPECT_FALSE(d->set_tuple_vn);
  EXPECT_FALSE(DecideDelete(5, TupleVersionState{5, Op::kDelete}).ok());
}

// ---------------------------------------------------------------------------
// Op string round trip.

TEST(VersionMetaTest, OpStrings) {
  for (Op op : {Op::kInsert, Op::kUpdate, Op::kDelete}) {
    Result<Op> back = OpFromString(OpToString(op));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), op);
  }
  EXPECT_FALSE(OpFromString("bogus").ok());
}

TEST(VersionMetaTest, ColumnNames) {
  EXPECT_EQ(TupleVnColumnName(0, 2), "tupleVN");
  EXPECT_EQ(OperationColumnName(0, 2), "operation");
  EXPECT_EQ(PreColumnName("total_sales", 0, 2), "pre_total_sales");
  EXPECT_EQ(TupleVnColumnName(0, 4), "tupleVN1");
  EXPECT_EQ(TupleVnColumnName(2, 4), "tupleVN3");
  EXPECT_EQ(PreColumnName("total_sales", 1, 4), "pre_total_sales2");
}

}  // namespace
}  // namespace wvm::core

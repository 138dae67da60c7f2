#include "core/versioned_schema.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "tests/support/row_reference.h"

namespace wvm::core {
namespace {

Schema DailySales() {
  return Schema(
      {
          Column::String("city", 20),
          Column::String("state", 2),
          Column::String("product_line", 12),
          Column::Date("date"),
          Column::Int32("total_sales", /*updatable=*/true),
      },
      {0, 1, 2, 3});
}

Row DailyRow(const std::string& city, const std::string& pl, int d,
             int32_t sales) {
  return {Value::String(city), Value::String("CA"), Value::String(pl),
          Value::Date(1996, 10, d), Value::Int32(sales)};
}

TEST(VersionedSchemaTest, TwoVnlLayoutMatchesFigure3) {
  Result<VersionedSchema> vs = VersionedSchema::Create(DailySales(), 2);
  ASSERT_TRUE(vs.ok());
  const Schema& phys = vs->physical();
  // Logical columns first, then tupleVN, operation, pre_total_sales.
  ASSERT_EQ(phys.num_columns(), 8u);
  EXPECT_EQ(phys.column(5).name, "tupleVN");
  EXPECT_EQ(phys.column(6).name, "operation");
  EXPECT_EQ(phys.column(7).name, "pre_total_sales");
  EXPECT_EQ(vs->TupleVnIndex(0), 5u);
  EXPECT_EQ(vs->OperationIndex(0), 6u);
  EXPECT_EQ(vs->PreIndex(0, 0), 7u);
}

// Figure 3: 42 bytes -> 51 bytes under the paper's accounting
// (4-byte tupleVN + 1-byte operation + 4-byte pre_total_sales).
TEST(VersionedSchemaTest, PaperAttributeBytesMatchFigure3) {
  Result<VersionedSchema> vs = VersionedSchema::Create(DailySales(), 2);
  ASSERT_TRUE(vs.ok());
  EXPECT_EQ(vs->logical().AttributeBytes(), 42u);
  EXPECT_EQ(vs->PaperAttributeBytes(), 51u);
  // ~20% overhead, as the paper states.
  const double overhead =
      static_cast<double>(vs->PaperAttributeBytes()) / 42.0 - 1.0;
  EXPECT_NEAR(overhead, 0.214, 0.01);
}

TEST(VersionedSchemaTest, FourVnlNamesMatchFigure7) {
  Result<VersionedSchema> vs = VersionedSchema::Create(DailySales(), 4);
  ASSERT_TRUE(vs.ok());
  const Schema& phys = vs->physical();
  EXPECT_TRUE(phys.Contains("tupleVN1"));
  EXPECT_TRUE(phys.Contains("operation1"));
  EXPECT_TRUE(phys.Contains("pre_total_sales1"));
  EXPECT_TRUE(phys.Contains("tupleVN3"));
  EXPECT_TRUE(phys.Contains("pre_total_sales3"));
  EXPECT_FALSE(phys.Contains("tupleVN"));  // unsuffixed only for n = 2
  EXPECT_EQ(vs->num_slots(), 3);
}

TEST(VersionedSchemaTest, RejectsBadInputs) {
  EXPECT_FALSE(VersionedSchema::Create(DailySales(), 1).ok());
  // Name collision with bookkeeping columns.
  EXPECT_FALSE(
      VersionedSchema::Create(Schema({Column::Int64("tupleVN")}), 2).ok());
  EXPECT_FALSE(
      VersionedSchema::Create(Schema({Column::Int64("pre_x")}), 2).ok());
  // Updatable key attribute.
  Schema bad({Column::Int64("k", /*updatable=*/true)}, {0});
  EXPECT_FALSE(VersionedSchema::Create(bad, 2).ok());
}

// Reads the version of the record `rec` current at `session_vn` through
// the reader's byte forms.
ReadOutcome ReadRecord(const VersionedSchema& vs, const uint8_t* rec,
                       Vn session_vn, Row* out) {
  const VersionResolution res = ResolveVersionRaw(vs, rec, session_vn);
  if (res.outcome == ReadOutcome::kRow) {
    *out = LogicalPlaceholders(vs);
    MaterializeVersionRawInto(vs, rec, res, vs.logical_columns(), out);
  }
  return res.outcome;
}

TEST(VersionedSchemaTest, MakeInsertRowInitializesSlots) {
  Result<VersionedSchema> vs = VersionedSchema::Create(DailySales(), 3);
  ASSERT_TRUE(vs.ok());
  std::vector<uint8_t> rec(vs->physical().RowByteSize());
  vs->MakeInsertRow(DailyRow("San Jose", "golf equip", 14, 100), /*vn=*/5,
                    rec.data());
  EXPECT_EQ(vs->RawTupleVn(rec.data(), 0), 5);
  EXPECT_EQ(vs->RawOperation(rec.data(), 0).value(), Op::kInsert);
  EXPECT_TRUE(RecordColumnIsNull(rec.data(), vs->PreIndex(0, 0)));
  EXPECT_TRUE(vs->RawSlotEmpty(rec.data(), 1));
  EXPECT_EQ(vs->RawPopulatedSlots(rec.data()), 1);
}

TEST(VersionedSchemaTest, ProjectionsRoundTrip) {
  Result<VersionedSchema> vs = VersionedSchema::Create(DailySales(), 2);
  ASSERT_TRUE(vs.ok());
  Row logical = DailyRow("San Jose", "golf equip", 14, 12000);
  std::vector<uint8_t> rec(vs->physical().RowByteSize());
  vs->MakeInsertRow(logical, 4, rec.data());
  EXPECT_EQ(vs->RawCurrentLogical(rec.data()), logical);

  // Simulate an update: PV <- CV, CV <- new.
  vs->CopyCurrentToPre(rec.data(), 0);
  Row updated = logical;
  updated[4] = Value::Int32(15000);
  vs->SetCurrent(rec.data(), updated);
  vs->SetSlot(rec.data(), 0, 5, Op::kUpdate);

  EXPECT_EQ(vs->RawCurrentLogical(rec.data())[4].AsInt32(), 15000);
  Row pre = LogicalPlaceholders(*vs);
  MaterializeVersionRawInto(*vs, rec.data(), {ReadOutcome::kRow, 0},
                            vs->logical_columns(), &pre);
  EXPECT_EQ(pre[4].AsInt32(), 12000);
  // Non-updatable attributes come from the current values.
  EXPECT_EQ(pre[0].AsString(), "San Jose");
}

TEST(VersionedSchemaTest, PushBackShiftsSlots) {
  Result<VersionedSchema> vs = VersionedSchema::Create(DailySales(), 3);
  ASSERT_TRUE(vs.ok());
  std::vector<uint8_t> buf(vs->physical().RowByteSize());
  uint8_t* rec = buf.data();
  vs->MakeInsertRow(DailyRow("a", "b", 1, 10), 3, rec);
  vs->PushBack(rec);
  EXPECT_EQ(vs->RawTupleVn(rec, 1), 3);
  EXPECT_EQ(vs->RawOperation(rec, 1).value(), Op::kInsert);
  // Slot 0 still holds stale data until the caller overwrites it.
  vs->SetSlot(rec, 0, 5, Op::kUpdate);
  EXPECT_EQ(vs->RawPopulatedSlots(rec), 2);

  vs->PushForward(rec);
  EXPECT_EQ(vs->RawTupleVn(rec, 0), 3);
  EXPECT_EQ(vs->RawOperation(rec, 0).value(), Op::kInsert);
  EXPECT_TRUE(vs->RawSlotEmpty(rec, 1));
}

TEST(VersionedSchemaTest, ReadVersionTwoVnl) {
  Result<VersionedSchema> vs = VersionedSchema::Create(DailySales(), 2);
  ASSERT_TRUE(vs.ok());
  // Tuple updated at VN 4: CV = 12000, PV = 10000.
  std::vector<uint8_t> buf(vs->physical().RowByteSize());
  uint8_t* rec = buf.data();
  vs->MakeInsertRow(DailyRow("Berkeley", "racquetball", 14, 12000), 4, rec);
  vs->SetSlot(rec, 0, 4, Op::kUpdate);
  SerializeColumn(vs->physical(), Value::Int32(10000), vs->PreIndex(0, 0),
                  rec);

  Row out;
  EXPECT_EQ(ReadRecord(*vs, rec, 4, &out), ReadOutcome::kRow);
  EXPECT_EQ(out[4].AsInt32(), 12000);
  EXPECT_EQ(ReadRecord(*vs, rec, 5, &out), ReadOutcome::kRow);
  EXPECT_EQ(out[4].AsInt32(), 12000);
  EXPECT_EQ(ReadRecord(*vs, rec, 3, &out), ReadOutcome::kRow);
  EXPECT_EQ(out[4].AsInt32(), 10000);
  EXPECT_EQ(ReadRecord(*vs, rec, 2, &out), ReadOutcome::kExpired);
}

TEST(VersionedSchemaTest, ReadVersionInsertAndDelete) {
  Result<VersionedSchema> vs = VersionedSchema::Create(DailySales(), 2);
  ASSERT_TRUE(vs.ok());
  std::vector<uint8_t> inserted(vs->physical().RowByteSize());
  vs->MakeInsertRow(DailyRow("a", "b", 1, 1), 4, inserted.data());
  Row out;
  EXPECT_EQ(ReadRecord(*vs, inserted.data(), 4, &out), ReadOutcome::kRow);
  EXPECT_EQ(ReadRecord(*vs, inserted.data(), 3, &out), ReadOutcome::kIgnore);
  EXPECT_EQ(ReadRecord(*vs, inserted.data(), 2, &out),
            ReadOutcome::kExpired);

  std::vector<uint8_t> deleted(vs->physical().RowByteSize());
  vs->MakeInsertRow(DailyRow("a", "b", 1, 8000), 4, deleted.data());
  vs->SetSlot(deleted.data(), 0, 4, Op::kDelete);
  vs->CopyCurrentToPre(deleted.data(), 0);
  EXPECT_EQ(ReadRecord(*vs, deleted.data(), 4, &out), ReadOutcome::kIgnore);
  EXPECT_EQ(ReadRecord(*vs, deleted.data(), 3, &out), ReadOutcome::kRow);
  EXPECT_EQ(out[4].AsInt32(), 8000);
}

// The byte-level resolver the reader runs (ResolveVersionRaw +
// MaterializeVersionRawInto, filling one reused row) against the Row
// reference of Table 1 (rowref::ResolveVersion / ReadVersion), over every
// populated-slot configuration for n in {2, 3, 4}: each slot's operation
// and a strictly decreasing VN per slot, which includes the Table-2 revive
// shapes (an insert stamped over a delete) and histories whose oldest
// entry is not the insert. Every session VN in range must classify and
// materialize alike.
TEST(VersionedSchemaTest, RawResolverMatchesRowReference) {
  constexpr Op kOps[] = {Op::kInsert, Op::kUpdate, Op::kDelete};
  constexpr Vn kMaxVn = 6;
  size_t checked = 0;
  for (int n : {2, 3, 4}) {
    Result<VersionedSchema> vs = VersionedSchema::Create(DailySales(), n);
    ASSERT_TRUE(vs.ok());
    const Schema& phys_schema = vs->physical();
    std::vector<uint8_t> rec(phys_schema.RowByteSize());
    Row got = LogicalPlaceholders(*vs);
    for (int m = 1; m <= n - 1; ++m) {
      // Slot VNs: all strictly decreasing m-subsets of {1..kMaxVn}.
      // Ops: all 3^m assignments.
      for (uint32_t vn_mask = 0; vn_mask < (1u << kMaxVn); ++vn_mask) {
        if (__builtin_popcount(vn_mask) != m) continue;
        std::vector<Vn> vns;
        for (Vn v = kMaxVn; v >= 1; --v) {
          if (vn_mask & (1u << (v - 1))) vns.push_back(v);
        }
        int op_combos = 1;
        for (int i = 0; i < m; ++i) op_combos *= 3;
        for (int combo = 0; combo < op_combos; ++combo) {
          Row phys = rowref::MakeInsertRow(
              *vs, DailyRow("Berkeley", "racquetball", 14, 1000), vns[0]);
          int c = combo;
          for (int slot = 0; slot < m; ++slot) {
            rowref::SetSlot(*vs, &phys, slot, vns[slot], kOps[c % 3]);
            c /= 3;
            // Distinct pre-update values per slot; an insert's PV is NULL.
            phys[vs->PreIndex(0, slot)] =
                rowref::Operation(*vs, phys, slot).value() == Op::kInsert
                    ? Value::Null(TypeId::kInt32)
                    : Value::Int32(100 * (slot + 1));
          }
          SerializeRow(phys_schema, phys, rec.data());
          for (Vn session = 0; session <= kMaxVn + 1; ++session) {
            SCOPED_TRACE(testing::Message()
                         << "n=" << n << " m=" << m << " vns=" << vn_mask
                         << " ops=" << combo << " session=" << session);
            const VersionResolution row_res =
                rowref::ResolveVersion(*vs, phys, session);
            const VersionResolution raw_res =
                ResolveVersionRaw(*vs, rec.data(), session);
            ASSERT_EQ(raw_res.outcome, row_res.outcome);
            ASSERT_EQ(raw_res.slot, row_res.slot);
            Row expected;
            if (rowref::ReadVersion(*vs, phys, session, &expected) !=
                ReadOutcome::kRow) {
              continue;
            }
            MaterializeVersionRawInto(*vs, rec.data(), raw_res,
                                      vs->logical_columns(), &got);
            ASSERT_EQ(got.size(), expected.size());
            for (size_t i = 0; i < got.size(); ++i) {
              EXPECT_TRUE(got[i] == expected[i])
                  << "column " << i << ": " << got[i].ToString() << " vs "
                  << expected[i].ToString();
            }
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace wvm::core

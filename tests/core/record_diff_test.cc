// Record bytes vs the Row-form Tables 1-4 reference.
//
// Every maintenance write, rollback and GC step edits a tuple's serialized
// record with the VersionedSchema byte mutators. This suite checks those
// bytes against an independent model, the Row-form reference
// (tests/support/row_reference), which holds each tuple as a decoded Row
// and edits Values.
//
// Part one runs each byte mutator against its Row twin on hand-built
// tuples: NULL pre-values, strings shorter than their width and DATE
// columns, for n in {2, 3, 4}. Part two replays 52 seeded maintenance
// histories per n through the engine and through the reference, which
// decides each write with the same decision tables: key inserts, updates
// and deletes, re-inserts over corpses (refused when they change a
// version-invariant attribute), same-transaction delete-then-insert,
// batched keys, generated UPDATE/DELETE SQL through MaintenanceRewriter
// (routed, record-test and reconstructed WHERE shapes; a SET on a
// version-invariant column must fail and write nothing), commits, aborts
// and GC under pinned reader sessions. Each history runs on two engines,
// index routing on and off. After every statement each live record of
// both must equal SerializeRow of the reference's tuple for its key.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/maintenance_rewriter.h"
#include "core/vnl_engine.h"
#include "tests/support/keyed_maintenance.h"
#include "tests/support/row_reference.h"

namespace wvm::core {
namespace {

constexpr int kSeeds = 52;
constexpr int kTxnsPerSeed = 10;
constexpr int64_t kKeys = 10;

// Key, two version-invariant attributes (one a secondary index), and three
// updatable ones: an integer, a nullable string and a nullable DATE.
Schema AccountSchema() {
  Schema schema({Column::String("k", 8), Column::String("region", 4),
                 Column::Date("opened"),
                 Column::Int64("qty", /*updatable=*/true),
                 Column::String("note", 10, /*updatable=*/true),
                 Column::Date("seen", /*updatable=*/true)},
                {0});
  WVM_CHECK(schema.AddSecondaryIndex("by_region", {"region"}).ok());
  return schema;
}

std::vector<uint8_t> Bytes(const VersionedSchema& vs, const Row& phys) {
  std::vector<uint8_t> rec(vs.physical().RowByteSize());
  SerializeRow(vs.physical(), phys, rec.data());
  return rec;
}

// --- Part one: each byte mutator against its Row twin --------------------

class RecordMutatorTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    vs_ = VersionedSchema::Create(AccountSchema(), GetParam()).value();
  }

  static Row Logical(const std::string& key, int64_t qty,
                     std::optional<std::string> note, int seen_day) {
    return {Value::String(key),
            Value::String("N"),
            Value::Date(2020, 3, 14),
            Value::Int64(qty),
            note.has_value() ? Value::String(*note)
                             : Value::Null(TypeId::kString),
            seen_day > 0 ? Value::Date(2021, 7, seen_day)
                         : Value::Null(TypeId::kDate)};
  }

  // Starting tuples: a fresh insert (NULL pre-values, a NULL DATE), and a
  // tuple with history — inserted at 2, updated at 3 — whose CV holds a
  // NULL note over a non-NULL pre-update note.
  std::vector<Row> Starts() const {
    Row fresh = rowref::MakeInsertRow(*vs_, Logical("a", 7, "hi", 0), 2);
    Row history = rowref::MakeInsertRow(*vs_, Logical("b", -5, "note", 9), 2);
    rowref::PushBack(*vs_, &history);
    rowref::CopyCurrentToPre(*vs_, &history, 0);
    rowref::SetCurrent(*vs_, &history, Logical("b", 40, std::nullopt, 11));
    rowref::SetSlot(*vs_, &history, 0, 3, Op::kUpdate);
    return {fresh, history};
  }

  // Applies `bytes` to the record of every starting tuple and `rows` to
  // the tuple itself; the results must serialize alike.
  template <typename ByteEdit, typename RowEdit>
  void ExpectTwins(const ByteEdit& bytes, const RowEdit& rows) {
    for (const Row& start : Starts()) {
      SCOPED_TRACE(RowToString(start));
      std::vector<uint8_t> rec = Bytes(*vs_, start);
      Row phys = start;
      bytes(rec.data());
      rows(&phys);
      EXPECT_EQ(rec, Bytes(*vs_, phys));
    }
  }

  std::optional<VersionedSchema> vs_;
};

TEST_P(RecordMutatorTest, SetSlot) {
  for (int slot = 0; slot < vs_->num_slots(); ++slot) {
    for (Op op : {Op::kInsert, Op::kUpdate, Op::kDelete}) {
      ExpectTwins([&](uint8_t* rec) { vs_->SetSlot(rec, slot, 7, op); },
                  [&](Row* phys) { rowref::SetSlot(*vs_, phys, slot, 7, op); });
    }
  }
}

TEST_P(RecordMutatorTest, ClearSlot) {
  for (int slot = 0; slot < vs_->num_slots(); ++slot) {
    ExpectTwins([&](uint8_t* rec) { vs_->ClearSlot(rec, slot); },
                [&](Row* phys) { rowref::ClearSlot(*vs_, phys, slot); });
  }
}

TEST_P(RecordMutatorTest, CopyCurrentToPre) {
  for (int slot = 0; slot < vs_->num_slots(); ++slot) {
    ExpectTwins(
        [&](uint8_t* rec) { vs_->CopyCurrentToPre(rec, slot); },
        [&](Row* phys) { rowref::CopyCurrentToPre(*vs_, phys, slot); });
  }
}

TEST_P(RecordMutatorTest, CopyPreToCurrent) {
  for (int slot = 0; slot < vs_->num_slots(); ++slot) {
    ExpectTwins(
        [&](uint8_t* rec) { vs_->CopyPreToCurrent(rec, slot); },
        [&](Row* phys) { rowref::CopyPreToCurrent(*vs_, phys, slot); });
  }
}

TEST_P(RecordMutatorTest, SetPreNull) {
  for (int slot = 0; slot < vs_->num_slots(); ++slot) {
    ExpectTwins([&](uint8_t* rec) { vs_->SetPreNull(rec, slot); },
                [&](Row* phys) { rowref::SetPreNull(*vs_, phys, slot); });
  }
}

TEST_P(RecordMutatorTest, SetCurrent) {
  // CV <- MV writes every logical column; the new note is shorter than the
  // old one, so its slot's tail must be zeroed.
  for (const Row& mv :
       {Logical("a", 8, "x", 1), Logical("c", 0, std::nullopt, 0),
        Logical("b", 1, "0123456789", 28)}) {
    ExpectTwins([&](uint8_t* rec) { vs_->SetCurrent(rec, mv); },
                [&](Row* phys) { rowref::SetCurrent(*vs_, phys, mv); });
  }
}

TEST_P(RecordMutatorTest, PushBack) {
  ExpectTwins([&](uint8_t* rec) { vs_->PushBack(rec); },
              [&](Row* phys) { rowref::PushBack(*vs_, phys); });
}

TEST_P(RecordMutatorTest, PushForward) {
  ExpectTwins([&](uint8_t* rec) { vs_->PushForward(rec); },
              [&](Row* phys) { rowref::PushForward(*vs_, phys); });
}

TEST_P(RecordMutatorTest, MakeInsertRow) {
  for (const Row& logical :
       {Logical("a", 7, "hi", 0), Logical("zz", -1, std::nullopt, 30)}) {
    // Start from garbage: every byte of the record must be written.
    std::vector<uint8_t> rec(vs_->physical().RowByteSize(), 0xAB);
    vs_->MakeInsertRow(logical, 4, rec.data());
    EXPECT_EQ(rec, Bytes(*vs_, rowref::MakeInsertRow(*vs_, logical, 4)));
  }
}

INSTANTIATE_TEST_SUITE_P(Arity, RecordMutatorTest, ::testing::Values(2, 3, 4));

// --- Part two: seeded maintenance histories -------------------------------

// The reference: the key's Row-form tuple, for every key with a tuple in
// the heap, edited through the same Tables 2-4 cells as the engine.
class ReferenceTable {
 public:
  explicit ReferenceTable(const VersionedSchema& vs) : vs_(vs) {}

  // Table 2, where a re-insert over a corpse must keep its non-updatable
  // values (§3.1); a refused insert changes nothing.
  Status Insert(Vn vn, const Row& row) {
    auto it = tuples_.find(row[0].AsString());
    std::optional<Row> tuple;
    if (it != tuples_.end()) tuple = it->second;
    const StatusCode outcome = rowref::InsertOutcome(vs_, tuple, row);
    if (outcome != StatusCode::kOk) return Status(outcome, "refused");
    std::optional<TupleVersionState> existing;
    if (it != tuples_.end()) existing = State(it->second);
    WVM_ASSIGN_OR_RETURN(MaintenanceDecision d, DecideInsert(vn, existing));
    if (d.action == PhysicalAction::kInsertTuple) {
      tuples_[row[0].AsString()] = rowref::MakeInsertRow(vs_, row, vn);
      return Status::OK();
    }
    Apply(d, vn, it, &row);
    return Status::OK();
  }

  // False when the key has no tuple the maintenance txn can see.
  Result<bool> Update(Vn vn, const Row& row) {
    auto it = Visible(row[0].AsString());
    if (it == tuples_.end()) return false;
    WVM_ASSIGN_OR_RETURN(MaintenanceDecision d,
                         DecideUpdate(vn, State(it->second)));
    Apply(d, vn, it, &row);
    return true;
  }

  Result<bool> Delete(Vn vn, const std::string& key) {
    auto it = Visible(key);
    if (it == tuples_.end()) return false;
    WVM_ASSIGN_OR_RETURN(MaintenanceDecision d,
                         DecideDelete(vn, State(it->second)));
    Apply(d, vn, it, nullptr);
    return true;
  }

  // The logically deleted tuple of `key`, if it has one.
  const Row* Corpse(const std::string& key) const {
    auto it = tuples_.find(key);
    if (it == tuples_.end() || State(it->second).op != Op::kDelete) {
      return nullptr;
    }
    return &it->second;
  }

  // Current logical rows the maintenance txn can see, by key.
  std::map<std::string, Row> VisibleRows() const {
    std::map<std::string, Row> rows;
    for (const auto& [key, phys] : tuples_) {
      if (State(phys).op != Op::kDelete) {
        rows.emplace(key, rowref::CurrentLogical(vs_, phys));
      }
    }
    return rows;
  }

  void Rollback(Vn txn_vn, Vn current_vn) {
    for (auto it = tuples_.begin(); it != tuples_.end();) {
      if (rowref::TupleVn(vs_, it->second, 0) == txn_vn &&
          !rowref::RollbackTuple(vs_, &it->second, current_vn)) {
        it = tuples_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void CollectGarbage(Vn current_vn, Vn min_active_session_vn) {
    for (auto it = tuples_.begin(); it != tuples_.end();) {
      const TupleVersionState s = State(it->second);
      if (s.op == Op::kDelete && s.tuple_vn <= current_vn &&
          min_active_session_vn >= s.tuple_vn) {
        it = tuples_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // The first live record whose bytes differ from the reference tuple of
  // its key ("" when all match and no tuple is missing or extra).
  std::string Mismatch(const VnlTable& table) const {
    const TableHeap* heap = table.physical_table().heap();
    std::string mismatch;
    size_t live = 0;
    const Status scanned = heap->Scan([&](Rid, const uint8_t* rec) {
      ++live;
      const std::string key =
          DeserializeColumn(vs_.physical(), rec, 0).AsString();
      auto it = tuples_.find(key);
      if (it == tuples_.end()) {
        mismatch = "heap holds a tuple the reference lacks: " + key;
        return false;
      }
      const std::vector<uint8_t> expected = Bytes(vs_, it->second);
      if (std::memcmp(rec, expected.data(), expected.size()) != 0) {
        mismatch = "record bytes differ for " + key + ": heap " +
                   RowToString(DeserializeRow(vs_.physical(), rec)) +
                   ", reference " + RowToString(it->second);
        return false;
      }
      return true;
    });
    if (!scanned.ok()) return scanned.ToString();
    if (mismatch.empty() && live != tuples_.size()) {
      mismatch = StrPrintf("heap holds %zu tuples, reference %zu", live,
                           tuples_.size());
    }
    return mismatch;
  }

 private:
  using Tuples = std::map<std::string, Row>;

  TupleVersionState State(const Row& phys) const {
    return {rowref::TupleVn(vs_, phys, 0),
            rowref::Operation(vs_, phys, 0).value(),
            vs_.n() > 2 && !rowref::SlotEmpty(vs_, phys, 1)};
  }

  Tuples::iterator Visible(const std::string& key) {
    auto it = tuples_.find(key);
    if (it != tuples_.end() && State(it->second).op == Op::kDelete) {
      return tuples_.end();
    }
    return it;
  }

  void Apply(const MaintenanceDecision& d, Vn vn, Tuples::iterator it,
             const Row* mv) {
    rowref::ApplyDecision(vs_, d, vn, &it->second, mv);
    if (d.action == PhysicalAction::kDeleteTuple) tuples_.erase(it);
  }

  const VersionedSchema& vs_;
  Tuples tuples_;
};

// One engine of a seed's pair: the history runs on two, one with index
// routing on and one with it off, and both must write the same records.
struct Side {
  Side(int n, bool index_routing) : pool(64, &disk) {
    engine = VnlEngine::Create(&pool, n).value();
    engine->SetScanOptions({index_routing});
    table = engine->CreateTable("accounts", AccountSchema()).value();
  }

  DiskManager disk;
  BufferPool pool;
  std::unique_ptr<VnlEngine> engine;
  VnlTable* table;
  MaintenanceTxn* txn = nullptr;
  std::optional<ReaderSession> pinned;
};

// A generated §4.2 cursor statement (Examples 4.3-4.4) and what it does to
// one visible row: `matches` is its WHERE, `apply` its SET (a DELETE
// leaves `apply` empty).
struct CursorStatement {
  std::string sql;
  query::ParamMap params;
  std::function<bool(const Row&)> matches;
  std::function<Row(const Row&)> apply;
  bool sets_non_updatable = false;
};

// WHERE is one of three shapes: unique-key `=` or an IN-list (routed
// through the key index), a version-invariant predicate (run on record
// bytes, or routed through the region index), or a predicate over an
// updatable column (tested on the decoded row). SET is a constant or
// `qty + :d`; one UPDATE in ten also sets a version-invariant column.
CursorStatement MakeCursorStatement(Rng* rng) {
  CursorStatement st;
  std::string where;
  switch (rng->Uniform(0, 2)) {
    case 0: {
      std::vector<std::string> keys;
      for (int64_t i = rng->Uniform(1, 3); i > 0; --i) {
        keys.push_back(StrPrintf("k%" PRId64, rng->Uniform(0, kKeys - 1)));
      }
      for (const std::string& k : keys) {
        where += (where.empty() ? "" : " OR ") + ("k = '" + k + "'");
      }
      st.matches = [keys](const Row& row) {
        return std::find(keys.begin(), keys.end(), row[0].AsString()) !=
               keys.end();
      };
      break;
    }
    case 1: {
      if (rng->Bernoulli(0.5)) {
        static const char* kRegions[] = {"N", "S", "EW"};
        const std::string region = kRegions[rng->Uniform(0, 2)];
        where = "region = '" + region + "'";
        st.matches = [region](const Row& row) {
          return row[1].AsString() == region;
        };
      } else {
        const int month = static_cast<int>(rng->Uniform(1, 12));
        where = StrPrintf("opened < '%02d/01/2020'", month);
        st.matches = [month](const Row& row) {
          return row[2].AsDateRaw() < 20200001 + month * 100;
        };
      }
      break;
    }
    default: {
      const int64_t lo = rng->Uniform(-50, 50);
      where = StrPrintf("qty > %" PRId64, lo);
      st.matches = [lo](const Row& row) { return row[3].AsInt64() > lo; };
      break;
    }
  }
  if (rng->Bernoulli(0.3)) {
    st.sql = "DELETE FROM accounts WHERE " + where;
    return st;
  }
  std::string set;
  if (rng->Bernoulli(0.5)) {
    const int64_t v = rng->Uniform(-50, 50);
    set = StrPrintf("qty = %" PRId64, v);
    st.apply = [v](const Row& row) {
      Row next = row;
      next[3] = Value::Int64(v);
      return next;
    };
  } else {
    const int64_t d = rng->Uniform(-9, 9);
    set = "qty = qty + :d";
    st.params["d"] = Value::Int64(d);
    st.apply = [d](const Row& row) {
      Row next = row;
      next[3] = Value::Int64(row[3].AsInt64() + d);
      return next;
    };
  }
  if (rng->Bernoulli(0.1)) {
    set += rng->Bernoulli(0.5) ? ", region = 'S'" : ", opened = '01/01/2020'";
    st.sets_non_updatable = true;
  }
  st.sql = "UPDATE accounts SET " + set + " WHERE " + where;
  return st;
}

class RecordDiffTest : public ::testing::TestWithParam<int> {
 protected:
  void RunSeed(uint64_t seed) {
    const int n = GetParam();
    SCOPED_TRACE(StrPrintf("seed=%llu n=%d",
                           static_cast<unsigned long long>(seed), n));
    Rng rng(seed * 13 + static_cast<uint64_t>(n));
    Side routed(n, /*index_routing=*/true);
    Side heap(n, /*index_routing=*/false);
    Side* const sides[] = {&routed, &heap};
    ReferenceTable ref(routed.table->versioned_schema());

    auto key_of = [&] {
      return StrPrintf("k%" PRId64, rng.Uniform(0, kKeys - 1));
    };
    // Strings are kept shorter than their widths; NULLs and DATEs vary.
    auto updatables = [&](Row* row) {
      (*row)[3] = Value::Int64(rng.Uniform(-50, 50));
      (*row)[4] = rng.Bernoulli(0.25)
                      ? Value::Null(TypeId::kString)
                      : Value::String(std::string(
                            static_cast<size_t>(rng.Uniform(0, 9)),
                            static_cast<char>('a' + rng.Uniform(0, 25))));
      (*row)[5] = rng.Bernoulli(0.2)
                      ? Value::Null(TypeId::kDate)
                      : Value::Date(2021, static_cast<int>(rng.Uniform(1, 12)),
                                    static_cast<int>(rng.Uniform(1, 28)));
    };
    auto make_row = [&](const std::string& key) {
      static const char* kRegions[] = {"N", "S", "EW"};
      Row row = {Value::String(key),
                 Value::String(kRegions[rng.Uniform(0, 2)]),
                 Value::Date(2020, static_cast<int>(rng.Uniform(1, 12)), 1),
                 Value::Null(TypeId::kInt64), Value::Null(TypeId::kString),
                 Value::Null(TypeId::kDate)};
      updatables(&row);
      return row;
    };
    // A row to insert for `key`. Over a corpse, half the time (one draw,
    // taken only then) it keeps the corpse's version-invariant attributes,
    // so revives both succeed and fail.
    auto insert_row = [&](const std::string& key) {
      Row row = make_row(key);
      const Row* corpse = ref.Corpse(key);
      if (corpse != nullptr && rng.Bernoulli(0.5)) {
        row = rowref::WithNonUpdatablesOf(routed.table->versioned_schema(),
                                          *corpse, std::move(row));
      }
      return row;
    };
    // A new row for an existing key: version-invariant attributes kept.
    auto next_of = [&](const Row& current) {
      Row next = current;
      updatables(&next);
      return next;
    };
    auto expect_same = [&](const char* what) {
      for (const Side* side : sides) {
        ASSERT_EQ(ref.Mismatch(*side->table), "")
            << "after " << what << " (index routing "
            << (side == &routed ? "on" : "off") << ")";
      }
    };

    for (int t = 0; t < kTxnsPerSeed; ++t) {
      SCOPED_TRACE(StrPrintf("txn=%d", t));
      const bool open = !routed.pinned.has_value() && rng.Bernoulli(0.3);
      const bool close =
          !open && routed.pinned.has_value() && rng.Bernoulli(0.3);
      for (Side* side : sides) {
        if (open) side->pinned = side->engine->OpenSession();
        if (close) {
          side->engine->CloseSession(*side->pinned);
          side->pinned.reset();
        }
        auto txn_or = side->engine->BeginMaintenance();
        ASSERT_TRUE(txn_or.ok());
        side->txn = *txn_or;
      }
      const Vn vn = routed.txn->vn();

      const int statements = static_cast<int>(rng.Uniform(4, 10));
      for (int s = 0; s < statements; ++s) {
        const int64_t pick = rng.Uniform(0, 99);
        const std::string key = key_of();
        if (pick < 30) {
          // Over a live key this fails; over a corpse it is a revive, which
          // fails too when it changes a version-invariant attribute.
          const Row row = insert_row(key);
          const Status want = ref.Insert(vn, row);
          for (Side* side : sides) {
            const Status got = side->table->Insert(side->txn, row);
            ASSERT_EQ(got.code(), want.code()) << got.ToString();
          }
          ASSERT_NO_FATAL_FAILURE(expect_same("insert"));
        } else if (pick < 50) {
          // A keyed update: the changed columns become its edits.
          std::optional<Row> next;
          const std::map<std::string, Row> visible = ref.VisibleRows();
          if (auto it = visible.find(key); it != visible.end()) {
            next = next_of(it->second);
          }
          for (Side* side : sides) {
            Result<bool> got = testutil::UpdateKey(
                side->table, side->txn, {Value::String(key)},
                [&](const Row& current) { return next.value_or(current); });
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            ASSERT_EQ(*got, next.has_value());
          }
          if (next.has_value()) {
            ASSERT_TRUE(ref.Update(vn, *next).value());
          }
          ASSERT_NO_FATAL_FAILURE(expect_same("update"));
        } else if (pick < 65) {
          const bool want = ref.Delete(vn, key).value();
          for (Side* side : sides) {
            Result<bool> got = testutil::DeleteKey(side->table, side->txn,
                                                   {Value::String(key)});
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            ASSERT_EQ(*got, want);
          }
          ASSERT_NO_FATAL_FAILURE(expect_same("delete"));
        } else if (pick < 75) {
          // Same-transaction delete-then-insert: a revive, refused when it
          // changes a version-invariant attribute.
          const bool deleted = ref.Delete(vn, key).value();
          for (Side* side : sides) {
            Result<bool> got = testutil::DeleteKey(side->table, side->txn,
                                                   {Value::String(key)});
            ASSERT_TRUE(got.ok());
            ASSERT_EQ(*got, deleted);
          }
          ASSERT_NO_FATAL_FAILURE(expect_same("delete before re-insert"));
          const Row row = insert_row(key);
          const Status want = ref.Insert(vn, row);
          for (Side* side : sides) {
            const Status reinserted = side->table->Insert(side->txn, row);
            ASSERT_EQ(reinserted.code(), want.code())
                << reinserted.ToString();
          }
          ASSERT_NO_FATAL_FAILURE(expect_same("re-insert"));
        } else if (pick < 83) {
          // Batched keys: update the visible ones, insert the rest. The
          // engine asks each decider once, in key order; the reference
          // applies what they decided in the same order. The heap-pass
          // twin replays the first engine's decisions.
          std::vector<NetEffect> decided;
          std::vector<Row> rows;  // each decision's new row
          std::vector<std::string> keys;
          for (int b = 0; b < 3; ++b) keys.push_back(key_of());
          StatusCode routed_code = StatusCode::kOk;
          for (Side* side : sides) {
            size_t replayed = 0;
            std::vector<BatchKeyOp> ops;
            for (const std::string& k : keys) {
              ops.push_back({{Value::String(k)},
                             [&, k](const std::optional<Row>& current)
                                 -> Result<NetEffect> {
                               if (side != &routed) {
                                 return decided.at(replayed++);
                               }
                               if (current.has_value()) {
                                 rows.push_back(next_of(*current));
                                 decided.push_back(NetEffect::Update(
                                     {{3, rows.back()[3]},
                                      {4, rows.back()[4]},
                                      {5, rows.back()[5]}}));
                               } else {
                                 rows.push_back(insert_row(k));
                                 decided.push_back(
                                     NetEffect::Insert(rows.back()));
                               }
                               return decided.back();
                             }});
            }
            // A refused revive stops the batch, the keys before it applied.
            Result<BatchApplyStats> got =
                side->table->ApplyBatch(side->txn, ops);
            if (side == &heap) {
              ASSERT_EQ(replayed, decided.size());
              ASSERT_EQ(got.status().code(), routed_code);
              break;
            }
            routed_code = got.status().code();
            Status want;
            for (size_t i = 0; i < decided.size(); ++i) {
              if (decided[i].kind == NetEffect::Kind::kUpdate) {
                ASSERT_TRUE(ref.Update(vn, rows[i]).value());
              } else {
                want = ref.Insert(vn, rows[i]);
                if (!want.ok()) break;
              }
            }
            ASSERT_EQ(got.status().code(), want.code())
                << got.status().ToString();
            if (want.ok()) {
              ASSERT_EQ(decided.size(), ops.size());
            }
          }
          ASSERT_NO_FATAL_FAILURE(expect_same("batch"));
        } else {
          // A generated cursor statement through MaintenanceRewriter.
          const CursorStatement st = MakeCursorStatement(&rng);
          SCOPED_TRACE(st.sql);
          std::vector<std::pair<std::string, Row>> hits;
          for (const auto& [k, row] : ref.VisibleRows()) {
            if (st.matches(row)) hits.emplace_back(k, row);
          }
          for (Side* side : sides) {
            Result<size_t> got = MaintenanceRewriter(side->engine.get())
                                     .Execute(side->txn, st.sql, st.params);
            if (st.sets_non_updatable) {
              ASSERT_EQ(got.status().code(), StatusCode::kInvalidArgument)
                  << got.status().ToString();
              continue;
            }
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            ASSERT_EQ(*got, hits.size());
          }
          for (const auto& [k, row] : hits) {
            if (st.sets_non_updatable) break;
            if (st.apply) {
              ASSERT_TRUE(ref.Update(vn, st.apply(row)).value());
            } else {
              ASSERT_TRUE(ref.Delete(vn, k).value());
            }
          }
          ASSERT_NO_FATAL_FAILURE(expect_same("cursor statement"));
        }
      }

      const bool abort = rng.Bernoulli(0.25);
      const Vn current = routed.engine->current_vn();
      for (Side* side : sides) {
        ASSERT_TRUE(abort ? side->engine->Abort(side->txn).ok()
                          : side->engine->Commit(side->txn).ok());
      }
      if (abort) ref.Rollback(vn, current);
      ASSERT_NO_FATAL_FAILURE(expect_same(abort ? "abort" : "commit"));
      if (rng.Bernoulli(0.4)) {
        const Vn now = routed.engine->current_vn();
        const Vn min_session =
            routed.engine->session_manager()->MinActiveSessionVn(now);
        for (Side* side : sides) {
          ASSERT_TRUE(side->engine->CollectGarbage().ok());
        }
        ref.CollectGarbage(now, min_session);
        ASSERT_NO_FATAL_FAILURE(expect_same("gc"));
      }
    }
    for (Side* side : sides) {
      if (side->pinned.has_value()) {
        side->engine->CloseSession(*side->pinned);
      }
    }
  }
};

TEST_P(RecordDiffTest, RecordsMatchRowReference) {
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    ASSERT_NO_FATAL_FAILURE(RunSeed(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Arity, RecordDiffTest, ::testing::Values(2, 3, 4));

}  // namespace
}  // namespace wvm::core

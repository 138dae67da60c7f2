// Tombstone-driven garbage collection vs the full-heap rule (§7).
//
// Randomized maintenance histories — inserts, updates, deletes,
// same-transaction insert+delete, re-inserts over corpses (revives that
// keep the corpse's non-updatable values, and ones that must fail),
// generated per-key event sequences, lossy (n=2) and lossless (n=3)
// aborts — run under reader sessions pinned at several ages. Before every
// GC the test derives the victims itself with one full ScanRows pass and
// the reclamation rule (slot-0 operation delete, tupleVN <= currentVN,
// minActiveSessionVN >= tupleVN). After the GC, tuples_reclaimed,
// tuples_pending, and the physical heap bytes (Rid by Rid) must match
// that reference collection, and index point reads must agree with a
// heap scan.
#include <gtest/gtest.h>

#include <cinttypes>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/vnl_engine.h"
#include "tests/support/keyed_maintenance.h"
#include "tests/support/row_reference.h"
#include "tests/support/snapshot_rows.h"

namespace wvm::core {
namespace {

constexpr int kRounds = 12;

Schema ItemSchema() {
  Schema schema({Column::Int64("id"), Column::String("grp", 4),
                 Column::Int64("qty", /*updatable=*/true)},
                {0});
  WVM_CHECK(schema.AddSecondaryIndex("by_grp", {"grp"}).ok());
  return schema;
}

Row Key(int64_t id) { return {Value::Int64(id)}; }

// Rid -> raw record bytes of every live tuple.
using HeapImage = std::map<Rid, std::string>;

HeapImage Image(const VnlTable& table) {
  const TableHeap* heap = table.physical_table().heap();
  HeapImage image;
  WVM_CHECK(heap->Scan([&](Rid rid, const uint8_t* rec) {
                  image.emplace(rid,
                                std::string(reinterpret_cast<const char*>(rec),
                                            heap->record_size()));
                  return true;
                })
                .ok());
  return image;
}

// The reference collector's selection: one pass over the whole heap.
struct ReferenceGc {
  std::vector<Rid> victims;
  size_t corpses = 0;  // logically deleted tuples in the heap
};

ReferenceGc ReferenceVictims(const VnlTable& table, Vn current_vn,
                             Vn min_active_session_vn) {
  const VersionedSchema& vs = table.versioned_schema();
  ReferenceGc ref;
  const Status scanned =
      table.physical_table().ScanRows([&](Rid rid, const Row& phys) {
        Result<Op> op = rowref::Operation(vs, phys, 0);
        WVM_CHECK(op.ok());
        if (op.value() != Op::kDelete) return true;
        ++ref.corpses;
        const Vn vn = rowref::TupleVn(vs, phys, 0);
        if (vn <= current_vn && min_active_session_vn >= vn) {
          ref.victims.push_back(rid);
        }
        return true;
      });
  WVM_CHECK(scanned.ok());
  return ref;
}

class GcDiffTest : public ::testing::TestWithParam<int> {
 protected:
  // Runs one engine GC and checks it against the reference collection.
  // With a maintenance transaction active the engine defers the pass, so
  // nothing may be reclaimed.
  void CheckedGc(VnlEngine* engine, const VnlTable& table, bool txn_active) {
    const Vn current = engine->current_vn();
    const Vn min_session =
        engine->session_manager()->MinActiveSessionVn(current);
    HeapImage expected = Image(table);
    const ReferenceGc ref = ReferenceVictims(table, current, min_session);
    size_t reclaimed = 0;
    if (!txn_active) {
      for (Rid rid : ref.victims) expected.erase(rid);
      reclaimed = ref.victims.size();
    }

    Result<VnlEngine::GcStats> stats = engine->CollectGarbage();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->tuples_reclaimed, reclaimed);
    EXPECT_EQ(stats->tuples_pending, ref.corpses - reclaimed);
    EXPECT_TRUE(Image(table) == expected) << "heap differs after GC";
  }

  // Index point reads at the current version must agree with a heap scan:
  // a posting left behind by GC would surface a reclaimed (or recycled)
  // slot here.
  void CheckIndexAgainstScan(VnlEngine* engine, const VnlTable& table,
                             int64_t keys) {
    ReaderSession s = engine->OpenSession();
    Result<std::vector<Row>> rows = testutil::SnapshotRows(table, s);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    std::map<int64_t, Row> scanned;
    for (const Row& row : *rows) scanned.emplace(row[0].AsInt64(), row);
    for (int64_t id = 0; id < keys; ++id) {
      Result<std::optional<Row>> hit = table.SnapshotLookup(s, Key(id));
      ASSERT_TRUE(hit.ok()) << hit.status().ToString();
      auto it = scanned.find(id);
      ASSERT_EQ(hit->has_value(), it != scanned.end()) << "id " << id;
      if (hit->has_value()) {
        EXPECT_TRUE(**hit == it->second) << "id " << id;
      }
    }
    engine->CloseSession(s);
  }

  void RunSeed(uint64_t seed) {
    const int n = GetParam();
    SCOPED_TRACE(StrPrintf("seed=%llu n=%d",
                           static_cast<unsigned long long>(seed), n));
    Rng rng(seed * 7 + static_cast<uint64_t>(n));
    DiskManager disk;
    BufferPool pool(256, &disk);
    auto engine_or = VnlEngine::Create(&pool, n);
    ASSERT_TRUE(engine_or.ok());
    VnlEngine* engine = engine_or.value().get();
    auto table_or = engine->CreateTable("items", ItemSchema());
    ASSERT_TRUE(table_or.ok());
    VnlTable* table = table_or.value();

    const int64_t keys = rng.Uniform(8, 48);
    auto make_row = [&](int64_t id) -> Row {
      return {Value::Int64(id),
              Value::String(StrPrintf("g%" PRId64, rng.Uniform(0, 3))),
              Value::Int64(rng.Uniform(0, 1000))};
    };
    std::vector<ReaderSession> sessions;

    for (int round = 0; round < kRounds; ++round) {
      SCOPED_TRACE(StrPrintf("round=%d", round));
      // Sessions of several ages: pin one at the current version, retire
      // a random older one.
      if (rng.Bernoulli(0.4)) sessions.push_back(engine->OpenSession());
      if (!sessions.empty() && rng.Bernoulli(0.35)) {
        const auto i = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(sessions.size()) - 1));
        engine->CloseSession(sessions[i]);
        sessions.erase(sessions.begin() + static_cast<ptrdiff_t>(i));
      }

      auto txn_or = engine->BeginMaintenance();
      ASSERT_TRUE(txn_or.ok());
      MaintenanceTxn* txn = *txn_or;
      const int steps = static_cast<int>(rng.Uniform(1, 4));
      for (int step = 0; step < steps; ++step) {
        if (rng.Bernoulli(0.5)) {
          // Serial events, addressed by key.
          const int count = static_cast<int>(rng.Uniform(1, 10));
          for (int e = 0; e < count; ++e) {
            const int64_t id = rng.Uniform(0, keys - 1);
            Result<std::optional<Row>> cur =
                testutil::CurrentRow(table, txn, Key(id));
            ASSERT_TRUE(cur.ok());
            if (!cur->has_value()) {
              // Over a corpse this is a Table-2 revive, which must keep the
              // corpse's grp (§3.1).
              StatusCode want;
              const Row row =
                  rowref::PlanInsert(*table, make_row(id), &rng, &want);
              ASSERT_EQ(table->Insert(txn, row).code(), want);
              if (rng.Bernoulli(0.25) && want == StatusCode::kOk) {
                ASSERT_TRUE(testutil::DeleteKey(table, txn, Key(id)).value());
              }
            } else if (rng.Bernoulli(0.5)) {
              Row next = **cur;
              next[2] = Value::Int64(rng.Uniform(0, 1000));
              auto to_next = [&next](const Row&) -> Row {
                return next;
              };
              ASSERT_TRUE(
                  testutil::UpdateKey(table, txn, Key(id), to_next).value());
            } else {
              ASSERT_TRUE(testutil::DeleteKey(table, txn, Key(id)).value());
            }
          }
        } else {
          // A legal event sequence with repeated touches of hot keys,
          // each event applied as it is generated.
          std::map<int64_t, std::optional<Row>> view;
          const int count = static_cast<int>(rng.Uniform(1, 16));
          for (int e = 0; e < count; ++e) {
            const int64_t id = rng.Uniform(0, keys / 2);  // hot keys
            auto it = view.find(id);
            if (it == view.end()) {
              Result<std::optional<Row>> cur =
                  testutil::CurrentRow(table, txn, Key(id));
              ASSERT_TRUE(cur.ok());
              it = view.emplace(id, *cur).first;
            }
            std::optional<Row>& cur = it->second;
            if (!cur.has_value()) {
              StatusCode want;
              Row row = rowref::PlanInsert(*table, make_row(id), &rng, &want);
              ASSERT_EQ(table->Insert(txn, row).code(), want);
              if (want == StatusCode::kOk) cur = std::move(row);
            } else if (rng.Bernoulli(0.5)) {
              (*cur)[2] = Value::Int64(rng.Uniform(0, 1000));
              auto to_cur = [&cur](const Row&) -> Row { return *cur; };
              ASSERT_TRUE(
                  testutil::UpdateKey(table, txn, Key(id), to_cur).value());
            } else {
              ASSERT_TRUE(testutil::DeleteKey(table, txn, Key(id)).value());
              cur.reset();
            }
          }
        }
        if (rng.Bernoulli(0.2)) {
          ASSERT_NO_FATAL_FAILURE(
              CheckedGc(engine, *table, /*txn_active=*/true));
        }
      }
      if (rng.Bernoulli(0.25)) {
        ASSERT_TRUE(engine->Abort(txn).ok());
      } else {
        ASSERT_TRUE(engine->Commit(txn).ok());
      }
      if (rng.Bernoulli(0.8)) {
        ASSERT_NO_FATAL_FAILURE(
            CheckedGc(engine, *table, /*txn_active=*/false));
        ASSERT_NO_FATAL_FAILURE(CheckIndexAgainstScan(engine, *table, keys));
      }
    }

    // With every session closed, every committed corpse is reclaimable.
    for (const ReaderSession& s : sessions) engine->CloseSession(s);
    ASSERT_NO_FATAL_FAILURE(CheckedGc(engine, *table, /*txn_active=*/false));
    EXPECT_EQ(engine->CollectGarbage().value().tuples_pending, 0u);
    ASSERT_NO_FATAL_FAILURE(CheckIndexAgainstScan(engine, *table, keys));
  }
};

TEST_P(GcDiffTest, SeedsBatch0) {
  for (uint64_t seed = 0; seed < 13 && !HasFatalFailure(); ++seed) {
    RunSeed(seed);
  }
}
TEST_P(GcDiffTest, SeedsBatch1) {
  for (uint64_t seed = 13; seed < 26 && !HasFatalFailure(); ++seed) {
    RunSeed(seed);
  }
}
TEST_P(GcDiffTest, SeedsBatch2) {
  for (uint64_t seed = 26; seed < 39 && !HasFatalFailure(); ++seed) {
    RunSeed(seed);
  }
}
TEST_P(GcDiffTest, SeedsBatch3) {
  for (uint64_t seed = 39; seed < 52 && !HasFatalFailure(); ++seed) {
    RunSeed(seed);
  }
}

INSTANTIATE_TEST_SUITE_P(AllN, GcDiffTest, ::testing::Values(2, 3),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return StrPrintf("n%d", info.param);
                         });

}  // namespace
}  // namespace wvm::core

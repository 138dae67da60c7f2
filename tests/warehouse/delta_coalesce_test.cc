// Net-effect coalescing differential suite. Three layers:
//
//  1. ComposeNetEffect unit tests: every pairwise event composition per
//     key — including the delete-then-insert revive, the insert+delete
//     cancellation, and every serial-illegal pair's demotion to replay.
//  2. VnlTable::ApplyBatch vs the serial per-event methods: for each fold
//     kind, and for 52 randomized legal event histories, the batched
//     apply must leave byte-identical physical heap state, identical
//     pre-update versions for pinned sessions, and identical post-commit
//     reads; serial-illegal sequences must fail with the same status
//     after applying the same prefix.
//  3. SummaryView::ApplyDelta serial (batch_size 0) vs batched paths over
//     the DailySales workload, on the 2VNL adapter.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "baselines/vnl_adapter.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/decision_tables.h"
#include "core/vnl_engine.h"
#include "core/vnl_table.h"
#include "warehouse/view_maintenance.h"
#include "warehouse/workload.h"

namespace wvm::core {
namespace {

using Kind = NetEffect::Kind;

Row R(int64_t id, const std::string& tag, int64_t qty) {
  return {Value::Int64(id), Value::String(tag), Value::Int64(qty)};
}

LogicalEvent Ins(int64_t id, const std::string& tag, int64_t qty) {
  return {Op::kInsert, R(id, tag, qty)};
}
LogicalEvent Upd(int64_t id, const std::string& tag, int64_t qty) {
  return {Op::kUpdate, R(id, tag, qty)};
}
LogicalEvent Del() { return {Op::kDelete, {}}; }
// Apply-level deletes must name their key (serial DeleteByKey and
// CoalesceBatch grouping both need it); fold-level tests can use Del().
LogicalEvent DelK(int64_t id) { return {Op::kDelete, {Value::Int64(id)}}; }

NetEffect Fold(std::vector<LogicalEvent> events) {
  NetEffect acc;
  for (LogicalEvent& e : events) {
    acc = ComposeNetEffect(std::move(acc), std::move(e));
  }
  return acc;
}

// --- Layer 1: the composition algebra --------------------------------------

TEST(ComposeNetEffectTest, SingleEvents) {
  EXPECT_EQ(Fold({Ins(1, "a", 10)}).kind, Kind::kInsert);
  EXPECT_EQ(Fold({Upd(1, "a", 10)}).kind, Kind::kUpdate);
  const NetEffect del = Fold({Del()});
  EXPECT_EQ(del.kind, Kind::kDelete);
  EXPECT_FALSE(del.row.has_value());
}

TEST(ComposeNetEffectTest, InsertThenUpdateIsInsertOfNew) {
  const NetEffect e = Fold({Ins(1, "a", 10), Upd(1, "a", 20)});
  ASSERT_EQ(e.kind, Kind::kInsert);
  EXPECT_EQ((*e.row)[2].AsInt64(), 20);
}

TEST(ComposeNetEffectTest, InsertThenDeleteCancels) {
  const NetEffect e = Fold({Ins(1, "a", 10), Del()});
  ASSERT_EQ(e.kind, Kind::kCancelled);
  // Keeps the insert's values: needed to replay the pair over a corpse.
  ASSERT_TRUE(e.row.has_value());
  EXPECT_EQ((*e.row)[2].AsInt64(), 10);
}

TEST(ComposeNetEffectTest, UpdateThenUpdateIsLastUpdate) {
  const NetEffect e = Fold({Upd(1, "a", 10), Upd(1, "a", 30)});
  ASSERT_EQ(e.kind, Kind::kUpdate);
  EXPECT_EQ((*e.row)[2].AsInt64(), 30);
}

TEST(ComposeNetEffectTest, UpdateThenDeleteCarriesDeadCurrentValues) {
  const NetEffect e = Fold({Upd(1, "a", 10), Del()});
  ASSERT_EQ(e.kind, Kind::kDelete);
  // Serial would leave the update's values as the dead CV.
  ASSERT_TRUE(e.row.has_value());
  EXPECT_EQ((*e.row)[2].AsInt64(), 10);
}

TEST(ComposeNetEffectTest, DeleteThenInsertRevives) {
  const NetEffect e = Fold({Del(), Ins(1, "b", 42)});
  ASSERT_EQ(e.kind, Kind::kRevive);
  EXPECT_EQ((*e.row)[2].AsInt64(), 42);
}

TEST(ComposeNetEffectTest, ReviveThenUpdateStaysRevive) {
  const NetEffect e = Fold({Del(), Ins(1, "b", 42), Upd(1, "b", 43)});
  ASSERT_EQ(e.kind, Kind::kRevive);
  EXPECT_EQ((*e.row)[2].AsInt64(), 43);
}

TEST(ComposeNetEffectTest, ReviveThenDeleteReplaysSerially) {
  // A fused delete could not reproduce the revive's legal overwrite of
  // non-updatable attributes, so this composition replays the shortest
  // serial form: delete, insert-of-revived-values, delete.
  const NetEffect e = Fold({Del(), Ins(1, "b", 42), Del()});
  ASSERT_EQ(e.kind, Kind::kReplay);
  ASSERT_EQ(e.replay.size(), 3u);
  EXPECT_EQ(e.replay[0].op, Op::kDelete);
  EXPECT_EQ(e.replay[1].op, Op::kInsert);
  EXPECT_EQ(e.replay[1].row[2].AsInt64(), 42);
  EXPECT_EQ(e.replay[2].op, Op::kDelete);
}

TEST(ComposeNetEffectTest, InsertUpdateDeleteCancelsWithUpdatedValues) {
  const NetEffect e = Fold({Ins(1, "a", 10), Upd(1, "a", 20), Del()});
  ASSERT_EQ(e.kind, Kind::kCancelled);
  EXPECT_EQ((*e.row)[2].AsInt64(), 20);
}

// Serial-illegal pairs must demote to replay of the exact sequence, not
// fail at fold time (batched error behavior must equal serial's,
// including the applied prefix).
TEST(ComposeNetEffectTest, IllegalPairsDemoteToReplay) {
  const struct {
    std::vector<LogicalEvent> events;
    size_t replay_len;
  } cases[] = {
      {{Ins(1, "a", 1), Ins(1, "a", 2)}, 2},   // double insert
      {{Upd(1, "a", 1), Ins(1, "a", 2)}, 2},   // insert over updated key
      {{Del(), Upd(1, "a", 1)}, 2},            // update after delete
      {{Del(), Del()}, 2},                     // double delete
      {{Del(), Ins(1, "a", 1), Ins(1, "a", 2)}, 3},  // insert after revive
      {{Ins(1, "a", 1), Del(), Del()}, 3},     // anything after cancel
      {{Ins(1, "a", 1), Del(), Upd(1, "a", 2)}, 3},
      {{Ins(1, "a", 1), Del(), Ins(1, "a", 2)}, 3},
  };
  for (const auto& c : cases) {
    const NetEffect e = Fold(c.events);
    EXPECT_EQ(e.kind, Kind::kReplay);
    EXPECT_EQ(e.replay.size(), c.replay_len);
  }
}

TEST(ComposeNetEffectTest, ReplayReExpandsFoldedPrefix) {
  // insert+update folds to kInsert(new); a second insert demotes — the
  // replay must re-expand the *fold* (one insert of the updated values),
  // not the raw two-event history.
  const NetEffect e = Fold({Ins(1, "a", 1), Upd(1, "a", 2), Ins(1, "a", 3)});
  ASSERT_EQ(e.kind, Kind::kReplay);
  ASSERT_EQ(e.replay.size(), 2u);
  EXPECT_EQ(e.replay[0].op, Op::kInsert);
  EXPECT_EQ(e.replay[0].row[2].AsInt64(), 2);
  EXPECT_EQ(e.replay[1].op, Op::kInsert);
}

Schema CoalesceSchema() {
  return Schema({Column::Int64("id"), Column::String("tag", 4),
                 Column::Int64("qty", /*updatable=*/true)},
                {0});
}

TEST(CoalesceBatchTest, GroupsByKeyInFirstSeenOrder) {
  const Schema schema = CoalesceSchema();
  auto ops = CoalesceBatch(
      schema, {Ins(7, "a", 1), Ins(3, "b", 2), Upd(7, "a", 5),
               {Op::kDelete, {Value::Int64(3)}}, Ins(9, "c", 4)});
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();
  ASSERT_EQ(ops->size(), 3u);
  EXPECT_EQ((*ops)[0].key[0].AsInt64(), 7);
  EXPECT_EQ((*ops)[0].effect.kind, Kind::kInsert);
  EXPECT_EQ((*ops)[0].events, 2u);
  EXPECT_EQ((*ops)[1].key[0].AsInt64(), 3);
  EXPECT_EQ((*ops)[1].effect.kind, Kind::kCancelled);
  EXPECT_EQ((*ops)[2].key[0].AsInt64(), 9);
  EXPECT_EQ((*ops)[2].events, 1u);
}

TEST(CoalesceBatchTest, RequiresUniqueKey) {
  const Schema keyless({Column::Int64("x")}, {});
  EXPECT_EQ(CoalesceBatch(keyless, {Ins(1, "a", 1)}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CoalesceBatchTest, DeleteEventMustCarryKeyValues) {
  EXPECT_EQ(
      CoalesceBatch(CoalesceSchema(), {{Op::kDelete, {}}}).status().code(),
      StatusCode::kInvalidArgument);
}

// --- Layer 2: batched apply vs serial, same engine state --------------------

std::string RowKey(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    out += v.ToString();
    out += '|';
  }
  return out;
}

std::vector<std::string> PhysicalImage(const VnlTable* table) {
  std::vector<std::string> rows;
  WVM_CHECK(table->physical_table()
                .ScanRows([&](Rid, const Row& phys) {
                  rows.push_back(RowKey(phys));
                  return true;
                })
                .ok());
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> SnapshotImage(const VnlTable* table,
                                       const ReaderSession& session) {
  Result<std::vector<Row>> rows = table->SnapshotRows(session);
  WVM_CHECK_MSG(rows.ok(), rows.status().ToString().c_str());
  std::vector<std::string> out;
  for (const Row& row : *rows) out.push_back(RowKey(row));
  std::sort(out.begin(), out.end());
  return out;
}

// A serial twin + a batched twin built from the same history. The serial
// twin applies events one by one; the batched twin coalesces and applies
// through ApplyBatch. Every comparison is on sorted images because
// cancelled/replayed sequences may churn rid allocation.
struct TwinEngines {
  explicit TwinEngines(int n)
      : pool_s(1024, &disk_s), pool_b(1024, &disk_b) {
    auto es = VnlEngine::Create(&pool_s, n);
    auto eb = VnlEngine::Create(&pool_b, n);
    WVM_CHECK(es.ok() && eb.ok());
    serial_engine = std::move(es).value();
    batched_engine = std::move(eb).value();
    auto ts = serial_engine->CreateTable("t", CoalesceSchema());
    auto tb = batched_engine->CreateTable("t", CoalesceSchema());
    WVM_CHECK(ts.ok() && tb.ok());
    serial = ts.value();
    batched = tb.value();
  }

  // Applies `events` serially on BOTH engines (shared history setup).
  void ApplyBothSerial(const std::vector<LogicalEvent>& events) {
    auto txn_s = serial_engine->BeginMaintenance();
    auto txn_b = batched_engine->BeginMaintenance();
    WVM_CHECK(txn_s.ok() && txn_b.ok());
    WVM_CHECK(ApplySerial(serial, *txn_s, events).ok());
    WVM_CHECK(ApplySerial(batched, *txn_b, events).ok());
    WVM_CHECK(serial_engine->Commit(*txn_s).ok());
    WVM_CHECK(batched_engine->Commit(*txn_b).ok());
  }

  static Status ApplySerial(VnlTable* table, MaintenanceTxn* txn,
                            const std::vector<LogicalEvent>& events) {
    for (const LogicalEvent& ev : events) {
      switch (ev.op) {
        case Op::kInsert:
          WVM_RETURN_IF_ERROR(table->Insert(txn, ev.row));
          break;
        case Op::kUpdate: {
          WVM_ASSIGN_OR_RETURN(
              bool found,
              table->UpdateByKey(txn, {ev.row[0]},
                                 [&ev](const Row&) -> Result<Row> {
                                   return ev.row;
                                 }));
          if (!found) return Status::NotFound("no such key");
          break;
        }
        case Op::kDelete: {
          WVM_ASSIGN_OR_RETURN(bool found,
                               table->DeleteByKey(txn, {ev.row[0]}));
          if (!found) return Status::NotFound("no such key");
          break;
        }
      }
    }
    return Status::OK();
  }

  static Status ApplyBatched(VnlTable* table, MaintenanceTxn* txn,
                             const std::vector<LogicalEvent>& events,
                             size_t chunk) {
    WVM_ASSIGN_OR_RETURN(std::vector<CoalescedOp> coalesced,
                         CoalesceBatch(CoalesceSchema(), events));
    std::vector<VnlTable::BatchKeyOp> ops;
    auto flush = [&]() -> Status {
      if (ops.empty()) return Status::OK();
      Result<VnlTable::BatchApplyStats> applied = table->ApplyBatch(txn, ops);
      WVM_RETURN_IF_ERROR(applied.status());
      ops.clear();
      return Status::OK();
    };
    for (CoalescedOp& op : coalesced) {
      VnlTable::BatchKeyOp key_op;
      key_op.key = std::move(op.key);
      key_op.decide = [effect = std::move(op.effect)](
                          const std::optional<Row>&) -> Result<NetEffect> {
        return effect;
      };
      ops.push_back(std::move(key_op));
      if (ops.size() >= chunk) WVM_RETURN_IF_ERROR(flush());
    }
    return flush();
  }

  DiskManager disk_s, disk_b;
  BufferPool pool_s, pool_b;
  std::unique_ptr<VnlEngine> serial_engine, batched_engine;
  VnlTable* serial = nullptr;
  VnlTable* batched = nullptr;
};

// Applies `events` serial-vs-batched inside one txn and checks that the
// status, the final heap bytes, the pinned pre-txn session's reads, and
// the post-commit reads all agree.
void ExpectBatchedEqualsSerial(TwinEngines* twins,
                               const std::vector<LogicalEvent>& events,
                               size_t chunk) {
  ReaderSession pinned_s = twins->serial_engine->OpenSession();
  ReaderSession pinned_b = twins->batched_engine->OpenSession();
  auto txn_s = twins->serial_engine->BeginMaintenance();
  auto txn_b = twins->batched_engine->BeginMaintenance();
  ASSERT_TRUE(txn_s.ok() && txn_b.ok());

  const Status ss = TwinEngines::ApplySerial(twins->serial, *txn_s, events);
  const Status sb =
      TwinEngines::ApplyBatched(twins->batched, *txn_b, events, chunk);
  EXPECT_EQ(ss.code(), sb.code()) << "serial: " << ss.ToString()
                                  << "\nbatched: " << sb.ToString();

  // Heap bytes agree even mid-transaction (after an error: same prefix).
  EXPECT_EQ(PhysicalImage(twins->serial), PhysicalImage(twins->batched));
  // The pinned sessions still read the pre-transaction version.
  EXPECT_EQ(SnapshotImage(twins->serial, pinned_s),
            SnapshotImage(twins->batched, pinned_b));

  ASSERT_TRUE(twins->serial_engine->Commit(*txn_s).ok());
  ASSERT_TRUE(twins->batched_engine->Commit(*txn_b).ok());

  EXPECT_EQ(SnapshotImage(twins->serial, pinned_s),
            SnapshotImage(twins->batched, pinned_b));
  ReaderSession after_s = twins->serial_engine->OpenSession();
  ReaderSession after_b = twins->batched_engine->OpenSession();
  EXPECT_EQ(SnapshotImage(twins->serial, after_s),
            SnapshotImage(twins->batched, after_b));
  twins->serial_engine->CloseSession(pinned_s);
  twins->batched_engine->CloseSession(pinned_b);
  twins->serial_engine->CloseSession(after_s);
  twins->batched_engine->CloseSession(after_b);
}

class ApplyBatchEquivalenceTest : public ::testing::TestWithParam<int> {};

// Every pairwise composition per key, against every relevant start state:
// key absent, key live, key a corpse (logically deleted by an earlier
// txn), and key freshly inserted in the same batch.
TEST_P(ApplyBatchEquivalenceTest, PairwiseFoldsMatchSerial) {
  const int n = GetParam();
  const std::vector<std::vector<LogicalEvent>> sequences = {
      {Ins(1, "a", 10)},
      {Ins(1, "a", 10), Upd(1, "a", 20)},
      {Ins(1, "a", 10), DelK(1)},
      {Ins(1, "a", 10), Upd(1, "a", 20), DelK(1)},
      {Upd(5, "e", 21)},
      {Upd(5, "e", 21), Upd(5, "e", 22)},
      {Upd(5, "e", 21), DelK(5)},
      {DelK(5)},
      {DelK(5), Ins(5, "f", 30)},                  // revive, new tag
      {DelK(5), Ins(5, "f", 30), Upd(5, "f", 31)},
      {DelK(5), Ins(5, "f", 30), DelK(5)},
      {Ins(2, "c", 7)},                            // revive of a corpse
      {Ins(2, "c", 7), DelK(2)},                   // cancel over a corpse
      {Ins(2, "c", 7), Upd(2, "c", 8), DelK(2)},
      // Serial-illegal sequences: same error, same applied prefix.
      {Ins(1, "a", 1), Ins(1, "a", 2)},
      {DelK(5), DelK(5)},
      {DelK(5), Upd(5, "x", 1)},
      {Ins(9, "z", 1), Ins(9, "z", 2)},
  };
  for (size_t i = 0; i < sequences.size(); ++i) {
    for (size_t chunk : {size_t{1}, size_t{64}}) {
      SCOPED_TRACE(StrPrintf("sequence=%zu chunk=%zu n=%d", i, chunk, n));
      TwinEngines twins(n);
      // Shared history: key 5 live, key 2 a corpse from a previous txn.
      twins.ApplyBothSerial({Ins(5, "e", 50), Ins(2, "b", 20)});
      twins.ApplyBothSerial({{Op::kDelete, {Value::Int64(2)}}});
      ExpectBatchedEqualsSerial(&twins, sequences[i], chunk);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ns, ApplyBatchEquivalenceTest,
                         ::testing::Values(2, 3));

// The 52-seed randomized differential: random legal histories over a
// small hot key set (forcing repeated touches per batch), random n and
// chunk size, three maintenance rounds per seed.
class BatchedSerialDiffTest : public ::testing::Test {
 protected:
  void RunSeed(uint64_t seed) {
    SCOPED_TRACE(StrPrintf("seed=%llu",
                           static_cast<unsigned long long>(seed)));
    Rng rng(seed);
    const int n = rng.Bernoulli(0.5) ? 2 : 3;
    const size_t chunk =
        static_cast<size_t>(rng.Uniform(1, 9));  // small chunks stress flush
    TwinEngines twins(n);

    // Model of the logical state: present keys and their current tag
    // (non-updatable, so updates must repeat it; revives may change it).
    const int64_t keys = rng.Uniform(6, 16);
    std::vector<bool> present(static_cast<size_t>(keys), false);
    std::vector<std::string> tag(static_cast<size_t>(keys), "");
    auto make_tag = [&rng]() {
      return std::string(1, static_cast<char>('a' + rng.Uniform(0, 25)));
    };

    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE(StrPrintf("round=%d", round));
      // Generate a legal event sequence against the model: inserts only
      // on absent keys, updates/deletes only on present ones. Repeated
      // touches of the same key are the point.
      std::vector<LogicalEvent> events;
      const int count = static_cast<int>(rng.Uniform(10, 60));
      for (int i = 0; i < count; ++i) {
        const auto k = static_cast<size_t>(rng.Uniform(0, keys - 1));
        const int64_t id = static_cast<int64_t>(k);
        if (!present[k]) {
          tag[k] = make_tag();
          events.push_back(Ins(id, tag[k], rng.Uniform(0, 1000)));
          present[k] = true;
        } else if (rng.Bernoulli(0.6)) {
          events.push_back(Upd(id, tag[k], rng.Uniform(0, 1000)));
        } else {
          events.push_back({Op::kDelete, {Value::Int64(id)}});
          present[k] = false;
        }
      }
      ExpectBatchedEqualsSerial(&twins, events, chunk);
    }
  }
};

TEST_F(BatchedSerialDiffTest, SeedsBatch0) {
  for (uint64_t seed = 0; seed < 13; ++seed) RunSeed(seed);
}
TEST_F(BatchedSerialDiffTest, SeedsBatch1) {
  for (uint64_t seed = 13; seed < 26; ++seed) RunSeed(seed);
}
TEST_F(BatchedSerialDiffTest, SeedsBatch2) {
  for (uint64_t seed = 26; seed < 39; ++seed) RunSeed(seed);
}
TEST_F(BatchedSerialDiffTest, SeedsBatch3) {
  for (uint64_t seed = 39; seed < 52; ++seed) RunSeed(seed);
}

// ApplyBatch amortization: one probe and one pin per present key, against
// the serial path's one-per-call.
TEST(ApplyBatchStatsTest, OneProbeOnePinPerKey) {
  TwinEngines twins(2);
  twins.ApplyBothSerial({Ins(0, "a", 1), Ins(1, "b", 2), Ins(2, "c", 3)});
  auto txn = twins.batched_engine->BeginMaintenance();
  ASSERT_TRUE(txn.ok());
  std::vector<VnlTable::BatchKeyOp> ops;
  for (int64_t id = 0; id < 3; ++id) {
    VnlTable::BatchKeyOp op;
    op.key = {Value::Int64(id)};
    op.decide = [id](const std::optional<Row>& current) -> Result<NetEffect> {
      WVM_CHECK(current.has_value());
      NetEffect e;
      e.kind = Kind::kUpdate;
      Row next = *current;
      next[2] = Value::Int64(next[2].AsInt64() + 100);
      e.row = std::move(next);
      return e;
    };
    ops.push_back(std::move(op));
  }
  Result<VnlTable::BatchApplyStats> stats =
      twins.batched->ApplyBatch(*txn, ops);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->keys, 3u);
  EXPECT_EQ(stats->updates, 3u);
  EXPECT_EQ(stats->index_probes, 3u);
  EXPECT_EQ(stats->page_pins, 3u);
  ASSERT_TRUE(twins.batched_engine->Commit(*txn).ok());
}

}  // namespace
}  // namespace wvm::core

// --- Layer 3: the summary view over the daily-sales workload ----------------

namespace wvm::warehouse {
namespace {

std::vector<std::string> SortedReadAll(baselines::WarehouseEngine* engine) {
  Result<uint64_t> reader = engine->OpenReader();
  WVM_CHECK(reader.ok());
  Result<std::vector<Row>> rows = engine->ReadAll(*reader);
  WVM_CHECK_MSG(rows.ok(), rows.status().ToString().c_str());
  std::vector<std::string> out;
  for (const Row& row : *rows) {
    std::string s;
    for (const Value& v : row) {
      s += v.ToString();
      s += '|';
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  WVM_CHECK(engine->CloseReader(*reader).ok());
  return out;
}

TEST(SummaryViewBatchedDiffTest, BatchedEqualsSerialAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(StrPrintf("seed=%llu",
                           static_cast<unsigned long long>(seed)));
    DailySalesConfig config;
    config.seed = seed;
    config.events_per_batch = 400;
    config.num_cities = 6;
    config.num_product_lines = 3;
    DailySalesWorkload workload(config);
    const SummaryView& view = workload.view();

    DiskManager disk_s, disk_b;
    BufferPool pool_s(1024, &disk_s), pool_b(1024, &disk_b);
    auto serial =
        baselines::VnlAdapter::Create(&pool_s, view.view_schema(), 2);
    auto batched =
        baselines::VnlAdapter::Create(&pool_b, view.view_schema(), 2);
    ASSERT_TRUE(serial.ok() && batched.ok());

    SummaryView::ApplyOptions serial_opts;
    serial_opts.batch_size = 0;
    SummaryView::ApplyOptions batched_opts;
    batched_opts.batch_size = static_cast<size_t>(1 + seed % 7);

    for (int day = 1; day <= 3; ++day) {
      const DeltaBatch batch = workload.MakeBatch(day);
      ASSERT_TRUE((*serial)->BeginMaintenance().ok());
      ASSERT_TRUE((*batched)->BeginMaintenance().ok());
      Result<SummaryView::ApplyStats> ss =
          view.ApplyDelta(serial->get(), batch, serial_opts);
      Result<SummaryView::ApplyStats> sb =
          view.ApplyDelta(batched->get(), batch, batched_opts);
      ASSERT_TRUE(ss.ok()) << ss.status().ToString();
      ASSERT_TRUE(sb.ok()) << sb.status().ToString();
      // The logical maintenance actions must agree exactly.
      EXPECT_EQ(ss->groups_touched, sb->groups_touched);
      EXPECT_EQ(ss->inserts, sb->inserts);
      EXPECT_EQ(ss->updates, sb->updates);
      EXPECT_EQ(ss->deletes, sb->deletes);
      EXPECT_EQ(ss->keys_coalesced, sb->keys_coalesced);
      EXPECT_EQ(ss->events_folded, sb->events_folded);
      // And the batched path must amortize: at most half the probes of
      // the serial path once groups mostly exist (days 2+).
      if (day > 1) {
        EXPECT_LE(2 * sb->index_probes, ss->index_probes);
        EXPECT_LE(2 * sb->page_pins, ss->page_pins);
      }
      ASSERT_TRUE((*serial)->CommitMaintenance().ok());
      ASSERT_TRUE((*batched)->CommitMaintenance().ok());
      EXPECT_EQ(SortedReadAll(serial->get()), SortedReadAll(batched->get()));
    }
  }
}

TEST(SummaryViewBatchedDiffTest, BatchedRetractionOfUnknownGroupFails) {
  SummaryView view({Column::String("city", 8)}, "sales");
  DiskManager disk;
  BufferPool pool(256, &disk);
  auto engine = baselines::VnlAdapter::Create(&pool, view.view_schema(), 2);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->BeginMaintenance().ok());
  DeltaBatch batch = {{{Value::String("ghost")}, 10, /*retraction=*/true}};
  Result<SummaryView::ApplyStats> stats =
      view.ApplyDelta(engine->get(), batch);  // default = batched
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace wvm::warehouse

// Concurrent secondary-index maintenance: reader threads issue
// index-routed SnapshotSelects (unique-key point reads and secondary
// group-equality reads) while a maintenance thread churns the table with
// inserts, updates, deletes, and re-inserts over corpses (revives), and a
// GC thread reclaims corpses (which drops postings). Every routed read must
// equal the mutex-protected reference model at the session's VN — posting
// mutations must never surface a row the snapshot should not contain, nor
// lose one it should. Registered against the TSan/ASan/UBSan/paranoid
// library twins so races and protocol violations fail loudly.
//
// Edge readers hold a session until it is exactly n-1 commits behind —
// the oldest gap the §4.1 version window admits, and only while no
// maintenance transaction is active — and keep reading until it ages out,
// so their routed reads race the writer's next BeginMaintenance. Each
// such read must return the session's snapshot rows or kSessionExpired.
//
// Groups are drawn at random for every insert. A re-insert over a corpse
// must keep the corpse's group (§3.1: non-updatable attributes are fixed
// at the tuple's insert), so it either revives the tuple with its group
// and postings unchanged or fails with kInvalidArgument; either way every
// older session keeps reading the group its version had.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/vnl_engine.h"
#include "query/executor.h"
#include "sql/parser.h"
#include "tests/support/keyed_maintenance.h"
#include "tests/support/row_reference.h"

namespace wvm::core {
namespace {

Schema ItemSchema() {
  Schema s({Column::Int64("id"), Column::String("grp", 4),
            Column::Int64("qty", /*updatable=*/true)},
           {0});
  WVM_CHECK(s.AddSecondaryIndex("by_grp", {"grp"}).ok());
  return s;
}

// id -> (grp, qty)
using State = std::map<int64_t, std::pair<std::string, int64_t>>;

class IndexConcurrencyTest : public ::testing::TestWithParam<int> {};

TEST_P(IndexConcurrencyTest, RoutedReadsAlwaysSeeACommittedState) {
  const int n = GetParam();
  DiskManager disk;
  BufferPool pool(2048, &disk);
  auto engine_or = VnlEngine::Create(&pool, n);
  ASSERT_TRUE(engine_or.ok());
  VnlEngine& engine = **engine_or;
  auto table_or = engine.CreateTable("t", ItemSchema());
  ASSERT_TRUE(table_or.ok());
  VnlTable& table = *table_or.value();

  std::mutex model_mu;
  std::vector<State> states;
  states.push_back({});  // version 0: empty

  constexpr int kRounds = 60;
  constexpr int kKeySpace = 40;
  constexpr int kGroups = 4;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads_checked{0};
  std::atomic<uint64_t> expirations{0};
  std::atomic<uint64_t> mismatches{0};

  Result<sql::SelectStmt> by_key =
      sql::ParseSelect("SELECT id, grp, qty FROM t WHERE id = :k");
  Result<sql::SelectStmt> by_grp =
      sql::ParseSelect("SELECT id, grp, qty FROM t WHERE grp = :g");
  ASSERT_TRUE(by_key.ok() && by_grp.ok());

  enum class Outcome { kChecked, kExpired, kMismatch };
  // One routed read, judged against the reference model at the session's
  // VN. A read at a version the model has not published yet is unchecked.
  auto read_once = [&](const ReaderSession& session, Rng* rng) {
    const bool point = rng->Bernoulli(0.5);
    const int64_t k = rng->Uniform(0, kKeySpace - 1);
    const std::string g = StrPrintf("g%" PRId64, rng->Uniform(0, kGroups - 1));
    const query::ParamMap params = {{"k", Value::Int64(k)},
                                    {"g", Value::String(g)}};
    Result<query::QueryResult> res =
        table.SnapshotSelect(session, point ? *by_key : *by_grp, params);
    if (!res.ok()) {
      return res.status().code() == StatusCode::kSessionExpired
                 ? Outcome::kExpired
                 : Outcome::kMismatch;
    }
    State got;
    for (const Row& row : res->rows) {
      got[row[0].AsInt64()] = {row[1].AsString(), row[2].AsInt64()};
    }
    State want;
    {
      std::lock_guard lock(model_mu);
      const size_t vn = static_cast<size_t>(session.session_vn);
      if (vn >= states.size()) return Outcome::kChecked;
      for (const auto& [id, gv] : states[vn]) {
        if (point ? id == k : gv.first == g) want[id] = gv;
      }
    }
    if (got == want) return Outcome::kChecked;
    // Force-expired by a lossy abort (§7): reads are no longer served
    // faithfully, by design.
    if (!engine.CheckSession(session).ok()) return Outcome::kExpired;
    return Outcome::kMismatch;
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(7100 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        ReaderSession session = engine.OpenSession();
        for (int q = 0; q < 4; ++q) {
          const Outcome o = read_once(session, &rng);
          if (o == Outcome::kChecked) {
            reads_checked.fetch_add(1);
            continue;
          }
          (o == Outcome::kExpired ? expirations : mismatches).fetch_add(1);
          break;
        }
        engine.CloseSession(session);
      }
    });
  }

  std::atomic<uint64_t> edge_reads{0};
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(7200 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        ReaderSession session = engine.OpenSession();
        auto gap = [&] { return engine.current_vn() - session.session_vn; };
        while (gap() < n - 1 && !stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        while (gap() == n - 1 && !stop.load(std::memory_order_relaxed)) {
          const Outcome o = read_once(session, &rng);
          if (o == Outcome::kMismatch) mismatches.fetch_add(1);
          if (o != Outcome::kChecked) break;
          reads_checked.fetch_add(1);
          edge_reads.fetch_add(1);
        }
        engine.CloseSession(session);
      }
    });
  }

  std::thread gc([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      WVM_CHECK(engine.CollectGarbage().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  // Writer (this thread): random batches with deliberate delete +
  // same-key re-insert pairs so revives move postings mid-read.
  Rng rng(515);
  State current;
  for (int round = 0; round < kRounds; ++round) {
    Result<MaintenanceTxn*> txn_or = engine.BeginMaintenance();
    ASSERT_TRUE(txn_or.ok());
    MaintenanceTxn* txn = txn_or.value();
    State scratch = current;
    const int ops = static_cast<int>(rng.Uniform(2, 10));
    for (int i = 0; i < ops; ++i) {
      const int64_t id = rng.Uniform(0, kKeySpace - 1);
      const std::string g =
          StrPrintf("g%" PRId64, rng.Uniform(0, kGroups - 1));
      const int64_t qty = rng.Uniform(0, 1000);
      // Inserts a row for `id`: fresh, or a revive of its corpse that
      // succeeds exactly when it keeps the corpse's group.
      auto insert = [&] {
        StatusCode want;
        const Row row = rowref::PlanInsert(
            table, {Value::Int64(id), Value::String(g), Value::Int64(qty)},
            &rng, &want);
        const Status s = table.Insert(txn, row);
        ASSERT_EQ(s.code(), want) << s.ToString();
        if (s.ok()) scratch[id] = {row[1].AsString(), qty};
      };
      if (scratch.count(id) == 0) {
        ASSERT_NO_FATAL_FAILURE(insert());
      } else if (rng.Bernoulli(0.4)) {
        Result<bool> r = testutil::SetKey(&table, txn, {Value::Int64(id)}, 2,
                                          Value::Int64(qty));
        ASSERT_TRUE(r.ok() && r.value());
        scratch[id].second = qty;
      } else if (rng.Bernoulli(0.5)) {
        Result<bool> r = testutil::DeleteKey(&table, txn, {Value::Int64(id)});
        ASSERT_TRUE(r.ok() && r.value());
        scratch.erase(id);
      } else {
        // Revive: delete + immediate re-insert, the physical UPDATE of a
        // corpse while readers hold older snapshots.
        Result<bool> r = testutil::DeleteKey(&table, txn, {Value::Int64(id)});
        ASSERT_TRUE(r.ok() && r.value());
        scratch.erase(id);
        ASSERT_NO_FATAL_FAILURE(insert());
      }
    }
    {
      std::lock_guard lock(model_mu);
      states.push_back(scratch);
    }
    ASSERT_TRUE(engine.Commit(txn).ok());
    current = std::move(scratch);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  gc.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(reads_checked.load(), 0u);
  EXPECT_GT(edge_reads.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllN, IndexConcurrencyTest,
                         ::testing::Values(2, 3),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return StrPrintf("n%d", info.param);
                         });

}  // namespace
}  // namespace wvm::core

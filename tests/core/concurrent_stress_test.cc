// Multi-threaded serializability stress: a real maintenance thread, GC
// thread, and several reader threads run against one VnlTable. A mutex-
// protected reference model records the logical state at every committed
// version; every read a session performs must equal the model state at
// its sessionVN — unless the session (detectably) expired.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/vnl_engine.h"
#include "tests/support/keyed_maintenance.h"
#include "tests/support/snapshot_rows.h"

namespace wvm::core {
namespace {

Schema ItemSchema() {
  return Schema({Column::Int64("id"), Column::Int64("qty", true)}, {0});
}

using State = std::map<int64_t, int64_t>;

class ConcurrentStressTest : public ::testing::TestWithParam<int> {};

TEST_P(ConcurrentStressTest, SessionsAlwaysSeeACommittedState) {
  const int n = GetParam();
  DiskManager disk;
  BufferPool pool(2048, &disk);
  auto engine_or = VnlEngine::Create(&pool, n);
  ASSERT_TRUE(engine_or.ok());
  VnlEngine& engine = **engine_or;
  auto table_or = engine.CreateTable("items", ItemSchema());
  ASSERT_TRUE(table_or.ok());
  VnlTable& table = *table_or.value();

  // Reference: states[v] = logical state as of committed version v.
  std::mutex model_mu;
  std::vector<State> states;
  states.push_back({});  // version 0: empty

  constexpr int kRounds = 60;
  constexpr int kKeySpace = 40;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads_checked{0};
  std::atomic<uint64_t> expirations{0};
  std::atomic<uint64_t> mismatches{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(9000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        ReaderSession session = engine.OpenSession();
        // Several reads within one session; all must agree with the
        // model state at session_vn.
        for (int q = 0; q < 4; ++q) {
          Result<std::vector<Row>> rows =
              testutil::SnapshotRows(table, session);
          if (!rows.ok()) {
            // Tuple-level expiration — must also fail the global check
            // eventually; just count it.
            if (rows.status().code() == StatusCode::kSessionExpired) {
              expirations.fetch_add(1);
              break;
            }
            mismatches.fetch_add(1);
            break;
          }
          State got;
          for (const Row& row : *rows) {
            got[row[0].AsInt64()] = row[1].AsInt64();
          }
          bool matches = true;
          {
            std::lock_guard lock(model_mu);
            const size_t vn = static_cast<size_t>(session.session_vn);
            matches = vn >= states.size() || got == states[vn];
          }
          if (matches) {
            reads_checked.fetch_add(1);
          } else if (getenv("WVM_STRESS_DEBUG") != nullptr) {
            std::lock_guard lock(model_mu);
            const size_t vn = static_cast<size_t>(session.session_vn);
            fprintf(stderr, "MISMATCH session_vn=%zu states=%zu cur=%lld\n",
                    vn, states.size(),
                    static_cast<long long>(engine.current_vn()));
            if (vn < states.size()) {
              for (const auto& [k, v] : states[vn]) {
                if (got.count(k) == 0 || got[k] != v) {
                  fprintf(stderr, "  want %lld=%lld got %s\n",
                          (long long)k, (long long)v,
                          got.count(k) ? std::to_string(got[k]).c_str()
                                       : "MISSING");
                }
              }
              for (const auto& [k, v] : got) {
                if (states[vn].count(k) == 0) {
                  fprintf(stderr, "  extra %lld=%lld\n", (long long)k,
                          (long long)v);
                }
              }
            }
            mismatches.fetch_add(1);
          } else if (!engine.CheckSession(session).ok()) {
            // A lossy abort force-expired this session (§7); its reads
            // are no longer served faithfully, by design — the global
            // check is what tells the reader to restart.
            expirations.fetch_add(1);
            break;
          } else {
            mismatches.fetch_add(1);
          }
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

  // Writer (this thread): random batches, occasionally aborted.
  Rng rng(4242);
  State current;
  for (int round = 0; round < kRounds; ++round) {
    Result<MaintenanceTxn*> txn_or = engine.BeginMaintenance();
    ASSERT_TRUE(txn_or.ok());
    MaintenanceTxn* txn = txn_or.value();
    State scratch = current;
    const int ops = static_cast<int>(rng.Uniform(1, 8));
    for (int i = 0; i < ops; ++i) {
      const int64_t id = rng.Uniform(0, kKeySpace - 1);
      const int64_t qty = rng.Uniform(0, 1000);
      if (scratch.count(id) == 0) {
        ASSERT_TRUE(table.Insert(txn, {Value::Int64(id),
                                       Value::Int64(qty)}).ok());
        scratch[id] = qty;
      } else if (rng.Bernoulli(0.6)) {
        Result<bool> r = testutil::SetKey(&table, txn, {Value::Int64(id)}, 1,
                                          Value::Int64(qty));
        ASSERT_TRUE(r.ok() && r.value());
        scratch[id] = qty;
      } else {
        Result<bool> r = testutil::DeleteKey(&table, txn, {Value::Int64(id)});
        ASSERT_TRUE(r.ok() && r.value());
        scratch.erase(id);
      }
    }
    if (rng.Bernoulli(0.15)) {
      // Abort: the committed history is unchanged; the model gains no
      // version. (The abort may force-expire old sessions; readers
      // handle that as expiration.)
      ASSERT_TRUE(engine.Abort(txn).ok());
    } else {
      // Publish the model state BEFORE the engine commit: a reader that
      // picks up the new VN immediately must find its state present.
      {
        std::lock_guard lock(model_mu);
        states.push_back(scratch);
      }
      ASSERT_TRUE(engine.Commit(txn).ok());
      current = std::move(scratch);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  gc.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(reads_checked.load(), 0u);
  // Sanity: the final committed state equals the model.
  ReaderSession final_session = engine.OpenSession();
  Result<std::vector<Row>> rows = testutil::SnapshotRows(table, final_session);
  ASSERT_TRUE(rows.ok());
  State got;
  for (const Row& row : *rows) got[row[0].AsInt64()] = row[1].AsInt64();
  EXPECT_EQ(got, current);
  engine.CloseSession(final_session);
}

INSTANTIATE_TEST_SUITE_P(AllN, ConcurrentStressTest,
                         ::testing::Values(2, 3),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return StrPrintf("n%d", info.param);
                         });

}  // namespace
}  // namespace wvm::core

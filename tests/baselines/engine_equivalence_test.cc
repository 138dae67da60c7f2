// Cross-engine property: every concurrency-control scheme must expose the
// same logical database state to a fresh reader after each committed
// maintenance transaction, and the multi-version engines must agree on
// what *old* sessions see.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tests/baselines/engine_test_util.h"

namespace wvm::baselines {
namespace {

using testutil::Apply;
using testutil::Delete;
using testutil::Insert;
using testutil::Item;
using testutil::Key;
using testutil::LatestRow;
using testutil::MakeEngine;
using testutil::SetQty;

const std::vector<std::string> kAllEngines = {
    "offline", "s2pl", "2v2pl", "mv2pl-cfl82", "mv2pl-bc92", "2vnl", "3vnl"};

std::map<int64_t, int64_t> ToState(const std::vector<Row>& rows) {
  std::map<int64_t, int64_t> state;
  for (const Row& row : rows) state[row[0].AsInt64()] = row[1].AsInt64();
  return state;
}

TEST(EngineEquivalenceTest, RandomHistoriesAgreeAcrossEngines) {
  DiskManager disk;
  BufferPool pool(4096, &disk);
  std::vector<std::unique_ptr<WarehouseEngine>> engines;
  for (const std::string& n : kAllEngines) {
    engines.push_back(MakeEngine(n, &pool));
  }

  Rng rng(2026);
  std::map<int64_t, int64_t> model;

  for (int round = 0; round < 12; ++round) {
    // Build one random batch and apply it to the model and all engines.
    struct Op {
      int kind;  // 0 insert, 1 update, 2 delete
      int64_t id;
      int64_t qty;
    };
    std::vector<Op> batch;
    const int ops = static_cast<int>(rng.Uniform(1, 8));
    std::map<int64_t, int64_t> scratch = model;
    for (int i = 0; i < ops; ++i) {
      const int64_t id = rng.Uniform(0, 15);
      const int64_t qty = rng.Uniform(1, 1000);
      if (scratch.count(id) == 0) {
        batch.push_back({0, id, qty});
        scratch[id] = qty;
      } else if (rng.Bernoulli(0.5)) {
        batch.push_back({1, id, qty});
        scratch[id] = qty;
      } else {
        batch.push_back({2, id, 0});
        scratch.erase(id);
      }
    }
    model = scratch;

    for (auto& engine : engines) {
      ASSERT_TRUE(engine->BeginMaintenance().ok()) << engine->name();
      for (const Op& op : batch) {
        Status s;
        switch (op.kind) {
          case 0: s = Insert(engine.get(), op.id, op.qty); break;
          case 1: s = SetQty(engine.get(), op.id, op.qty);
                  break;
          default: s = Delete(engine.get(), op.id); break;
        }
        ASSERT_TRUE(s.ok()) << engine->name() << " op kind " << op.kind
                            << " id " << op.id << ": " << s.ToString();
      }
      ASSERT_TRUE(engine->CommitMaintenance().ok()) << engine->name();
    }

    // Every engine agrees with the model for a fresh session.
    for (auto& engine : engines) {
      Result<uint64_t> reader = engine->OpenReader();
      ASSERT_TRUE(reader.ok()) << engine->name();
      Result<std::vector<Row>> rows = engine->ReadAll(*reader);
      ASSERT_TRUE(rows.ok()) << engine->name();
      EXPECT_EQ(ToState(*rows), model)
          << engine->name() << " diverged at round " << round;
      // Point lookups agree too.
      for (int64_t id = 0; id < 16; ++id) {
        Result<std::optional<Row>> row = engine->ReadKey(*reader, Key(id));
        ASSERT_TRUE(row.ok()) << engine->name();
        if (model.count(id) > 0) {
          ASSERT_TRUE(row->has_value()) << engine->name() << " id " << id;
          EXPECT_EQ((**row)[1].AsInt64(), model.at(id)) << engine->name();
        } else {
          EXPECT_FALSE(row->has_value()) << engine->name() << " id " << id;
        }
      }
      ASSERT_TRUE(engine->CloseReader(*reader).ok());
    }
  }
}

// Multi-version engines (mv2pl, bc92, 2vnl) must agree on what a session
// opened *before* a maintenance transaction sees after it commits.
TEST(EngineEquivalenceTest, OldSessionsAgreeAcrossVersionedEngines) {
  const std::vector<std::string> names = {"mv2pl-cfl82", "mv2pl-bc92",
                                          "2vnl", "3vnl"};
  DiskManager disk;
  BufferPool pool(2048, &disk);
  std::vector<std::unique_ptr<WarehouseEngine>> engines;
  for (const std::string& n : names) engines.push_back(MakeEngine(n, &pool));

  for (auto& engine : engines) {
    ASSERT_TRUE(engine->BeginMaintenance().ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(Insert(engine.get(), i, i).ok());
    }
    ASSERT_TRUE(engine->CommitMaintenance().ok());
  }

  // Open a session on each engine, then run one more maintenance txn.
  std::vector<uint64_t> readers;
  for (auto& engine : engines) {
    Result<uint64_t> r = engine->OpenReader();
    ASSERT_TRUE(r.ok());
    readers.push_back(*r);
  }
  for (auto& engine : engines) {
    ASSERT_TRUE(engine->BeginMaintenance().ok());
    ASSERT_TRUE(SetQty(engine.get(), 1, 100).ok());
    ASSERT_TRUE(Delete(engine.get(), 2).ok());
    ASSERT_TRUE(Insert(engine.get(), 10, 10).ok());
    ASSERT_TRUE(engine->CommitMaintenance().ok());
  }

  std::map<int64_t, int64_t> expected = {{0, 0}, {1, 1}, {2, 2},
                                         {3, 3}, {4, 4}, {5, 5}};
  for (size_t i = 0; i < engines.size(); ++i) {
    Result<std::vector<Row>> rows = engines[i]->ReadAll(readers[i]);
    ASSERT_TRUE(rows.ok()) << engines[i]->name();
    EXPECT_EQ(ToState(*rows), expected) << engines[i]->name();
    ASSERT_TRUE(engines[i]->CloseReader(readers[i]).ok());
  }
}

// §3.1 on every engine's one write: an op that edits a non-updatable or
// missing column, or inserts a row the schema cannot hold or under another
// key, is refused with kInvalidArgument before anything is written, and
// the engine goes on as if it had never been tried.
TEST(EngineEquivalenceTest, EveryEngineRefusesWhatSection31Forbids) {
  for (const std::string& name : kAllEngines) {
    SCOPED_TRACE(name);
    DiskManager disk;
    BufferPool pool(256, &disk);
    std::unique_ptr<WarehouseEngine> engine = MakeEngine(name, &pool);
    ASSERT_TRUE(engine->BeginMaintenance().ok());
    ASSERT_TRUE(Insert(engine.get(), 1, 10).ok());
    ASSERT_TRUE(Insert(engine.get(), 2, 20).ok());
    ASSERT_TRUE(engine->CommitMaintenance().ok());

    ASSERT_TRUE(engine->BeginMaintenance().ok());
    const std::vector<std::pair<Row, core::NetEffect>> refused = {
        {Key(1), core::NetEffect::Update({{0, Value::Int64(2)}})},
        {Key(1), core::NetEffect::Update({{7, Value::Int64(11)}})},
        {Key(3), core::NetEffect::Insert({Value::Int64(3)})},
        {Key(3), core::NetEffect::Insert(Item(4, 40))},
    };
    for (size_t i = 0; i < refused.size(); ++i) {
      EXPECT_EQ(Apply(engine.get(), refused[i].first, refused[i].second)
                    .code(),
                StatusCode::kInvalidArgument)
          << "op " << i;
    }
    for (int64_t id = 1; id <= 4; ++id) {
      Result<std::optional<Row>> latest = LatestRow(engine.get(), Key(id));
      ASSERT_TRUE(latest.ok()) << latest.status().ToString();
      EXPECT_EQ(latest->has_value(), id <= 2) << "id " << id;
    }
    ASSERT_TRUE(engine->CommitMaintenance().ok());

    ASSERT_TRUE(engine->BeginMaintenance().ok());
    ASSERT_TRUE(SetQty(engine.get(), 1, 11).ok());
    ASSERT_TRUE(Insert(engine.get(), 3, 30).ok());
    ASSERT_TRUE(engine->CommitMaintenance().ok());

    const std::map<int64_t, int64_t> model = {{1, 11}, {2, 20}, {3, 30}};
    Result<uint64_t> reader = engine->OpenReader();
    ASSERT_TRUE(reader.ok());
    Result<std::vector<Row>> rows = engine->ReadAll(*reader);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(ToState(*rows), model);
    for (int64_t id = 0; id <= 4; ++id) {
      Result<std::optional<Row>> row = engine->ReadKey(*reader, Key(id));
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      if (model.count(id) > 0) {
        ASSERT_TRUE(row->has_value()) << "id " << id;
        EXPECT_EQ(**row, Item(id, model.at(id)));
      } else {
        EXPECT_FALSE(row->has_value()) << "id " << id;
      }
    }
    ASSERT_TRUE(engine->CloseReader(*reader).ok());
  }
}

}  // namespace
}  // namespace wvm::baselines

// Delta coalescing and the per-key apply step. Two layers:
//
//  1. VnlTable::ApplyBatch accounting: one index probe per key, one page
//     pin per key that has a tuple, and per-kind counts of the actions
//     the deciders chose.
//  2. SummaryView::ApplyDelta over the DailySales workload on the 2VNL
//     adapter against OfflineEngine, which runs the facade's serial
//     fallback: identical logical actions and reads, and at least 2x
//     fewer probes and pins once groups mostly exist.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "baselines/offline_engine.h"
#include "baselines/vnl_adapter.h"
#include "common/logging.h"
#include "common/strings.h"
#include "core/vnl_engine.h"
#include "core/vnl_table.h"
#include "warehouse/view_maintenance.h"
#include "warehouse/workload.h"

namespace wvm::core {
namespace {

Row R(int64_t id, const std::string& tag, int64_t qty) {
  return {Value::Int64(id), Value::String(tag), Value::Int64(qty)};
}

// A 2VNL table holding keys 0, 1 and 2, committed.
class ApplyBatchStatsTest : public ::testing::Test {
 protected:
  ApplyBatchStatsTest() : pool_(1024, &disk_) {
    auto engine = VnlEngine::Create(&pool_, 2);
    WVM_CHECK(engine.ok());
    engine_ = std::move(engine).value();
    auto table = engine_->CreateTable(
        "t", Schema({Column::Int64("id"), Column::String("tag", 4),
                     Column::Int64("qty", /*updatable=*/true)},
                    {0}));
    WVM_CHECK(table.ok());
    table_ = table.value();
    auto load = engine_->BeginMaintenance();
    WVM_CHECK(load.ok());
    WVM_CHECK(table_->Insert(*load, R(0, "a", 1)).ok());
    WVM_CHECK(table_->Insert(*load, R(1, "b", 2)).ok());
    WVM_CHECK(table_->Insert(*load, R(2, "c", 3)).ok());
    WVM_CHECK(engine_->Commit(*load).ok());
  }

  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<VnlEngine> engine_;
  VnlTable* table_ = nullptr;
};

TEST_F(ApplyBatchStatsTest, OneProbeOnePinPerKey) {
  auto txn = engine_->BeginMaintenance();
  ASSERT_TRUE(txn.ok());
  std::vector<BatchKeyOp> ops;
  for (int64_t id = 0; id < 3; ++id) {
    ops.push_back({{Value::Int64(id)},
                   [](const std::optional<Row>& current)
                       -> Result<NetEffect> {
                     WVM_CHECK(current.has_value());
                     return NetEffect::Update(
                         {{2, Value::Int64((*current)[2].AsInt64() + 100)}});
                   }});
  }
  Result<BatchApplyStats> stats = table_->ApplyBatch(*txn, ops);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->keys, 3u);
  EXPECT_EQ(stats->updates, 3u);
  EXPECT_EQ(stats->index_probes, 3u);
  EXPECT_EQ(stats->page_pins, 3u);
  ASSERT_TRUE(engine_->Commit(*txn).ok());
}

TEST_F(ApplyBatchStatsTest, CountsEachKindAndPinsOnlyPresentKeys) {
  auto txn = engine_->BeginMaintenance();
  ASSERT_TRUE(txn.ok());
  auto fixed = [](NetEffect effect) -> KeyDecider {
    return [effect](const std::optional<Row>&) -> Result<NetEffect> {
      return effect;
    };
  };
  const std::vector<BatchKeyOp> ops = {
      {{Value::Int64(0)}, fixed(NetEffect::Update({{2, Value::Int64(9)}}))},
      {{Value::Int64(1)}, fixed(NetEffect::Delete())},
      {{Value::Int64(7)}, fixed(NetEffect::Insert(R(7, "g", 7)))},
      {{Value::Int64(8)}, fixed({})},
  };
  Result<BatchApplyStats> stats = table_->ApplyBatch(*txn, ops);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->keys, 4u);
  EXPECT_EQ(stats->updates, 1u);
  EXPECT_EQ(stats->deletes, 1u);
  EXPECT_EQ(stats->inserts, 1u);
  EXPECT_EQ(stats->noops, 1u);
  EXPECT_EQ(stats->index_probes, 4u);
  EXPECT_EQ(stats->page_pins, 2u);
  ASSERT_TRUE(engine_->Commit(*txn).ok());
}

}  // namespace
}  // namespace wvm::core

// --- The summary view over the daily-sales workload --------------------------

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

TEST(SummaryViewDeltaTest, TwoVnlMatchesSerialFallbackAcrossSeeds) {
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

    DiskManager disk_o, disk_v;
    BufferPool pool_o(1024, &disk_o), pool_v(1024, &disk_v);
    baselines::OfflineEngine offline(&pool_o, view.view_schema());
    auto vnl = baselines::VnlAdapter::Create(&pool_v, view.view_schema(), 2);
    ASSERT_TRUE(vnl.ok());

    for (int day = 1; day <= 3; ++day) {
      const DeltaBatch batch = workload.MakeBatch(day);
      ASSERT_TRUE(offline.BeginMaintenance().ok());
      ASSERT_TRUE((*vnl)->BeginMaintenance().ok());
      Result<SummaryView::ApplyStats> so = view.ApplyDelta(&offline, batch);
      Result<SummaryView::ApplyStats> sv = view.ApplyDelta(vnl->get(), batch);
      ASSERT_TRUE(so.ok()) << so.status().ToString();
      ASSERT_TRUE(sv.ok()) << sv.status().ToString();
      // The logical maintenance actions must agree exactly.
      EXPECT_EQ(so->groups_touched, sv->groups_touched);
      EXPECT_EQ(so->inserts, sv->inserts);
      EXPECT_EQ(so->updates, sv->updates);
      EXPECT_EQ(so->deletes, sv->deletes);
      EXPECT_EQ(so->keys_coalesced, sv->keys_coalesced);
      EXPECT_EQ(so->events_folded, sv->events_folded);
      // The per-key step must amortize: at most half the probes and pins
      // of the offline engine's RowEngine apply once groups mostly exist
      // (days 2+).
      if (day > 1) {
        EXPECT_LE(2 * sv->index_probes, so->index_probes);
        EXPECT_LE(2 * sv->page_pins, so->page_pins);
      }
      ASSERT_TRUE(offline.CommitMaintenance().ok());
      ASSERT_TRUE((*vnl)->CommitMaintenance().ok());
      EXPECT_EQ(SortedReadAll(&offline), SortedReadAll(vnl->get()));
    }
  }
}

TEST(SummaryViewDeltaTest, RetractionOfUnknownGroupFails) {
  SummaryView view({Column::String("city", 8)}, "sales");
  DiskManager disk;
  BufferPool pool(256, &disk);
  auto engine = baselines::VnlAdapter::Create(&pool, view.view_schema(), 2);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->BeginMaintenance().ok());
  DeltaBatch batch = {{{Value::String("ghost")}, 10, /*retraction=*/true}};
  Result<SummaryView::ApplyStats> stats = view.ApplyDelta(engine->get(), batch);
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace wvm::warehouse

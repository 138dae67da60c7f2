#include "warehouse/view_maintenance.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "baselines/vnl_adapter.h"
#include "common/logging.h"
#include "tests/baselines/engine_test_util.h"

namespace wvm::warehouse {
namespace {

SummaryView MakeView() {
  return SummaryView({Column::String("city", 20)}, "sales");
}

BaseEvent Sale(const std::string& city, int64_t amount) {
  return {{Value::String(city)}, amount, false};
}
BaseEvent Retract(const std::string& city, int64_t amount) {
  return {{Value::String(city)}, amount, true};
}

class ViewMaintenanceTest : public ::testing::Test {
 protected:
  ViewMaintenanceTest() : pool_(256, &disk_), view_(MakeView()) {
    auto engine = baselines::VnlAdapter::Create(&pool_, view_.view_schema());
    WVM_CHECK(engine.ok());
    engine_ = std::move(engine).value();
  }

  SummaryView::ApplyStats Apply(const DeltaBatch& batch) {
    WVM_CHECK(engine_->BeginMaintenance().ok());
    Result<SummaryView::ApplyStats> stats =
        view_.ApplyDelta(engine_.get(), batch);
    WVM_CHECK(stats.ok());
    WVM_CHECK(engine_->CommitMaintenance().ok());
    return stats.value();
  }

  std::map<std::string, int64_t> State() {
    Result<uint64_t> reader = engine_->OpenReader();
    WVM_CHECK(reader.ok());
    Result<std::vector<Row>> rows = engine_->ReadAll(*reader);
    WVM_CHECK(rows.ok());
    WVM_CHECK(engine_->CloseReader(*reader).ok());
    std::map<std::string, int64_t> state;
    for (const Row& row : *rows) {
      state[row[0].AsString()] = row[view_.total_col()].AsInt64();
    }
    return state;
  }

  DiskManager disk_;
  BufferPool pool_;
  SummaryView view_;
  std::unique_ptr<baselines::VnlAdapter> engine_;
};

TEST_F(ViewMaintenanceTest, SchemaShape) {
  const Schema& s = view_.view_schema();
  EXPECT_EQ(s.num_columns(), 3u);
  EXPECT_EQ(s.column(view_.total_col()).name, "total_sales");
  EXPECT_TRUE(s.column(view_.total_col()).updatable);
  EXPECT_TRUE(s.column(view_.support_col()).updatable);
  EXPECT_FALSE(s.column(0).updatable);
  EXPECT_EQ(s.key_indices(), std::vector<size_t>{0});
}

TEST_F(ViewMaintenanceTest, InsertsNewGroups) {
  SummaryView::ApplyStats stats = Apply(
      {Sale("San Jose", 100), Sale("Berkeley", 50), Sale("San Jose", 25)});
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.updates, 0u);
  EXPECT_EQ(State(),
            (std::map<std::string, int64_t>{{"San Jose", 125},
                                            {"Berkeley", 50}}));
}

TEST_F(ViewMaintenanceTest, UpdatesExistingGroups) {
  Apply({Sale("San Jose", 100)});
  SummaryView::ApplyStats stats = Apply({Sale("San Jose", 11)});
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_EQ(State().at("San Jose"), 111);
}

TEST_F(ViewMaintenanceTest, RetractionToZeroDeletesGroup) {
  Apply({Sale("Novato", 80)});
  SummaryView::ApplyStats stats = Apply({Retract("Novato", 80)});
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_EQ(State().count("Novato"), 0u);
}

TEST_F(ViewMaintenanceTest, PartialRetractionKeepsGroup) {
  Apply({Sale("Novato", 80), Sale("Novato", 20)});
  Apply({Retract("Novato", 80)});
  EXPECT_EQ(State().at("Novato"), 20);
}

TEST_F(ViewMaintenanceTest, BatchNetEffectFoldsBeforeApplying) {
  // Sale + retraction of the same group inside one batch cancel out and
  // must not touch the view at all.
  SummaryView::ApplyStats stats =
      Apply({Sale("Fremont", 10), Retract("Fremont", 10)});
  EXPECT_EQ(stats.groups_touched, 0u);
  EXPECT_EQ(State().count("Fremont"), 0u);
}

TEST_F(ViewMaintenanceTest, RetractionOfUnknownGroupFails) {
  ASSERT_TRUE(engine_->BeginMaintenance().ok());
  Result<SummaryView::ApplyStats> stats =
      view_.ApplyDelta(engine_.get(), {Retract("Ghost", 5)});
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine_->CommitMaintenance().ok());
}

// Delta input is untrusted: an event with the wrong number of dimension
// values is an error, raised before any group reaches the view.
TEST_F(ViewMaintenanceTest, WrongDimensionCountFailsBeforeApplying) {
  const SummaryView two_dims(
      {Column::String("city", 20), Column::String("state", 2)}, "sales");
  DiskManager disk;
  BufferPool pool(256, &disk);
  auto engine = baselines::VnlAdapter::Create(&pool, two_dims.view_schema());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->BeginMaintenance().ok());
  const DeltaBatch batch = {
      {{Value::String("Fremont"), Value::String("CA")}, 10, false},
      {{Value::String("Oakland")}, 5, false},
  };
  Result<SummaryView::ApplyStats> stats =
      two_dims.ApplyDelta(engine->get(), batch);
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  Result<std::optional<Row>> fremont = baselines::testutil::LatestRow(
      engine->get(), {Value::String("Fremont"), Value::String("CA")});
  ASSERT_TRUE(fremont.ok());
  EXPECT_FALSE(fremont->has_value());
  ASSERT_TRUE((*engine)->CommitMaintenance().ok());
}

TEST_F(ViewMaintenanceTest, OldSessionSeesPreMaintenanceView) {
  Apply({Sale("San Jose", 100)});
  Result<uint64_t> old_reader = engine_->OpenReader();
  ASSERT_TRUE(old_reader.ok());

  Apply({Sale("San Jose", 900), Sale("Oakland", 1)});

  // The old session still sees the pre-batch view.
  Result<std::vector<Row>> rows = engine_->ReadAll(*old_reader);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][view_.total_col()].AsInt64(), 100);
  ASSERT_TRUE(engine_->CloseReader(*old_reader).ok());

  EXPECT_EQ(State().at("San Jose"), 1000);
}

}  // namespace
}  // namespace wvm::warehouse

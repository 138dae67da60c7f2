#include "baselines/offline_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "tests/baselines/engine_test_util.h"

namespace wvm::baselines {
namespace {

using testutil::Delete;
using testutil::Insert;
using testutil::ItemSchema;
using testutil::Key;
using testutil::SetQty;

class OfflineEngineTest : public ::testing::Test {
 protected:
  OfflineEngineTest() : pool_(128, &disk_), engine_(&pool_, ItemSchema()) {}

  void Load(int count) {
    ASSERT_TRUE(engine_.BeginMaintenance().ok());
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(Insert(&engine_, i, i * 10).ok());
    }
    ASSERT_TRUE(engine_.CommitMaintenance().ok());
  }

  DiskManager disk_;
  BufferPool pool_;
  OfflineEngine engine_;
};

TEST_F(OfflineEngineTest, BasicCrud) {
  Load(3);
  Result<uint64_t> reader = engine_.OpenReader();
  ASSERT_TRUE(reader.ok());
  Result<std::vector<Row>> rows = engine_.ReadAll(*reader);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  Result<std::optional<Row>> row = engine_.ReadKey(*reader, Key(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((**row)[1].AsInt64(), 10);
  ASSERT_TRUE(engine_.CloseReader(*reader).ok());

  ASSERT_TRUE(engine_.BeginMaintenance().ok());
  ASSERT_TRUE(SetQty(&engine_, 1, 99).ok());
  ASSERT_TRUE(Delete(&engine_, 2).ok());
  ASSERT_TRUE(engine_.CommitMaintenance().ok());

  Result<uint64_t> r2 = engine_.OpenReader();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(engine_.ReadAll(*r2)->size(), 2u);
  EXPECT_EQ((**engine_.ReadKey(*r2, Key(1)))[1].AsInt64(), 99);
  ASSERT_TRUE(engine_.CloseReader(*r2).ok());
}

TEST_F(OfflineEngineTest, MaintenanceWaitsForReaders) {
  Load(2);
  Result<uint64_t> reader = engine_.OpenReader();
  ASSERT_TRUE(reader.ok());

  std::atomic<bool> maintenance_started{false};
  std::thread writer([&] {
    ASSERT_TRUE(engine_.BeginMaintenance().ok());  // blocks on the reader
    maintenance_started.store(true);
    ASSERT_TRUE(Insert(&engine_, 100, 1).ok());
    ASSERT_TRUE(engine_.CommitMaintenance().ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(maintenance_started.load());  // the warehouse is "open"

  ASSERT_TRUE(engine_.CloseReader(*reader).ok());
  writer.join();
  EXPECT_TRUE(maintenance_started.load());
}

TEST_F(OfflineEngineTest, ReadersBlockedWhileMaintenanceRuns) {
  Load(2);
  ASSERT_TRUE(engine_.BeginMaintenance().ok());

  std::atomic<bool> reader_opened{false};
  std::thread reader([&] {
    Result<uint64_t> id = engine_.OpenReader();  // blocks: warehouse offline
    ASSERT_TRUE(id.ok());
    reader_opened.store(true);
    ASSERT_TRUE(engine_.CloseReader(*id).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(reader_opened.load());

  ASSERT_TRUE(engine_.CommitMaintenance().ok());
  reader.join();
  EXPECT_TRUE(reader_opened.load());
}

TEST_F(OfflineEngineTest, ErrorsOutsideMaintenance) {
  EXPECT_EQ(Insert(&engine_, 1, 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine_.CommitMaintenance().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(OfflineEngineTest, DuplicateAndMissingKeys) {
  Load(2);
  ASSERT_TRUE(engine_.BeginMaintenance().ok());
  EXPECT_EQ(Insert(&engine_, 1, 5).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(SetQty(&engine_, 42, 1).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Delete(&engine_, 42).code(), StatusCode::kNotFound);
  ASSERT_TRUE(engine_.CommitMaintenance().ok());
}

}  // namespace
}  // namespace wvm::baselines

#include "baselines/two_v2pl_engine.h"

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

class TwoV2plEngineTest : public ::testing::Test {
 protected:
  TwoV2plEngineTest() : pool_(128, &disk_), engine_(&pool_, ItemSchema()) {}

  void Load(int count) {
    ASSERT_TRUE(engine_.BeginMaintenance().ok());
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(Insert(&engine_, i, i * 10).ok());
    }
    ASSERT_TRUE(engine_.CommitMaintenance().ok());
  }

  DiskManager disk_;
  BufferPool pool_;
  TwoV2plEngine engine_;
};

TEST_F(TwoV2plEngineTest, ReadersSeeCommittedVersionDuringWrite) {
  Load(3);
  Result<uint64_t> reader = engine_.OpenReader();
  ASSERT_TRUE(reader.ok());

  ASSERT_TRUE(engine_.BeginMaintenance().ok());
  ASSERT_TRUE(SetQty(&engine_, 1, 999).ok());

  // The active writer never blocks this read, and the read returns the
  // committed (old) version.
  Result<std::optional<Row>> row = engine_.ReadKey(*reader, Key(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((**row)[1].AsInt64(), 10);

  // Finish: the reader read a modified tuple, so commit must wait for it.
  std::atomic<bool> committed{false};
  std::thread writer([&] {
    ASSERT_TRUE(engine_.CommitMaintenance().ok());
    committed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(committed.load());  // readers delay writer commit (§6)

  ASSERT_TRUE(engine_.CloseReader(*reader).ok());
  writer.join();
  EXPECT_TRUE(committed.load());
  EXPECT_GT(engine_.total_certify_wait().count(), 0);
}

TEST_F(TwoV2plEngineTest, CommitAppliesShadowVersions) {
  Load(3);
  ASSERT_TRUE(engine_.BeginMaintenance().ok());
  ASSERT_TRUE(SetQty(&engine_, 1, 111).ok());
  ASSERT_TRUE(Delete(&engine_, 2).ok());
  ASSERT_TRUE(Insert(&engine_, 9, 90).ok());
  ASSERT_TRUE(engine_.CommitMaintenance().ok());

  Result<uint64_t> reader = engine_.OpenReader();
  ASSERT_TRUE(reader.ok());
  Result<std::vector<Row>> rows = engine_.ReadAll(*reader);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // 0, 1(updated), 9; 2 deleted
  EXPECT_EQ((**engine_.ReadKey(*reader, Key(1)))[1].AsInt64(), 111);
  EXPECT_FALSE(engine_.ReadKey(*reader, Key(2))->has_value());
  ASSERT_TRUE(engine_.CloseReader(*reader).ok());
}

TEST_F(TwoV2plEngineTest, WriterSeesItsOwnShadow) {
  Load(2);
  ASSERT_TRUE(engine_.BeginMaintenance().ok());
  ASSERT_TRUE(Delete(&engine_, 1).ok());
  // Re-insert after delete within the txn works against the shadow.
  EXPECT_TRUE(Insert(&engine_, 1, 55).ok());
  // Double insert conflicts with the shadow.
  EXPECT_EQ(Insert(&engine_, 1, 56).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(engine_.CommitMaintenance().ok());
}

TEST_F(TwoV2plEngineTest, ReadersNotTouchingModifiedTuplesDontDelay) {
  Load(3);
  Result<uint64_t> reader = engine_.OpenReader();
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(engine_.ReadKey(*reader, Key(0)).ok());  // reads key 0 only

  ASSERT_TRUE(engine_.BeginMaintenance().ok());
  ASSERT_TRUE(SetQty(&engine_, 1, 999).ok());
  // Commit must not wait: the reader holds no lock on key 1.
  ASSERT_TRUE(engine_.CommitMaintenance().ok());
  ASSERT_TRUE(engine_.CloseReader(*reader).ok());
}

TEST_F(TwoV2plEngineTest, ErrorsOutsideMaintenance) {
  EXPECT_EQ(Insert(&engine_, 1, 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(SetQty(&engine_, 1, 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine_.CommitMaintenance().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace wvm::baselines

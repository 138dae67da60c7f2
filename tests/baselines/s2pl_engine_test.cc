#include "baselines/s2pl_engine.h"

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

class S2plEngineTest : public ::testing::Test {
 protected:
  S2plEngineTest()
      : pool_(128, &disk_),
        engine_(&pool_, ItemSchema(), std::chrono::milliseconds(50)) {}

  void Load(int count) {
    ASSERT_TRUE(engine_.BeginMaintenance().ok());
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(Insert(&engine_, i, i * 10).ok());
    }
    ASSERT_TRUE(engine_.CommitMaintenance().ok());
  }

  DiskManager disk_;
  BufferPool pool_;
  S2plEngine engine_;
};

TEST_F(S2plEngineTest, BasicCrud) {
  Load(3);
  Result<uint64_t> reader = engine_.OpenReader();
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(engine_.ReadAll(*reader)->size(), 3u);
  EXPECT_EQ((**engine_.ReadKey(*reader, Key(2)))[1].AsInt64(), 20);
  ASSERT_TRUE(engine_.CloseReader(*reader).ok());

  ASSERT_TRUE(engine_.BeginMaintenance().ok());
  ASSERT_TRUE(SetQty(&engine_, 2, 99).ok());
  ASSERT_TRUE(Delete(&engine_, 0).ok());
  ASSERT_TRUE(engine_.CommitMaintenance().ok());

  Result<uint64_t> r2 = engine_.OpenReader();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(engine_.ReadAll(*r2)->size(), 2u);
  ASSERT_TRUE(engine_.CloseReader(*r2).ok());
}

// The blocking behaviour §1 complains about: a reader that read a tuple
// blocks the writer's update of that tuple (until timeout), and a reader
// trying to read a writer-locked tuple blocks too.
TEST_F(S2plEngineTest, WriterBlocksOnReaderLock) {
  Load(3);
  Result<uint64_t> reader = engine_.OpenReader();
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(engine_.ReadKey(*reader, Key(1)).ok());  // S lock held

  ASSERT_TRUE(engine_.BeginMaintenance().ok());
  Status blocked = SetQty(&engine_, 1, 77);
  EXPECT_EQ(blocked.code(), StatusCode::kDeadlineExceeded);

  // Once the session ends, the update goes through.
  ASSERT_TRUE(engine_.CloseReader(*reader).ok());
  EXPECT_TRUE(SetQty(&engine_, 1, 77).ok());
  ASSERT_TRUE(engine_.CommitMaintenance().ok());
  EXPECT_GE(engine_.LockStats().timeouts, 1u);
}

TEST_F(S2plEngineTest, ReaderBlocksOnWriterLock) {
  Load(3);
  ASSERT_TRUE(engine_.BeginMaintenance().ok());
  ASSERT_TRUE(SetQty(&engine_, 1, 77).ok());  // X lock

  Result<uint64_t> reader = engine_.OpenReader();
  ASSERT_TRUE(reader.ok());
  Result<std::optional<Row>> blocked = engine_.ReadKey(*reader, Key(1));
  EXPECT_EQ(blocked.status().code(), StatusCode::kDeadlineExceeded);

  ASSERT_TRUE(engine_.CommitMaintenance().ok());
  Result<std::optional<Row>> after = engine_.ReadKey(*reader, Key(1));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((**after)[1].AsInt64(), 77);
  ASSERT_TRUE(engine_.CloseReader(*reader).ok());
}

TEST_F(S2plEngineTest, WriterReleasedByReaderClose) {
  Load(2);
  Result<uint64_t> reader = engine_.OpenReader();
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(engine_.ReadKey(*reader, Key(0)).ok());

  ASSERT_TRUE(engine_.BeginMaintenance().ok());
  std::atomic<bool> done{false};
  std::thread writer([&] {
    // Retry loop, as a real system would after a deadlock timeout.
    for (;;) {
      Status s = SetQty(&engine_, 0, 5);
      if (s.ok()) break;
      ASSERT_EQ(s.code(), StatusCode::kDeadlineExceeded);
    }
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(engine_.CloseReader(*reader).ok());
  writer.join();
  EXPECT_TRUE(done.load());
  ASSERT_TRUE(engine_.CommitMaintenance().ok());
}

}  // namespace
}  // namespace wvm::baselines

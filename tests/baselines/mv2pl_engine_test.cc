#include "baselines/mv2pl_engine.h"

#include <gtest/gtest.h>

#include "tests/baselines/engine_test_util.h"

namespace wvm::baselines {
namespace {

using testutil::Delete;
using testutil::Insert;
using testutil::ItemSchema;
using testutil::Key;
using testutil::SetQty;

class Mv2plEngineTest : public ::testing::TestWithParam<bool> {
 protected:
  Mv2plEngineTest()
      : pool_(256, &disk_),
        engine_(&pool_, ItemSchema(), Mv2plEngine::Options{GetParam()}) {}

  void Load(int count) {
    ASSERT_TRUE(engine_.BeginMaintenance().ok());
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(Insert(&engine_, i, i * 10).ok());
    }
    ASSERT_TRUE(engine_.CommitMaintenance().ok());
  }

  DiskManager disk_;
  BufferPool pool_;
  Mv2plEngine engine_;
};

TEST_P(Mv2plEngineTest, ReadersPinTheirTimestamp) {
  Load(3);
  Result<uint64_t> old_reader = engine_.OpenReader();
  ASSERT_TRUE(old_reader.ok());

  ASSERT_TRUE(engine_.BeginMaintenance().ok());
  ASSERT_TRUE(SetQty(&engine_, 1, 999).ok());

  // Uncommitted writes invisible.
  EXPECT_EQ((**engine_.ReadKey(*old_reader, Key(1)))[1].AsInt64(), 10);
  ASSERT_TRUE(engine_.CommitMaintenance().ok());

  // Still the old version after commit (repeatable session).
  EXPECT_EQ((**engine_.ReadKey(*old_reader, Key(1)))[1].AsInt64(), 10);

  Result<uint64_t> new_reader = engine_.OpenReader();
  ASSERT_TRUE(new_reader.ok());
  EXPECT_EQ((**engine_.ReadKey(*new_reader, Key(1)))[1].AsInt64(), 999);

  ASSERT_TRUE(engine_.CloseReader(*old_reader).ok());
  ASSERT_TRUE(engine_.CloseReader(*new_reader).ok());
}

TEST_P(Mv2plEngineTest, ManyVersionsRemainReadable) {
  Load(1);
  std::vector<uint64_t> readers;
  // Commit 5 updates, opening a reader before each.
  for (int v = 1; v <= 5; ++v) {
    Result<uint64_t> r = engine_.OpenReader();
    ASSERT_TRUE(r.ok());
    readers.push_back(*r);
    ASSERT_TRUE(engine_.BeginMaintenance().ok());
    ASSERT_TRUE(SetQty(&engine_, 0, v * 100).ok());
    ASSERT_TRUE(engine_.CommitMaintenance().ok());
  }
  // Reader i (opened before update i+1) sees the value as of then —
  // unlike 2VNL, MV2PL keeps arbitrarily many versions.
  for (size_t i = 0; i < readers.size(); ++i) {
    Result<std::optional<Row>> row = engine_.ReadKey(readers[i], Key(0));
    ASSERT_TRUE(row.ok());
    const int64_t expected = i == 0 ? 0 : static_cast<int64_t>(i) * 100;
    EXPECT_EQ((**row)[1].AsInt64(), expected) << "reader " << i;
  }
  for (uint64_t r : readers) ASSERT_TRUE(engine_.CloseReader(r).ok());
}

TEST_P(Mv2plEngineTest, OldReadersChaseVersions) {
  Load(1);
  Result<uint64_t> reader = engine_.OpenReader();
  ASSERT_TRUE(reader.ok());
  for (int v = 1; v <= 3; ++v) {
    ASSERT_TRUE(engine_.BeginMaintenance().ok());
    ASSERT_TRUE(SetQty(&engine_, 0, v).ok());
    ASSERT_TRUE(engine_.CommitMaintenance().ok());
  }
  const uint64_t before = engine_.pool_version_reads();
  EXPECT_EQ((**engine_.ReadKey(*reader, Key(0)))[1].AsInt64(), 0);
  const uint64_t chased = engine_.pool_version_reads() - before;
  if (GetParam()) {
    // BC92b: the on-page cache absorbs one hop; deeper history hits pool.
    EXPECT_GE(chased, 1u);
  } else {
    // CFL82: every old version lives in the pool; 3 versions back = 3 hops.
    EXPECT_EQ(chased, 3u);
  }
  ASSERT_TRUE(engine_.CloseReader(*reader).ok());
}

TEST_P(Mv2plEngineTest, CacheAbsorbsOneVersionOfHistory) {
  Load(1);
  Result<uint64_t> reader = engine_.OpenReader();  // ts = 1
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(engine_.BeginMaintenance().ok());
  ASSERT_TRUE(SetQty(&engine_, 0, 7).ok());
  ASSERT_TRUE(engine_.CommitMaintenance().ok());

  const uint64_t before = engine_.pool_version_reads();
  EXPECT_EQ((**engine_.ReadKey(*reader, Key(0)))[1].AsInt64(), 0);
  const uint64_t chased = engine_.pool_version_reads() - before;
  if (GetParam()) {
    EXPECT_EQ(chased, 0u);  // one version back: served from the cache slot
  } else {
    EXPECT_EQ(chased, 1u);  // CFL82 pays a pool fetch
  }
  ASSERT_TRUE(engine_.CloseReader(*reader).ok());
}

TEST_P(Mv2plEngineTest, DeleteAndReinsert) {
  Load(2);
  Result<uint64_t> old_reader = engine_.OpenReader();
  ASSERT_TRUE(old_reader.ok());

  ASSERT_TRUE(engine_.BeginMaintenance().ok());
  ASSERT_TRUE(Delete(&engine_, 1).ok());
  ASSERT_TRUE(engine_.CommitMaintenance().ok());

  ASSERT_TRUE(engine_.BeginMaintenance().ok());
  ASSERT_TRUE(Insert(&engine_, 1, 42).ok());
  ASSERT_TRUE(engine_.CommitMaintenance().ok());

  EXPECT_EQ((**engine_.ReadKey(*old_reader, Key(1)))[1].AsInt64(), 10);
  Result<uint64_t> new_reader = engine_.OpenReader();
  ASSERT_TRUE(new_reader.ok());
  EXPECT_EQ((**engine_.ReadKey(*new_reader, Key(1)))[1].AsInt64(), 42);

  ASSERT_TRUE(engine_.CloseReader(*old_reader).ok());
  ASSERT_TRUE(engine_.CloseReader(*new_reader).ok());
}

TEST_P(Mv2plEngineTest, PoolGarbageCollection) {
  Load(1);
  for (int v = 1; v <= 5; ++v) {
    ASSERT_TRUE(engine_.BeginMaintenance().ok());
    ASSERT_TRUE(SetQty(&engine_, 0, v).ok());
    ASSERT_TRUE(engine_.CommitMaintenance().ok());
  }
  EXPECT_GT(engine_.pool_records(), 0u);
  // No readers: everything but the newest version is reclaimable.
  const Result<size_t> reclaimed = engine_.CollectPoolGarbage();
  ASSERT_TRUE(reclaimed.ok()) << reclaimed.status().ToString();
  EXPECT_GT(*reclaimed, 0u);
  EXPECT_EQ(engine_.pool_records(), 0u);

  Result<uint64_t> reader = engine_.OpenReader();
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((**engine_.ReadKey(*reader, Key(0)))[1].AsInt64(), 5);
  ASSERT_TRUE(engine_.CloseReader(*reader).ok());
}

TEST_P(Mv2plEngineTest, GcKeepsVersionsLiveReadersNeed) {
  Load(1);
  Result<uint64_t> old_reader = engine_.OpenReader();  // ts = 1
  ASSERT_TRUE(old_reader.ok());
  for (int v = 1; v <= 3; ++v) {
    ASSERT_TRUE(engine_.BeginMaintenance().ok());
    ASSERT_TRUE(SetQty(&engine_, 0, v).ok());
    ASSERT_TRUE(engine_.CommitMaintenance().ok());
  }
  ASSERT_TRUE(engine_.CollectPoolGarbage().ok());
  // The version the old reader needs must survive.
  Result<std::optional<Row>> row = engine_.ReadKey(*old_reader, Key(0));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((**row)[1].AsInt64(), 0);
  ASSERT_TRUE(engine_.CloseReader(*old_reader).ok());
}

TEST_P(Mv2plEngineTest, StorageStatsDifferentiateLayouts) {
  Load(100);
  EngineStorageStats stats = engine_.StorageStats();
  if (GetParam()) {
    // BC92b reserves cache space in every main tuple.
    Mv2plEngine plain(&pool_, ItemSchema(), Mv2plEngine::Options{false});
    EXPECT_GT(stats.main_tuple_bytes,
              plain.StorageStats().main_tuple_bytes);
  }
  EXPECT_GT(stats.main_pages, 0u);
}

INSTANTIATE_TEST_SUITE_P(Layouts, Mv2plEngineTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "bc92" : "cfl82";
                         });

}  // namespace
}  // namespace wvm::baselines

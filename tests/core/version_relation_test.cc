#include "core/version_relation.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/vnl_engine.h"

namespace wvm::core {
namespace {

class VersionRelationTest : public ::testing::Test {
 protected:
  VersionRelationTest() : pool_(16, &disk_) {
    auto vr = VersionRelation::Create(&pool_);
    EXPECT_TRUE(vr.ok());
    vr_ = std::move(vr).value();
  }

  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<VersionRelation> vr_;
};

TEST_F(VersionRelationTest, InitialState) {
  EXPECT_EQ(vr_->current_vn(), 0);
  EXPECT_FALSE(vr_->maintenance_active());
  Result<VersionRelation::Snapshot> snap = vr_->Read();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->current_vn, 0);
  EXPECT_FALSE(snap->maintenance_active);
}

TEST_F(VersionRelationTest, BeginCommitCycle) {
  Result<Vn> vn = vr_->BeginMaintenance();
  ASSERT_TRUE(vn.ok());
  EXPECT_EQ(vn.value(), 1);
  EXPECT_TRUE(vr_->maintenance_active());
  EXPECT_EQ(vr_->current_vn(), 0);  // not yet published

  ASSERT_TRUE(vr_->CommitMaintenance(1).ok());
  EXPECT_FALSE(vr_->maintenance_active());
  EXPECT_EQ(vr_->current_vn(), 1);

  Result<Vn> vn2 = vr_->BeginMaintenance();
  ASSERT_TRUE(vn2.ok());
  EXPECT_EQ(vn2.value(), 2);
  ASSERT_TRUE(vr_->CommitMaintenance(2).ok());
  EXPECT_EQ(vr_->current_vn(), 2);
}

TEST_F(VersionRelationTest, SingleWriterEnforced) {
  ASSERT_TRUE(vr_->BeginMaintenance().ok());
  Result<Vn> second = vr_->BeginMaintenance();
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(VersionRelationTest, AbortDoesNotAdvanceVersion) {
  ASSERT_TRUE(vr_->BeginMaintenance().ok());
  ASSERT_TRUE(vr_->AbortMaintenance().ok());
  EXPECT_EQ(vr_->current_vn(), 0);
  EXPECT_FALSE(vr_->maintenance_active());
  // The next maintenance transaction reuses the version number.
  Result<Vn> vn = vr_->BeginMaintenance();
  ASSERT_TRUE(vn.ok());
  EXPECT_EQ(vn.value(), 1);
}

TEST_F(VersionRelationTest, CommitWithoutBeginFails) {
  EXPECT_EQ(vr_->CommitMaintenance(1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(vr_->AbortMaintenance().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(VersionRelationTest, CommitWithWrongVnFails) {
  ASSERT_TRUE(vr_->BeginMaintenance().ok());
  EXPECT_EQ(vr_->CommitMaintenance(7).code(), StatusCode::kInternal);
}

TEST_F(VersionRelationTest, ReadsGoThroughTheBufferPool) {
  // §4: the Version relation is a real stored tuple, so reader checks
  // perform counted page accesses like any other query.
  pool_.ResetStats();
  ASSERT_TRUE(vr_->Read().ok());
  ASSERT_TRUE(vr_->Read().ok());
  EXPECT_GE(pool_.stats().fetches, 2u);
}

// The Version relation is a stored tuple like any other (§4), so a buffer
// pool with every frame pinned must surface from each of its reads and
// writes as the pool's error, leaving {currentVN, maintenanceActive}
// unchanged, and the same calls must succeed once frames are free again.
TEST(VersionRelationPoolTest, ExhaustedPoolFailsWithoutChangingState) {
  DiskManager disk;
  BufferPool pool(4, &disk);
  auto engine_or = VnlEngine::Create(&pool);
  ASSERT_TRUE(engine_or.ok());
  VnlEngine* engine = engine_or.value().get();
  VersionRelation* vr = engine->version_relation();
  ReaderSession s = engine->OpenSession();

  // Fresh pages pinned into every frame evict the Version page.
  std::vector<Page*> pinned;
  auto pin_every_frame = [&] {
    for (;;) {
      Result<Page*> page = pool.NewPage();
      if (!page.ok()) break;
      pinned.push_back(*page);
    }
    ASSERT_EQ(pinned.size(), pool.pool_size());
  };
  auto unpin_all = [&] {
    for (Page* page : pinned) pool.Unpin(page, /*dirty=*/false);
    pinned.clear();
  };

  pin_every_frame();
  EXPECT_EQ(engine->CheckSession(s).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine->BeginMaintenance().status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_FALSE(vr->maintenance_active());
  EXPECT_EQ(engine->current_vn(), 0);
  unpin_all();

  EXPECT_TRUE(engine->CheckSession(s).ok());
  Result<MaintenanceTxn*> txn = engine->BeginMaintenance();
  ASSERT_TRUE(txn.ok()) << txn.status().ToString();
  EXPECT_TRUE(vr->maintenance_active());

  pin_every_frame();
  EXPECT_EQ(engine->Commit(*txn).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine->Abort(*txn).code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(vr->maintenance_active());
  EXPECT_EQ(engine->current_vn(), 0);
  EXPECT_TRUE((*txn)->active());
  unpin_all();

  ASSERT_TRUE(engine->Commit(*txn).ok());
  EXPECT_FALSE(vr->maintenance_active());
  EXPECT_EQ(engine->current_vn(), 1);
  Result<VersionRelation::Snapshot> stored = vr->Read();
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->current_vn, 1);
  EXPECT_FALSE(stored->maintenance_active);
  EXPECT_TRUE(engine->CheckSession(s).ok());
  engine->CloseSession(s);
}

}  // namespace
}  // namespace wvm::core

// §2.1 alternative policy: commit the maintenance transaction only when
// no reader session is active — sessions never expire, readers can
// starve the commit.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/logging.h"
#include "core/vnl_engine.h"
#include "tests/support/keyed_maintenance.h"

namespace wvm::core {
namespace {

Schema ItemSchema() {
  return Schema({Column::Int64("id"), Column::Int64("qty", true)}, {0});
}

class QuiescentCommitTest : public ::testing::Test {
 protected:
  QuiescentCommitTest() : pool_(256, &disk_) {
    auto engine = VnlEngine::Create(&pool_, 2);
    WVM_CHECK(engine.ok());
    engine_ = std::move(engine).value();
    auto table = engine_->CreateTable("items", ItemSchema());
    WVM_CHECK(table.ok());
    table_ = table.value();

    MaintenanceTxn* load = engine_->BeginMaintenance().value();
    for (int i = 0; i < 10; ++i) {
      WVM_CHECK(table_->Insert(load, {Value::Int64(i),
                                      Value::Int64(i)}).ok());
    }
    WVM_CHECK(engine_->Commit(load).ok());
  }

  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<VnlEngine> engine_;
  VnlTable* table_;
};

TEST_F(QuiescentCommitTest, CommitsImmediatelyWhenNoSessions) {
  MaintenanceTxn* txn = engine_->BeginMaintenance().value();
  EXPECT_TRUE(engine_
                  ->CommitWhenQuiescent(txn, std::chrono::milliseconds(50))
                  .ok());
  EXPECT_EQ(engine_->current_vn(), 2);
}

TEST_F(QuiescentCommitTest, ActiveSessionStarvesCommit) {
  ReaderSession session = engine_->OpenSession();
  MaintenanceTxn* txn = engine_->BeginMaintenance().value();
  Status starved =
      engine_->CommitWhenQuiescent(txn, std::chrono::milliseconds(30));
  EXPECT_EQ(starved.code(), StatusCode::kDeadlineExceeded);
  // The transaction is still active and can commit normally later.
  EXPECT_TRUE(txn->active());
  engine_->CloseSession(session);
  EXPECT_TRUE(engine_
                  ->CommitWhenQuiescent(txn, std::chrono::milliseconds(50))
                  .ok());
}

TEST_F(QuiescentCommitTest, CommitProceedsOnceReadersDrain) {
  ReaderSession session = engine_->OpenSession();
  MaintenanceTxn* txn = engine_->BeginMaintenance().value();

  std::atomic<bool> committed{false};
  std::thread committer([&] {
    Status s =
        engine_->CommitWhenQuiescent(txn, std::chrono::milliseconds(2000));
    committed.store(s.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(committed.load());
  engine_->CloseSession(session);
  committer.join();
  EXPECT_TRUE(committed.load());
}

// The property the policy buys (§2.1): a session, however long, never
// expires — because no commit can slip under it.
TEST_F(QuiescentCommitTest, SessionsNeverExpireUnderThePolicy) {
  ReaderSession session = engine_->OpenSession();
  for (int round = 0; round < 3; ++round) {
    MaintenanceTxn* txn = engine_->BeginMaintenance().value();
    WVM_CHECK(testutil::SetKey(table_, txn, {Value::Int64(0)}, 1,
                               Value::Int64(round + 1))
                  .value());
    // The policy: while our session lives, commits wait (we simulate the
    // arbitration by committing only after briefly failing).
    EXPECT_EQ(engine_
                  ->CommitWhenQuiescent(txn, std::chrono::milliseconds(10))
                  .code(),
              StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(engine_->CheckSession(session).ok());
    Result<std::optional<Row>> row =
        table_->SnapshotLookup(session, {Value::Int64(0)});
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((**row)[1].AsInt64(), 0);  // the pinned version
    // Abort to keep the single-writer slot free for the next round.
    ASSERT_TRUE(engine_->Abort(txn).ok());
  }
  engine_->CloseSession(session);
}

}  // namespace
}  // namespace wvm::core

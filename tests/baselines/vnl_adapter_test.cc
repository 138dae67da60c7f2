#include "baselines/vnl_adapter.h"

#include <gtest/gtest.h>

#include <limits>

#include "tests/baselines/engine_test_util.h"

namespace wvm::baselines {
namespace {

using testutil::Apply;
using testutil::Delete;
using testutil::Insert;
using testutil::ItemSchema;
using testutil::Key;
using testutil::LatestRow;
using testutil::SetQty;

class VnlAdapterTest : public ::testing::Test {
 protected:
  VnlAdapterTest() : pool_(256, &disk_) {
    auto adapter = VnlAdapter::Create(&pool_, ItemSchema(), 2);
    WVM_CHECK(adapter.ok());
    adapter_ = std::move(adapter).value();
  }

  DiskManager disk_;
  BufferPool pool_;
  std::unique_ptr<VnlAdapter> adapter_;
};

TEST_F(VnlAdapterTest, NameReflectsN) {
  EXPECT_EQ(adapter_->name(), "2vnl");
  auto three = VnlAdapter::Create(&pool_, ItemSchema(), 3);
  ASSERT_TRUE(three.ok());
  EXPECT_EQ((*three)->name(), "3vnl");
}

TEST_F(VnlAdapterTest, CrudThroughTheFacade) {
  ASSERT_TRUE(adapter_->BeginMaintenance().ok());
  ASSERT_TRUE(Insert(adapter_.get(), 1, 10).ok());
  ASSERT_TRUE(Insert(adapter_.get(), 2, 20).ok());
  // Writer sees its own uncommitted writes.
  Result<std::optional<Row>> own = LatestRow(adapter_.get(), Key(1));
  ASSERT_TRUE(own.ok());
  EXPECT_EQ((**own)[1].AsInt64(), 10);
  ASSERT_TRUE(adapter_->CommitMaintenance().ok());

  ASSERT_TRUE(adapter_->BeginMaintenance().ok());
  ASSERT_TRUE(SetQty(adapter_.get(), 1, 11).ok());
  ASSERT_TRUE(Delete(adapter_.get(), 2).ok());
  EXPECT_EQ(SetQty(adapter_.get(), 99, 1).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Delete(adapter_.get(), 99).code(), StatusCode::kNotFound);
  ASSERT_TRUE(adapter_->CommitMaintenance().ok());

  Result<uint64_t> reader = adapter_->OpenReader();
  ASSERT_TRUE(reader.ok());
  Result<std::vector<Row>> rows = adapter_->ReadAll(*reader);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1].AsInt64(), 11);
  ASSERT_TRUE(adapter_->CloseReader(*reader).ok());
}

// Keys compare as record bytes, so a NaN key finds the tuple it inserted.
TEST_F(VnlAdapterTest, NanKeyFindsItsTuple) {
  auto doubles = VnlAdapter::Create(
      &pool_, Schema({Column::Double("k"), Column::Int64("v", true)}, {0}));
  ASSERT_TRUE(doubles.ok());
  WarehouseEngine* engine = doubles->get();
  const Value nan = Value::Double(std::numeric_limits<double>::quiet_NaN());
  ASSERT_TRUE(engine->BeginMaintenance().ok());
  ASSERT_TRUE(
      Apply(engine, {nan}, core::NetEffect::Insert({nan, Value::Int64(1)}))
          .ok());
  ASSERT_TRUE(
      Apply(engine, {nan}, core::NetEffect::Update({{1, Value::Int64(2)}}))
          .ok());
  EXPECT_EQ((**LatestRow(engine, {nan}))[1].AsInt64(), 2);
  ASSERT_TRUE(engine->CommitMaintenance().ok());
}

TEST_F(VnlAdapterTest, UnknownReaderRejected) {
  EXPECT_EQ(adapter_->ReadAll(12345).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(adapter_->ReadKey(12345, Key(1)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(adapter_->CloseReader(12345).code(), StatusCode::kNotFound);
}

TEST_F(VnlAdapterTest, StorageStatsExposeWidenedTuple) {
  EngineStorageStats stats = adapter_->StorageStats();
  // id(8) + qty(8) + bitmap + tupleVN(8) + operation(6) + pre_qty(8).
  EXPECT_GT(stats.main_tuple_bytes, ItemSchema().RowByteSize());
  EXPECT_EQ(stats.aux_pages, 0u);  // both versions live in the main tuple
}

TEST_F(VnlAdapterTest, ExposesUnderlyingEngineForCoreFeatures) {
  ASSERT_TRUE(adapter_->BeginMaintenance().ok());
  ASSERT_TRUE(Insert(adapter_.get(), 5, 50).ok());
  ASSERT_TRUE(adapter_->CommitMaintenance().ok());
  // GC and session checks come from the wrapped core engine.
  EXPECT_EQ(adapter_->engine()->current_vn(), 1);
  EXPECT_EQ(adapter_->engine()->CollectGarbage().value().tuples_reclaimed,
            0u);
}

}  // namespace
}  // namespace wvm::baselines

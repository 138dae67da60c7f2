#ifndef OPENWVM_TESTS_BASELINES_ENGINE_TEST_UTIL_H_
#define OPENWVM_TESTS_BASELINES_ENGINE_TEST_UTIL_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "baselines/mv2pl_engine.h"
#include "baselines/offline_engine.h"
#include "baselines/s2pl_engine.h"
#include "baselines/two_v2pl_engine.h"
#include "baselines/vnl_adapter.h"
#include "common/logging.h"

namespace wvm::baselines::testutil {

inline Schema ItemSchema() {
  return Schema({Column::Int64("id"), Column::Int64("qty", true)}, {0});
}

inline Row Item(int64_t id, int64_t qty) {
  return {Value::Int64(id), Value::Int64(qty)};
}

inline Row Key(int64_t id) { return {Value::Int64(id)}; }

// Keyed maintenance through the facade's one write, MaintApplyBatch: each
// helper runs a one-key batch.

// Applies `effect` to `key`, whatever its current row.
inline Status Apply(WarehouseEngine* engine, const Row& key,
                    core::NetEffect effect) {
  core::KeyDecider decide =
      [&effect](const std::optional<Row>&) -> Result<core::NetEffect> {
    return effect;
  };
  return engine->MaintApplyBatch({{key, std::move(decide)}}).status();
}

// Inserts Item(id, qty).
inline Status Insert(WarehouseEngine* engine, int64_t id, int64_t qty) {
  return Apply(engine, Key(id), core::NetEffect::Insert(Item(id, qty)));
}

// Sets the qty of item `id`: a one-edit update.
inline Status SetQty(WarehouseEngine* engine, int64_t id, int64_t qty) {
  return Apply(engine, Key(id),
               core::NetEffect::Update({{1, Value::Int64(qty)}}));
}

inline Status Delete(WarehouseEngine* engine, int64_t id) {
  return Apply(engine, Key(id), core::NetEffect::Delete());
}

// The latest row of `key` as the maintenance transaction sees it (nullopt
// when absent or deleted); writes nothing.
inline Result<std::optional<Row>> LatestRow(WarehouseEngine* engine,
                                            const Row& key) {
  std::optional<Row> latest;
  core::KeyDecider read =
      [&latest](const std::optional<Row>& current) -> Result<core::NetEffect> {
    latest = current;
    return core::NetEffect{};
  };
  WVM_RETURN_IF_ERROR(
      engine->MaintApplyBatch({{key, std::move(read)}}).status());
  return latest;
}

// Builds an engine by name: offline, s2pl, 2v2pl, mv2pl-cfl82,
// mv2pl-bc92, 2vnl, 3vnl.
inline std::unique_ptr<WarehouseEngine> MakeEngine(const std::string& name,
                                                   BufferPool* pool) {
  if (name == "offline") {
    return std::make_unique<OfflineEngine>(pool, ItemSchema());
  }
  if (name == "s2pl") {
    return std::make_unique<S2plEngine>(pool, ItemSchema());
  }
  if (name == "2v2pl") {
    return std::make_unique<TwoV2plEngine>(pool, ItemSchema());
  }
  if (name == "mv2pl-cfl82") {
    return std::make_unique<Mv2plEngine>(pool, ItemSchema(),
                                         Mv2plEngine::Options{false});
  }
  if (name == "mv2pl-bc92") {
    return std::make_unique<Mv2plEngine>(pool, ItemSchema(),
                                         Mv2plEngine::Options{true});
  }
  if (name == "2vnl" || name == "3vnl") {
    auto adapter =
        VnlAdapter::Create(pool, ItemSchema(), name == "2vnl" ? 2 : 3);
    WVM_CHECK(adapter.ok());
    return std::move(adapter).value();
  }
  WVM_UNREACHABLE("unknown engine name");
}

}  // namespace wvm::baselines::testutil

#endif  // OPENWVM_TESTS_BASELINES_ENGINE_TEST_UTIL_H_

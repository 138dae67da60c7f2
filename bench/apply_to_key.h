#ifndef OPENWVM_BENCH_APPLY_TO_KEY_H_
#define OPENWVM_BENCH_APPLY_TO_KEY_H_

#include <cstdint>
#include <optional>

#include "baselines/warehouse_engine.h"

namespace wvm::bench {

// Applies `effect` to the one-column key `id` in a one-key MaintApplyBatch,
// the facade's one keyed maintenance write.
inline Status ApplyToKey(baselines::WarehouseEngine* engine, int64_t id,
                         const core::NetEffect& effect) {
  return engine
      ->MaintApplyBatch({{{Value::Int64(id)},
                          [&effect](const std::optional<Row>&)
                              -> Result<core::NetEffect> { return effect; }}})
      .status();
}

}  // namespace wvm::bench

#endif  // OPENWVM_BENCH_APPLY_TO_KEY_H_

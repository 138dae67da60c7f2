#ifndef OPENWVM_BASELINES_ROW_ENGINE_H_
#define OPENWVM_BASELINES_ROW_ENGINE_H_

#include <optional>
#include <vector>

#include "baselines/warehouse_engine.h"

namespace wvm::baselines {

// Base of the baselines that hold logical Rows (offline, s2pl, 2v2pl,
// mv2pl/bc92). MaintApplyBatch runs each op serially through the engine's
// per-key hooks: read the key's latest row, decide, check the effect with
// core::CheckNetEffect (the rule VnlTable applies), then insert, update or
// delete. It is the hooks' only caller, so every row a hook gets has
// passed that check: an insert row is one the schema holds and carries the
// op's key, which is absent or deleted (a live one is kAlreadyExists), and
// an update row is the row the read returned with edits of updatable
// columns merged in. An update or delete is of a live key.
class RowEngine : public WarehouseEngine {
 public:
  const Schema& logical_schema() const final { return schema_; }

  // Counts what the hook calls cost on a key-indexed engine: one index
  // probe per read or write, one page pin per row read or rewritten.
  Result<core::BatchApplyStats> MaintApplyBatch(
      const std::vector<core::BatchKeyOp>& ops) final;

 protected:
  explicit RowEngine(Schema logical);

  const Schema schema_;

 private:
  // The latest row of `key`, this transaction's own writes included
  // (nullopt when absent or deleted); kFailedPrecondition outside a
  // maintenance transaction. The apply calls it first for every op, so
  // the write hooks assume a transaction is active.
  virtual Result<std::optional<Row>> MaintReadKey(const Row& key) = 0;
  virtual Status MaintInsert(const Row& row) = 0;
  virtual Status MaintUpdate(const Row& key, const Row& row) = 0;
  virtual Status MaintDelete(const Row& key) = 0;

  const KeyCodec key_codec_;
};

}  // namespace wvm::baselines

#endif  // OPENWVM_BASELINES_ROW_ENGINE_H_

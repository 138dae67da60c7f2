#include "baselines/warehouse_engine.h"

namespace wvm::baselines {

Result<WarehouseEngine::MaintBatchStats> WarehouseEngine::MaintApplyBatch(
    const std::vector<MaintBatchOp>& ops) {
  // Serial fallback: one facade call sequence per key. Counter accounting
  // mirrors what the calls cost on a key-indexed engine — every call pays
  // an index probe, and every row actually read or rewritten pays a page
  // pin — so engines compare on the same counts.
  MaintBatchStats stats;
  for (const MaintBatchOp& op : ops) {
    ++stats.keys;
    WVM_ASSIGN_OR_RETURN(std::optional<Row> current, MaintReadKey(op.key));
    ++stats.index_probes;
    if (current.has_value()) ++stats.page_pins;
    WVM_ASSIGN_OR_RETURN(MaintNetAction action, op.decide(current));
    switch (action.kind) {
      case MaintNetAction::Kind::kNone:
        ++stats.noops;
        break;
      case MaintNetAction::Kind::kInsert:
        WVM_RETURN_IF_ERROR(MaintInsert(action.row));
        ++stats.index_probes;
        ++stats.inserts;
        break;
      case MaintNetAction::Kind::kUpdate: {
        if (!current.has_value()) return Status::NotFound("no such key");
        Row next = std::move(*current);
        for (const core::ColumnEdit& e : action.edits) {
          if (e.column >= next.size()) {
            return Status::InvalidArgument("update edits no column");
          }
          next[e.column] = e.value;
        }
        WVM_RETURN_IF_ERROR(MaintUpdate(op.key, next));
        ++stats.index_probes;
        ++stats.page_pins;
        ++stats.updates;
        break;
      }
      case MaintNetAction::Kind::kDelete:
        WVM_RETURN_IF_ERROR(MaintDelete(op.key));
        ++stats.index_probes;
        ++stats.page_pins;
        ++stats.deletes;
        break;
    }
  }
  return stats;
}

}  // namespace wvm::baselines

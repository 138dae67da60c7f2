#include "baselines/row_engine.h"

#include <string>
#include <utility>

namespace wvm::baselines {

RowEngine::RowEngine(Schema logical)
    : schema_(std::move(logical)),
      key_codec_(schema_, schema_.key_indices()) {}

Result<core::BatchApplyStats> RowEngine::MaintApplyBatch(
    const std::vector<core::BatchKeyOp>& ops) {
  using Kind = core::NetEffect::Kind;
  core::BatchApplyStats stats;
  std::string key;
  for (const core::BatchKeyOp& op : ops) {
    ++stats.keys;
    WVM_ASSIGN_OR_RETURN(std::optional<Row> current, MaintReadKey(op.key));
    ++stats.index_probes;
    if (current.has_value()) ++stats.page_pins;
    WVM_ASSIGN_OR_RETURN(core::NetEffect effect, op.decide(current));
    key_codec_.FromValues(op.key, &key);
    WVM_RETURN_IF_ERROR(core::CheckNetEffect(schema_, key_codec_, key,
                                             current.has_value(), effect));
    switch (effect.kind) {
      case Kind::kNone:
        ++stats.noops;
        continue;
      case Kind::kInsert:
        // Table 2: only an absent or deleted key takes an insert.
        if (current.has_value()) return Status::AlreadyExists("live key");
        WVM_RETURN_IF_ERROR(MaintInsert(effect.row));
        ++stats.inserts;
        break;
      case Kind::kUpdate:
        for (const core::ColumnEdit& e : effect.edits) {
          (*current)[e.column] = e.value;
        }
        WVM_RETURN_IF_ERROR(MaintUpdate(op.key, *current));
        ++stats.page_pins;
        ++stats.updates;
        break;
      case Kind::kDelete:
        WVM_RETURN_IF_ERROR(MaintDelete(op.key));
        ++stats.page_pins;
        ++stats.deletes;
        break;
    }
    ++stats.index_probes;
  }
  return stats;
}

}  // namespace wvm::baselines

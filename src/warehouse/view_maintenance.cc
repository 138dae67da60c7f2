#include "warehouse/view_maintenance.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "common/logging.h"
#include "common/strings.h"

namespace wvm::warehouse {

namespace {

// Groups per MaintApplyBatch call. One call per ApplyDelta was measured
// slower on the warehouse-day benchmark (lower maintenance throughput and
// higher point-read tail latency between chunks) than chunks of 64.
constexpr size_t kGroupsPerBatch = 64;

}  // namespace

SummaryView::SummaryView(std::vector<Column> dim_columns,
                         std::string measure_name)
    : dims_(dim_columns.size()) {
  WVM_CHECK_MSG(dims_ > 0, "summary view needs at least one dimension");
  std::vector<size_t> key_indices;
  for (size_t i = 0; i < dim_columns.size(); ++i) {
    dim_columns[i].updatable = false;  // group-by keys never change (§3.1)
    key_indices.push_back(i);
  }
  dim_columns.push_back(
      Column::Int64("total_" + measure_name, /*updatable=*/true));
  dim_columns.push_back(Column::Int64("support", /*updatable=*/true));
  schema_ = Schema(std::move(dim_columns), std::move(key_indices));
}

Row SummaryView::MakeRow(const Row& dims, int64_t total,
                         int64_t support) const {
  WVM_CHECK(dims.size() == dims_);
  Row row = dims;
  row.push_back(Value::Int64(total));
  row.push_back(Value::Int64(support));
  return row;
}

Result<SummaryView::ApplyStats> SummaryView::ApplyDelta(
    baselines::WarehouseEngine* engine, const DeltaBatch& batch) const {
  ApplyStats stats;
  stats.events = batch.size();

  // Fold the batch into per-group net deltas (SP89's net effect applied
  // at the delta level; the engine's decision tables then net-effect any
  // repeated touches of the same group across batches in one txn).
  // Groups are kept in first-seen order, so view tuples are allocated in
  // the order the feed first names their groups.
  struct GroupDelta {
    Row dims;
    int64_t total = 0;
    int64_t support = 0;
  };
  std::vector<GroupDelta> deltas;
  std::unordered_map<Row, size_t, RowHash, RowEq> slot_of;
  for (const BaseEvent& event : batch) {
    if (event.dims.size() != dims_) {
      return Status::InvalidArgument(StrPrintf(
          "delta event has %zu dimension values; the view has %zu",
          event.dims.size(), dims_));
    }
    auto [it, fresh] = slot_of.try_emplace(event.dims, deltas.size());
    if (fresh) deltas.push_back({event.dims, 0, 0});
    GroupDelta& d = deltas[it->second];
    if (event.retraction) {
      d.total -= event.amount;
      d.support -= 1;
    } else {
      d.total += event.amount;
      d.support += 1;
    }
  }
  stats.keys_coalesced = deltas.size();
  stats.events_folded = stats.events - deltas.size();

  // Hand the engine one net-action callback per touched group, in
  // first-seen order and kGroupsPerBatch groups per call. The callback
  // runs the support arithmetic against the current row the engine
  // fetched with its single probe.
  std::vector<core::BatchKeyOp> ops;
  ops.reserve(std::min(kGroupsPerBatch, deltas.size()));
  auto flush = [&]() -> Status {
    if (ops.empty()) return Status::OK();
    WVM_ASSIGN_OR_RETURN(core::BatchApplyStats batch_stats,
                         engine->MaintApplyBatch(ops));
    stats.inserts += batch_stats.inserts;
    stats.updates += batch_stats.updates;
    stats.deletes += batch_stats.deletes;
    stats.index_probes += batch_stats.index_probes;
    stats.page_pins += batch_stats.page_pins;
    ops.clear();
    return Status::OK();
  };
  for (const GroupDelta& delta : deltas) {
    if (delta.total == 0 && delta.support == 0) continue;
    ++stats.groups_touched;
    // `deltas` outlives every flush, so the callback holds a pointer.
    const GroupDelta* d = &delta;
    auto decide = [this, d](const std::optional<Row>& current)
        -> Result<core::NetEffect> {
      if (!current.has_value()) {
        if (d->support <= 0) {
          return Status::InvalidArgument(
              "retraction for a group absent from the view");
        }
        return core::NetEffect::Insert(
            MakeRow(d->dims, d->total, d->support));
      }
      const int64_t new_total = (*current)[total_col()].AsInt64() + d->total;
      const int64_t new_support =
          (*current)[support_col()].AsInt64() + d->support;
      if (new_support < 0) {
        return Status::InvalidArgument("view support underflow");
      }
      if (new_support == 0) {
        return core::NetEffect::Delete();
      }
      // Self-maintainable: the new row is the old one with its two
      // aggregate columns edited.
      return core::NetEffect::Update(
          {{total_col(), Value::Int64(new_total)},
           {support_col(), Value::Int64(new_support)}});
    };
    ops.push_back({delta.dims, std::move(decide)});
    if (ops.size() >= kGroupsPerBatch) WVM_RETURN_IF_ERROR(flush());
  }
  WVM_RETURN_IF_ERROR(flush());
  return stats;
}

}  // namespace wvm::warehouse

#ifndef OPENWVM_WAREHOUSE_VIEW_MAINTENANCE_H_
#define OPENWVM_WAREHOUSE_VIEW_MAINTENANCE_H_

#include <string>
#include <vector>

#include "baselines/warehouse_engine.h"
#include "catalog/schema.h"
#include "common/result.h"

namespace wvm::warehouse {

// One base-data event arriving from a source: a sale (amount) attributed
// to a group, or a retraction of a previously reported sale.
struct BaseEvent {
  Row dims;        // group-by attribute values, in dimension order
  int64_t amount;  // measure contribution
  bool retraction = false;
};

using DeltaBatch = std::vector<BaseEvent>;

// A warehouse summary table (§2):
//   SELECT <dims>, SUM(amount) AS total_<measure>, COUNT(*) AS support
//   FROM base GROUP BY <dims>
// The group-by attributes form the unique key and are never updatable;
// only the aggregate columns change — exactly the shape that makes the
// 2VNL storage overhead small (§3.1). The hidden support count implements
// GL95-style maintenance with duplicates: a group disappears when its
// support drops to zero.
class SummaryView {
 public:
  SummaryView(std::vector<Column> dim_columns, std::string measure_name);

  // dims..., total_<measure> (updatable INT64), support (updatable INT64);
  // unique key = the dims.
  const Schema& view_schema() const { return schema_; }
  size_t total_col() const { return dims_; }
  size_t support_col() const { return dims_ + 1; }
  size_t num_dims() const { return dims_; }

  // Builds the view row for a group seen for the first time.
  Row MakeRow(const Row& dims, int64_t total, int64_t support) const;

  struct ApplyStats {
    size_t events = 0;
    size_t groups_touched = 0;
    size_t inserts = 0;
    size_t updates = 0;
    size_t deletes = 0;
    // Coalescing effectiveness: distinct groups the batch folded into, and
    // how many events the fold absorbed (events - keys_coalesced).
    size_t keys_coalesced = 0;
    size_t events_folded = 0;
    // Amortization: maintenance-path index probes and heap page pins the
    // apply cost (real engine counters on the 2VNL adapter; one per hook
    // call on a RowEngine).
    size_t index_probes = 0;
    size_t page_pins = 0;
  };

  // Propagates one delta batch into the materialized view through an
  // engine's open maintenance transaction. Events are folded into
  // per-group net deltas, and each touched group becomes one net action
  // decided from its delta and view row alone (insert, a {total, support}
  // edit, or a delete when support reaches 0), handed to MaintApplyBatch
  // in chunks of 64 groups: one index probe and at most one page pin per
  // group on the 2VNL engine. Events whose dimension count differs from
  // the view's fail with kInvalidArgument before any group is applied.
  Result<ApplyStats> ApplyDelta(baselines::WarehouseEngine* engine,
                                const DeltaBatch& batch) const;

 private:
  size_t dims_;
  Schema schema_;
};

}  // namespace wvm::warehouse

#endif  // OPENWVM_WAREHOUSE_VIEW_MAINTENANCE_H_

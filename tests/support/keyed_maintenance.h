#ifndef OPENWVM_TESTS_SUPPORT_KEYED_MAINTENANCE_H_
#define OPENWVM_TESTS_SUPPORT_KEYED_MAINTENANCE_H_

#include <functional>
#include <optional>
#include <vector>

#include "core/decision_tables.h"
#include "core/vnl_table.h"

// Keyed maintenance and the maintenance transaction's view, for tests.
// The engine's keyed writes are ApplyBatch ops; these helpers run one-key
// batches, the per-key step every keyed write takes, and read the heap
// the way the maintenance cursor does.
namespace wvm::core::testutil {

// Updates `key` to the row `next` makes of its current one: each column
// whose value changes becomes an edit (one of a non-updatable column is
// refused with kInvalidArgument, §3.1). False, writing nothing, when the
// key is absent or logically deleted.
inline Result<bool> UpdateKey(VnlTable* table, MaintenanceTxn* txn,
                              const Row& key,
                              const std::function<Row(const Row&)>& next) {
  KeyDecider decide =
      [&next](const std::optional<Row>& current) -> Result<NetEffect> {
    if (!current.has_value()) return NetEffect{};
    const Row row = next(*current);
    std::vector<ColumnEdit> edits;
    for (size_t i = 0; i < row.size() && i < current->size(); ++i) {
      if (row[i] != (*current)[i]) edits.push_back({i, row[i]});
    }
    return NetEffect::Update(std::move(edits));
  };
  WVM_ASSIGN_OR_RETURN(BatchApplyStats applied,
                       table->ApplyBatch(txn, {{key, std::move(decide)}}));
  return applied.updates == 1;
}

// Sets column `col` of `key` to `value`: a one-edit update.
inline Result<bool> SetKey(VnlTable* table, MaintenanceTxn* txn,
                           const Row& key, size_t col, const Value& value) {
  KeyDecider decide =
      [&](const std::optional<Row>& current) -> Result<NetEffect> {
    if (!current.has_value()) return NetEffect{};
    return NetEffect::Update({{col, value}});
  };
  WVM_ASSIGN_OR_RETURN(BatchApplyStats applied,
                       table->ApplyBatch(txn, {{key, std::move(decide)}}));
  return applied.updates == 1;
}

// Logically deletes `key`. False, writing nothing, when it is absent or
// already logically deleted.
inline Result<bool> DeleteKey(VnlTable* table, MaintenanceTxn* txn,
                              const Row& key) {
  KeyDecider decide =
      [](const std::optional<Row>& current) -> Result<NetEffect> {
    return current.has_value() ? NetEffect::Delete() : NetEffect{};
  };
  WVM_ASSIGN_OR_RETURN(BatchApplyStats applied,
                       table->ApplyBatch(txn, {{key, std::move(decide)}}));
  return applied.deletes == 1;
}

// The current logical row of `key` as the maintenance transaction sees it
// (nullopt when absent or logically deleted): a one-key batch whose
// decider writes nothing, so it costs one probe and at most one pin.
inline Result<std::optional<Row>> CurrentRow(VnlTable* table,
                                             MaintenanceTxn* txn,
                                             const Row& key) {
  std::optional<Row> row;
  KeyDecider read =
      [&row](const std::optional<Row>& current) -> Result<NetEffect> {
    row = current;
    return NetEffect{};
  };
  WVM_RETURN_IF_ERROR(
      table->ApplyBatch(txn, {{key, std::move(read)}}).status());
  return row;
}

// Every logical row the maintenance transaction sees — each tuple's
// current version, logically deleted tuples skipped — in heap order.
inline Result<std::vector<Row>> MaintenanceRows(const VnlTable& table) {
  const VersionedSchema& vs = table.versioned_schema();
  std::vector<Row> rows;
  Status status;
  WVM_RETURN_IF_ERROR(
      table.physical_table().heap()->Scan([&](Rid, const uint8_t* rec) {
        Result<Op> op = vs.RawOperation(rec, 0);
        if (!op.ok()) {
          status = op.status();
          return false;
        }
        if (*op != Op::kDelete) rows.push_back(vs.RawCurrentLogical(rec));
        return true;
      }));
  WVM_RETURN_IF_ERROR(status);
  return rows;
}

}  // namespace wvm::core::testutil

#endif  // OPENWVM_TESTS_SUPPORT_KEYED_MAINTENANCE_H_

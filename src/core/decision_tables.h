#ifndef OPENWVM_CORE_DECISION_TABLES_H_
#define OPENWVM_CORE_DECISION_TABLES_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "common/strings.h"
#include "core/version_meta.h"

namespace wvm::core {

// Paper Table 1 (the reader side) is ResolveVersionRaw in
// core/versioned_schema.h, which covers every n. This header holds the
// writer side, Tables 2-4.

// Physical action a maintenance operation performs on a tuple (§3.3).
enum class PhysicalAction {
  kInsertTuple,    // insert a fresh physical tuple
  kUpdateTuple,    // overwrite the tuple in place
  kDeleteTuple,    // physically remove the tuple
};

// One cell of Tables 2-4: the physical action plus which bookkeeping
// updates accompany it. Field names follow the paper's notation
// (PV = pre-update values, CV = current values, MV = operation's values).
struct MaintenanceDecision {
  PhysicalAction action = PhysicalAction::kUpdateTuple;
  bool push_back = false;       // nVNL only: shift slots before writing
  bool pop_slot = false;        // nVNL only: undo a same-txn push
  bool pv_from_cv = false;      // PV <- CV
  bool pv_null = false;         // PV <- nulls
  bool cv_from_mv = false;      // CV <- MV
  bool set_tuple_vn = false;    // tupleVN <- maintenanceVN
  std::optional<Op> new_op;     // operation <- value (net effect, §3.3)
};

// State of the conflicting/target tuple as seen by the maintenance txn.
struct TupleVersionState {
  Vn tuple_vn;
  Op op;
  // nVNL: whether any older version slot is populated. Always false for
  // n == 2 (it only affects the delete-of-same-txn-insert cell).
  bool has_older_slots = false;
};

// Table 2: logical insert. `existing` is the tuple with the same unique
// key if one exists (std::nullopt = "No Conflicting Tuple" row, always
// taken for tables without unique keys). "Impossible" cells — inserting
// over a live tuple — surface as kAlreadyExists.
Result<MaintenanceDecision> DecideInsert(
    Vn maintenance_vn, const std::optional<TupleVersionState>& existing);

// Table 3: logical update of a tuple the maintenance txn currently sees.
// "Impossible" cells (updating a deleted tuple) surface as kInternal since
// the cursor never yields logically-deleted tuples.
Result<MaintenanceDecision> DecideUpdate(Vn maintenance_vn,
                                         const TupleVersionState& state);

// Table 4: logical delete.
Result<MaintenanceDecision> DecideDelete(Vn maintenance_vn,
                                         const TupleVersionState& state);

// --- Per-key maintenance actions --------------------------------------------
//
// Tables 2-4 record a tuple's net-effect operation, so repeated touches of
// one key inside a maintenance transaction already collapse onto a single
// physical tuple (a second touch is an in-place CV <- MV). Key-addressed
// maintenance therefore needs no event-level fold: the caller decides one
// action per key from the key's current row, and VnlTable runs it through
// the decision tables.

// MV for one updatable attribute: its logical column and new value.
struct ColumnEdit {
  size_t column;
  Value value;
};

// The net maintenance action for one key. kInsert carries the full new
// logical row; kUpdate carries edits, applied in order, to updatable
// attributes only (§3.1: nothing else of a live tuple can change).
struct NetEffect {
  enum class Kind { kNone, kInsert, kUpdate, kDelete };
  static NetEffect Insert(Row row) {
    return {Kind::kInsert, std::move(row), {}};
  }
  static NetEffect Update(std::vector<ColumnEdit> edits) {
    return {Kind::kUpdate, {}, std::move(edits)};
  }
  static NetEffect Delete() { return {Kind::kDelete, {}, {}}; }

  Kind kind = Kind::kNone;
  Row row;
  std::vector<ColumnEdit> edits;
};

// The §3.1 check of a key's net effect, run before anything is written:
// VnlTable and RowEngine (the Row-holding baselines) share it. kUpdate and
// kDelete need a live key (`live`), else kNotFound("no such key"). A
// kInsert row must be one `logical` can hold and, when `key` is set, carry
// those key bytes (`key_codec` encodes a whole row's key); a kUpdate edit
// must name an updatable column with a value the column can hold. Both
// failures are kInvalidArgument. Inline: it runs on every key of
// VnlTable's per-key step, which an out-of-line call measurably slowed.
inline Status CheckNetEffect(const Schema& logical, const KeyCodec& key_codec,
                             std::optional<std::string_view> key, bool live,
                             const NetEffect& effect) {
  switch (effect.kind) {
    case NetEffect::Kind::kNone:
      return Status::OK();
    case NetEffect::Kind::kInsert: {
      WVM_RETURN_IF_ERROR(logical.ValidateRow(effect.row));
      std::string row_key;
      if (key.has_value() &&
          (!key_codec.FromValues(effect.row, &row_key, /*whole_row=*/true) ||
           row_key != *key)) {
        return Status::InvalidArgument(
            "inserted row's key differs from the key it is applied to");
      }
      return Status::OK();
    }
    case NetEffect::Kind::kUpdate:
      if (!live) return Status::NotFound("no such key");
      // An update edits updatable attributes only: a tuple's others were
      // fixed at its insert (§3.1).
      for (const ColumnEdit& e : effect.edits) {
        const Column* col = e.column < logical.num_columns()
                                ? &logical.column(e.column)
                                : nullptr;
        if (col == nullptr || !col->updatable) {
          return Status::InvalidArgument(StrPrintf(
              "update edits '%s', not an updatable attribute",
              col != nullptr ? col->name.c_str() : "no column"));
        }
        WVM_RETURN_IF_ERROR(CheckColumnValue(*col, e.value));
      }
      return Status::OK();
    case NetEffect::Kind::kDelete:
      return live ? Status::OK() : Status::NotFound("no such key");
  }
  return Status::OK();
}

// Decides a key's net effect from its current logical row as the
// maintenance transaction sees it (nullopt when the key is absent or
// logically deleted). VnlTable and the baseline engines both run it.
using KeyDecider =
    std::function<Result<NetEffect>(const std::optional<Row>& current)>;

// One key of a batched apply.
struct BatchKeyOp {
  Row key;
  KeyDecider decide;
};

// What a batched apply did, per action kind, and what it cost in
// maintenance-path index probes and heap page pins.
struct BatchApplyStats {
  size_t keys = 0;
  size_t noops = 0;
  size_t inserts = 0;
  size_t updates = 0;
  size_t deletes = 0;
  size_t index_probes = 0;
  size_t page_pins = 0;
};

}  // namespace wvm::core

#endif  // OPENWVM_CORE_DECISION_TABLES_H_

#ifndef OPENWVM_BASELINES_WAREHOUSE_ENGINE_H_
#define OPENWVM_BASELINES_WAREHOUSE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "core/decision_tables.h"

namespace wvm::baselines {

// Storage accounting reported by every engine (paper §6's storage and
// I/O comparison is run over this interface).
struct EngineStorageStats {
  uint64_t main_pages = 0;       // pages of the primary relation
  uint64_t aux_pages = 0;        // version pool / shadow structures
  size_t main_tuple_bytes = 0;   // serialized width of a primary tuple
};

// Uniform facade over one warehouse relation maintained by each
// concurrency-control scheme the paper discusses:
//   offline  — nightly batch; readers and maintenance mutually exclude
//   s2pl     — strict two-phase locking at tuple granularity
//   2v2pl    — two versions, readers delay writer commit (certify)
//   mv2pl    — transient versioning with a chained version pool (CFL+82)
//   bc92     — mv2pl plus an on-page version cache (BC92b)
//   2vnl/nvnl — the paper's algorithm (adapter over core::VnlEngine)
//
// One maintenance transaction runs at a time (the warehouse assumption);
// any number of reader sessions run concurrently from other threads.
// Calls may block, depending on the engine — that blocking is precisely
// what the Section 6 experiments measure.
class WarehouseEngine {
 public:
  virtual ~WarehouseEngine() = default;

  virtual std::string name() const = 0;
  virtual const Schema& logical_schema() const = 0;

  // --- Reader sessions -----------------------------------------------------
  // A session must observe one consistent database state across all its
  // reads (the paper's serializability requirement). Sessions that can no
  // longer be served return kSessionExpired from reads.
  virtual Result<uint64_t> OpenReader() = 0;
  virtual Status CloseReader(uint64_t reader) = 0;
  virtual Result<std::vector<Row>> ReadAll(uint64_t reader) = 0;
  virtual Result<std::optional<Row>> ReadKey(uint64_t reader,
                                             const Row& key) = 0;

  // --- Maintenance transaction ----------------------------------------------
  virtual Status BeginMaintenance() = 0;
  // Reads the *latest* version of `key`, including this transaction's own
  // uncommitted writes (what the incremental view-maintenance loop needs).
  virtual Result<std::optional<Row>> MaintReadKey(const Row& key) = 0;
  virtual Status MaintInsert(const Row& row) = 0;
  // `row` carries the new full logical tuple; its key, and every other
  // non-updatable attribute, must equal the stored tuple's.
  virtual Status MaintUpdate(const Row& key, const Row& row) = 0;
  virtual Status MaintDelete(const Row& key) = 0;
  virtual Status CommitMaintenance() = 0;

  // --- Batched maintenance ----------------------------------------------------

  // The per-key maintenance types are the core engine's (see
  // core/decision_tables.h): a net action of none / insert (a full row) /
  // update (edits to updatable columns) / delete, an op pairing a key with
  // the callback that decides that action from the key's current row, and
  // the batch's counts.
  using MaintNetAction = core::NetEffect;
  using MaintBatchOp = core::BatchKeyOp;
  using MaintBatchStats = core::BatchApplyStats;

  // Applies one per-key decision per op. The default implementation is
  // the serial fallback the locking and offline engines run:
  // MaintReadKey + MaintInsert/MaintUpdate/MaintDelete per key (an
  // update's edits merged into the row MaintReadKey returned), with
  // facade-call accounting (one probe per call, one pin per row actually
  // read or rewritten). The 2VNL adapter runs core ApplyBatch and reports
  // the engine's real counters.
  virtual Result<MaintBatchStats> MaintApplyBatch(
      const std::vector<MaintBatchOp>& ops);

  virtual EngineStorageStats StorageStats() const = 0;
};

}  // namespace wvm::baselines

#endif  // OPENWVM_BASELINES_WAREHOUSE_ENGINE_H_

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
// The first five hold logical Rows and share RowEngine's checked apply
// (row_engine.h).
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
  // The one key-addressed maintenance write: per op, in `ops` order, reads
  // the key's latest row (this transaction's own writes included; nullopt
  // when absent or deleted), hands it to the op's decider and applies the
  // core::NetEffect it returns once core::CheckNetEffect accepts it (§3.1:
  // an insert row the schema holds carrying the op's key, edits of
  // updatable columns only; kInvalidArgument or kNotFound, nothing
  // written). Stops at the first failing key, the keys before it applied.
  // The stats count the probes and page pins it took: the 2VNL adapter
  // reports core ApplyBatch's, RowEngine one probe per read or write and
  // one pin per row read or rewritten.
  virtual Result<core::BatchApplyStats> MaintApplyBatch(
      const std::vector<core::BatchKeyOp>& ops) = 0;
  virtual Status CommitMaintenance() = 0;

  virtual EngineStorageStats StorageStats() const = 0;
};

}  // namespace wvm::baselines

#endif  // OPENWVM_BASELINES_WAREHOUSE_ENGINE_H_

#ifndef OPENWVM_CORE_VNL_TABLE_H_
#define OPENWVM_CORE_VNL_TABLE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/table.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/decision_tables.h"
#include "core/scan_metrics.h"
#include "core/session.h"
#include "core/version_relation.h"
#include "core/versioned_schema.h"
#include "query/executor.h"
#include "sql/ast.h"

namespace wvm::core {

class VnlEngine;

// Handle to the single active maintenance transaction. Created by
// VnlEngine::BeginMaintenance and finished with Commit/Abort.
class MaintenanceTxn {
 public:
  Vn vn() const { return vn_; }
  bool active() const { return active_; }

  struct Stats {
    size_t logical_inserts = 0;
    size_t logical_updates = 0;
    size_t logical_deletes = 0;
    size_t physical_inserts = 0;
    size_t physical_updates = 0;
    size_t physical_deletes = 0;
    // Maintenance-path access cost: hash-index probes issued, and heap
    // *read* fetches pinned to drive the decision procedure (writes are
    // not pins — every logical action pays exactly one write, so reads are
    // where deciding once per key instead of once per event saves).
    size_t index_probes = 0;
    size_t page_pins = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class VnlEngine;
  friend class VnlTable;

  MaintenanceTxn(VnlEngine* engine, Vn vn) : engine_(engine), vn_(vn) {}

  VnlEngine* engine_;
  Vn vn_;
  bool active_ = true;
  Stats stats_;
};

// Per-row callbacks used by the cursor-style maintenance statements
// (§4.2): both receive the *logical* current row. The row handed to a
// RowPredicate may be backed by the wider physical tuple (the logical
// attributes are its prefix, with identical values) — index it by logical
// column position only.
using RowPredicate = std::function<Result<bool>(const Row&)>;
using RowTransform = std::function<Result<Row>(const Row&)>;

// Counters describing how a snapshot scan classified the physical tuples
// it visited (Table 1 outcomes) — reported by the reader-overhead bench.
struct SnapshotScanStats {
  size_t current_reads = 0;
  size_t pre_update_reads = 0;
  size_t ignored = 0;
  // Index observability (§4.3): hash probes issued on behalf of this read
  // and rows served out of index candidates — covers both SnapshotLookup
  // point reads and index-routed SnapshotSelects.
  size_t index_lookups = 0;
  size_t index_served_rows = 0;
};

// An nVNL-versioned relation: a logical schema widened per §3.1 stored in
// a heap table, a unique-key hash index on the (never-updatable) key, the
// maintenance decision procedure of §3.3, and Table 1 snapshot reads.
class VnlTable {
 public:
  const std::string& name() const { return name_; }
  const VersionedSchema& versioned_schema() const { return vschema_; }
  const Schema& logical_schema() const { return vschema_.logical(); }
  // The widened backing relation — what the rewrite implementation (§4)
  // queries directly with CASE expressions.
  const Table& physical_table() const { return *phys_; }

  // --- Maintenance operations (§3.3, Tables 2-4) --------------------------
  //
  // Every key-addressed write runs one per-key step: probe the unique-key
  // index, fetch the tuple, decide a NetEffect from its current row, pick
  // the Tables 2-4 cell, and apply it. ApplyBatch loops that step over
  // many keys; Insert, UpdateByKey and DeleteByKey are one-key calls of
  // it; the cursor Update/Delete share its validate-decide-apply tail.

  // Logical insert. Resolves unique-key conflicts per Table 2 (re-insert
  // of a logically deleted key becomes a physical update). Tables without
  // a unique key always take a fresh physical insert.
  Status Insert(MaintenanceTxn* txn, const Row& logical_row);

  // Logical update of every tuple satisfying `pred`, via a materialized
  // cursor (Example 4.3). `transform` maps the current logical row to the
  // new one; non-updatable attributes must be preserved. Returns the
  // number of tuples updated.
  Result<size_t> Update(MaintenanceTxn* txn, const RowPredicate& pred,
                        const RowTransform& transform);

  // Logical delete of every tuple satisfying `pred` (Example 4.4).
  Result<size_t> Delete(MaintenanceTxn* txn, const RowPredicate& pred);

  // Index-based fast paths for key-addressed maintenance. Return false
  // when the key is absent or logically deleted.
  Result<bool> UpdateByKey(MaintenanceTxn* txn, const Row& key,
                           const RowTransform& transform);
  Result<bool> DeleteByKey(MaintenanceTxn* txn, const Row& key);

  // Current logical row for `key`, as the maintenance txn sees it
  // (nullopt when absent or logically deleted).
  Result<std::optional<Row>> MaintenanceLookup(MaintenanceTxn* txn,
                                               const Row& key) const;

  // Runs the per-key step for each op, in `ops` order: one index probe,
  // at most one page pin and one decision-table transition per key, with
  // `decide` handed the row MaintenanceLookup would return, so
  // state-dependent maintenance (view deltas) costs no extra probe.
  // kUpdate / kDelete on an absent or logically deleted key return
  // kNotFound("no such key"); a kInsert row whose key differs from the
  // op's key is kInvalidArgument. Stops at the first failing key, leaving
  // the keys before it applied. Requires a unique key.
  Result<BatchApplyStats> ApplyBatch(MaintenanceTxn* txn,
                                     const std::vector<BatchKeyOp>& ops);

  // All logical rows visible to the maintenance transaction.
  Result<std::vector<Row>> MaintenanceRows(MaintenanceTxn* txn) const;

  // --- Reader operations (§3.2, Table 1) ----------------------------------

  // Every logical row of the snapshot the session is pinned to, in heap
  // order (a materializing read: counts one full materialization). Detects
  // expiration at tuple granularity (§3.2 case 3) and returns
  // kSessionExpired.
  Result<std::vector<Row>> SnapshotRows(
      const ReaderSession& session, SnapshotScanStats* stats = nullptr) const;

  // Key lookup within the session's snapshot: a one-candidate index read
  // through the same reader step as SnapshotSelect, so point reads share
  // its counters and expiration status. Unlike a routed SELECT it does not
  // consult the §4.1 window; its one candidate decides expiration.
  Result<std::optional<Row>> SnapshotLookup(
      const ReaderSession& session, const Row& key,
      SnapshotScanStats* stats = nullptr) const;

  // Runs a SELECT over the session's snapshot (aggregates, grouping, the
  // full query layer). Statement table name is not checked against this
  // table — the engine routes by name.
  //
  // The read is fully streaming and runs on serialized records: Table-1
  // version resolution, predicate evaluation, and projection happen per
  // tuple inside one pass. WHERE conjuncts that reference only base
  // (logical) columns are pushed into the pass. Conjuncts over
  // version-invariant (non-updatable) columns are evaluated, in WHERE
  // order, before the logical row is materialized — `column cmp constant`
  // shapes over int, string and DATE columns as byte comparisons — so
  // filtered-out tuples cost zero Row copies.
  //
  // The pass is fed by the unique-key or a secondary index when routing
  // applies (see TryStreamViaIndex), else by one serial heap pass on the
  // calling thread. Both sources emit rows in heap order.
  Result<query::QueryResult> SnapshotSelect(
      const ReaderSession& session, const sql::SelectStmt& stmt,
      const query::ParamMap& params = {},
      SnapshotScanStats* stats = nullptr) const;

  // --- Introspection -------------------------------------------------------

  uint64_t physical_rows() const { return phys_->num_rows(); }
  uint64_t physical_pages() const { return phys_->num_pages(); }

 private:
  friend class VnlEngine;

  VnlTable(std::string name, VersionedSchema vschema, BufferPool* pool,
           SessionManager* sessions, ScanMetricsSink* metrics,
           VnlEngine* engine);

  Status CheckTxn(const MaintenanceTxn* txn) const;

  // Applies one decision-table cell to the tuple at `rid` (whose current
  // physical image is `phys`). `mv_logical` carries the operation's values
  // when the cell copies CV <- MV.
  Status ApplyDecision(MaintenanceTxn* txn, const MaintenanceDecision& d,
                       Rid rid, Row phys, const Row* mv_logical);

  // Version-state triple of a fetched physical row (decision-table input).
  Result<TupleVersionState> StateOf(const Row& phys) const;

  // `next` must preserve every non-updatable attribute of the current
  // version; `phys` is the tuple's physical image, whose logical prefix is
  // that version.
  Status CheckUpdatablesOnly(const Row& phys, const Row& next) const;

  // A tuple fetched for a maintenance decision.
  struct Target {
    Rid rid;
    Row phys;
    TupleVersionState state;
  };

  // Reads the tuple at `rid` for a maintenance decision (one page pin).
  Result<Target> FetchTarget(MaintenanceTxn* txn, Rid rid) const;

  // The per-key step behind every key-addressed write: probes `key`,
  // fetches its tuple, asks `decide` for the net effect and applies it.
  // Returns the kind of action applied (kNone when nothing was written).
  Result<NetEffect::Kind> ApplyKey(MaintenanceTxn* txn, const Row& key,
                                   const KeyDecider& decide);

  // The validate-decide-apply tail shared by ApplyKey and the cursor
  // statements: checks `effect` against `target` (nullopt when the key has
  // no physical tuple), takes the Tables 2-4 cell and applies it. `key`,
  // when set, is the key a kInsert row must carry.
  Status ApplyEffect(MaintenanceTxn* txn, const Row* key,
                     const NetEffect& effect, std::optional<Target> target);

  // Table 2 line 3: a brand-new physical tuple for `logical_row`.
  Status InsertFresh(MaintenanceTxn* txn, const Row& logical_row);

  // Key-shaped row normalized through the column codec (what the hash
  // index stores).
  Row NormalizeKey(const Row& key) const;

  // Incremental cursor (Example 4.3): collects the Rids of tuples the
  // maintenance txn can see (skips logically deleted tuples) matching
  // `pred` on the current logical projection — rows are re-fetched at
  // apply time, so non-matching tuples are never copied. `maintenance_vn`
  // cross-checks the single-writer protocol: a tuple already stamped with
  // a later VN means a concurrent writer slipped past BeginMaintenance.
  Result<std::vector<Rid>> CollectCursor(Vn maintenance_vn,
                                         const RowPredicate& pred) const;

  // The one Table-1 reader step (defined in vnl_table.cc): every snapshot
  // read runs each physical record, as serialized bytes, through it —
  // classification, invariant conjuncts in WHERE order, projected
  // materialization, reconstructed conjuncts — and it counts what it did.
  // Two record sources feed it: the heap pass (StreamSnapshot) and sorted
  // Rid candidates (StreamCandidates).
  class ReaderStep;
  using RowSink = std::function<bool(const Row&)>;

  // Heap pass: one TableHeap::Scan with `sink` run inline, per record, on
  // the calling thread. Publishes the read's counters.
  Status StreamSnapshot(ReaderStep* step, const RowSink& sink,
                        SnapshotScanStats* stats) const;

  // Index-candidate source: reads each Rid (ascending = heap order) into
  // one reused buffer and runs it through `step`; a Rid reclaimed since
  // the probe is skipped. With `key` set (point lookups) a record must
  // still carry that normalized unique key — the slot-reuse guard. Records
  // the read's counters, `lookups` hash probes and `scans_avoided`.
  Status StreamCandidates(const std::vector<Rid>& rids, const Row* key,
                          uint64_t lookups, uint64_t scans_avoided,
                          ReaderStep* step, const RowSink& sink,
                          SnapshotScanStats* stats) const;

  // §4.3 index-routed read: serves the same row stream as the heap pass
  // out of the unique-key index (or a secondary posting list) when the
  // invariant conjuncts bind one with equalities, and the session is inside
  // the §4.1 version window (currentVN - sessionVN <= n-1, one less while
  // maintenance is active; VersionRelation::Snapshot::Admits), where no
  // tuple can resolve kExpired — the heap pass decides expiration per
  // tuple, including tuples the WHERE rejects, so sessions outside the
  // window must take it to keep the two paths status-identical. For the
  // same reason a conjunct that can fail to evaluate must not precede a
  // binding one. A maintenance transaction that begins after the check can
  // still expire the read on a candidate it rewrote. Returns false
  // (leaving *status untouched) when no index applies; true with the
  // read's status in *status otherwise.
  bool TryStreamViaIndex(const ReaderSession& session,
                         const std::vector<const sql::Expr*>& invariant_filter,
                         const query::ParamMap& params, ReaderStep* step,
                         const RowSink& sink, SnapshotScanStats* stats,
                         Status* status) const EXCLUDES(index_mu_);

  std::optional<Rid> IndexLookup(const Row& key) const EXCLUDES(index_mu_);

  // Index maintenance, always at tuple granularity and under a single
  // index_mu_ acquisition: the unique-key entry and every secondary
  // posting move together. Keys are normalized through the column codec so
  // in-memory rows (possibly over-width strings) and heap-deserialized
  // rows agree.
  void IndexTupleInserted(const Row& phys, Rid rid) EXCLUDES(index_mu_);
  void IndexTupleErased(const Row& phys, Rid rid) EXCLUDES(index_mu_);
  // Table-2 re-insert over a logically deleted key: the tuple keeps its
  // Rid but assumes a new logical identity whose non-updatable attributes
  // may differ — secondary postings whose key changed must move. The
  // unique key itself is unchanged by construction.
  void IndexTupleRevived(const std::vector<Row>& old_secondary_keys,
                         const Row& new_phys, Rid rid) EXCLUDES(index_mu_);

  // Normalized secondary key of `row` for each declared secondary index.
  std::vector<Row> SecondaryKeysOf(const Row& row) const;
  // Normalizes values picked from `row` at `cols` through the column codec.
  Row ExtractNormalizedKey(const Row& row,
                           const std::vector<size_t>& cols) const;

  // Rollback-without-logging (§7): reverts every tuple stamped with
  // txn_vn. Returns true when the revert was lossless (all pre-states
  // fully reconstructed — guaranteed for n > 2 when history slots were
  // available); false when sessions older than current_vn must be expired.
  // Heap I/O failures surface as a non-OK status instead of aborting.
  Result<bool> RollbackTxn(Vn txn_vn, Vn current_vn);

  // Garbage collection (§7): physically removes logically deleted tuples
  // whose versions no active or future session can read, visiting only
  // the tombstone set — O(logically deleted tuples), not O(heap). Victims
  // are reclaimed in Rid order. Heap I/O failures surface as a non-OK
  // status instead of aborting; tuples not yet reclaimed keep their
  // tombstones, so a later pass reclaims them.
  Result<size_t> CollectGarbage(Vn current_vn, Vn min_active_session_vn)
      EXCLUDES(tomb_mu_);

  // Logically deleted tuples still in the heap (the GC backlog).
  size_t tombstone_count() const EXCLUDES(tomb_mu_);

  // Tombstone-set maintenance: MarkTombstone records that slot 0 of the
  // tuple at `rid` is a delete stamped `vn`; ClearTombstone that it is
  // not (or that the tuple is physically gone).
  void MarkTombstone(Rid rid, Vn vn) EXCLUDES(tomb_mu_);
  void ClearTombstone(Rid rid) EXCLUDES(tomb_mu_);
  // Marks or clears `rid` from the slot 0 of its current image `phys`.
  Status SyncTombstone(Rid rid, const Row& phys) EXCLUDES(tomb_mu_);

  std::string name_;
  VersionedSchema vschema_;
  std::unique_ptr<Table> phys_;
  SessionManager* sessions_;
  ScanMetricsSink* metrics_;
  VnlEngine* engine_;  // scan options + Version relation; may be null

  // Declared secondary indexes (§4.3), fixed at construction. Specs are
  // immutable and read lock-free; the posting maps (parallel vector, same
  // order) live under index_mu_ with the unique-key index.
  std::vector<SecondaryIndexSpec> secondary_specs_;

  using PostingMap = std::unordered_map<Row, std::vector<Rid>, RowHash, RowEq>;

  mutable Mutex index_mu_;
  std::unordered_map<Row, Rid, RowHash, RowEq> key_index_
      GUARDED_BY(index_mu_);
  std::vector<PostingMap> secondary_postings_ GUARDED_BY(index_mu_);

  // Tombstone set: Rid -> tupleVN for exactly the tuples whose slot-0
  // operation is delete. Mutated only where the heap is (ApplyDecision,
  // RollbackTxn, CollectGarbage); ordered so GC reclaims in Rid order,
  // which is the heap's page order.
  mutable Mutex tomb_mu_;
  std::map<Rid, Vn> tombstones_ GUARDED_BY(tomb_mu_);
};

}  // namespace wvm::core

#endif  // OPENWVM_CORE_VNL_TABLE_H_

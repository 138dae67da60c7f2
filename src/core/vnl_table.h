#ifndef OPENWVM_CORE_VNL_TABLE_H_
#define OPENWVM_CORE_VNL_TABLE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
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
// VnlEngine::BeginMaintenance and finished with Commit/Abort; a finished
// handle stays valid, and inactive, for the engine's life.
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
// (§4.2): both receive the *logical* current row, indexed by logical
// column position. The row handed to a RowPredicate is valid only for the
// call.
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

  // Logical insert. Resolves unique-key conflicts per Table 2: a live
  // key is kAlreadyExists; a re-insert of a logically deleted key becomes
  // a physical update of its tuple, whose non-updatable attributes were
  // fixed at its insert (§3.1), so a row that changes one is
  // kInvalidArgument naming the column, and nothing is written. Tables
  // without a unique key always take a fresh physical insert.
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
  // when the key is absent or logically deleted. Keys compare as the bytes
  // the key columns store (KeyCodec), so a key value its column cannot
  // hold (CheckColumnValue) matches no tuple. Require a unique key
  // (kFailedPrecondition otherwise).
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
  // the keys before it applied. Requires a unique key: on a table without
  // one the first op fails with kFailedPrecondition.
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
  // consult the §4.1 window; its one candidate decides expiration. `key`
  // is encoded as an insert would store it (an over-width string is
  // truncated); a value its column cannot hold finds nothing.
  Result<std::optional<Row>> SnapshotLookup(
      const ReaderSession& session, const Row& key,
      SnapshotScanStats* stats = nullptr) const;

  // Runs a SELECT over the session's snapshot (aggregates, grouping, the
  // full query layer). Statement table name is not checked against this
  // table — the engine routes by name.
  //
  // The read is fully streaming and runs on serialized records: Table-1
  // version resolution, predicate evaluation, and projection happen per
  // tuple inside one pass. Every expression is bound once per call
  // (query::BoundExpr): names, parameters and comparand types are resolved
  // before the first tuple. WHERE conjuncts that reference only base
  // (logical) columns are pushed into the pass. Conjuncts over
  // version-invariant (non-updatable) columns are evaluated, in WHERE
  // order, before the logical row is materialized — a `column cmp
  // constant` conjunct over an int, string or DATE column on the record
  // bytes — so filtered-out tuples cost zero Row copies.
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

  // Version-state triple of a fetched record (decision-table input).
  Result<TupleVersionState> StateOf(const uint8_t* rec) const;

  // §3.1: a tuple's non-updatable attributes are fixed when it is
  // physically inserted, so `next` — an update's row, or a re-insert's
  // over the logically deleted tuple `rec` — must keep the bytes `rec`
  // holds for each of them. kInvalidArgument names the first that differs.
  Status CheckUpdatablesOnly(const uint8_t* rec, const Row& next) const;

  // A tuple fetched for a maintenance decision: its record bytes, followed
  // by as many bytes of room for the record a decision writes in its place
  // (ApplyDecision), so one allocation holds both sides of WriteTuple.
  struct Target {
    Rid rid;
    std::vector<uint8_t> rec;
    TupleVersionState state;
  };

  // Reads the tuple at `rid` for a maintenance decision (one page pin).
  Result<Target> FetchTarget(MaintenanceTxn* txn, Rid rid) const;

  // The per-key step behind every key-addressed write: probes the unique
  // key bytes `key` (key_codec_), fetches its tuple, asks `decide` for the
  // net effect and applies it. Returns the kind of action applied (kNone
  // when nothing was written); kFailedPrecondition on a table without a
  // unique key.
  Result<NetEffect::Kind> ApplyKey(MaintenanceTxn* txn, std::string_view key,
                                   const KeyDecider& decide);

  // The validate-decide-apply tail shared by ApplyKey and the cursor
  // statements: checks `effect` against `target` (nullopt when the key has
  // no physical tuple), takes the Tables 2-4 cell and applies it. `key`,
  // when set, is the key bytes a kInsert row must carry.
  Status ApplyEffect(MaintenanceTxn* txn, std::optional<std::string_view> key,
                     const NetEffect& effect, std::optional<Target> target);

  // Applies one decision-table cell to `target` (nullptr for Table 2's
  // no-conflict row, whose record starts with its older slots empty):
  // edits a copy of its record with the VersionedSchema byte mutators and
  // ends in one WriteTuple. `mv_logical` carries the operation's values
  // when the cell copies CV <- MV.
  Status ApplyDecision(MaintenanceTxn* txn, const MaintenanceDecision& d,
                       Target* target, const Row* mv_logical);

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
  // Rid candidates (StreamCandidates). Each source keeps one Row per read,
  // which the step fills in place (MaterializeVersionRawInto): NULL
  // placeholders once, projected columns per surviving tuple. For a
  // grouped read the step also fills one reused buffer with the row's
  // GROUP BY key bytes, made by the key codec of the version it resolved.
  // The sink sees the row and the key, both valid only for the call.
  class ReaderStep;
  using RowSink = query::KeyedRowSink;

  // Heap pass: one TableHeap::Scan with `sink` run inline, per record, on
  // the calling thread. Publishes the read's counters.
  Status StreamSnapshot(ReaderStep* step, const RowSink& sink,
                        SnapshotScanStats* stats) const;

  // Index-candidate source: reads each Rid (ascending = heap order) into
  // one reused buffer and runs it through `step`; a Rid reclaimed since
  // the probe is skipped. With `key` set (point lookups) a record must
  // still carry those unique key bytes — the slot-reuse guard, a memcmp on
  // the record. Records the read's counters, `lookups` hash probes and
  // `scans_avoided`.
  Status StreamCandidates(const std::vector<Rid>& rids,
                          std::optional<std::string_view> key,
                          uint64_t lookups, uint64_t scans_avoided,
                          ReaderStep* step, const RowSink& sink,
                          SnapshotScanStats* stats) const;

  // §4.3 index-routed read: serves the same row stream as the heap pass
  // out of the unique-key index (or a secondary posting list) when the
  // bound invariant conjuncts carry index keys (BindIndexKeys), and the
  // session is inside the §4.1 version window (currentVN - sessionVN <=
  // n-1, one less while maintenance is active;
  // VersionRelation::Snapshot::Admits), where no tuple can resolve
  // kExpired — the heap pass decides expiration per tuple, including
  // tuples the WHERE rejects, so sessions outside the window must take it
  // to keep the two paths status-identical. For the same reason no
  // conjunct whose can_fail() flag is set may precede one carrying keys.
  // A maintenance transaction that begins after the check can still
  // expire the read on a candidate it rewrote. Returns false (leaving
  // *status untouched) when no index applies; true with the read's status
  // in *status otherwise.
  bool TryStreamViaIndex(const ReaderSession& session,
                         const std::vector<query::BoundExpr>& invariant,
                         ReaderStep* step, const RowSink& sink,
                         SnapshotScanStats* stats, Status* status) const
      EXCLUDES(index_mu_);

  // The one unique-key probe: the Rid whose tuple carries the key bytes
  // `key`, if any.
  std::optional<Rid> IndexLookup(std::string_view key) const
      EXCLUDES(index_mu_);

  // The one physical write of a tuple, and the only caller of TableHeap's
  // Insert, Update and Delete: the tuple at `rid` goes from record
  // `before` to record `after`. A null `before` inserts `after` fresh (the
  // new Rid is returned); a null `after` deletes the tuple, whose record
  // is `before`; with both, `after` overwrites it in place. Maintenance
  // (ApplyDecision), rollback and GC each end in one call. The write keeps
  // the indexes and the tombstone set in step with the heap:
  //  - a physical insert adds the tuple's unique-key entry and secondary
  //    postings; a physical delete removes them first, so an index probe
  //    sees the entry and a live slot or neither, and restores them when
  //    the heap delete fails. An in-place update keeps every non-updatable
  //    byte (§3.1, asserted in paranoid builds), so it moves no entry;
  //  - `rid` is in the tombstone set exactly when slot 0 of `after` is a
  //    delete. An in-place update where neither side's slot 0 is a delete
  //    takes neither the index lock nor the tombstone lock.
  Result<Rid> WriteTuple(Rid rid, const uint8_t* before, const uint8_t* after)
      EXCLUDES(index_mu_, tomb_mu_);

  // Adds (`add`) or removes the unique-key entry and every secondary
  // posting of the tuple `rec` at `rid`, under one index_mu_ acquisition.
  // Keys are the record's bytes of the indexed columns
  // (KeyCodec::FromRecord), the bytes a probe encodes.
  void IndexTuple(const uint8_t* rec, Rid rid, bool add) EXCLUDES(index_mu_);
  // Adds `rid` to, or removes it from, secondary index `s`'s posting list
  // for `key`.
  void MovePosting(size_t s, const std::string& key, Rid rid, bool add)
      REQUIRES(index_mu_);

  // Rollback-without-logging (§7): reverts every tuple stamped with
  // txn_vn. Returns true when the revert was lossless (all pre-states
  // fully reconstructed — guaranteed for n > 2 when history slots were
  // available); false when sessions older than current_vn must be expired.
  // Heap I/O failures surface as a non-OK status instead of aborting.
  // Victims are found by one heap pass on record bytes, reverted with the
  // same byte mutators as maintenance and written back by WriteTuple.
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

  std::string name_;
  VersionedSchema vschema_;
  std::unique_ptr<Table> phys_;
  SessionManager* sessions_;
  ScanMetricsSink* metrics_;
  VnlEngine* engine_;  // scan options + Version relation; may be null

  // Key codecs over the physical record, fixed at construction and read
  // lock-free: the unique key, the non-updatable columns (an update must
  // keep their bytes) and each declared secondary index (§4.3), whose
  // posting maps (parallel vector, same order) live under index_mu_ with
  // the unique-key index.
  KeyCodec key_codec_;
  KeyCodec fixed_codec_;
  std::vector<KeyCodec> secondary_codecs_;

  template <typename T>
  using KeyMap = std::unordered_map<std::string, T, KeyBytesHash,
                                    std::equal_to<>>;

  mutable Mutex index_mu_;
  KeyMap<Rid> key_index_ GUARDED_BY(index_mu_);
  std::vector<KeyMap<std::vector<Rid>>> secondary_postings_
      GUARDED_BY(index_mu_);

  // Tombstone set: Rid -> tupleVN for exactly the tuples whose slot-0
  // operation is delete. Mutated only by WriteTuple; ordered so GC
  // reclaims in Rid order, which is the heap's page order.
  mutable Mutex tomb_mu_;
  std::map<Rid, Vn> tombstones_ GUARDED_BY(tomb_mu_);
};

}  // namespace wvm::core

#endif  // OPENWVM_CORE_VNL_TABLE_H_

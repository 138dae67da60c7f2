#ifndef OPENWVM_CORE_VNL_TABLE_H_
#define OPENWVM_CORE_VNL_TABLE_H_

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
  // A key-addressed write is one per-key step: probe the unique-key index,
  // fetch the tuple, decide a NetEffect from its current row, apply the
  // Tables 2-4 cell. ApplyBatch loops it; Insert is one call of it. The
  // cursor statements Update and Delete bind like a read and share its
  // validate-decide-apply tail. An update is a list of edits to updatable
  // columns, and only those columns are encoded.

  // Logical insert. Resolves unique-key conflicts per Table 2: a live
  // key is kAlreadyExists; a re-insert of a logically deleted key becomes
  // a physical update of its tuple, whose non-updatable attributes were
  // fixed at its insert (§3.1), so a row that changes one is
  // kInvalidArgument naming the column, and nothing is written. Tables
  // without a unique key always take a fresh physical insert.
  Status Insert(MaintenanceTxn* txn, const Row& logical_row);

  // The cursor loops of Examples 4.3-4.4 (§4.2): UPDATE or DELETE every
  // tuple the maintenance transaction sees that satisfies WHERE (all
  // without one); returns how many. The table name is not checked. WHERE
  // and SET bind once; a SET of a non-updatable column is kInvalidArgument
  // (unknown: kNotFound) before anything is read. The cursor is a read at
  // maintenanceVN through SnapshotSelect's reader step, index-routed with
  // no §4.1 window, counted in MaintenanceTxn::Stats; it holds every Rid,
  // in heap order, before the first write, and a tuple stamped after
  // maintenanceVN fails it with kInternal (single-writer check).
  Result<size_t> Update(MaintenanceTxn* txn, const sql::UpdateStmt& stmt,
                        const query::ParamMap& params = {});
  Result<size_t> Delete(MaintenanceTxn* txn, const sql::DeleteStmt& stmt,
                        const query::ParamMap& params = {});

  // Runs the per-key step for each op, in `ops` order: one index probe,
  // at most one page pin and one decision-table transition per key, with
  // `decide` handed the key's current logical row (nullopt when absent or
  // logically deleted). Each effect must pass CheckNetEffect (kNotFound or
  // kInvalidArgument, nothing written). Stops at the first failing key,
  // the keys before it applied. On a table without a unique key the first
  // op fails with kFailedPrecondition.
  Result<BatchApplyStats> ApplyBatch(MaintenanceTxn* txn,
                                     const std::vector<BatchKeyOp>& ops);

  // --- Reader operations (§3.2, Table 1) ----------------------------------

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
  // full query layer). The statement's table name is not checked — the
  // engine routes by name. The read streams serialized records: Table-1
  // resolution, predicates and projection run per tuple in one pass, with
  // every expression bound once (query::BoundExpr). WHERE conjuncts over
  // logical columns are pushed into the pass; those over version-invariant
  // (non-updatable) columns run, in WHERE order, before the row is
  // materialized (`column cmp constant` over an int, string or DATE column
  // on the record bytes), so filtered-out tuples cost no Row copy. The
  // index (see Stream) or one heap pass feeds it, both in heap order.
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

  // §3.1: a re-insert over the logically deleted tuple `before`, writing
  // record `after`, must keep the bytes of each non-updatable column,
  // compared in place; kInvalidArgument names the first that differs.
  Status CheckReviveKeepsFixed(const uint8_t* before,
                               const uint8_t* after) const;

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

  // The per-key step: probes the unique key bytes `key`, fetches its tuple
  // and applies what `decide` returns. Returns the kind applied (kNone:
  // nothing written); kFailedPrecondition on a table without a unique key.
  Result<NetEffect::Kind> ApplyKey(MaintenanceTxn* txn, std::string_view key,
                                   const KeyDecider& decide);

  // The validate-decide-apply tail of ApplyKey and the cursor statements:
  // runs CheckNetEffect on `effect` against `target` (nullopt: no tuple;
  // `key`, when set, is what a kInsert row must carry) and applies its
  // Tables 2-4 cell. A
  // logical action counts once it is applied.
  Status ApplyEffect(MaintenanceTxn* txn, std::optional<std::string_view> key,
                     const NetEffect& effect, std::optional<Target> target);

  // Applies one decision-table cell to `target` (nullptr for Table 2's
  // no-conflict row): edits a copy of its record with the VersionedSchema
  // byte mutators and ends in one WriteTuple. CV <- MV encodes an insert's
  // whole row, or only an update's edited columns.
  Status ApplyDecision(MaintenanceTxn* txn, const MaintenanceDecision& d,
                       Target* target, const NetEffect& effect);

  // The loop of Examples 4.3-4.4 (see Update): collects the cursor of
  // `where`, then updates each tuple by `sets`, or deletes it when null.
  using SetList = std::vector<std::pair<size_t, query::BoundExpr>>;
  Result<size_t> RunCursor(MaintenanceTxn* txn, const sql::Expr* where,
                           const query::ParamMap& params, const SetList* sets);

  // The one Table-1 reader step (vnl_table.cc): every read, a session's or
  // the maintenance cursor's, runs each record's bytes through it —
  // classification, invariant conjuncts in WHERE order, projected
  // materialization, reconstructed conjuncts — and counts what it did. The
  // heap pass (StreamSnapshot) and sorted Rid candidates (StreamCandidates)
  // feed it; each keeps one Row per read, filled in place. A grouped read
  // also gets the row's GROUP BY key bytes, of the version it resolved.
  // The sink sees the row and the key, both valid only for the call.
  class ReaderStep;
  using RowSink = query::KeyedRowSink;

  // Heap pass: one TableHeap::Scan with `sink` run inline, per record, on
  // the calling thread. Publishes the read's counters.
  Status StreamSnapshot(ReaderStep* step, const RowSink& sink,
                        SnapshotScanStats* stats) const;

  // Index-candidate source: runs each Rid (ascending = heap order) through
  // `step`, skipping one reclaimed since the probe. With `key` set (point
  // lookups) a record must still carry those unique key bytes (the
  // slot-reuse guard). Records the read's counters, `lookups` probes and
  // `scans_avoided`; the maintenance cursor's go to its txn's stats.
  Status StreamCandidates(const std::vector<Rid>& rids,
                          std::optional<std::string_view> key,
                          uint64_t lookups, uint64_t scans_avoided,
                          ReaderStep* step, const RowSink& sink,
                          SnapshotScanStats* stats) const;

  // Feeds `step` one read's records in heap order: from the index (§4.3)
  // when the invariant conjuncts bind index keys (BindIndexKeys) and the
  // step is the maintenance cursor or its session is inside the §4.1
  // window (Snapshot::Admits; no tuple resolves kExpired there, and no
  // can_fail() conjunct may precede a binding one, so both sources give
  // one status), else by one heap pass. A maintenance transaction begun
  // after the check can still expire the read on a candidate it rewrote.
  Status Stream(ReaderStep* step,
                const std::vector<query::BoundExpr>& invariant,
                const RowSink& sink, SnapshotScanStats* stats) const
      EXCLUDES(index_mu_);

  // The one unique-key probe: the Rid whose tuple carries the key bytes
  // `key`, if any.
  std::optional<Rid> IndexLookup(std::string_view key) const
      EXCLUDES(index_mu_);

  // The one physical write of a tuple, and the only caller of TableHeap's
  // Insert, Update and Delete: the tuple at `rid` goes from record
  // `before` (null: a fresh insert, whose Rid is returned) to `after`
  // (null: a delete). Maintenance, rollback and GC each end in one call.
  // It keeps the indexes and the tombstone set in step with the heap:
  //  - an insert adds the tuple's unique-key entry and postings; a delete
  //    removes them first (a probe sees the entry and a live slot, or
  //    neither) and restores them when the heap delete fails. An in-place
  //    update keeps every non-updatable byte (§3.1, asserted in paranoid
  //    builds), so it moves no entry;
  //  - `rid` is in the tombstone set exactly when slot 0 of `after` is a
  //    delete; an update with no delete on either side takes no lock.
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
  // txn_vn, found by one heap pass, with maintenance's byte mutators and
  // WriteTuple. True when lossless (guaranteed for n > 2 when history
  // slots were available); false when sessions older than current_vn must
  // be expired. Heap I/O failures surface as a non-OK status.
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
  // lock-free: the unique key, the non-updatable columns (a revive must
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

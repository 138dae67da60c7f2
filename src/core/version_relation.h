#ifndef OPENWVM_CORE_VERSION_RELATION_H_
#define OPENWVM_CORE_VERSION_RELATION_H_

#include <memory>

#include "catalog/table.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/version_meta.h"

namespace wvm::core {

// The paper's §4 global state: a single-tuple, two-attribute Version
// relation holding {currentVN, maintenanceActive}. It is stored in the
// database (through the buffer pool, so reads of it are counted I/O, just
// like the query-rewrite implementation the paper describes) and guarded
// by a latch for the in-memory fast path.
class VersionRelation {
 public:
  // Creates the relation with currentVN = initial_vn, maintenanceActive =
  // false. The paper initializes currentVN to 1; we start at kNoVn = 0 so
  // the initial bulk load itself runs as maintenance transaction 1.
  static Result<std::unique_ptr<VersionRelation>> Create(BufferPool* pool,
                                                         Vn initial_vn = 0);

  Vn current_vn() const EXCLUDES(mu_);
  bool maintenance_active() const EXCLUDES(mu_);

  // Snapshot both attributes atomically (what a reader's global
  // expiration check reads, §4.1).
  struct Snapshot {
    Vn current_vn;
    bool maintenance_active;

    // The §4.1 version window, generalized to nVNL (§5): a session stays
    // valid while it overlaps at most n-1 maintenance transactions, one
    // fewer while a maintenance transaction is active. For n = 2 this is
    // exactly: sessionVN == currentVN, or (sessionVN == currentVN - 1 and
    // not maintenanceActive).
    bool Admits(Vn session_vn, int n) const {
      const Vn oldest = current_vn - (n - 1) + (maintenance_active ? 1 : 0);
      return session_vn >= oldest && session_vn <= current_vn;
    }
  };
  // Reads the stored tuple through the buffer pool (one counted fetch).
  // Fails with the pool's error when it cannot serve the page.
  Result<Snapshot> Read() const EXCLUDES(mu_);
  // The same two attributes from the in-memory copy, taken under the
  // latch without touching the stored tuple: for engine-internal
  // decisions that must not show up as a Version-relation read.
  Snapshot Peek() const EXCLUDES(mu_);

  // The three transitions below write the stored tuple through the
  // buffer pool. When that write fails they return its error and leave
  // {currentVN, maintenanceActive} as they were.

  // Marks a maintenance transaction active. Fails if one already is —
  // the "external protocol" of §2.2 that serializes writers.
  // Returns maintenanceVN = currentVN + 1.
  Result<Vn> BeginMaintenance() EXCLUDES(mu_);

  // Publishes maintenanceVN as the new currentVN and clears the flag.
  // When `separate_txn` is true this mimics the paper's suggested fix for
  // the abort anomaly: currentVN is updated only after the maintenance
  // transaction is durably finished (modelled here as a distinct write).
  Status CommitMaintenance(Vn maintenance_vn) EXCLUDES(mu_);

  // Clears the flag without advancing currentVN (abort path).
  Status AbortMaintenance() EXCLUDES(mu_);

 private:
  VersionRelation() = default;

  // Writes {current_vn, maintenance_active} to the stored tuple and adopts
  // it in memory only once the write succeeded.
  Status Persist(Vn current_vn, bool maintenance_active) REQUIRES(mu_);

  mutable Mutex mu_;
  std::unique_ptr<Table> table_ GUARDED_BY(mu_);
  Rid rid_;  // written once in Create()
  Vn current_vn_ GUARDED_BY(mu_) = 0;
  bool maintenance_active_ GUARDED_BY(mu_) = false;
};

}  // namespace wvm::core

#endif  // OPENWVM_CORE_VERSION_RELATION_H_

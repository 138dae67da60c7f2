#ifndef OPENWVM_STORAGE_TABLE_HEAP_H_
#define OPENWVM_STORAGE_TABLE_HEAP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_set>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace wvm {

// Heap file of fixed-size records chained across pages.
//
// Page layout:
//   [0..3]   next_page_id (int32)
//   [4..5]   record_size  (uint16)
//   [6..7]   capacity     (uint16)
//   [8..8+capacity)           per-slot live flags (1 byte each)
//   [8+capacity .. page end)  records, slot i at offset 8+capacity+i*size
//
// Records are fixed width so updates happen strictly in place — the paper's
// §4 requirement that a scan can never observe two physical records for one
// logical tuple.
class TableHeap {
 public:
  TableHeap(BufferPool* pool, size_t record_size);

  TableHeap(const TableHeap&) = delete;
  TableHeap& operator=(const TableHeap&) = delete;

  size_t record_size() const { return record_size_; }

  // Appends a record; returns its Rid.
  Result<Rid> Insert(const uint8_t* record);

  // Overwrites the record at `rid` in place.
  Status Update(Rid rid, const uint8_t* record);

  // Physically removes the record at `rid` (frees the slot).
  Status Delete(Rid rid);

  // Copies the record at `rid` into `out` (record_size() bytes).
  Status Read(Rid rid, uint8_t* out) const;

  // Invokes `fn(rid, record_bytes)` for every live record, in page order,
  // under a shared page latch. Return false from `fn` to stop the scan.
  // The record pointer is only valid during the callback. A page the
  // buffer pool cannot serve ends the scan with the pool's error.
  //
  // Pages join the chain in allocation order and DiskManager page ids only
  // grow, so the Rids a scan visits ascend strictly, even when heaps
  // sharing a pool allocate interleaved: Rid order is heap order
  // (index-routed reads sort candidates by Rid).
  Status Scan(
      const std::function<bool(Rid, const uint8_t*)>& fn) const;

  // Number of live records.
  uint64_t live_records() const {
    return live_records_.load(std::memory_order_relaxed);
  }
  // Number of pages owned by this heap (storage footprint).
  uint64_t num_pages() const {
    return num_pages_.load(std::memory_order_relaxed);
  }
  // Records that fit on one page — the paper's "fewer tuples fit on a
  // page" effect is capacity-driven.
  size_t records_per_page() const { return capacity_; }

 private:
  struct PageHeader;

  // Picks a page to insert into (may allocate), pinned. Out: page id.
  Result<Page*> PageForInsert(PageId* page_id) EXCLUDES(mu_);

  BufferPool* const pool_;
  const size_t record_size_;
  const uint16_t capacity_;

  mutable Mutex mu_;  // guards chain tail + free set
  PageId first_page_id_ = kInvalidPageId;  // written once in the ctor
  PageId last_page_id_ GUARDED_BY(mu_) = kInvalidPageId;
  std::unordered_set<PageId> pages_with_space_ GUARDED_BY(mu_);

  std::atomic<uint64_t> live_records_{0};
  std::atomic<uint64_t> num_pages_{0};
};

}  // namespace wvm

#endif  // OPENWVM_STORAGE_TABLE_HEAP_H_

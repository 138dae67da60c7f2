#include "storage/table_heap.h"

#include <cstring>

#include "common/logging.h"

namespace wvm {

namespace {

constexpr size_t kHeaderBytes = 8;

int32_t GetNextPageId(const char* page) {
  int32_t v;
  std::memcpy(&v, page, 4);
  return v;
}
void SetNextPageId(char* page, int32_t v) { std::memcpy(page, &v, 4); }

uint8_t* SlotFlags(char* page) {
  return reinterpret_cast<uint8_t*>(page) + kHeaderBytes;
}

char* RecordAt(char* page, uint16_t capacity, size_t record_size,
               uint16_t slot) {
  return page + kHeaderBytes + capacity + slot * record_size;
}

void InitHeapPage(char* page, size_t record_size, uint16_t capacity) {
  SetNextPageId(page, kInvalidPageId);
  const uint16_t rs = static_cast<uint16_t>(record_size);
  std::memcpy(page + 4, &rs, 2);
  std::memcpy(page + 6, &capacity, 2);
  std::memset(page + kHeaderBytes, 0, capacity);
}

}  // namespace

TableHeap::TableHeap(BufferPool* pool, size_t record_size)
    : pool_(pool),
      record_size_(record_size),
      capacity_(static_cast<uint16_t>((kPageSize - kHeaderBytes) /
                                      (record_size + 1))) {
  WVM_CHECK_MSG(record_size_ > 0 && capacity_ > 0,
                "record too large for a page");
  Result<Page*> page = pool_->NewPage();
  WVM_CHECK_MSG(page.ok(), "cannot allocate first heap page");
  Page* p = page.value();
  p->WLatch();
  InitHeapPage(p->data(), record_size_, capacity_);
  p->WUnlatch();
  first_page_id_ = last_page_id_ = p->page_id();
  page_ids_.push_back(p->page_id());
  pages_with_space_.insert(p->page_id());
  num_pages_.store(1);
  pool_->Unpin(p, /*dirty=*/true);
}

Result<Page*> TableHeap::PageForInsert(PageId* page_id) {
  MutexLock lock(mu_);
  if (!pages_with_space_.empty()) {
    *page_id = *pages_with_space_.begin();
    return pool_->FetchPage(*page_id);
  }
  // Extend the chain with a fresh page.
  WVM_ASSIGN_OR_RETURN(Page* fresh, pool_->NewPage());
  fresh->WLatch();
  InitHeapPage(fresh->data(), record_size_, capacity_);
  fresh->WUnlatch();
  const PageId fresh_id = fresh->page_id();

  WVM_ASSIGN_OR_RETURN(Page* tail, pool_->FetchPage(last_page_id_));
  tail->WLatch();
  SetNextPageId(tail->data(), fresh_id);
  tail->WUnlatch();
  pool_->Unpin(tail, /*dirty=*/true);

  last_page_id_ = fresh_id;
  page_ids_.push_back(fresh_id);
  pages_with_space_.insert(fresh_id);
  num_pages_.fetch_add(1, std::memory_order_relaxed);
  *page_id = fresh_id;
  return fresh;
}

Result<Rid> TableHeap::Insert(const uint8_t* record) {
  for (;;) {
    PageId pid = kInvalidPageId;
    WVM_ASSIGN_OR_RETURN(Page* page, PageForInsert(&pid));
    page->WLatch();
    uint8_t* flags = SlotFlags(page->data());
    uint16_t slot = capacity_;
    uint16_t live = 0;
    for (uint16_t i = 0; i < capacity_; ++i) {
      if (flags[i]) {
        ++live;
      } else if (slot == capacity_) {
        slot = i;
      }
    }
    if (slot == capacity_) {
      // Lost a race: the page filled up before we latched it.
      page->WUnlatch();
      pool_->Unpin(page, /*dirty=*/false);
      MutexLock lock(mu_);
      pages_with_space_.erase(pid);
      continue;
    }
    flags[slot] = 1;
    std::memcpy(RecordAt(page->data(), capacity_, record_size_, slot),
                record, record_size_);
    const bool now_full = (live + 1 == capacity_);
    page->WUnlatch();
    pool_->Unpin(page, /*dirty=*/true);
    if (now_full) {
      MutexLock lock(mu_);
      pages_with_space_.erase(pid);
    }
    live_records_.fetch_add(1, std::memory_order_relaxed);
    return Rid{pid, slot};
  }
}

Status TableHeap::Update(Rid rid, const uint8_t* record) {
  WVM_ASSIGN_OR_RETURN(Page* page, pool_->FetchPage(rid.page_id));
  page->WLatch();
  if (rid.slot >= capacity_ || SlotFlags(page->data())[rid.slot] == 0) {
    page->WUnlatch();
    pool_->Unpin(page, /*dirty=*/false);
    return Status::NotFound("update of missing record");
  }
  std::memcpy(RecordAt(page->data(), capacity_, record_size_, rid.slot),
              record, record_size_);
  page->WUnlatch();
  pool_->Unpin(page, /*dirty=*/true);
  return Status::OK();
}

Status TableHeap::Delete(Rid rid) {
  WVM_ASSIGN_OR_RETURN(Page* page, pool_->FetchPage(rid.page_id));
  page->WLatch();
  uint8_t* flags = SlotFlags(page->data());
  if (rid.slot >= capacity_ || flags[rid.slot] == 0) {
    page->WUnlatch();
    pool_->Unpin(page, /*dirty=*/false);
    return Status::NotFound("delete of missing record");
  }
  flags[rid.slot] = 0;
  page->WUnlatch();
  pool_->Unpin(page, /*dirty=*/true);
  {
    MutexLock lock(mu_);
    pages_with_space_.insert(rid.page_id);
  }
  live_records_.fetch_sub(1, std::memory_order_relaxed);
  return Status::OK();
}

Status TableHeap::Read(Rid rid, uint8_t* out) const {
  WVM_ASSIGN_OR_RETURN(Page* page, pool_->FetchPage(rid.page_id));
  page->RLatch();
  if (rid.slot >= capacity_ || SlotFlags(page->data())[rid.slot] == 0) {
    page->RUnlatch();
    pool_->Unpin(page, /*dirty=*/false);
    return Status::NotFound("read of missing record");
  }
  std::memcpy(out, RecordAt(page->data(), capacity_, record_size_, rid.slot),
              record_size_);
  page->RUnlatch();
  pool_->Unpin(page, /*dirty=*/false);
  return Status::OK();
}

Status TableHeap::Scan(
    const std::function<bool(Rid, const uint8_t*)>& fn) const {
  PageId pid = first_page_id_;
  while (pid != kInvalidPageId) {
    WVM_ASSIGN_OR_RETURN(Page* page, pool_->FetchPage(pid));
    page->RLatch();
    const bool keep_going = ScanPage(page, fn);
    const PageId next = GetNextPageId(page->data());
    page->RUnlatch();
    pool_->Unpin(page, /*dirty=*/false);
    if (!keep_going) break;
    pid = next;
  }
  return Status::OK();
}

std::vector<PageId> TableHeap::PageIds() const {
  MutexLock lock(mu_);
  return page_ids_;
}

Status TableHeap::ScanPages(
    const std::vector<PageId>& pages,
    const std::function<bool(Rid, const uint8_t*)>& fn) const {
  for (PageId pid : pages) {
    WVM_ASSIGN_OR_RETURN(Page* page, pool_->FetchPage(pid));
    page->RLatch();
    const bool keep_going = ScanPage(page, fn);
    page->RUnlatch();
    pool_->Unpin(page, /*dirty=*/false);
    if (!keep_going) break;
  }
  return Status::OK();
}

bool TableHeap::ScanPage(
    Page* page, const std::function<bool(Rid, const uint8_t*)>& fn) const {
  const uint8_t* flags = SlotFlags(page->data());
  for (uint16_t slot = 0; slot < capacity_; ++slot) {
    if (!flags[slot]) continue;
    if (!fn(Rid{page->page_id(), slot},
            reinterpret_cast<const uint8_t*>(
                RecordAt(page->data(), capacity_, record_size_, slot)))) {
      return false;
    }
  }
  return true;
}

}  // namespace wvm

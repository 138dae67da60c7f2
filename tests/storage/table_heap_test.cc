#include "storage/table_heap.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>

namespace wvm {
namespace {

class TableHeapTest : public ::testing::Test {
 protected:
  TableHeapTest() : pool_(128, &disk_) {}

  std::vector<uint8_t> MakeRecord(size_t size, uint64_t tag) {
    std::vector<uint8_t> rec(size, 0);
    std::memcpy(rec.data(), &tag, sizeof(tag) < size ? sizeof(tag) : size);
    return rec;
  }

  uint64_t TagOf(const uint8_t* rec) {
    uint64_t tag;
    std::memcpy(&tag, rec, sizeof(tag));
    return tag;
  }

  DiskManager disk_;
  BufferPool pool_;
};

TEST_F(TableHeapTest, InsertReadRoundTrip) {
  TableHeap heap(&pool_, 64);
  auto rec = MakeRecord(64, 0xDEADBEEF);
  Result<Rid> rid = heap.Insert(rec.data());
  ASSERT_TRUE(rid.ok());

  std::vector<uint8_t> out(64);
  ASSERT_TRUE(heap.Read(rid.value(), out.data()).ok());
  EXPECT_EQ(TagOf(out.data()), 0xDEADBEEFu);
  EXPECT_EQ(heap.live_records(), 1u);
}

TEST_F(TableHeapTest, UpdateInPlaceKeepsRid) {
  TableHeap heap(&pool_, 64);
  auto rec = MakeRecord(64, 1);
  Result<Rid> rid = heap.Insert(rec.data());
  ASSERT_TRUE(rid.ok());

  auto rec2 = MakeRecord(64, 2);
  ASSERT_TRUE(heap.Update(rid.value(), rec2.data()).ok());

  std::vector<uint8_t> out(64);
  ASSERT_TRUE(heap.Read(rid.value(), out.data()).ok());
  EXPECT_EQ(TagOf(out.data()), 2u);
  EXPECT_EQ(heap.live_records(), 1u);
}

TEST_F(TableHeapTest, DeleteFreesSlotForReuse) {
  TableHeap heap(&pool_, 64);
  auto rec = MakeRecord(64, 1);
  Result<Rid> rid = heap.Insert(rec.data());
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(heap.Delete(rid.value()).ok());
  EXPECT_EQ(heap.live_records(), 0u);

  std::vector<uint8_t> out(64);
  EXPECT_EQ(heap.Read(rid.value(), out.data()).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(heap.Update(rid.value(), rec.data()).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(heap.Delete(rid.value()).code(), StatusCode::kNotFound);

  // The slot is reused by a later insert.
  Result<Rid> rid2 = heap.Insert(rec.data());
  ASSERT_TRUE(rid2.ok());
  EXPECT_EQ(rid2.value().page_id, rid.value().page_id);
}

TEST_F(TableHeapTest, GrowsAcrossPages) {
  TableHeap heap(&pool_, 512);
  const size_t per_page = heap.records_per_page();
  const size_t total = per_page * 3 + 1;
  std::set<std::pair<PageId, uint16_t>> rids;
  for (size_t i = 0; i < total; ++i) {
    auto rec = MakeRecord(512, i);
    Result<Rid> rid = heap.Insert(rec.data());
    ASSERT_TRUE(rid.ok());
    EXPECT_TRUE(rids.insert({rid.value().page_id, rid.value().slot}).second)
        << "duplicate rid";
  }
  EXPECT_EQ(heap.live_records(), total);
  EXPECT_GE(heap.num_pages(), 4u);
}

TEST_F(TableHeapTest, ScanVisitsAllLiveRecordsOnce) {
  TableHeap heap(&pool_, 128);
  constexpr uint64_t kCount = 300;
  for (uint64_t i = 0; i < kCount; ++i) {
    auto rec = MakeRecord(128, i);
    ASSERT_TRUE(heap.Insert(rec.data()).ok());
  }
  std::set<uint64_t> seen;
  ASSERT_TRUE(heap.Scan([&](Rid, const uint8_t* rec) {
                    EXPECT_TRUE(seen.insert(TagOf(rec)).second);
                    return true;
                  })
                  .ok());
  EXPECT_EQ(seen.size(), kCount);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), kCount - 1);
}

TEST_F(TableHeapTest, ScanEarlyStop) {
  TableHeap heap(&pool_, 64);
  for (uint64_t i = 0; i < 10; ++i) {
    auto rec = MakeRecord(64, i);
    ASSERT_TRUE(heap.Insert(rec.data()).ok());
  }
  int visited = 0;
  ASSERT_TRUE(heap.Scan([&](Rid, const uint8_t*) {
                    ++visited;
                    return visited < 3;
                  })
                  .ok());
  EXPECT_EQ(visited, 3);
}

TEST_F(TableHeapTest, ScanSkipsDeleted) {
  TableHeap heap(&pool_, 64);
  std::vector<Rid> rids;
  for (uint64_t i = 0; i < 10; ++i) {
    auto rec = MakeRecord(64, i);
    Result<Rid> rid = heap.Insert(rec.data());
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  for (size_t i = 0; i < rids.size(); i += 2) {
    ASSERT_TRUE(heap.Delete(rids[i]).ok());
  }
  std::set<uint64_t> seen;
  ASSERT_TRUE(heap.Scan([&](Rid, const uint8_t* rec) {
                    seen.insert(TagOf(rec));
                    return true;
                  })
                  .ok());
  EXPECT_EQ(seen.size(), 5u);
  for (uint64_t tag : seen) EXPECT_EQ(tag % 2, 1u);
}

// A page the pool cannot bring back fails the scan with the pool's error
// instead of aborting the process; once frames free up the scan works.
TEST_F(TableHeapTest, ScanReturnsPoolErrorWhenFramesArePinned) {
  DiskManager disk;
  BufferPool pool(4, &disk);
  TableHeap heap(&pool, 256);
  for (uint64_t i = 0; heap.num_pages() < 3; ++i) {
    auto rec = MakeRecord(256, i);
    ASSERT_TRUE(heap.Insert(rec.data()).ok());
  }
  std::vector<Page*> pinned;
  for (;;) {
    Result<Page*> page = pool.NewPage();
    if (!page.ok()) break;
    pinned.push_back(*page);
  }
  ASSERT_EQ(pinned.size(), pool.pool_size());
  auto visit = [](Rid, const uint8_t*) { return true; };
  EXPECT_EQ(heap.Scan(visit).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(heap.ScanPages(heap.PageIds(), visit).code(),
            StatusCode::kResourceExhausted);
  for (Page* page : pinned) pool.Unpin(page, /*dirty=*/false);
  EXPECT_TRUE(heap.Scan(visit).ok());
  EXPECT_TRUE(heap.ScanPages(heap.PageIds(), visit).ok());
}

// Index-routed reads sort candidates by Rid to emit them in heap order.
// That holds because a heap appends pages in allocation order and page
// ids only grow: each heap's chain is strictly ascending even when heaps
// sharing one pool allocate their pages interleaved.
TEST_F(TableHeapTest, PageIdsAscendWhenHeapsInterleaveAllocation) {
  TableHeap a(&pool_, 1000);
  TableHeap b(&pool_, 1000);
  auto rec = MakeRecord(1000, 1);
  for (size_t i = 0; i < 6 * a.records_per_page(); ++i) {
    ASSERT_TRUE(a.Insert(rec.data()).ok());
    ASSERT_TRUE(b.Insert(rec.data()).ok());
  }
  const std::vector<PageId> pa = a.PageIds();
  const std::vector<PageId> pb = b.PageIds();
  ASSERT_GE(pa.size(), 6u);
  ASSERT_GE(pb.size(), 6u);
  for (const std::vector<PageId>* ids : {&pa, &pb}) {
    for (size_t i = 1; i < ids->size(); ++i) {
      EXPECT_LT((*ids)[i - 1], (*ids)[i]);
    }
  }
  // The allocations really interleaved: each heap's chain skips ids the
  // other heap took.
  EXPECT_LT(pa.front(), pb.front());
  EXPECT_LT(pb.front(), pa[1]);
}

TEST_F(TableHeapTest, RecordsPerPageMatchesLayout) {
  TableHeap heap(&pool_, 100);
  // capacity = (4096 - 8) / (100 + 1) = 40
  EXPECT_EQ(heap.records_per_page(), 40u);
}

TEST_F(TableHeapTest, ConcurrentInsertsProduceDistinctRids) {
  TableHeap heap(&pool_, 64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::vector<Rid>> rids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::vector<uint8_t> rec(64, 0);
        const uint64_t tag = static_cast<uint64_t>(t) << 32 | i;
        std::memcpy(rec.data(), &tag, sizeof(tag));
        Result<Rid> rid = heap.Insert(rec.data());
        ASSERT_TRUE(rid.ok());
        rids[t].push_back(rid.value());
      }
    });
  }
  for (auto& th : threads) th.join();

  std::set<std::pair<PageId, uint16_t>> unique;
  for (const auto& v : rids) {
    for (const Rid& r : v) {
      EXPECT_TRUE(unique.insert({r.page_id, r.slot}).second);
    }
  }
  EXPECT_EQ(heap.live_records(),
            static_cast<uint64_t>(kThreads) * kPerThread);

  // Every record readable with its own tag intact.
  std::vector<uint8_t> out(64);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      ASSERT_TRUE(heap.Read(rids[t][i], out.data()).ok());
      EXPECT_EQ(TagOf(out.data()), static_cast<uint64_t>(t) << 32 | i);
    }
  }
}

TEST_F(TableHeapTest, ConcurrentReadersDuringWrites) {
  TableHeap heap(&pool_, 64);
  std::vector<Rid> rids;
  for (uint64_t i = 0; i < 100; ++i) {
    auto rec = MakeRecord(64, i);
    Result<Rid> rid = heap.Insert(rec.data());
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t round = 1;
    while (!stop.load()) {
      for (const Rid& rid : rids) {
        auto rec = MakeRecord(64, round);
        ASSERT_TRUE(heap.Update(rid, rec.data()).ok());
      }
      ++round;
    }
  });
  // Readers must never observe torn records (tag always a valid round).
  for (int iter = 0; iter < 50; ++iter) {
    EXPECT_TRUE(heap.Scan([&](Rid, const uint8_t* rec) {
                      uint64_t tag = TagOf(rec);
                      EXPECT_LT(tag, 1u << 20);
                      return true;
                    })
                    .ok());
  }
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace wvm

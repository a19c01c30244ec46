#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <list>
#include <span>
#include <string>
#include <vector>

#include "io/block_device.h"
#include "io/buffer_pool.h"
#include "io/stream.h"
#include "util/random.h"

namespace prtree {
namespace {

TEST(BlockDeviceTest, AllocateReadWrite) {
  MemoryBlockDevice dev(512);
  PageId p = dev.Allocate();
  std::vector<std::byte> w(512), r(512);
  std::memset(w.data(), 0xAB, 512);
  ASSERT_TRUE(dev.Write(p, w.data()).ok());
  ASSERT_TRUE(dev.Read(p, r.data()).ok());
  EXPECT_EQ(std::memcmp(w.data(), r.data(), 512), 0);
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().writes, 1u);
}

TEST(BlockDeviceTest, FreshBlocksAreZeroed) {
  MemoryBlockDevice dev(256);
  PageId p = dev.Allocate();
  std::vector<std::byte> w(256);
  std::memset(w.data(), 0xFF, 256);
  ASSERT_TRUE(dev.Write(p, w.data()).ok());
  dev.Free(p);
  PageId q = dev.Allocate();  // reuses p
  EXPECT_EQ(q, p);
  std::vector<std::byte> r(256);
  ASSERT_TRUE(dev.Read(q, r.data()).ok());
  for (auto b : r) EXPECT_EQ(b, std::byte{0});
}

TEST(BlockDeviceTest, FreeListReuseAndPeakAccounting) {
  MemoryBlockDevice dev(256);
  PageId a = dev.Allocate();
  PageId b = dev.Allocate();
  EXPECT_EQ(dev.num_allocated(), 2u);
  dev.Free(a);
  EXPECT_EQ(dev.num_allocated(), 1u);
  PageId c = dev.Allocate();
  EXPECT_EQ(c, a);  // reused
  EXPECT_EQ(dev.peak_allocated(), 2u);
  dev.Free(b);
  dev.Free(c);
  EXPECT_EQ(dev.num_allocated(), 0u);
  EXPECT_EQ(dev.peak_allocated(), 2u);
}

TEST(BlockDeviceTest, ReadOfUnallocatedPageFails) {
  MemoryBlockDevice dev(256);
  std::vector<std::byte> buf(256);
  EXPECT_FALSE(dev.Read(17, buf.data()).ok());
  PageId p = dev.Allocate();
  dev.Free(p);
  EXPECT_FALSE(dev.Read(p, buf.data()).ok());
  EXPECT_FALSE(dev.Write(p, buf.data()).ok());
}

TEST(BlockDeviceTest, InjectedFaultSurfacesAsIoError) {
  MemoryBlockDevice dev(256);
  PageId p = dev.Allocate();
  std::vector<std::byte> buf(256);
  dev.InjectReadFault(p);
  Status st = dev.Read(p, buf.data());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  dev.ClearFaults();
  EXPECT_TRUE(dev.Read(p, buf.data()).ok());
}

TEST(BufferPoolTest, HitsAvoidDeviceReads) {
  MemoryBlockDevice dev(256);
  PageId p = dev.Allocate();
  BufferPool pool(&dev, 4);
  {
    PageGuard g;
    ASSERT_TRUE(pool.Pin(p, &g).ok());
  }
  uint64_t reads_after_miss = dev.stats().reads;
  for (int i = 0; i < 10; ++i) {
    PageGuard g;
    ASSERT_TRUE(pool.Pin(p, &g).ok());
    EXPECT_EQ(g.page(), p);
  }
  EXPECT_EQ(dev.stats().reads, reads_after_miss);  // all hits
  EXPECT_EQ(pool.hits(), 10u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  MemoryBlockDevice dev(256);
  std::vector<PageId> pages;
  for (int i = 0; i < 3; ++i) pages.push_back(dev.Allocate());
  // One shard: a single deterministic LRU over all three pages.
  BufferPool pool(&dev, 2, /*num_shards=*/1);
  auto touch = [&](PageId p) {
    PageGuard g;
    ASSERT_TRUE(pool.Pin(p, &g).ok());  // guard drops at end of scope
  };
  touch(pages[0]);  // miss
  touch(pages[1]);  // miss
  touch(pages[0]);  // hit; 0 is now MRU
  touch(pages[2]);  // miss; evicts 1
  touch(pages[0]);  // still cached
  EXPECT_EQ(pool.hits(), 2u);
  touch(pages[1]);  // miss again
  EXPECT_EQ(pool.misses(), 4u);
}

TEST(BufferPoolTest, ZeroCapacityStillPinsCorrectly) {
  MemoryBlockDevice dev(256);
  PageId p = dev.Allocate();
  std::vector<std::byte> content(256);
  std::memset(content.data(), 0x3C, 256);
  ASSERT_TRUE(dev.Write(p, content.data()).ok());
  BufferPool pool(&dev, 0);
  // Every pin is a device read (no caching), but the guard still holds a
  // valid pinned copy for as long as the caller keeps it.
  PageGuard keep;
  ASSERT_TRUE(pool.Pin(p, &keep).ok());
  for (int i = 0; i < 2; ++i) {
    PageGuard g;
    ASSERT_TRUE(pool.Pin(p, &g).ok());
    EXPECT_EQ(g.data()[0], std::byte{0x3C});
  }
  EXPECT_EQ(pool.misses(), 3u);
  EXPECT_EQ(dev.stats().reads, 3u);
  EXPECT_EQ(pool.size(), 0u);  // nothing cached
  EXPECT_EQ(keep.data()[0], std::byte{0x3C});  // long-lived pin still valid
}

TEST(BufferPoolTest, InvalidateDropsStaleData) {
  MemoryBlockDevice dev(256);
  PageId p = dev.Allocate();
  BufferPool pool(&dev, 2);
  {
    PageGuard g;
    ASSERT_TRUE(pool.Pin(p, &g).ok());
  }
  std::vector<std::byte> buf(256);
  std::memset(buf.data(), 0x5A, 256);
  ASSERT_TRUE(dev.Write(p, buf.data()).ok());
  pool.Invalidate(p);
  PageGuard g;
  ASSERT_TRUE(pool.Pin(p, &g).ok());
  EXPECT_EQ(g.data()[0], std::byte{0x5A});
}

TEST(BlockDeviceTest, ReadBatchMatchesScalarReadsAndAccounting) {
  MemoryBlockDevice dev(256);
  std::vector<PageId> pages;
  std::vector<std::byte> block(256);
  for (int i = 0; i < 4; ++i) {
    pages.push_back(dev.Allocate());
    std::memset(block.data(), 0x40 + i, 256);
    ASSERT_TRUE(dev.Write(pages.back(), block.data()).ok());
  }
  dev.ResetStats();

  std::vector<std::vector<std::byte>> bufs(4, std::vector<std::byte>(256));
  std::vector<BlockReadRequest> reqs(4);
  for (int i = 0; i < 4; ++i) {
    reqs[i].page = pages[i];
    reqs[i].buf = bufs[i].data();
  }
  ASSERT_TRUE(dev.ReadBatch(reqs.data(), reqs.size()).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(bufs[i][0], static_cast<std::byte>(0x40 + i));
  }
  EXPECT_EQ(dev.stats().reads, 4u);  // one demand read per request

  // The prefetch kind moves the same bytes but charges the other counter.
  dev.ResetStats();
  ASSERT_TRUE(
      dev.ReadBatch(reqs.data(), reqs.size(), ReadKind::kPrefetch).ok());
  EXPECT_EQ(dev.stats().reads, 0u);
  EXPECT_EQ(dev.stats().prefetch_reads, 4u);
  EXPECT_EQ(dev.stats().Total(), 0u);  // the paper's metric: demand only
  EXPECT_EQ(dev.stats().TotalTransfers(), 4u);

  // Per-request failure: the rest of the batch is still served.
  dev.InjectReadFault(pages[1]);
  dev.ResetStats();
  Status st = dev.ReadBatch(reqs.data(), reqs.size());
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(reqs[1].status.ok());
  EXPECT_TRUE(reqs[0].status.ok());
  EXPECT_TRUE(reqs[3].status.ok());
  EXPECT_EQ(dev.stats().reads, 3u);  // only successes are charged
}

TEST(BufferPoolTest, PrefetchStagesUnpinnedFramesAndPinsBecomeHits) {
  MemoryBlockDevice dev(256);
  std::vector<PageId> pages;
  std::vector<std::byte> block(256);
  for (int i = 0; i < 3; ++i) {
    pages.push_back(dev.Allocate());
    std::memset(block.data(), 0x60 + i, 256);
    ASSERT_TRUE(dev.Write(pages.back(), block.data()).ok());
  }
  BufferPool pool(&dev, 4, /*num_shards=*/1);
  dev.ResetStats();

  EXPECT_EQ(pool.Prefetch(std::span<const PageId>(pages)), 3u);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.pinned(), 0u);  // staged frames are unpinned
  EXPECT_EQ(pool.prefetch_staged(), 3u);
  EXPECT_EQ(dev.stats().reads, 0u);  // charged as prefetch, not demand
  EXPECT_EQ(dev.stats().prefetch_reads, 3u);

  // Pinning a staged page is a hit — no demand read — and counts the
  // prefetch as useful.
  for (int i = 0; i < 3; ++i) {
    PageGuard g;
    ASSERT_TRUE(pool.Pin(pages[i], &g).ok());
    EXPECT_EQ(g.data()[0], static_cast<std::byte>(0x60 + i));
  }
  EXPECT_EQ(pool.hits(), 3u);
  EXPECT_EQ(pool.misses(), 0u);
  EXPECT_EQ(dev.stats().reads, 0u);
  EXPECT_EQ(pool.prefetch_useful(), 3u);

  // Re-prefetching cached pages is a no-op (no extra transfers).
  EXPECT_EQ(pool.Prefetch(std::span<const PageId>(pages)), 0u);
  EXPECT_EQ(dev.stats().prefetch_reads, 3u);
}

TEST(BufferPoolTest, PrefetchRespectsCapacityAndPins) {
  MemoryBlockDevice dev(256);
  std::vector<PageId> pages;
  for (int i = 0; i < 8; ++i) pages.push_back(dev.Allocate());
  BufferPool pool(&dev, 2, /*num_shards=*/1);

  // Both frames pinned: nothing is evictable, nothing can be staged — and
  // no device transfer may be issued for pages that provably have nowhere
  // to go (the kernel still gets an advisory PrefetchHint, which is free
  // on the memory backend).
  PageGuard g0, g1;
  ASSERT_TRUE(pool.Pin(pages[0], &g0).ok());
  ASSERT_TRUE(pool.Pin(pages[1], &g1).ok());
  dev.ResetStats();
  EXPECT_EQ(pool.Prefetch(std::span<const PageId>(pages).subspan(2)), 0u);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(dev.stats().prefetch_reads, 0u);  // planned nothing, read nothing

  // With the pins dropped, staging caps at capacity and evicts only LRU
  // unpinned frames.
  g0.Release();
  g1.Release();
  size_t staged = pool.Prefetch(std::span<const PageId>(pages).subspan(2));
  EXPECT_LE(staged, 2u);
  EXPECT_GE(staged, 1u);
  EXPECT_LE(pool.size(), 2u);
  EXPECT_EQ(pool.pinned(), 0u);

  // A capacity-0 pool never stages (there is nowhere to put a frame).
  BufferPool uncached(&dev, 0);
  EXPECT_EQ(uncached.Prefetch(std::span<const PageId>(pages)), 0u);
}

// A miss whose device read fails must leave a full shard exactly as it
// was: the frame it would have reused keeps its page and its LRU place.
TEST(BufferPoolTest, FailedMissOnAFullShardLeavesThePoolAsItWas) {
  MemoryBlockDevice dev(256);
  std::vector<PageId> pages;
  std::vector<std::byte> block(256);
  for (int i = 0; i < 4; ++i) {
    pages.push_back(dev.Allocate());
    std::memset(block.data(), 0x20 + i, 256);
    ASSERT_TRUE(dev.Write(pages.back(), block.data()).ok());
  }
  BufferPool pool(&dev, 3, /*num_shards=*/1);
  auto touch = [&](int i) {
    PageGuard g;
    ASSERT_TRUE(pool.Pin(pages[i], &g).ok());
    EXPECT_EQ(g.data()[255], static_cast<std::byte>(0x20 + i));
  };
  touch(0);
  touch(1);
  touch(2);  // LRU order, most recent first: 2, 1, 0

  dev.InjectReadFault(pages[3]);
  {
    PageGuard g;
    Status st = pool.Pin(pages[3], &g);
    EXPECT_EQ(st.code(), StatusCode::kIoError);
    EXPECT_FALSE(g.valid());
  }
  dev.ClearFaults();
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.pinned(), 0u);
  EXPECT_EQ(pool.misses(), 4u);  // the failed miss still counts

  touch(0);  // the frame the miss would have reused still hits: 0, 2, 1
  EXPECT_EQ(pool.hits(), 1u);
  touch(3);  // reuses 1's frame: 3, 0, 2
  touch(2);
  touch(0);
  EXPECT_EQ(pool.hits(), 3u);
  touch(1);  // 1 was the least recently used
  EXPECT_EQ(pool.misses(), 6u);
}

// A plain exact-LRU model of the pool: per shard, a list of frames most
// recently used first (found by linear search) plus the pinned frames
// that Invalidate/Clear detached.  Eviction erases the victim and inserts
// a new frame, as a textbook LRU does.
class PoolModel {
 public:
  struct Frame {
    PageId page;
    uint8_t version;  // the page's fill byte when this frame read it
    int pins;
    bool prefetched;
    bool detached;
  };

  PoolModel(size_t capacity, size_t num_shards) : shards_(num_shards) {
    for (size_t i = 0; i < num_shards; ++i) {
      shards_[i].capacity =
          capacity / num_shards + (i < capacity % num_shards ? 1 : 0);
    }
    total_capacity_ = capacity;
  }

  // The frame now pinned for `page` (nullptr: an unpooled copy), or
  // false when the read fails.
  bool Pin(PageId page, uint8_t version, bool read_ok, Frame** out) {
    Shard& s = ShardFor(page);
    auto it = Find(&s, page);
    if (it != s.lru.end()) {
      ++hits;
      s.lru.splice(s.lru.begin(), s.lru, it);
      if (it->prefetched) {
        it->prefetched = false;
        ++prefetch_useful;
      }
      ++it->pins;
      *out = &*it;
      return true;
    }
    ++misses;
    if (!read_ok) return false;
    *out = Insert(&s, Frame{page, version, 1, false, false});
    return true;
  }

  void Unpin(Frame* f) {
    if (--f->pins > 0 || !f->detached) return;
    for (Shard& s : shards_) {
      s.detached.remove_if([f](const Frame& d) { return &d == f; });
    }
  }

  void Invalidate(PageId page) {
    Shard& s = ShardFor(page);
    auto it = Find(&s, page);
    if (it != s.lru.end()) Drop(&s, it);
  }

  void Clear() {
    for (Shard& s : shards_) {
      while (!s.lru.empty()) Drop(&s, s.lru.begin());
    }
  }

  // Prefetch's plan, read and stage steps; `failed` pages fail to read.
  size_t Prefetch(const std::vector<PageId>& pages,
                  const std::vector<uint8_t>& versions, PageId failed) {
    if (total_capacity_ == 0) return 0;
    std::vector<std::vector<PageId>> planned(shards_.size());
    std::vector<PageId> seen;
    for (size_t si = 0; si < shards_.size(); ++si) {
      Shard& s = shards_[si];
      size_t stageable = s.capacity;
      for (const Frame& f : s.lru) stageable -= f.pins > 0 ? 1 : 0;
      for (PageId p : pages) {
        if (p % shards_.size() != si) continue;
        if (std::find(seen.begin(), seen.end(), p) != seen.end()) continue;
        seen.push_back(p);
        if (Find(&s, p) != s.lru.end()) continue;
        if (planned[si].size() < stageable) planned[si].push_back(p);
      }
    }
    size_t staged = 0;
    for (size_t si = 0; si < shards_.size(); ++si) {
      for (PageId p : planned[si]) {
        if (p == failed) continue;
        if (Insert(&shards_[si], Frame{p, versions[p], 0, true, false})) {
          ++prefetch_staged;
          ++staged;
        }
      }
    }
    return staged;
  }

  size_t size() const {
    size_t n = 0;
    for (const Shard& s : shards_) n += s.lru.size();
    return n;
  }
  size_t pinned() const {
    size_t n = 0;
    for (const Shard& s : shards_) {
      for (const Frame& f : s.lru) n += f.pins > 0 ? 1 : 0;
      n += s.detached.size();
    }
    return n;
  }

  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t prefetch_staged = 0;
  uint64_t prefetch_useful = 0;

 private:
  struct Shard {
    size_t capacity = 0;
    std::list<Frame> lru;
    std::list<Frame> detached;
  };

  Shard& ShardFor(PageId page) { return shards_[page % shards_.size()]; }
  static std::list<Frame>::iterator Find(Shard* s, PageId page) {
    return std::find_if(s->lru.begin(), s->lru.end(),
                        [page](const Frame& f) { return f.page == page; });
  }
  // Caches `frame` at the LRU front, first erasing the least recently
  // used unpinned frame if the shard is full; nullptr if all are pinned.
  static Frame* Insert(Shard* s, const Frame& frame) {
    if (s->lru.size() >= s->capacity) {
      auto victim = std::find_if(s->lru.rbegin(), s->lru.rend(),
                                 [](const Frame& f) { return f.pins == 0; });
      if (victim == s->lru.rend()) return nullptr;
      s->lru.erase(std::next(victim).base());
    }
    s->lru.push_front(frame);
    return &s->lru.front();
  }
  static void Drop(Shard* s, std::list<Frame>::iterator it) {
    if (it->pins == 0) {
      s->lru.erase(it);
    } else {
      it->detached = true;
      s->detached.splice(s->detached.begin(), s->lru, it);
    }
  }

  std::vector<Shard> shards_;
  size_t total_capacity_ = 0;
};

// Random Pins (some guards held across steps, some reads failing),
// Invalidates after device updates, Clears and Prefetches, checked after
// every step against PoolModel: hits, misses, size(), pinned(), the
// prefetch counters and the bytes under every live guard.
TEST(BufferPoolTest, MatchesAnExactLruModelUnderRandomOperations) {
  constexpr size_t kBlock = 64;
  constexpr int kPages = 13;
  for (size_t capacity : {size_t{0}, size_t{1}, size_t{7}}) {
    for (size_t shards : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + ", shards " +
                   std::to_string(shards));
      MemoryBlockDevice dev(kBlock);
      std::vector<uint8_t> version(kPages);
      std::vector<std::byte> block(kBlock);
      auto write = [&](PageId p, uint8_t v) {
        version[p] = v;
        std::memset(block.data(), v, kBlock);
        ASSERT_TRUE(dev.Write(p, block.data()).ok());
      };
      for (int i = 0; i < kPages; ++i) {
        ASSERT_EQ(dev.Allocate(), static_cast<PageId>(i));
        write(i, static_cast<uint8_t>(16 * i));
      }
      BufferPool pool(&dev, capacity, shards);
      PoolModel model(capacity, pool.num_shards());
      struct Held {
        PageGuard guard;
        PoolModel::Frame* frame;  // nullptr: an unpooled copy
        uint8_t version;
      };
      std::list<Held> held;
      Rng rng(capacity * 10 + shards);
      auto random_page = [&] {
        return static_cast<PageId>(rng.UniformInt(0, kPages - 1));
      };

      for (int step = 0; step < 3000; ++step) {
        const uint64_t op = rng.UniformInt(0, 99);
        if (op < 55) {
          const PageId p = random_page();
          const bool fail = rng.Chance(0.1);
          if (fail) dev.InjectReadFault(p);
          Held h{PageGuard(), nullptr, version[p]};
          const bool ok = model.Pin(p, version[p], !fail, &h.frame);
          if (h.frame != nullptr) h.version = h.frame->version;
          ASSERT_EQ(pool.Pin(p, &h.guard).ok(), ok) << step;
          dev.ClearFaults();
          if (ok) {
            ASSERT_EQ(h.guard.page(), p);
            if (held.size() < 3 && rng.Chance(0.4)) {
              held.push_back(std::move(h));
            } else {
              EXPECT_EQ(h.guard.data()[kBlock - 1],
                        static_cast<std::byte>(h.version));
              h.guard.Release();
              if (h.frame != nullptr) model.Unpin(h.frame);
            }
          }
        } else if (op < 65) {
          if (!held.empty()) {
            auto it = held.begin();
            std::advance(it, rng.UniformInt(0, held.size() - 1));
            it->guard.Release();
            if (it->frame != nullptr) model.Unpin(it->frame);
            held.erase(it);
          }
        } else if (op < 78) {
          const PageId p = random_page();
          if (rng.Chance(0.5)) write(p, static_cast<uint8_t>(version[p] + 1));
          pool.Invalidate(p);
          model.Invalidate(p);
        } else if (op < 80) {
          pool.Clear();
          model.Clear();
        } else {
          std::vector<PageId> pages(rng.UniformInt(1, 6));
          for (PageId& p : pages) p = random_page();
          const PageId failed = rng.Chance(0.2) ? pages[0] : kInvalidPageId;
          if (failed != kInvalidPageId) dev.InjectReadFault(failed);
          EXPECT_EQ(pool.Prefetch(std::span<const PageId>(pages)),
                    model.Prefetch(pages, version, failed))
              << step;
          dev.ClearFaults();
        }

        ASSERT_EQ(pool.hits(), model.hits) << step;
        ASSERT_EQ(pool.misses(), model.misses) << step;
        ASSERT_EQ(pool.size(), model.size()) << step;
        ASSERT_EQ(pool.pinned(), model.pinned()) << step;
        ASSERT_EQ(pool.prefetch_staged(), model.prefetch_staged) << step;
        ASSERT_EQ(pool.prefetch_useful(), model.prefetch_useful) << step;
        for (const Held& h : held) {
          ASSERT_EQ(h.guard.data()[0], static_cast<std::byte>(h.version));
          ASSERT_EQ(h.guard.data()[kBlock - 1],
                    static_cast<std::byte>(h.version));
        }
      }
      for (Held& h : held) h.guard.Release();
      EXPECT_EQ(pool.pinned(), 0u);
    }
  }
}

struct TestRec {
  uint64_t key;
  uint32_t payload;
};

TEST(StreamTest, RoundTripAndBlockCounting) {
  MemoryBlockDevice dev(256);  // 256/12... TestRec is 16 bytes padded -> 16/block
  Stream<TestRec> s(&dev);
  const size_t n = 1000;
  for (size_t i = 0; i < n; ++i) {
    s.Push(TestRec{i, static_cast<uint32_t>(i * 7)});
  }
  s.Flush();
  EXPECT_EQ(s.size(), n);
  EXPECT_EQ(s.num_blocks(), (n + s.records_per_block() - 1) /
                                s.records_per_block());
  std::vector<TestRec> all;
  s.ReadAll(&all);
  ASSERT_EQ(all.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(all[i].key, i);
    EXPECT_EQ(all[i].payload, i * 7);
  }
}

TEST(StreamTest, ReadRangeTouchesOnlyNeededBlocks) {
  MemoryBlockDevice dev(256);
  Stream<TestRec> s(&dev);
  for (size_t i = 0; i < 512; ++i) s.Push(TestRec{i, 0});
  s.Flush();
  size_t per_block = s.records_per_block();
  dev.ResetStats();
  std::vector<TestRec> out;
  s.ReadRange(0, per_block, &out);  // exactly one block
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(out.size(), per_block);
  dev.ResetStats();
  s.ReadRange(per_block - 1, 2, &out);  // straddles a boundary
  EXPECT_EQ(dev.stats().reads, 2u);
  EXPECT_EQ(out[0].key, per_block - 1);
  EXPECT_EQ(out[1].key, per_block);
}

TEST(StreamTest, SequentialReaderCostsOneReadPerBlock) {
  MemoryBlockDevice dev(256);
  Stream<TestRec> s(&dev);
  const size_t n = 333;
  for (size_t i = 0; i < n; ++i) s.Push(TestRec{i, 0});
  s.Flush();
  dev.ResetStats();
  Stream<TestRec>::Reader reader(&s);
  size_t count = 0;
  uint64_t expect = 0;
  while (!reader.Done()) {
    EXPECT_EQ(reader.Next().key, expect++);
    ++count;
  }
  EXPECT_EQ(count, n);
  EXPECT_EQ(dev.stats().reads, s.num_blocks());
}

// ReadBlock serves scans that visit blocks out of order: one device read
// per call into the caller's buffer, which may be reused across blocks.
TEST(StreamTest, ReadBlockReadsOneBlockIntoTheCallersBuffer) {
  MemoryBlockDevice dev(256);
  Stream<TestRec> s(&dev);
  const size_t n = 333;  // 16 per block: 20 full blocks and 13 records
  for (size_t i = 0; i < n; ++i) s.Push(TestRec{i, 0});
  s.Flush();
  const size_t per_block = s.records_per_block();
  ASSERT_EQ(s.num_blocks(), 21u);
  std::vector<std::byte> buf(dev.block_size());
  const auto key = [&](size_t i) {
    TestRec r;
    std::memcpy(&r, buf.data() + i * sizeof(TestRec), sizeof(TestRec));
    return r.key;
  };
  for (const size_t block : {size_t{3}, size_t{20}, size_t{0}, size_t{3}}) {
    SCOPED_TRACE(block);
    dev.ResetStats();
    const size_t count = s.ReadBlock(block, buf.data());
    EXPECT_EQ(dev.stats().reads, 1u);
    EXPECT_EQ(count, block == 20 ? n - 20 * per_block : per_block);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(key(i), block * per_block + i);
    }
  }
}

TEST(StreamDeathTest, ReadBlockPastTheEndIsRefused) {
  MemoryBlockDevice dev(256);
  Stream<TestRec> s(&dev);
  for (size_t i = 0; i < 40; ++i) s.Push(TestRec{i, 0});
  s.Flush();
  std::vector<std::byte> buf(dev.block_size());
  EXPECT_DEATH(s.ReadBlock(s.num_blocks(), buf.data()),
               "block < num_blocks\\(\\)");
}

TEST(StreamTest, ClearFreesBlocks) {
  MemoryBlockDevice dev(256);
  size_t before = dev.num_allocated();
  {
    Stream<TestRec> s(&dev);
    for (size_t i = 0; i < 100; ++i) s.Push(TestRec{i, 0});
    s.Flush();
    EXPECT_GT(dev.num_allocated(), before);
    s.Clear();
    EXPECT_EQ(dev.num_allocated(), before);
    // Stream is writable again after Clear.
    s.Push(TestRec{1, 1});
    s.Flush();
  }
  EXPECT_EQ(dev.num_allocated(), before);  // destructor frees
}

TEST(StreamTest, MoveTransfersOwnership) {
  MemoryBlockDevice dev(256);
  Stream<TestRec> a(&dev);
  for (size_t i = 0; i < 50; ++i) a.Push(TestRec{i, 0});
  a.Flush();
  Stream<TestRec> b = std::move(a);
  EXPECT_EQ(b.size(), 50u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): documented reset
  std::vector<TestRec> out;
  b.ReadAll(&out);
  EXPECT_EQ(out.size(), 50u);
}

TEST(StreamTest, EmptyStream) {
  MemoryBlockDevice dev(256);
  Stream<TestRec> s(&dev);
  s.Flush();
  EXPECT_TRUE(s.empty());
  std::vector<TestRec> out;
  s.ReadAll(&out);
  EXPECT_TRUE(out.empty());
  Stream<TestRec>::Reader reader(&s);
  EXPECT_TRUE(reader.Done());
}

TEST(BlockDeviceTest, WriteBatchMatchesScalarWritesAndAccounting) {
  // The default (scalar-loop) WriteBatch on the memory backend: per-request
  // status, one demand write per success, one audit batch tick per call.
  MemoryBlockDevice dev(256);
  const size_t kPages = 5;
  std::vector<PageId> pages;
  for (size_t i = 0; i < kPages; ++i) pages.push_back(dev.Allocate());
  dev.ResetStats();

  std::vector<std::vector<std::byte>> bufs(kPages,
                                           std::vector<std::byte>(256));
  std::vector<BlockWriteRequest> reqs(kPages);
  for (size_t i = 0; i < kPages; ++i) {
    std::memset(bufs[i].data(), 0x40 + static_cast<int>(i), 256);
    reqs[i].page = pages[i];
    reqs[i].buf = bufs[i].data();
  }
  ASSERT_TRUE(dev.WriteBatch(reqs.data(), reqs.size()).ok());

  IoStats stats = dev.stats();
  EXPECT_EQ(stats.writes, kPages);
  EXPECT_EQ(stats.write_batches, 1u);
  // write_batches is audit-only: excluded from both totals.
  EXPECT_EQ(stats.Total(), kPages);
  EXPECT_EQ(stats.TotalTransfers(), kPages);

  std::vector<std::byte> r(256);
  for (size_t i = 0; i < kPages; ++i) {
    ASSERT_TRUE(dev.Read(pages[i], r.data()).ok());
    EXPECT_EQ(std::memcmp(r.data(), bufs[i].data(), 256), 0) << "page " << i;
  }
}

TEST(BlockDeviceTest, WriteBatchPartialFailuresMatchScalarWrites) {
  // An unallocated page and an injected write fault inside a batch fail
  // per-request — the rest of the batch lands, and the counters charge only
  // the successes, exactly like the same sequence of Write() calls.
  MemoryBlockDevice dev(256);
  PageId a = dev.Allocate();
  PageId b = dev.Allocate();
  PageId c = dev.Allocate();
  dev.InjectWriteFault(b);
  dev.ResetStats();

  std::vector<std::byte> buf(256);
  std::memset(buf.data(), 0x7E, 256);
  BlockWriteRequest reqs[4];
  reqs[0] = {a, buf.data(), Status::OK()};
  reqs[1] = {b, buf.data(), Status::OK()};         // injected fault
  reqs[2] = {PageId{999}, buf.data(), Status::OK()};  // unallocated
  reqs[3] = {c, buf.data(), Status::OK()};
  EXPECT_FALSE(dev.WriteBatch(reqs, 4).ok());
  EXPECT_TRUE(reqs[0].status.ok());
  EXPECT_FALSE(reqs[1].status.ok());
  EXPECT_FALSE(reqs[2].status.ok());
  EXPECT_TRUE(reqs[3].status.ok());
  EXPECT_EQ(dev.stats().writes, 2u);
  EXPECT_EQ(dev.stats().write_batches, 1u);

  // The scalar path honours the same injected fault...
  EXPECT_FALSE(dev.Write(b, buf.data()).ok());
  // ...and ClearFaults lifts it.
  dev.ClearFaults();
  EXPECT_TRUE(dev.Write(b, buf.data()).ok());
}

TEST(WriteStagerTest, PassthroughWhenBatchingBuysNothing) {
  // PreferredWriteBatch() == 1 (every non-uring backend): Stage == Write,
  // no buffering, no batch submissions.
  MemoryBlockDevice dev(256);
  PageId p = dev.Allocate();
  std::vector<std::byte> buf(256);
  std::memset(buf.data(), 0x11, 256);
  WriteStager stager(&dev);
  EXPECT_EQ(stager.capacity(), 1u);
  stager.Stage(p, buf.data());
  EXPECT_EQ(stager.staged(), 0u);
  EXPECT_EQ(dev.stats().writes, 1u);
  EXPECT_EQ(dev.stats().write_batches, 0u);
}

TEST(WriteStagerTest, DrainsFullBatchesInStagingOrder) {
  MemoryBlockDevice dev(256);
  const size_t kPages = 10;
  std::vector<PageId> pages;
  for (size_t i = 0; i < kPages; ++i) pages.push_back(dev.Allocate());
  dev.ResetStats();

  std::vector<std::byte> buf(256);
  {
    WriteStager stager(&dev, /*capacity=*/4);
    for (size_t i = 0; i < kPages; ++i) {
      std::memset(buf.data(), 0x30 + static_cast<int>(i), 256);
      stager.Stage(pages[i], buf.data());
    }
    // 10 pages at capacity 4: two full drains so far, 2 still staged.
    EXPECT_EQ(stager.staged(), 2u);
    EXPECT_EQ(dev.stats().writes, 8u);
    EXPECT_EQ(dev.stats().write_batches, 2u);
  }  // destructor drains the tail

  EXPECT_EQ(dev.stats().writes, kPages);
  EXPECT_EQ(dev.stats().write_batches, 3u);
  std::vector<std::byte> r(256);
  for (size_t i = 0; i < kPages; ++i) {
    ASSERT_TRUE(dev.Read(pages[i], r.data()).ok());
    EXPECT_EQ(r[0], static_cast<std::byte>(0x30 + static_cast<int>(i)))
        << "page " << i;
  }
}

TEST(WriteStagerTest, MoveTransfersStagedPages) {
  MemoryBlockDevice dev(256);
  PageId p = dev.Allocate();
  PageId q = dev.Allocate();
  std::vector<std::byte> buf(256);
  std::memset(buf.data(), 0x55, 256);
  WriteStager a(&dev, /*capacity=*/8);
  a.Stage(p, buf.data());
  std::memset(buf.data(), 0x66, 256);
  a.Stage(q, buf.data());
  WriteStager b = std::move(a);
  EXPECT_EQ(b.staged(), 2u);
  b.Drain();
  EXPECT_EQ(dev.stats().writes, 2u);
  std::vector<std::byte> r(256);
  ASSERT_TRUE(dev.Read(q, r.data()).ok());
  EXPECT_EQ(r[0], std::byte{0x66});
}

TEST(FaultInjectionTest, TornWriteLandsPrefixOnceThenHeals) {
  MemoryBlockDevice dev(256);
  PageId p = dev.Allocate();
  std::vector<std::byte> a(256, std::byte{0xAA});
  std::vector<std::byte> b(256, std::byte{0xBB});
  ASSERT_TRUE(dev.Write(p, a.data()).ok());

  dev.InjectTornWrite(p, 100);
  ASSERT_TRUE(dev.Write(p, b.data()).ok());  // reports success anyway
  std::vector<std::byte> got(256);
  ASSERT_TRUE(dev.Read(p, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), b.data(), 100), 0);
  EXPECT_EQ(std::memcmp(got.data() + 100, a.data() + 100, 156), 0);

  // One-shot: the next write of the same page lands whole.
  ASSERT_TRUE(dev.Write(p, b.data()).ok());
  ASSERT_TRUE(dev.Read(p, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), b.data(), 256), 0);
}

TEST(FaultInjectionTest, CrashAfterNWritesDropsSilently) {
  MemoryBlockDevice dev(256);
  PageId p = dev.Allocate();
  PageId q = dev.Allocate();
  std::vector<std::byte> a(256, std::byte{0x11});
  std::vector<std::byte> b(256, std::byte{0x22});
  ASSERT_TRUE(dev.Write(p, a.data()).ok());
  ASSERT_TRUE(dev.Write(q, a.data()).ok());

  dev.InjectCrashAfterWrites(1);
  EXPECT_FALSE(dev.crash_triggered());
  ASSERT_TRUE(dev.Write(p, b.data()).ok());  // write #1 lands
  ASSERT_TRUE(dev.Write(q, b.data()).ok());  // dropped, still reports OK
  ASSERT_TRUE(dev.Write(q, b.data()).ok());  // dropped too
  EXPECT_TRUE(dev.crash_triggered());
  EXPECT_EQ(dev.dropped_writes(), 2u);

  std::vector<std::byte> got(256);
  ASSERT_TRUE(dev.Read(p, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), b.data(), 256), 0);
  ASSERT_TRUE(dev.Read(q, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), a.data(), 256), 0);  // old contents

  dev.ClearFaults();
  ASSERT_TRUE(dev.Write(q, b.data()).ok());
  ASSERT_TRUE(dev.Read(q, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), b.data(), 256), 0);
}

TEST(FaultInjectionTest, CrashSwitchTearsTheFinalSurvivingWrite) {
  MemoryBlockDevice dev(256);
  PageId p = dev.Allocate();
  std::vector<std::byte> a(256, std::byte{0x33});
  std::vector<std::byte> b(256, std::byte{0x44});
  ASSERT_TRUE(dev.Write(p, a.data()).ok());

  dev.InjectCrashAfterWrites(1, /*tear_prefix_bytes=*/64);
  ASSERT_TRUE(dev.Write(p, b.data()).ok());  // torn: first 64 bytes only
  EXPECT_TRUE(dev.crash_triggered());
  std::vector<std::byte> got(256);
  ASSERT_TRUE(dev.Read(p, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), b.data(), 64), 0);
  EXPECT_EQ(std::memcmp(got.data() + 64, a.data() + 64, 192), 0);

  ASSERT_TRUE(dev.Write(p, b.data()).ok());  // dropped outright
  ASSERT_TRUE(dev.Read(p, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data() + 64, a.data() + 64, 192), 0);
}

TEST(FaultInjectionTest, WriteBatchHonoursTheCrashSwitch) {
  MemoryBlockDevice dev(256);
  PageId pages[3] = {dev.Allocate(), dev.Allocate(), dev.Allocate()};
  std::vector<std::byte> a(256, std::byte{0x55});
  std::vector<std::byte> b(256, std::byte{0x66});
  for (PageId p : pages) ASSERT_TRUE(dev.Write(p, a.data()).ok());
  const uint64_t attempts_before = dev.write_attempts();

  dev.InjectCrashAfterWrites(1);
  BlockWriteRequest reqs[3];
  for (int i = 0; i < 3; ++i) {
    reqs[i].page = pages[i];
    reqs[i].buf = b.data();
  }
  ASSERT_TRUE(dev.WriteBatch(reqs, 3).ok());
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(reqs[i].status.ok());

  // Writes are consumed in batch order: #1 lands, #2 and #3 are dropped;
  // attempts tick for all three either way.
  EXPECT_EQ(dev.write_attempts() - attempts_before, 3u);
  EXPECT_EQ(dev.dropped_writes(), 2u);
  std::vector<std::byte> got(256);
  ASSERT_TRUE(dev.Read(pages[0], got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), b.data(), 256), 0);
  for (int i = 1; i < 3; ++i) {
    ASSERT_TRUE(dev.Read(pages[i], got.data()).ok());
    EXPECT_EQ(std::memcmp(got.data(), a.data(), 256), 0);
  }
}

TEST(FaultInjectionTest, MetaTransfersChargeMetaCountersOnly) {
  MemoryBlockDevice dev(256);
  PageId p = dev.Allocate();
  std::vector<std::byte> buf(256, std::byte{0x77});
  const IoStats before = dev.stats();

  ASSERT_TRUE(dev.WriteMeta(p, buf.data()).ok());
  ASSERT_TRUE(dev.ReadMeta(p, buf.data()).ok());
  IoStats d = dev.stats() - before;
  EXPECT_EQ(d.meta_writes, 1u);
  EXPECT_EQ(d.meta_reads, 1u);
  EXPECT_EQ(d.reads, 0u);
  EXPECT_EQ(d.writes, 0u);
  EXPECT_EQ(d.Total(), 0u);  // §3.3 demand metric untouched
  EXPECT_EQ(d.TotalTransfers(), 2u);

  // A kMeta batch moves blocks through meta_writes and never ticks the
  // write_batches audit counter (that is a demand-path concept).
  BlockWriteRequest req{p, buf.data(), Status::OK()};
  ASSERT_TRUE(dev.WriteBatch(&req, 1, WriteKind::kMeta).ok());
  d = dev.stats() - before;
  EXPECT_EQ(d.meta_writes, 2u);
  EXPECT_EQ(d.write_batches, 0u);
  EXPECT_EQ(d.writes, 0u);
}

}  // namespace
}  // namespace prtree

// Pin semantics and concurrency of the sharded BufferPool.
//
// The single-threaded protocol tests live in io_test.cc; this suite covers
// what the pin-based refactor added: frames survive eviction pressure and
// Invalidate while pinned, pages spread over shards, capacity-0 pools still
// pin correctly, and — the contract the concurrent query engine rests on —
// many threads can query one shared tree through one shared pool and get
// exactly the single-threaded answers and statistics.  CI runs this suite
// under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "io/block_device.h"
#include "io/buffer_pool.h"
#include "rtree/bulk_loader.h"
#include "rtree/knn.h"
#include "tests/test_util.h"
#include "util/parallel.h"

namespace prtree {
namespace {

using testing_util::BruteForceQuery;
using testing_util::RandomRects;
using testing_util::RandomWindow;
using testing_util::SortedIds;

std::vector<PageId> AllocatePattern(BlockDevice* dev, int n) {
  std::vector<PageId> pages;
  for (int i = 0; i < n; ++i) {
    PageId p = dev->Allocate();
    std::vector<std::byte> block(dev->block_size());
    std::memset(block.data(), 0x10 + i, block.size());
    EXPECT_TRUE(dev->Write(p, block.data()).ok());
    pages.push_back(p);
  }
  return pages;
}

TEST(BufferPoolPinTest, EvictionRefusesPinnedFrames) {
  MemoryBlockDevice dev(256);
  auto pages = AllocatePattern(&dev, 4);
  BufferPool pool(&dev, 2, /*num_shards=*/1);

  // Pin the pool full.
  PageGuard g0, g1;
  ASSERT_TRUE(pool.Pin(pages[0], &g0).ok());
  ASSERT_TRUE(pool.Pin(pages[1], &g1).ok());
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.pinned(), 2u);

  // A miss with every frame pinned must not evict: the caller gets a
  // private copy and the cache keeps serving the pinned pages.
  PageGuard g2;
  ASSERT_TRUE(pool.Pin(pages[2], &g2).ok());
  EXPECT_EQ(g2.data()[0], std::byte{0x12});
  EXPECT_EQ(pool.size(), 2u);  // pages[2] was refused caching
  EXPECT_EQ(g0.data()[0], std::byte{0x10});  // pinned bytes untouched
  EXPECT_EQ(g1.data()[0], std::byte{0x11});
  {
    PageGuard h;
    ASSERT_TRUE(pool.Pin(pages[0], &h).ok());  // still a hit
  }
  EXPECT_EQ(pool.hits(), 1u);

  // Once a pin drops, eviction works again and new pages cache normally.
  g0.Release();
  PageGuard g3;
  ASSERT_TRUE(pool.Pin(pages[3], &g3).ok());
  EXPECT_EQ(pool.size(), 2u);  // pages[0] evicted, pages[3] cached
  {
    PageGuard h;
    ASSERT_TRUE(pool.Pin(pages[3], &h).ok());
    EXPECT_EQ(h.data()[0], std::byte{0x13});
  }
  EXPECT_EQ(pool.hits(), 2u);
}

TEST(BufferPoolPinTest, InvalidateOfPinnedPageDefersTheFree) {
  MemoryBlockDevice dev(256);
  auto pages = AllocatePattern(&dev, 1);
  BufferPool pool(&dev, 4);

  PageGuard g;
  ASSERT_TRUE(pool.Pin(pages[0], &g).ok());
  const std::byte* old_bytes = g.data();

  // Overwrite on the device and invalidate while the guard is live.
  std::vector<std::byte> block(256);
  std::memset(block.data(), 0x77, 256);
  ASSERT_TRUE(dev.Write(pages[0], block.data()).ok());
  pool.Invalidate(pages[0]);

  // The guard still reads the pre-update bytes from the detached frame.
  EXPECT_EQ(old_bytes[0], std::byte{0x10});
  EXPECT_EQ(pool.size(), 0u);    // no longer cached
  EXPECT_EQ(pool.pinned(), 1u);  // but still alive

  // A fresh pin re-reads the device and sees the new bytes.
  {
    PageGuard fresh;
    ASSERT_TRUE(pool.Pin(pages[0], &fresh).ok());
    EXPECT_EQ(fresh.data()[0], std::byte{0x77});
  }

  // Dropping the last pin frees the detached frame.
  g.Release();
  EXPECT_EQ(pool.pinned(), 0u);
}

TEST(BufferPoolPinTest, ClearDetachesPinnedFrames) {
  MemoryBlockDevice dev(256);
  auto pages = AllocatePattern(&dev, 3);
  BufferPool pool(&dev, 4);
  PageGuard keep;
  ASSERT_TRUE(pool.Pin(pages[0], &keep).ok());
  for (int i = 1; i < 3; ++i) {
    PageGuard g;
    ASSERT_TRUE(pool.Pin(pages[i], &g).ok());
  }
  EXPECT_EQ(pool.size(), 3u);
  pool.Clear();
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.pinned(), 1u);
  EXPECT_EQ(keep.data()[0], std::byte{0x10});  // survives the Clear
  keep.Release();
  EXPECT_EQ(pool.pinned(), 0u);
}

TEST(BufferPoolPinTest, PagesSpreadAcrossShards) {
  MemoryBlockDevice dev(256);
  const int kPages = 64;
  auto pages = AllocatePattern(&dev, kPages);
  BufferPool pool(&dev, kPages, /*num_shards=*/8);
  ASSERT_EQ(pool.num_shards(), 8u);
  for (PageId p : pages) {
    PageGuard g;
    ASSERT_TRUE(pool.Pin(p, &g).ok());
  }
  EXPECT_EQ(pool.size(), static_cast<size_t>(kPages));
  // Sequential PageIds round-robin over shards (shard = page % num_shards),
  // so every shard holds exactly kPages / 8 frames and none overflows its
  // slice of the capacity: re-pinning everything is all hits.
  pool.ResetCounters();
  for (PageId p : pages) {
    PageGuard g;
    ASSERT_TRUE(pool.Pin(p, &g).ok());
  }
  EXPECT_EQ(pool.hits(), static_cast<uint64_t>(kPages));
  EXPECT_EQ(pool.misses(), 0u);
}

TEST(BufferPoolPinTest, ShardCountClampedToCapacity) {
  MemoryBlockDevice dev(256);
  BufferPool small(&dev, 2, /*num_shards=*/16);
  EXPECT_EQ(small.num_shards(), 2u);  // every shard can hold a frame
  BufferPool uncached(&dev, 0);
  EXPECT_EQ(uncached.num_shards(), 1u);
}

TEST(BufferPoolPinTest, GuardMoveTransfersThePin) {
  MemoryBlockDevice dev(256);
  auto pages = AllocatePattern(&dev, 1);
  BufferPool pool(&dev, 2);
  PageGuard a;
  ASSERT_TRUE(pool.Pin(pages[0], &a).ok());
  PageGuard b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): documented
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(pool.pinned(), 1u);
  b.Release();
  EXPECT_EQ(pool.pinned(), 0u);
}

// The TSan-exercised smoke test of the tentpole contract: >= 4 threads
// hammer one shared PR-tree through one shared pool; results and stats must
// be exactly the single-threaded ones.
TEST(ConcurrentQueryTest, ManyThreadsOneTreeExactResults) {
  MemoryBlockDevice dev(512);
  auto data = RandomRects<2>(20000, 91);
  RTree<2> tree(&dev);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                   ->Build(&dev, data, &tree));

  // A pool deliberately smaller than the tree so eviction runs hot under
  // concurrency, with the internal nodes warmed per §3.3.
  TreeStats ts = tree.ComputeStats();
  BufferPool pool(&dev, ts.num_nodes / 2 + 8);
  tree.CacheInternalNodes(&pool);

  Rng rng(17);
  const int kQueries = 64;
  std::vector<Rect2> windows;
  for (int q = 0; q < kQueries; ++q) {
    windows.push_back(RandomWindow<2>(&rng, 0.15));
  }

  // Single-threaded reference.
  std::vector<std::vector<DataId>> expect(kQueries);
  QueryStats reference;
  for (int q = 0; q < kQueries; ++q) {
    expect[q] = SortedIds(tree.QueryToVector(windows[q], &pool));
    reference += tree.Query(windows[q], [](const Record2&) {}, &pool);
  }

  const int kThreads = 8;
  const int kRounds = 4;  // every thread answers every query, repeatedly
  std::vector<QueryStats> per_thread(kThreads);
  std::atomic<int> mismatches{0};
  ParallelForChunks(0, kThreads, kThreads, [&](int t, size_t, size_t) {
    QueryStats local;
    for (int round = 0; round < kRounds; ++round) {
      for (int q = 0; q < kQueries; ++q) {
        auto got = SortedIds(tree.QueryToVector(windows[q], &pool));
        if (got != expect[q]) mismatches.fetch_add(1);
        local += tree.Query(windows[q], [](const Record2&) {}, &pool);
      }
    }
    per_thread[t] = local;
  });

  EXPECT_EQ(mismatches.load(), 0);
  QueryStats sum;
  for (const auto& qs : per_thread) sum += qs;
  // Traversal is deterministic, so kThreads * kRounds times the reference.
  const uint64_t factor = kThreads * kRounds;
  EXPECT_EQ(sum.nodes_visited, factor * reference.nodes_visited);
  EXPECT_EQ(sum.internal_visited, factor * reference.internal_visited);
  EXPECT_EQ(sum.leaves_visited, factor * reference.leaves_visited);
  EXPECT_EQ(sum.results, factor * reference.results);
  EXPECT_EQ(pool.pinned(), 0u);
}

// Prefetch vs Pin vs Invalidate vs Clear vs eviction pressure, all at
// once, on a pool deliberately far smaller than the page set.  The
// invariants under fire (TSan runs this suite): pinned bytes never change
// or vanish, eviction/staging never exceeds capacity, a prefetched frame
// is indistinguishable from a demand-cached one, and no frame leaks
// (pinned() == 0 at the end).
TEST(ConcurrentPrefetchTest, PrefetchRacesPinInvalidateAndEviction) {
  MemoryBlockDevice dev(256);
  const int kPages = 96;
  auto pages = AllocatePattern(&dev, kPages);
  BufferPool pool(&dev, 12, /*num_shards=*/4);  // hot eviction guaranteed

  const int kThreads = 8;
  const int kRounds = 200;
  std::atomic<int> byte_errors{0};
  ParallelForChunks(0, kThreads, kThreads, [&](int t, size_t, size_t) {
    Rng rng(1000 + t);
    std::vector<PageId> frontier;
    for (int round = 0; round < kRounds; ++round) {
      switch (t % 4) {
        case 0:  // prefetcher: random frontiers, overlapping other threads'
        case 1: {
          frontier.clear();
          for (int i = 0; i < 8; ++i) {
            frontier.push_back(
                pages[rng.UniformInt(0, kPages - 1)]);
          }
          pool.Prefetch(std::span<const PageId>(frontier));
          break;
        }
        case 2: {  // pinner: every pinned frame must hold its pattern byte
          PageId p = pages[rng.UniformInt(0, kPages - 1)];
          PageGuard g;
          if (pool.Pin(p, &g).ok()) {
            size_t index = static_cast<size_t>(p - pages[0]);
            if (g.data()[0] != static_cast<std::byte>(0x10 + index)) {
              byte_errors.fetch_add(1);
            }
          }
          break;
        }
        default: {  // invalidator/clearer
          if (round % 32 == 31) {
            pool.Clear();
          } else {
            pool.Invalidate(pages[rng.UniformInt(0, kPages - 1)]);
          }
          break;
        }
      }
    }
  });

  EXPECT_EQ(byte_errors.load(), 0);
  EXPECT_LE(pool.size(), 12u);
  EXPECT_EQ(pool.pinned(), 0u);
  // Sanity on the counters: everything staged was really staged, uses are
  // a subset of stages.
  EXPECT_LE(pool.prefetch_useful(), pool.prefetch_staged());
}

// Concurrent queries over one shared readahead pool must stay exact: the
// prefetch path may only change which reads are speculative, never the
// answers or the traversal counters.
TEST(ConcurrentPrefetchTest, ReadaheadQueriesStayExactUnderConcurrency) {
  MemoryBlockDevice dev(512);
  auto data = RandomRects<2>(20000, 95);
  RTree<2> tree(&dev);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                   ->Build(&dev, data, &tree));
  TreeStats ts = tree.ComputeStats();
  BufferPool pool(&dev, ts.num_nodes / 2 + 8);
  pool.set_readahead(true);

  Rng rng(23);
  const int kQueries = 32;
  std::vector<Rect2> windows;
  for (int q = 0; q < kQueries; ++q) {
    windows.push_back(RandomWindow<2>(&rng, 0.15));
  }
  std::vector<std::vector<DataId>> expect(kQueries);
  QueryStats reference;
  for (int q = 0; q < kQueries; ++q) {
    expect[q] = SortedIds(tree.QueryToVector(windows[q]));  // pool-less
    reference += tree.Query(windows[q], [](const Record2&) {});
  }

  const int kThreads = 8;
  std::vector<QueryStats> per_thread(kThreads);
  std::atomic<int> mismatches{0};
  ParallelForChunks(0, kThreads, kThreads, [&](int t, size_t, size_t) {
    QueryStats local;
    for (int q = 0; q < kQueries; ++q) {
      auto got = SortedIds(tree.QueryToVector(windows[q], &pool));
      if (got != expect[q]) mismatches.fetch_add(1);
      local += tree.Query(windows[q], [](const Record2&) {}, &pool);
    }
    per_thread[t] = local;
  });

  EXPECT_EQ(mismatches.load(), 0);
  QueryStats sum;
  for (const auto& qs : per_thread) sum += qs;
  EXPECT_EQ(sum.leaves_visited, kThreads * reference.leaves_visited);
  EXPECT_EQ(sum.results, kThreads * reference.results);
  EXPECT_EQ(pool.pinned(), 0u);
}

// Mixed window + kNN traffic through a shared capacity-0 pool: the
// always-miss path must also be safe under concurrency (it exercises the
// guard-owned copy branch on every access).
TEST(ConcurrentQueryTest, UncachedPoolServesConcurrentMixedQueries) {
  MemoryBlockDevice dev(512);
  auto data = RandomRects<2>(5000, 93);
  RTree<2> tree(&dev);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                   ->Build(&dev, data, &tree));
  BufferPool pool(&dev, 0);

  auto expect_window = SortedIds(tree.QueryToVector(MakeRect(0.2, 0.2,
                                                             0.6, 0.6)));
  auto expect_knn = KnnSearch<2>(tree, {0.5, 0.5}, 10);

  std::atomic<int> mismatches{0};
  ParallelForChunks(0, 8, 4, [&](int, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      if (i % 2 == 0) {
        auto got = SortedIds(
            tree.QueryToVector(MakeRect(0.2, 0.2, 0.6, 0.6), &pool));
        if (got != expect_window) mismatches.fetch_add(1);
        continue;
      }
      auto got = KnnSearch<2>(tree, {0.5, 0.5}, 10, nullptr, &pool);
      bool same = got.size() == expect_knn.size();
      for (size_t k = 0; same && k < got.size(); ++k) {
        same = got[k].record.id == expect_knn[k].record.id;
      }
      if (!same) mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(pool.size(), 0u);
}

}  // namespace
}  // namespace prtree

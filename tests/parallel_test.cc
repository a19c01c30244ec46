#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>
#include <vector>

namespace prtree {
namespace {

TEST(ParallelForTest, ChunksPartitionExactly) {
  const size_t kN = 103;  // deliberately not a multiple of the thread count
  std::vector<int> touched(kN, 0);
  std::vector<std::pair<size_t, size_t>> ranges(4);
  ParallelForChunks(0, kN, 4, [&](int t, size_t lo, size_t hi) {
    ranges[t] = {lo, hi};
    for (size_t i = lo; i < hi; ++i) ++touched[i];
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(touched[i], 1) << i;
  // Chunks are contiguous, in order, and cover [0, kN).
  size_t expect_lo = 0;
  for (const auto& [lo, hi] : ranges) {
    EXPECT_EQ(lo, expect_lo);
    EXPECT_GE(hi, lo);
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, kN);
}

TEST(ParallelForTest, SingleThreadRunsInline) {
  std::thread::id caller = std::this_thread::get_id();
  ParallelForChunks(0, 10, 1, [&](int t, size_t lo, size_t hi) {
    EXPECT_EQ(t, 0);
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 10u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

// The thread count is clamped to the item count: one item per chunk.
TEST(ParallelForTest, MoreThreadsThanItems) {
  std::atomic<uint64_t> sum{0};
  std::atomic<int> chunks{0};
  ParallelForChunks(0, 3, 8, [&](int t, size_t lo, size_t hi) {
    EXPECT_LT(t, 3);
    EXPECT_EQ(hi, lo + 1);
    chunks.fetch_add(1);
    sum.fetch_add(lo + 1);
  });
  EXPECT_EQ(chunks.load(), 3);
  EXPECT_EQ(sum.load(), 6u);
}

TEST(ParallelForTest, EmptyRangeStillCallsOnce) {
  int calls = 0;
  ParallelForChunks(5, 5, 4, [&](int, size_t lo, size_t hi) {
    ++calls;
    EXPECT_EQ(lo, hi);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SubmitWaitRunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<uint64_t> sum{0};
  const int kTasks = 100;
  for (int i = 1; i <= kTasks; ++i) {
    pool.Submit([&sum, i] { sum.fetch_add(i); });
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), static_cast<uint64_t>(kTasks * (kTasks + 1) / 2));
}

TEST(ThreadPoolTest, WaitWithNothingSubmittedReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) pool.Submit([&count] { ++count; });
    pool.Wait();
    EXPECT_EQ(count.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.Submit([&count] { ++count; });
    // No Wait(): the destructor must let workers drain the queue.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(TaskGroupTest, WaitForBlocksOnGroupOnly) {
  ThreadPool pool(3);
  std::atomic<int> grouped{0};
  ThreadPool::TaskGroup group;
  for (int i = 0; i < 20; ++i) {
    pool.Submit(&group, [&grouped] { ++grouped; });
  }
  pool.Submit([] { /* ungrouped noise */ });
  pool.WaitFor(&group);
  EXPECT_EQ(grouped.load(), 20);
  pool.Wait();
}

TEST(TaskGroupTest, NestedForkJoinFromWorkersDoesNotDeadlock) {
  // The shape the parallel pseudo-PR-tree recursion uses: a worker task
  // submits subtasks to the same pool and WaitFor()s them.  With a plain
  // Wait this self-deadlocks; WaitFor must help drain the queue.
  ThreadPool pool(2);  // fewer threads than the fork tree has nodes
  std::atomic<int> leaves{0};
  // 3 levels of binary forks => 8 leaves.
  std::function<void(int)> fork = [&](int depth) {
    if (depth == 0) {
      ++leaves;
      return;
    }
    ThreadPool::TaskGroup group;
    pool.Submit(&group, [&fork, depth] { fork(depth - 1); });
    fork(depth - 1);
    pool.WaitFor(&group);
  };
  ThreadPool::TaskGroup root;
  pool.Submit(&root, [&fork] { fork(3); });
  pool.WaitFor(&root);
  EXPECT_EQ(leaves.load(), 8);
}

TEST(ParallelSortTest, MatchesStdSortIncludingDuplicates) {
  // Total order (value, index): the parallel result must be byte-identical
  // to std::sort even with heavy duplication — the property the
  // deterministic parallel bulk load rests on.
  struct Item {
    uint32_t key;
    uint32_t index;
  };
  auto less = [](const Item& a, const Item& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.index < b.index;
  };
  const size_t kN = 100'000;  // above kParallelSortGrain
  std::vector<Item> data(kN);
  uint32_t state = 12345;
  for (size_t i = 0; i < kN; ++i) {
    state = state * 1664525u + 1013904223u;
    data[i] = Item{state % 97, static_cast<uint32_t>(i)};  // many duplicates
  }
  std::vector<Item> expect = data;
  std::sort(expect.begin(), expect.end(), less);
  ThreadPool pool(4);
  ParallelSort(&pool, data.data(), data.size(), less);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(data[i].key, expect[i].key) << i;
    ASSERT_EQ(data[i].index, expect[i].index) << i;
  }
}

TEST(ParallelSortTest, NullPoolFallsBackToStdSort) {
  std::vector<int> data = {5, 3, 9, 1, 4};
  ParallelSort(static_cast<ThreadPool*>(nullptr), data.data(), data.size(),
               std::less<int>());
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
}

}  // namespace
}  // namespace prtree

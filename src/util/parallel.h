// Minimal threading utilities for the concurrent query engine and the
// parallel bulk-load pipeline.
//
// Queries fan out across threads over a shared BufferPool; bulk loaders
// offload their CPU-heavy stages (run sorting and the pseudo-PR-tree
// recursion, on in-memory arrays) onto a ThreadPool while the coordinating
// thread makes every device call in deterministic program order.  These helpers
// cover both patterns — a fork-join ParallelForChunks for benchmarks and
// batch serving, a fixed-size ThreadPool whose TaskGroup/WaitFor support
// nested fork-join (waiters help drain the queue, so tasks may fork
// subtasks), and a deterministic ParallelSort.  Nothing here knows about
// R-trees.

#ifndef PRTREE_UTIL_PARALLEL_H_
#define PRTREE_UTIL_PARALLEL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/check.h"

namespace prtree {

/// Number of hardware threads, with a sane floor when the runtime cannot
/// tell (std::thread::hardware_concurrency may return 0).
inline int HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 2 : static_cast<int>(n);
}

/// \brief Fork-join over [begin, end) split into `num_threads` contiguous
/// chunks: calls fn(thread_index, chunk_begin, chunk_end) on each thread
/// and joins.  Chunk t gets the t-th slice; thread_index lets callers keep
/// exact per-thread accumulators (e.g. QueryStats) without sharing.
///
/// num_threads == 1 runs inline on the calling thread, so single-threaded
/// measurements have zero threading overhead.
template <typename Fn>
void ParallelForChunks(size_t begin, size_t end, int num_threads, Fn fn) {
  PRTREE_CHECK(num_threads >= 1);
  const size_t n = end > begin ? end - begin : 0;
  if (num_threads == 1 || n <= 1) {
    fn(0, begin, end);
    return;
  }
  const size_t threads = std::min<size_t>(num_threads, n);
  const size_t base = n / threads;
  const size_t extra = n % threads;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  size_t lo = begin;
  for (size_t t = 0; t < threads; ++t) {
    size_t hi = lo + base + (t < extra ? 1 : 0);
    workers.emplace_back([fn, t, lo, hi] { fn(static_cast<int>(t), lo, hi); });
    lo = hi;
  }
  for (auto& w : workers) w.join();
}

/// \brief Fixed-size pool of worker threads with a FIFO task queue.
///
/// Submit() enqueues a task; Wait() blocks until every submitted task has
/// finished.  For nested fork-join — a task that forks subtasks and needs
/// their results — submit into a TaskGroup and call WaitFor(&group): the
/// waiting thread (worker or external) helps execute queued tasks until the
/// group completes, so recursive fork-join cannot self-deadlock.
class ThreadPool {
 public:
  /// Completion tracker for a batch of related tasks.  Stack-allocate one
  /// per fork point; it must outlive the matching WaitFor().
  class TaskGroup {
   public:
    TaskGroup() = default;
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

   private:
    friend class ThreadPool;
    size_t pending_ = 0;  // guarded by the owning pool's mu_
  };

  explicit ThreadPool(int num_threads) {
    PRTREE_CHECK(num_threads >= 1);
    workers_.reserve(num_threads);
    for (int i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues `task` for execution on some worker.
  void Submit(std::function<void()> task) {
    Submit(nullptr, std::move(task));
  }

  /// Enqueues `task` under `group` (may be null); pair with WaitFor().
  /// Safe to call from inside a pool task.
  void Submit(TaskGroup* group, std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      PRTREE_CHECK(!stop_);
      queue_.push_back(Task{std::move(task), group});
      ++outstanding_;
      if (group != nullptr) ++group->pending_;
    }
    wake_.notify_one();
    // One queued task can be consumed by at most one blocked WaitFor
    // helper; RunTask's notify_all covers group-completion wakeups.
    done_.notify_one();
  }

  /// Blocks until every task submitted so far has completed.  Must be
  /// called from outside the pool (a worker calling Wait() would count its
  /// own running task as outstanding forever); use WaitFor() inside tasks.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock, [this] { return outstanding_ == 0; });
  }

  /// Blocks until every task submitted under `group` has completed,
  /// executing queued tasks (of any group) while waiting.  Safe to call
  /// from a worker thread — this is what makes nested fork-join work.
  void WaitFor(TaskGroup* group) {
    std::unique_lock<std::mutex> lock(mu_);
    while (group->pending_ > 0) {
      if (!queue_.empty()) {
        Task task = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        RunTask(task);
        lock.lock();
      } else {
        done_.wait(lock, [this, group] {
          return group->pending_ == 0 || !queue_.empty();
        });
      }
    }
  }

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  void RunTask(Task& task) {
    task.fn();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (task.group != nullptr) --task.group->pending_;
      if (--outstanding_ == 0) idle_.notify_all();
    }
    done_.notify_all();
  }

  void WorkerLoop() {
    for (;;) {
      Task task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ and drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      RunTask(task);
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::condition_variable done_;
  std::deque<Task> queue_;
  std::vector<std::thread> workers_;
  size_t outstanding_ = 0;
  bool stop_ = false;
};

/// Below this many elements a parallel sort runs std::sort inline; also the
/// minimum elements per fork so tiny subranges don't pay task overhead.
inline constexpr size_t kParallelSortGrain = 1u << 14;

namespace parallel_internal {

template <typename T, typename Less>
void ParallelSortRec(ThreadPool* pool, T* data, size_t n, Less less,
                     int depth) {
  if (depth <= 0 || n <= kParallelSortGrain) {
    std::sort(data, data + n, less);
    return;
  }
  const size_t half = n / 2;
  ThreadPool::TaskGroup group;
  pool->Submit(&group, [pool, data, half, less, depth] {
    ParallelSortRec(pool, data, half, less, depth - 1);
  });
  ParallelSortRec(pool, data + half, n - half, less, depth - 1);
  pool->WaitFor(&group);
  std::inplace_merge(data, data + half, data + n, less);
}

}  // namespace parallel_internal

/// \brief Sorts [data, data + n) on the pool with a fork-join merge sort;
/// pool == nullptr (or a single-thread pool, or a small n) falls back to
/// std::sort inline.
///
/// Determinism: when `less` is a strict TOTAL order (every comparator in
/// this library tie-breaks on the record id), the sorted sequence is unique,
/// so the result is byte-identical to std::sort regardless of thread count
/// or scheduling — the property the deterministic bulk-load pipeline is
/// built on.  With a mere weak ordering the merge is stable but the
/// chunk-local std::sorts are not, so equal elements could differ from the
/// serial order; don't pass one.
template <typename T, typename Less>
void ParallelSort(ThreadPool* pool, T* data, size_t n, Less less) {
  if (pool == nullptr || pool->num_threads() <= 1 ||
      n <= kParallelSortGrain) {
    std::sort(data, data + n, less);
    return;
  }
  // 2x oversubscription of leaves keeps all workers busy through the merge.
  int depth = 1;
  while ((size_t{1} << depth) < 2 * pool->num_threads()) ++depth;
  parallel_internal::ParallelSortRec(pool, data, n, less, depth);
}

}  // namespace prtree

#endif  // PRTREE_UTIL_PARALLEL_H_

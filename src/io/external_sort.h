// External multiway merge sort under a memory budget — the
// O((N/B) log_{M/B} (N/B)) sorting primitive every bulk loader in the paper
// builds on (§1.1).
//
// Run formation loads M bytes of records at a time, sorts them in memory and
// writes sorted runs; merging combines up to M/block_size - 1 runs per pass
// through a tournament (priority queue) until one run remains.
//
// Parallelism: when env.pool is set, each run is sorted with ParallelSort —
// the run boundaries, the merge plan and every device allocation stay on
// the calling thread in the same order as a serial sort, so the output
// stream (and the device's allocation history) is identical for any thread
// count.  The tournament additionally tie-breaks equal records on the run
// index, making the merge stable even for non-total comparators.
//
// Write batching is inherited from Stream<T>: run emission and the merge
// output stage full blocks through a WriteStager and drain them as
// WriteBatch() submissions at each Flush() — on a uring device opened for
// O_DIRECT a sorted run lands in ring-depth batches instead of one pwrite
// per block, with identical bytes, counters and allocation order; on every
// buffered device each block is one plain Write() (io/write_stager.h).

#ifndef PRTREE_IO_EXTERNAL_SORT_H_
#define PRTREE_IO_EXTERNAL_SORT_H_

#include <algorithm>
#include <memory>
#include <queue>
#include <vector>

#include "io/stream.h"
#include "io/work_env.h"
#include "util/check.h"
#include "util/parallel.h"

namespace prtree {

/// \brief Sorts `input` into a new stream using at most env.memory_bytes of
/// working memory, counting all block transfers on env.device.
///
/// \tparam T    trivially copyable record type.
/// \tparam Less strict weak ordering over T.  Use a total order (secondary
///         key, e.g. the record id) if the result must not depend on
///         env.pool — see ParallelSort.
template <typename T, typename Less>
Stream<T> ExternalSort(WorkEnv env, Stream<T>* input, Less less) {
  input->Flush();
  const size_t run_records = std::max<size_t>(
      2 * input->records_per_block(), env.memory_bytes / sizeof(T));
  // One input buffer block per run plus one output block must fit in memory.
  const size_t fan_in = std::max<size_t>(
      2, env.memory_bytes / env.device->block_size() - 1);

  // Pass 0: run formation.  The pool accelerates the in-memory sort of
  // each run; reads and run writes stay on this thread, in input order.
  std::vector<Stream<T>> runs;
  {
    typename Stream<T>::Reader reader(input);
    std::vector<T> buf;
    buf.reserve(std::min(run_records, input->size()));
    while (!reader.Done()) {
      buf.clear();
      while (!reader.Done() && buf.size() < run_records) {
        buf.push_back(reader.Next());
      }
      ParallelSort(env.pool, buf.data(), buf.size(), less);
      Stream<T> run(env.device);
      run.Append(buf);
      run.Flush();
      runs.push_back(std::move(run));
    }
  }
  if (runs.empty()) return Stream<T>(env.device);

  // Merge passes.
  while (runs.size() > 1) {
    std::vector<Stream<T>> next;
    for (size_t group = 0; group < runs.size(); group += fan_in) {
      size_t end = std::min(runs.size(), group + fan_in);
      if (end - group == 1) {
        next.push_back(std::move(runs[group]));
        continue;
      }
      // Tournament over the group's readers.
      std::vector<std::unique_ptr<typename Stream<T>::Reader>> readers;
      for (size_t r = group; r < end; ++r) {
        readers.push_back(
            std::make_unique<typename Stream<T>::Reader>(&runs[r]));
      }
      // Each run's head record, taken off its reader once: the heap
      // compares these copies, not the readers.
      std::vector<T> heads(readers.size());
      auto heap_greater = [&](size_t a, size_t b) {
        // std::priority_queue is a max-heap; invert to pop the least
        // record.  Equal records pop lowest-run-first (a stable merge), so
        // the pass is deterministic even for non-total comparators.
        if (less(heads[b], heads[a])) return true;
        if (less(heads[a], heads[b])) return false;
        return a > b;
      };
      std::priority_queue<size_t, std::vector<size_t>,
                          decltype(heap_greater)>
          heap(heap_greater);
      for (size_t i = 0; i < readers.size(); ++i) {
        if (readers[i]->Done()) continue;
        heads[i] = readers[i]->Next();
        heap.push(i);
      }
      Stream<T> merged(env.device);
      while (!heap.empty()) {
        size_t i = heap.top();
        heap.pop();
        merged.Push(heads[i]);
        if (readers[i]->Done()) continue;
        heads[i] = readers[i]->Next();
        heap.push(i);
      }
      merged.Flush();
      next.push_back(std::move(merged));
    }
    // Free the consumed runs before the next pass.
    for (auto& r : runs) r.Clear();
    runs = std::move(next);
  }
  return std::move(runs.front());
}

/// Sorts a vector-backed dataset through the external sorter; convenience
/// entry point for loaders whose input is already materialised.
template <typename T, typename Less>
Stream<T> ExternalSortVector(WorkEnv env, const std::vector<T>& data,
                             Less less) {
  Stream<T> in(env.device);
  in.Append(data);
  in.Flush();
  Stream<T> sorted = ExternalSort(env, &in, less);
  return sorted;
}

}  // namespace prtree

#endif  // PRTREE_IO_EXTERNAL_SORT_H_

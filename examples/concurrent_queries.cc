// Serving map-viewport queries from many threads at once.
//
// The paper's motivating scenario (§1) is a GIS serving window queries; a
// real map service answers thousands of viewports concurrently.  This
// example builds one PR-tree, warms the internal-node cache (§3.3) in a
// sharded BufferPool, then lets several worker threads answer viewport
// batches through pinned zero-copy page guards — no locks in user code,
// exact per-thread statistics.
//
// The second leg adds writers: a DynamicPRTree takes inserts from
// background threads while a reader holds a SnapshotHandle.  The pinned
// snapshot keeps answering with the exact same results and QueryStats
// throughout — readers never lock against writers and never see a torn
// version.
//
//   $ ./build/examples/concurrent_queries

#include <cstdio>
#include <thread>
#include <vector>

#include "core/dynamic_prtree.h"
#include "io/buffer_pool.h"
#include "rtree/bulk_loader.h"
#include "util/parallel.h"
#include "workload/datasets.h"
#include "workload/queries.h"

using namespace prtree;  // NOLINT

int main() {
  const size_t kSegments = 200000;
  const int kThreads = 4;
  auto roads = workload::MakeTigerLike(kSegments,
                                       workload::TigerRegion::kEastern, 7);
  MemoryBlockDevice device;
  RTree<2> tree(&device);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 8u << 20})
                   ->Build(&device, roads, &tree));
  std::printf("indexed %zu road segments (%d levels)\n", tree.size(),
              tree.height() + 1);

  TreeStats ts = tree.ComputeStats();
  BufferPool pool(&device, ts.num_nodes + 16);
  tree.CacheInternalNodes(&pool);

  // 800 city-block viewports, split across the workers.
  auto viewports = workload::MakeSquareQueries(tree.Mbr(), 0.005, 800, 3);
  std::vector<QueryStats> per_thread(kThreads);
  ParallelForChunks(0, viewports.size(), kThreads,
                    [&](int t, size_t lo, size_t hi) {
                      for (size_t i = lo; i < hi; ++i) {
                        per_thread[t] += tree.Query(
                            viewports[i], [](const Record2&) {}, &pool);
                      }
                    });

  QueryStats total;
  for (int t = 0; t < kThreads; ++t) {
    std::printf("thread %d: %llu queries' worth -> %llu results, %llu leaf "
                "blocks\n",
                t,
                static_cast<unsigned long long>(viewports.size() / kThreads),
                static_cast<unsigned long long>(per_thread[t].results),
                static_cast<unsigned long long>(per_thread[t].leaves_visited));
    total += per_thread[t];
  }
  std::printf("all threads: %llu results, %.1f leaf I/Os per query "
              "(internal nodes served from the shared cache)\n",
              static_cast<unsigned long long>(total.results),
              static_cast<double>(total.leaves_visited) /
                  static_cast<double>(viewports.size()));

  // ---- snapshot reads under writes ------------------------------------
  // The map keeps updating while viewports are being served.  A pinned
  // snapshot freezes one version of the index: the two writer threads
  // below trigger buffer flushes and level rebuilds, yet every re-run of
  // the same viewport on the snapshot returns identical results and
  // identical stats.
  MemoryBlockDevice dyn_device;
  DynamicPRTree<2> dynamic(WorkEnv{&dyn_device, 8u << 20});
  for (size_t i = 0; i < 50000; ++i) dynamic.Insert(roads[i]);

  auto snap = dynamic.Snapshot();
  const Rect2 viewport = viewports.front();
  QueryStats before = snap.Query(viewport, [](const Record2&) {});

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 50000 + static_cast<size_t>(w); i < 80000; i += 2) {
        dynamic.Insert(roads[i]);
      }
    });
  }
  uint64_t frozen_reruns = 0;
  for (int round = 0; round < 50; ++round) {
    QueryStats qs = snap.Query(viewport, [](const Record2&) {});
    frozen_reruns += (qs.results == before.results &&
                      qs.leaves_visited == before.leaves_visited);
  }
  for (auto& w : writers) w.join();
  QueryStats after = snap.Query(viewport, [](const Record2&) {});
  const bool unchanged = after.results == before.results &&
                         after.leaves_visited == before.leaves_visited;
  std::printf(
      "snapshot under writes: pinned at %zu records, %llu/50 re-runs frozen "
      "mid-storm, stats %s after 30000 concurrent inserts "
      "(index now %zu records, snapshot still %zu)\n",
      snap.size(), static_cast<unsigned long long>(frozen_reruns),
      unchanged ? "byte-identical" : "CHANGED (bug!)", dynamic.size(),
      snap.size());
  snap.Release();
  // A snapshot that moved is a bug: fail the run, not just the message.
  return unchanged && frozen_reruns == 50 ? 0 : 1;
}

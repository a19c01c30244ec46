// Micro-benchmarks (google-benchmark) for the library's hot operations:
// Hilbert keys, rectangle predicates, node scans, pseudo-PR-tree
// construction, external sort throughput, PR-tree queries and forest
// deletes.

#include <benchmark/benchmark.h>

#include <utility>

#include "baselines/hilbert_rtree.h"
#include "core/dynamic_prtree.h"
#include "core/pseudo_prtree.h"
#include "geom/hilbert.h"
#include "geom/rect_batch.h"
#include "harness/experiment.h"
#include "io/buffer_pool.h"
#include "io/external_sort.h"
#include "rtree/bulk_loader.h"
#include "util/random.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace prtree {
namespace {

void BM_HilbertKey2D(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::pair<uint32_t, uint32_t>> pts(1024);
  for (auto& p : pts) {
    p = {static_cast<uint32_t>(rng.UniformInt(0, (1u << 31) - 1)),
         static_cast<uint32_t>(rng.UniformInt(0, (1u << 31) - 1))};
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& p = pts[i++ & 1023];
    benchmark::DoNotOptimize(HilbertIndex2(p.first, p.second, 31));
  }
}
BENCHMARK(BM_HilbertKey2D);

void BM_HilbertKey4D(benchmark::State& state) {
  auto data = workload::MakeSize(1024, 0.01, 2);
  Rect2 extent = MakeRect(0, 0, 1, 1);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        HilbertCornerKey<2>(data[i++ & 1023].rect, extent));
  }
}
BENCHMARK(BM_HilbertKey4D);

void BM_RectIntersects(benchmark::State& state) {
  auto data = workload::MakeSize(1024, 0.05, 3);
  Rect2 q = MakeRect(0.4, 0.4, 0.6, 0.6);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(data[i++ & 1023].rect.Intersects(q));
  }
}
BENCHMARK(BM_RectIntersects);

void BM_NodeScan(benchmark::State& state) {
  std::vector<std::byte> buf(kDefaultBlockSize);
  NodeView<2> node(buf.data(), buf.size());
  node.Format(0);
  auto data = workload::MakeSize(113, 0.05, 4);
  for (const auto& rec : data) node.Append(rec.rect, rec.id);
  Rect2 q = MakeRect(0.4, 0.4, 0.6, 0.6);
  for (auto _ : state) {
    int hits = 0;
    for (int i = 0; i < node.count(); ++i) {
      if (node.GetRect(i).Intersects(q)) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * 113);
}
BENCHMARK(BM_NodeScan);

// ---- rect-kernel microbenches (geom/rect_batch.h) ----------------------
//
// One full node's worth of entries (fan-out 113 at 4 KB blocks) through
// the batched kernels, with the dispatch pinned per leg: Arg(0) scalar,
// Arg(1) the best level this build/CPU has (AVX2, NEON, or scalar again
// when neither exists — the label says which ran).  Kernel regressions
// show up here independently of tree traversal.

constexpr size_t kKernelFanout = 113;

struct KernelRuns {
  std::vector<Real> xmin, ymin, xmax, ymax;
};

KernelRuns MakeKernelRuns(uint64_t seed) {
  auto data = workload::MakeSize(kKernelFanout, 0.05, seed);
  KernelRuns runs;
  for (const auto& rec : data) {
    runs.xmin.push_back(rec.rect.lo[0]);
    runs.ymin.push_back(rec.rect.lo[1]);
    runs.xmax.push_back(rec.rect.hi[0]);
    runs.ymax.push_back(rec.rect.hi[1]);
  }
  return runs;
}

// Pins the kernel dispatch for one bench leg; restores on destruction.
class ScopedSimdLevel {
 public:
  ScopedSimdLevel(benchmark::State& state, int64_t arg) : prev_(
      ActiveSimdLevel()) {
    SimdLevel actual = ForceSimdLevel(arg == 0 ? SimdLevel::kScalar
                                               : SimdLevel::kAvx2);
    state.SetLabel(SimdLevelName(actual));
  }
  ~ScopedSimdLevel() { ForceSimdLevel(prev_); }

 private:
  SimdLevel prev_;
};

void BM_RectKernelIntersect(benchmark::State& state) {
  ScopedSimdLevel pin(state, state.range(0));
  KernelRuns runs = MakeKernelRuns(4);
  Rect2 q = MakeRect(0.4, 0.4, 0.6, 0.6);
  uint64_t mask[RectMaskWords(kKernelFanout)];
  for (auto _ : state) {
    BatchIntersect(q, runs.xmin.data(), runs.ymin.data(), runs.xmax.data(),
                   runs.ymax.data(), kKernelFanout, mask);
    benchmark::DoNotOptimize(mask[0]);
  }
  state.SetItemsProcessed(state.iterations() * kKernelFanout);
}
BENCHMARK(BM_RectKernelIntersect)->Arg(0)->Arg(1);

void BM_RectKernelMinDist(benchmark::State& state) {
  ScopedSimdLevel pin(state, state.range(0));
  KernelRuns runs = MakeKernelRuns(4);
  Real d2[kKernelFanout];
  for (auto _ : state) {
    BatchMinDist2(0.5, 0.5, runs.xmin.data(), runs.ymin.data(),
                  runs.xmax.data(), runs.ymax.data(), kKernelFanout, d2);
    benchmark::DoNotOptimize(d2[0]);
  }
  state.SetItemsProcessed(state.iterations() * kKernelFanout);
}
BENCHMARK(BM_RectKernelMinDist)->Arg(0)->Arg(1);

void BM_PseudoPrTreeBuild(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto data = workload::MakeSize(n, 0.01, 5);
  for (auto _ : state) {
    auto copy = data;
    PseudoPRTreeBuilder<2> builder(113);
    size_t leaves = 0;
    builder.EmitLeaves(&copy, [&](const PseudoLeafChunk&) { ++leaves; });
    benchmark::DoNotOptimize(leaves);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PseudoPrTreeBuild)->Arg(10000)->Arg(100000);

void BM_ExternalSortThroughput(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto data = workload::MakeSize(n, 0.01, 6);
  for (auto _ : state) {
    MemoryBlockDevice dev(kDefaultBlockSize);
    WorkEnv env{&dev, 1u << 20};
    Stream<Record2> sorted =
        ExternalSortVector(env, data, CoordLess<2>{0});
    benchmark::DoNotOptimize(sorted.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExternalSortThroughput)->Arg(100000);

void BM_PrTreeWindowQuery(benchmark::State& state) {
  static MemoryBlockDevice dev(kDefaultBlockSize);
  static RTree<2>* tree = [] {
    auto data = workload::MakeTigerLike(
        200000, workload::TigerRegion::kEastern, 7);
    auto* t = new RTree<2>(&dev);
    AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 8u << 20})
                     ->Build(&dev, data, t));
    return t;
  }();
  static BufferPool pool(&dev, 1u << 16);
  static bool warmed = [] {
    tree->CacheInternalNodes(&pool);
    return true;
  }();
  (void)warmed;
  auto queries = workload::MakeSquareQueries(tree->Mbr(), 0.01, 64, 8);
  size_t i = 0;
  uint64_t results = 0;
  for (auto _ : state) {
    QueryStats qs = tree->Query(queries[i++ & 63],
                                [](const Record2&) {}, &pool);
    results += qs.results;
  }
  benchmark::DoNotOptimize(results);
}
BENCHMARK(BM_PrTreeWindowQuery);

// Forest deletes (core/dynamic_prtree.h) at Arg(0)% tombstones: 200k
// TIGER-like records in a DynamicPRTree whose attached pool holds the whole
// forest, that share of them deleted untimed, then 1,000 timed deletes of
// further records, in one shuffled order.  A delete's cost should not grow
// with the tombstone count.
void BM_DynamicDelete(benchmark::State& state) {
  constexpr size_t kRecords = 200000;
  auto data = workload::MakeTigerLike(kRecords,
                                      workload::TigerRegion::kEastern, 10);
  Rng rng(11);
  for (size_t i = data.size() - 1; i > 0; --i) {
    std::swap(data[i], data[rng.UniformInt(0, i)]);
  }
  MemoryBlockDevice dev(kDefaultBlockSize);
  BufferPool pool(&dev, 4 * kRecords / NodeCapacity<2>(kDefaultBlockSize) +
                            1024);  // outlives the forest attached to it
  DynamicPRTree<2> forest(WorkEnv{&dev});
  forest.AttachPool(&pool);
  for (const auto& rec : data) forest.Insert(rec);
  forest.Query(MakeRect(-1e9, -1e9, 1e9, 1e9), [](const Record2&) {},
               &pool);  // pins every page of the forest
  size_t next = 0;
  const size_t untimed = kRecords * static_cast<size_t>(state.range(0)) / 100;
  while (next < untimed) forest.Delete(data[next++]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.Delete(data[next++]));
  }
  state.counters["tombstones"] = static_cast<double>(forest.tombstones());
}
BENCHMARK(BM_DynamicDelete)
    ->Arg(1)
    ->Arg(40)
    ->Iterations(1000)
    ->Unit(benchmark::kMicrosecond);

void BM_PrTreeBuildEndToEnd(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto data = workload::MakeSize(n, 0.01, 9);
  auto loader = MakeBulkLoader(
      LoaderKind::kPrTree, {.memory_bytes = harness::ScaledMemoryBudget(n)});
  for (auto _ : state) {
    MemoryBlockDevice dev(kDefaultBlockSize);
    RTree<2> tree(&dev);
    AbortIfError(loader->Build(&dev, data, &tree));
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PrTreeBuildEndToEnd)->Arg(100000);

}  // namespace
}  // namespace prtree

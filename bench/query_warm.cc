// Warm-pool query throughput: the in-memory hot path the SoA layout and
// SIMD kernels exist for.
//
// PRs 2–6 made the I/O side fast; once the buffer pool holds the whole
// tree, query time is pure CPU — per-node rectangle tests.  This bench
// pins that down: it bulk-loads the same dataset twice (once in the v1
// AoS node layout, once in the v2 SoA layout), gives each tree a pool
// larger than the tree, warms it fully, and runs one window batch and one
// kNN batch per leg of the {layout} x {scalar, SIMD} matrix.  The legs
// must agree bit-for-bit on every QueryStats counter, result count and
// kNN distance (the dispatch contract of geom/rect_batch.h); only the
// wall clock may differ.  SIMD speedup is per-core, so the headline
// ratio — SIMD-over-SoA vs scalar-over-AoS, the shipped configuration vs
// the pre-PR one — shows on a single-core CI container too.
//
// Writes BENCH_warmquery.json (gated against
// bench/baselines/warmquery.json by tools/bench_compare.py: counters
// exact, "speedup" keys one-sided with a 25% band — the committed
// baseline is deliberately floored below measured hardware numbers, see
// docs/TUNING.md).
//
//   --n=<records>     dataset size (default 400k)
//   --queries=<count> window queries per measurement (default 512)
//   --qarea=<frac>    window area as a fraction of the unit square
//                     (default 0.0005 — small windows keep the per-node
//                     test, not result emission, the dominant cost)
//   --knn=<count>     kNN queries per measurement (default 128)
//   --k=<neighbors>   neighbours per kNN query (default 16)
//   --seed=<uint64>   generator seed
//   --repeats=<count> timing repeats, minimum kept (default 5)
//   --out=<path>      JSON output path (default BENCH_warmquery.json)
//   --smoke           tiny run for the ctest tier1 label (checks the
//                     cross-leg identity contract, never gates speed)

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "geom/rect_batch.h"
#include "harness/bench_json.h"
#include "harness/experiment.h"
#include "io/buffer_pool.h"
#include "rtree/knn.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/datasets.h"
#include "workload/queries.h"

using namespace prtree;  // NOLINT
using harness::BenchJson;

namespace {

// Everything a leg must reproduce bit for bit; only the clock may differ.
struct LegCounters {
  uint64_t leaves = 0;
  uint64_t internal = 0;
  uint64_t results = 0;
  uint64_t knn_leaves = 0;
  uint64_t knn_internal = 0;
  uint64_t knn_results = 0;
  uint64_t knn_digest = 0;  // FNV over result ids + distance bits
  bool operator==(const LegCounters&) const = default;
};

struct LegResult {
  const char* layout = "";  // "v1" / "v2"
  std::string simd;         // "scalar" / "avx2" / "neon"
  double window_seconds = 0;
  double knn_seconds = 0;
  LegCounters c;
};

// FNV-1a over the exact bytes that must match across legs: neighbour ids
// and IEEE-754 distance bits, in reported order.
void DigestNeighbor(uint64_t* h, uint32_t id, Real dist) {
  uint64_t bits;
  std::memcpy(&bits, &dist, sizeof(bits));
  for (uint64_t v : {static_cast<uint64_t>(id), bits}) {
    for (int b = 0; b < 64; b += 8) {
      *h ^= (v >> b) & 0xff;
      *h *= 1099511628211ull;
    }
  }
}

LegResult RunLeg(const harness::BuiltIndex& index, const char* layout,
                 SimdLevel level, const std::vector<Rect2>& windows,
                 const std::vector<std::array<Real, 2>>& knn_points,
                 size_t k, int repeats) {
  LegResult leg;
  leg.layout = layout;
  leg.simd = SimdLevelName(ForceSimdLevel(level));

  // Pool bigger than the tree: after one warmup pass every node is
  // resident and the measurement is pure CPU.
  BufferPool pool(index.device.get(),
                  static_cast<size_t>(index.tree_stats.num_nodes) + 16);
  index.tree->CacheInternalNodes(&pool);

  auto window_pass = [&] {
    LegCounters& c = leg.c;
    c.leaves = c.internal = c.results = 0;
    for (const Rect2& q : windows) {
      QueryStats qs = index.tree->Query(q, [](const Record2&) {}, &pool);
      c.leaves += qs.leaves_visited;
      c.internal += qs.internal_visited;
      c.results += qs.results;
    }
  };
  auto knn_pass = [&] {
    LegCounters& c = leg.c;
    c.knn_leaves = c.knn_internal = c.knn_results = 0;
    c.knn_digest = 1469598103934665603ull;
    for (const auto& p : knn_points) {
      QueryStats qs;
      auto neighbors = KnnSearch<2>(*index.tree, p, k, &qs, &pool);
      c.knn_leaves += qs.leaves_visited;
      c.knn_internal += qs.internal_visited;
      c.knn_results += qs.results;
      for (const auto& nb : neighbors) {
        DigestNeighbor(&c.knn_digest, nb.record.id, nb.distance);
      }
    }
  };

  window_pass();  // warmup: every node resident before the clock starts
  knn_pass();
  leg.window_seconds = harness::BestOfRepeats(repeats, [&] {
    Timer timer;
    window_pass();
    return timer.Seconds();
  });
  leg.knn_seconds = harness::BestOfRepeats(repeats, [&] {
    Timer timer;
    knn_pass();
    return timer.Seconds();
  });
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = 400'000;
  size_t num_queries = 512;
  double qarea = 0.0005;
  size_t num_knn = 128;
  size_t k = 16;
  uint64_t seed = 1;
  int repeats = 5;
  std::string out_path = "BENCH_warmquery.json";
  bool smoke = false;
  const std::string usage =
      std::string(argv[0]) +
      " [--n=N] [--queries=Q] [--qarea=F] [--knn=K] [--k=NB] [--seed=S] "
      "[--repeats=R] [--out=PATH] [--smoke]";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (harness::NumberFlag(arg, "--n=", &n, usage) ||
        harness::NumberFlag(arg, "--queries=", &num_queries, usage) ||
        harness::NumberFlag(arg, "--qarea=", &qarea, usage) ||
        harness::NumberFlag(arg, "--knn=", &num_knn, usage) ||
        harness::NumberFlag(arg, "--k=", &k, usage) ||
        harness::NumberFlag(arg, "--seed=", &seed, usage, /*min=*/0) ||
        harness::NumberFlag(arg, "--repeats=", &repeats, usage)) {
      // Parsed in place.
    } else if ((value = harness::FlagValue(arg, "--out=")) != nullptr) {
      out_path = value;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else {
      harness::UsageExit("unknown flag", arg, usage);
    }
  }
  if (smoke) {
    n = 40'000;
    num_queries = 64;
    num_knn = 16;
    repeats = 2;
  }

  auto data = workload::MakeSize(n, 0.001, seed);
  auto windows = workload::MakeSquareQueries(MakeRect(0, 0, 1, 1), qarea,
                                             num_queries, seed + 17);
  std::vector<std::array<Real, 2>> knn_points;
  {
    Rng rng(seed + 29);
    knn_points.reserve(num_knn);
    for (size_t i = 0; i < num_knn; ++i) {
      knn_points.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
    }
  }

  std::printf("=== query_warm: n=%zu, windows=%zu (area %.2e), knn=%zu x k=%zu%s ===\n",
              n, num_queries, qarea, num_knn, k, smoke ? " (smoke)" : "");

  // The same records through the same loader in both node layouts: same
  // tree shape, same page ids, different byte layout inside each page.
  NodeLayout prev_layout = SetDefaultNodeLayout(NodeLayout::kAoS);
  harness::BuiltIndex v1 = harness::BuildIndex(
      harness::Variant::kPrTree, data, /*memory_bytes=*/0, /*threads=*/1);
  SetDefaultNodeLayout(NodeLayout::kSoA);
  harness::BuiltIndex v2 = harness::BuildIndex(
      harness::Variant::kPrTree, data, /*memory_bytes=*/0, /*threads=*/1);
  SetDefaultNodeLayout(prev_layout);

  const SimdLevel prev_level = ActiveSimdLevel();
  std::vector<LegResult> legs;
  legs.push_back(RunLeg(v1, "v1", SimdLevel::kScalar, windows, knn_points, k,
                        repeats));
  legs.push_back(RunLeg(v1, "v1", SimdLevel::kAvx2, windows, knn_points, k,
                        repeats));
  legs.push_back(RunLeg(v2, "v2", SimdLevel::kScalar, windows, knn_points, k,
                        repeats));
  legs.push_back(RunLeg(v2, "v2", SimdLevel::kAvx2, windows, knn_points, k,
                        repeats));
  ForceSimdLevel(prev_level);

  std::printf("%4s %8s %12s %12s %12s %12s %14s\n", "fmt", "simd",
              "window s", "knn s", "leaf I/Os", "results", "knn digest");
  for (const LegResult& leg : legs) {
    std::printf("%4s %8s %12.4f %12.4f %12llu %12llu %14llx\n", leg.layout,
                leg.simd.c_str(), leg.window_seconds, leg.knn_seconds,
                static_cast<unsigned long long>(leg.c.leaves),
                static_cast<unsigned long long>(leg.c.results),
                static_cast<unsigned long long>(leg.c.knn_digest));
  }

  // The identity contract: every leg visits the same nodes, returns the
  // same results, and reports bit-identical kNN distances — layout and
  // SIMD dispatch may only change the clock.
  bool ok = true;
  for (const LegResult& leg : legs) {
    const LegResult& ref = legs[0];
    if (!(leg.c == ref.c)) {
      std::fprintf(stderr, "!! leg %s/%s diverged from %s/%s\n", leg.layout,
                   leg.simd.c_str(), ref.layout, ref.simd.c_str());
      ok = false;
    }
  }
  // The v1 and v2 builds must also be the same tree, page for page count.
  if (v1.tree_stats.num_nodes != v2.tree_stats.num_nodes ||
      v1.tree_stats.num_leaves != v2.tree_stats.num_leaves ||
      v1.tree_stats.height != v2.tree_stats.height) {
    std::fprintf(stderr, "!! v1/v2 builds differ in shape\n");
    ok = false;
  }

  const LegResult& base = legs[0];   // v1 + scalar: the pre-PR configuration
  const LegResult& best = legs[3];   // v2 + SIMD:   the shipped configuration
  double window_speedup =
      best.window_seconds > 0 ? base.window_seconds / best.window_seconds : 1;
  double knn_speedup =
      best.knn_seconds > 0 ? base.knn_seconds / best.knn_seconds : 1;
  std::printf("warm window speedup (v2-%s over v1-scalar): %.2fx\n",
              best.simd.c_str(), window_speedup);
  std::printf("warm knn speedup    (v2-%s over v1-scalar): %.2fx\n",
              best.simd.c_str(), knn_speedup);

  BenchJson doc = BenchJson::Document("query_warm");
  doc["n"] = n;
  doc["queries"] = num_queries;
  doc["knn_queries"] = num_knn;
  doc["k"] = k;
  doc["capacity"] = v2.tree->capacity();
  doc["tree_nodes"] = v2.tree_stats.num_nodes;
  doc["tree_leaves"] = v2.tree_stats.num_leaves;
  doc["simd"] = legs[3].simd;
  for (const LegResult& leg : legs) {
    BenchJson& j = doc["legs"].Push(BenchJson::Object());
    j["layout"] = leg.layout;
    j["simd"] = leg.simd;
    j["window_seconds"] = leg.window_seconds;
    j["knn_seconds"] = leg.knn_seconds;
    j["leaves"] = leg.c.leaves;
    j["results"] = leg.c.results;
    j["knn_results"] = leg.c.knn_results;
  }
  doc["speedup_simd_window"] = window_speedup;
  doc["speedup_simd_knn"] = knn_speedup;
  return harness::WriteGated(&doc, out_path, ok,
                             "identity (every layout x SIMD leg and both "
                             "builds agree bit for bit)");
}

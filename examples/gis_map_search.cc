// GIS map search: the paper's motivating scenario (§1) — index road
// segments of a TIGER-style map and serve map-viewport queries, comparing
// the PR-tree against the packed Hilbert R-tree on both friendly and
// hostile data.  Exits 1 unless the PR-tree reads fewer leaves per query
// than packed Hilbert on the hostile data (the shape of Figure 15).
//
//   $ ./build/examples/gis_map_search

#include <cstdio>
#include <vector>

#include "io/buffer_pool.h"
#include "rtree/bulk_loader.h"
#include "workload/datasets.h"
#include "workload/queries.h"

using namespace prtree;  // NOLINT

namespace {

struct Index {
  Index(LoaderKind kind, const std::vector<Record2>& data) {
    AbortIfError(MakeBulkLoader(kind, {.memory_bytes = 8u << 20})
                     ->Build(&device, data, &tree));
  }

  MemoryBlockDevice device;
  RTree<2> tree{&device};
};

double AvgLeafReads(Index* idx, const std::vector<Rect2>& viewports) {
  TreeStats ts = idx->tree.ComputeStats();
  BufferPool pool(&idx->device, ts.num_nodes + 16);
  idx->tree.CacheInternalNodes(&pool);
  uint64_t leaves = 0;
  for (const auto& v : viewports) {
    leaves += idx->tree.Query(v, [](const Record2&) {}, &pool)
                  .leaves_visited;
  }
  return static_cast<double>(leaves) / static_cast<double>(viewports.size());
}

}  // namespace

int main() {
  // A state-sized road network (bounding boxes of road segments).
  const size_t kSegments = 400000;
  auto roads = workload::MakeTigerLike(kSegments,
                                       workload::TigerRegion::kEastern, 7);
  std::printf("map: %zu road-segment bounding boxes\n", roads.size());

  Index pr(LoaderKind::kPrTree, roads), hilbert(LoaderKind::kHilbert, roads);

  // City-block-sized viewports (0.5% of the map area).
  auto viewports = workload::MakeSquareQueries(pr.tree.Mbr(), 0.005, 200, 3);
  std::printf("\nfriendly data — %zu viewport queries (0.5%% of map):\n",
              viewports.size());
  std::printf("  PR-tree:        %.1f leaf blocks/query\n",
              AvgLeafReads(&pr, viewports));
  std::printf("  packed Hilbert: %.1f leaf blocks/query\n",
              AvgLeafReads(&hilbert, viewports));
  std::printf("  (on nicely distributed road data the two are close — "
              "paper Figures 12-13)\n");

  // Hostile data: long power-line corridors — extreme aspect ratios.
  auto corridors = workload::MakeAspect(kSegments, 1e4, 11);
  Index pr2(LoaderKind::kPrTree, corridors),
      hilbert2(LoaderKind::kHilbert, corridors);
  auto viewports2 =
      workload::MakeSquareQueries(pr2.tree.Mbr(), 0.005, 200, 5);
  const double pr2_leaves = AvgLeafReads(&pr2, viewports2);
  const double hilbert2_leaves = AvgLeafReads(&hilbert2, viewports2);
  std::printf("\nhostile data (aspect-10^4 corridors) — same queries:\n");
  std::printf("  PR-tree:        %.1f leaf blocks/query\n", pr2_leaves);
  std::printf("  packed Hilbert: %.1f leaf blocks/query\n", hilbert2_leaves);
  if (pr2_leaves >= hilbert2_leaves) {
    std::fprintf(stderr, "the PR-tree should read fewer leaves here\n");
    return 1;
  }
  std::printf("  (the PR-tree's worst-case guarantee pays off — paper "
              "Figure 15)\n");
  return 0;
}

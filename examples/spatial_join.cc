// Spatial join: find all intersecting pairs between two rectangle sets
// using synchronised R-tree traversal — a classic workload (map overlay:
// roads x flood zones) built on the library's page-level API.
//
//   $ ./build/examples/spatial_join

#include <cstdio>
#include <vector>

#include "rtree/bulk_loader.h"
#include "util/timer.h"
#include "workload/datasets.h"

using namespace prtree;  // NOLINT

namespace {

// Synchronised depth-first join of two block-based R-trees: descend both
// trees simultaneously, pruning pairs of subtrees whose MBRs are disjoint.
template <typename Emit>
void TreeJoin(const RTree<2>& a, const RTree<2>& b, Emit emit,
              uint64_t* nodes_read) {
  struct Task {
    PageId pa, pb;
  };
  if (a.empty() || b.empty()) return;
  std::vector<std::byte> buf_a(a.block_size()), buf_b(b.block_size());
  std::vector<Task> stack{{a.root(), b.root()}};
  while (!stack.empty()) {
    Task t = stack.back();
    stack.pop_back();
    AbortIfError(a.device()->Read(t.pa, buf_a.data()));
    AbortIfError(b.device()->Read(t.pb, buf_b.data()));
    *nodes_read += 2;
    NodeView<2> na(buf_a.data(), a.block_size());
    NodeView<2> nb(buf_b.data(), b.block_size());

    if (na.is_leaf() && nb.is_leaf()) {
      for (int i = 0; i < na.count(); ++i) {
        Rect2 ra = na.GetRect(i);
        for (int j = 0; j < nb.count(); ++j) {
          if (ra.Intersects(nb.GetRect(j))) {
            emit(Record2{ra, na.GetId(i)},
                 Record2{nb.GetRect(j), nb.GetId(j)});
          }
        }
      }
    } else if (nb.is_leaf() || (!na.is_leaf() &&
                                na.level() >= nb.level())) {
      // Expand a.
      Rect2 mb = nb.ComputeMbr();
      for (int i = 0; i < na.count(); ++i) {
        if (na.GetRect(i).Intersects(mb)) {
          stack.push_back({na.GetId(i), t.pb});
        }
      }
    } else {
      // Expand b.
      Rect2 ma = na.ComputeMbr();
      for (int j = 0; j < nb.count(); ++j) {
        if (nb.GetRect(j).Intersects(ma)) {
          stack.push_back({t.pa, nb.GetId(j)});
        }
      }
    }
  }
}

}  // namespace

int main() {
  // Roads (thin, clustered) x hazard zones (moderate rectangles).
  auto roads = workload::MakeTigerLike(150000,
                                       workload::TigerRegion::kWestern, 3);
  auto zones = workload::MakeSize(20000, 0.01, 4);
  std::printf("joining %zu road segments with %zu hazard zones...\n",
              roads.size(), zones.size());

  MemoryBlockDevice dev_a, dev_b;
  RTree<2> tree_a(&dev_a), tree_b(&dev_b);
  auto loader = MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 8u << 20});
  AbortIfError(loader->Build(&dev_a, roads, &tree_a));
  AbortIfError(loader->Build(&dev_b, zones, &tree_b));

  Timer timer;
  uint64_t pairs = 0, nodes_read = 0;
  TreeJoin(tree_a, tree_b,
           [&](const Record2&, const Record2&) { ++pairs; }, &nodes_read);
  double join_seconds = timer.Seconds();

  std::printf("tree join: %llu intersecting pairs, %llu node reads, "
              "%.2fs\n",
              static_cast<unsigned long long>(pairs),
              static_cast<unsigned long long>(nodes_read), join_seconds);

  // Sanity-check against an index-nested-loop join on a sample.
  timer.Reset();
  uint64_t nested_pairs = 0;
  for (const auto& zone : zones) {
    nested_pairs += tree_a.Query(zone.rect, [](const Record2&) {}).results;
  }
  std::printf("index-nested-loop (per-zone window queries): %llu pairs, "
              "%.2fs\n",
              static_cast<unsigned long long>(nested_pairs),
              timer.Seconds());
  PRTREE_CHECK(pairs == nested_pairs);
  std::printf("both join strategies agree.\n");
  return 0;
}

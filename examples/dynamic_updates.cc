// Dynamic updates: a fleet-tracking workload over the two update paths the
// paper discusses (§1.2, §4) — Guttman updates applied directly to a
// bulk-loaded PR-tree, and the logarithmic-method DynamicPRTree that keeps
// the worst-case query guarantee.
//
//   $ ./build/examples/dynamic_updates

#include <cstdio>

#include "core/dynamic_prtree.h"
#include "rtree/bulk_loader.h"
#include "rtree/update.h"
#include "util/random.h"
#include "workload/datasets.h"

using namespace prtree;  // NOLINT

int main() {
  const size_t kVehicles = 50000;
  Rng rng(2026);

  // Initial fleet positions (points).
  std::vector<Record2> fleet;
  for (DataId id = 0; id < kVehicles; ++id) {
    double x = rng.Uniform(0, 1), y = rng.Uniform(0, 1);
    fleet.push_back(Record2{MakeRect(x, y, x, y), id});
  }

  // Path 1: bulk-load once, then Guttman-update in place.
  MemoryBlockDevice dev_guttman;
  RTree<2> guttman(&dev_guttman);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 8u << 20})
                   ->Build(&dev_guttman, fleet, &guttman));
  RTreeUpdater<2> updater(&guttman);

  // Path 2: logarithmic-method dynamic PR-tree.
  MemoryBlockDevice dev_dynamic;
  DynamicPRTree<2> dynamic(WorkEnv{&dev_dynamic, 8u << 20});
  for (const auto& rec : fleet) dynamic.Insert(rec);

  // Simulate movement: every tick, 1% of vehicles move (delete + insert).
  std::printf("simulating 20 ticks of fleet movement (1%% moves/tick)...\n");
  for (int tick = 0; tick < 20; ++tick) {
    for (int moves = 0; moves < static_cast<int>(kVehicles) / 100; ++moves) {
      DataId id = static_cast<DataId>(rng.UniformInt(0, kVehicles - 1));
      Record2 old_rec = fleet[id];
      double nx = std::clamp(old_rec.rect.lo[0] + rng.Gaussian(0, 0.01),
                             0.0, 1.0);
      double ny = std::clamp(old_rec.rect.lo[1] + rng.Gaussian(0, 0.01),
                             0.0, 1.0);
      Record2 new_rec{MakeRect(nx, ny, nx, ny), id};

      bool removed = updater.Delete(old_rec);
      PRTREE_CHECK(removed);
      updater.Insert(new_rec);
      removed = dynamic.Delete(old_rec);
      PRTREE_CHECK(removed);
      dynamic.Insert(new_rec);
      fleet[id] = new_rec;
    }
  }
  std::printf("after movement: guttman tree %zu records, dynamic %zu "
              "records (%zu levels, %zu tombstones)\n",
              guttman.size(), dynamic.size(), dynamic.num_levels(),
              dynamic.tombstones());

  // Geofence query: which vehicles are inside the depot area?
  Rect2 depot = MakeRect(0.45, 0.45, 0.55, 0.55);
  size_t expected = 0;
  for (const auto& rec : fleet) {
    if (rec.rect.Intersects(depot)) ++expected;
  }
  QueryStats g = guttman.Query(depot, [](const Record2&) {});
  QueryStats d = dynamic.Query(depot, [](const Record2&) {});
  std::printf("geofence %s: expected %zu\n", depot.ToString().c_str(),
              expected);
  std::printf("  guttman-updated PR-tree: %llu results, %llu leaf reads\n",
              static_cast<unsigned long long>(g.results),
              static_cast<unsigned long long>(g.leaves_visited));
  std::printf("  dynamic (log-method):    %llu results, %llu leaf reads\n",
              static_cast<unsigned long long>(d.results),
              static_cast<unsigned long long>(d.leaves_visited));
  PRTREE_CHECK(g.results == expected);
  PRTREE_CHECK(d.results == expected);
  std::printf("both structures agree with the ground truth.\n");
  return 0;
}

// Ablation: dynamic updates (§1.2, §4).
//
// The paper: a bulk-loaded PR-tree "can be updated using any known update
// heuristic for R-trees, but then its performance cannot be guaranteed
// theoretically anymore and its practical performance might suffer as
// well"; the logarithmic method keeps the guarantee.  This bench measures
// query cost on extreme (CLUSTER) data for:
//   (a) the freshly bulk-loaded PR-tree,
//   (b) the same tree after Guttman-inserting an extra 25% of records,
//   (c) the logarithmic-method DynamicPRTree holding the same final set.

#include <cstdio>

#include "core/dynamic_prtree.h"
#include "harness/bench_json.h"
#include "harness/experiment.h"
#include "io/buffer_pool.h"
#include "rtree/bulk_loader.h"
#include "rtree/update.h"
#include "util/table_printer.h"
#include "workload/datasets.h"
#include "workload/queries.h"

using namespace prtree;           // NOLINT
using namespace prtree::harness;  // NOLINT

namespace {

double AvgLeaves(const RTree<2>& tree, BlockDevice* dev,
                 const std::vector<Rect2>& queries) {
  TreeStats ts = tree.ComputeStats();
  BufferPool pool(dev, ts.num_nodes + 16);
  tree.CacheInternalNodes(&pool);
  uint64_t leaves = 0;
  for (const auto& q : queries) {
    leaves += tree.Query(q, [](const Record2&) {}, &pool).leaves_visited;
  }
  return static_cast<double>(leaves) / static_cast<double>(queries.size());
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = ParseBenchFlags(argc, argv, /*default_n=*/120000);
  size_t n = opts.ScaledN();
  size_t clusters = std::max<size_t>(10, n / 200);
  auto data = workload::MakeCluster(clusters, n / clusters, opts.seed);
  size_t base_n = data.size() * 4 / 5;
  std::printf("=== Ablation: updates on CLUSTER data (bulk %zu + insert "
              "%zu) ===\n", base_n, data.size() - base_n);

  std::vector<Record2> base(data.begin(), data.begin() + base_n);
  std::vector<Record2> extra(data.begin() + base_n, data.end());

  // (a) bulk-loaded PR-tree over the base set.
  auto loader = MakeBulkLoader(LoaderKind::kPrTree,
                               {.memory_bytes = ScaledMemoryBudget(base_n)});
  MemoryBlockDevice dev_a(kDefaultBlockSize);
  RTree<2> tree_a(&dev_a);
  AbortIfError(loader->Build(&dev_a, base, &tree_a));

  // (b) same, then Guttman-insert the extra records.
  MemoryBlockDevice dev_b(kDefaultBlockSize);
  RTree<2> tree_b(&dev_b);
  AbortIfError(loader->Build(&dev_b, base, &tree_b));
  RTreeUpdater<2> updater(&tree_b);
  for (const auto& rec : extra) updater.Insert(rec);

  // (c) logarithmic-method dynamic PR-tree over everything.
  MemoryBlockDevice dev_c(kDefaultBlockSize);
  DynamicPRTree<2> dynamic(WorkEnv{&dev_c, ScaledMemoryBudget(n)});
  for (const auto& rec : data) dynamic.Insert(rec);

  // Stab the clusters exactly: the MBR's y-extent is the cluster band.
  Rect2 extent = tree_a.Mbr();
  auto queries = workload::MakeHorizontalStabQueries(extent, 1e-7, 0.9,
                                                     opts.queries,
                                                     opts.seed + 21);

  FigureJson json("ablation_updates");
  AddBenchParams(opts, n, &json);
  FigureJson::Table* jt = json.AddTable(
      "updates", {"configuration", "records", "leaves_per_query"});

  double a_leaves = AvgLeaves(tree_a, &dev_a, queries);
  double b_leaves = AvgLeaves(tree_b, &dev_b, queries);
  TablePrinter table({"configuration", "records", "leaves/query"});
  table.AddRow({"PR bulk-loaded (base set)",
                TablePrinter::FmtCount(tree_a.size()),
                TablePrinter::Fmt(a_leaves, 1)});
  table.AddRow({"PR + 25% Guttman inserts",
                TablePrinter::FmtCount(tree_b.size()),
                TablePrinter::Fmt(b_leaves, 1)});
  uint64_t dyn_leaves = 0;
  for (const auto& q : queries) {
    dyn_leaves += dynamic.Query(q, [](const Record2&) {}).leaves_visited;
  }
  double c_leaves = static_cast<double>(dyn_leaves) /
                    static_cast<double>(queries.size());
  table.AddRow({"logarithmic-method dynamic PR",
                TablePrinter::FmtCount(dynamic.size()),
                TablePrinter::Fmt(c_leaves, 1)});
  jt->AddRow({"bulk", static_cast<unsigned long long>(tree_a.size()),
              a_leaves});
  jt->AddRow({"guttman", static_cast<unsigned long long>(tree_b.size()),
              b_leaves});
  jt->AddRow({"logmethod", static_cast<unsigned long long>(dynamic.size()),
              c_leaves});
  table.Print();
  std::printf("(expected: Guttman inserts degrade the bulk-loaded tree; "
              "the logarithmic method preserves PR-quality queries at "
              "somewhat higher constant)\n");
  json.WriteFile(opts.json_path);
  return 0;
}

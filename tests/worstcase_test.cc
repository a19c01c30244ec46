// Theorem 3 and Table 1 behaviour: the heuristic R-trees can be forced to
// visit Θ(N/B) leaves on a query with empty output, while the PR-tree stays
// within its O(sqrt(N/B) + T/B) bound.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "rtree/bulk_loader.h"
#include "rtree/validate.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace prtree {
namespace {

struct BuiltTrees {
  RTree<2> h, h4, pr, tgs;
  explicit BuiltTrees(BlockDevice* dev) : h(dev), h4(dev), pr(dev), tgs(dev) {}
};

void BuildAll(const std::vector<Record2>& data, BuiltTrees* t) {
  const std::pair<LoaderKind, RTree<2>*> builds[] = {
      {LoaderKind::kHilbert, &t->h},
      {LoaderKind::kHilbert4D, &t->h4},
      {LoaderKind::kPrTree, &t->pr},
      {LoaderKind::kTgs, &t->tgs}};
  for (auto [kind, tree] : builds) {
    AbortIfError(MakeBulkLoader(kind, {.memory_bytes = 2u << 20})
                     ->Build(tree->device(), data, tree));
    ASSERT_TRUE(ValidateTree(*tree).ok()) << LoaderKindName(kind);
  }
}

TEST(WorstCaseTest, Theorem3GridForcesHeuristicsToVisitAllLeaves) {
  MemoryBlockDevice dev(512);
  const size_t b = NodeCapacity<2>(512);  // 13
  const size_t columns = 512;
  auto data = workload::MakeWorstCaseGrid(columns, b);
  const size_t n = data.size();
  BuiltTrees trees(&dev);
  BuildAll(data, &trees);

  // A horizontal line query between point rows: T = 0 (§2.4 proof).
  double y = 6.0 / static_cast<double>(b) - 0.5 / static_cast<double>(n);
  Rect2 line = MakeRect(-1, y, static_cast<double>(columns) + 1, y);

  auto leaves = [&](const RTree<2>& tree) {
    QueryStats qs = tree.Query(line, [](const Record2&) {});
    EXPECT_EQ(qs.results, 0u);
    return qs.leaves_visited;
  };
  uint64_t h = leaves(trees.h);
  uint64_t h4 = leaves(trees.h4);
  uint64_t tgs = leaves(trees.tgs);
  uint64_t pr = leaves(trees.pr);
  uint64_t total_leaves = trees.pr.ComputeStats().num_leaves;

  // Theorem 3: H, H4 and TGS visit Θ(N/B) leaves (the Hilbert curve and
  // TGS both isolate the columns).
  EXPECT_GE(h, total_leaves / 2) << "H should visit ~all leaves";
  EXPECT_GE(tgs, total_leaves / 2) << "TGS should visit ~all leaves";
  EXPECT_GE(h4, total_leaves / 4) << "H4 should visit many leaves";
  // Theorem 1: the PR-tree stays near sqrt(N/B).
  double bound = std::sqrt(static_cast<double>(n) / b);
  EXPECT_LE(pr, static_cast<uint64_t>(12 * bound) + 12);
  EXPECT_LT(8 * pr, h) << "PR-tree should beat H by a wide margin";
}

TEST(WorstCaseTest, TgsSplitsWorstCaseGridIntoColumns) {
  // §2.4's TGS argument: the greedy split always prefers vertical cuts on
  // the shifted grid, so every leaf ends up spanning a single column
  // (x-extent 0 for point columns).
  MemoryBlockDevice dev(512);
  const size_t b = NodeCapacity<2>(512);
  auto data = workload::MakeWorstCaseGrid(169, b);  // 13^2 columns
  RTree<2> tree(&dev);
  AbortIfError(MakeBulkLoader(LoaderKind::kTgs, {.memory_bytes = 2u << 20})
                   ->Build(&dev, data, &tree));

  std::vector<std::byte> buf(512);
  std::vector<PageId> stack{tree.root()};
  size_t single_column_leaves = 0, leaves = 0;
  while (!stack.empty()) {
    PageId page = stack.back();
    stack.pop_back();
    ASSERT_TRUE(dev.Read(page, buf.data()).ok());
    NodeView<2> node(buf.data(), 512);
    if (!node.is_leaf()) {
      for (int i = 0; i < node.count(); ++i) stack.push_back(node.GetId(i));
      continue;
    }
    ++leaves;
    if (node.ComputeMbr().Extent(0) == 0.0) ++single_column_leaves;
  }
  EXPECT_EQ(single_column_leaves, leaves);
}

TEST(WorstCaseTest, ClusterDatasetStabQueries) {
  // Scaled-down Table 1: CLUSTER data with thin horizontal stabs through
  // all clusters.  Expected shape: PR visits a small fraction of the tree;
  // H, H4 and TGS visit large fractions (paper: 37 %, 94 %, 25 % vs 1.2 %).
  MemoryBlockDevice dev(4096);
  auto data = workload::MakeCluster(1000, 200, 7);  // 200k points
  BuiltTrees trees(&dev);
  BuildAll(data, &trees);

  Rect2 extent = trees.pr.Mbr();
  auto queries = workload::MakeHorizontalStabQueries(
      extent, /*height=*/1e-7, /*band=*/0.9, /*count=*/20, 11);

  auto frac_visited = [&](const RTree<2>& tree) {
    uint64_t total = 0;
    uint64_t num_leaves = tree.ComputeStats().num_leaves;
    for (const auto& q : queries) {
      total += tree.Query(q, [](const Record2&) {}).leaves_visited;
    }
    return static_cast<double>(total) /
           (static_cast<double>(num_leaves) * queries.size());
  };

  double pr = frac_visited(trees.pr);
  double h = frac_visited(trees.h);
  double h4 = frac_visited(trees.h4);
  double tgs = frac_visited(trees.tgs);

  // At paper scale (10M points) the gaps are >10x; at this 200k-point
  // scale PR's sqrt(N/B) term is a larger share of a much smaller tree,
  // so assert the ordering with conservative margins.
  EXPECT_LT(pr, 0.10) << "pr=" << pr;
  EXPECT_GT(h, 2 * pr) << "h=" << h << " pr=" << pr;
  EXPECT_GT(h4, 2 * pr) << "h4=" << h4 << " pr=" << pr;
  EXPECT_GT(tgs, 1.2 * pr) << "tgs=" << tgs << " pr=" << pr;
}

TEST(WorstCaseTest, BitReverse) {
  EXPECT_EQ(workload::BitReverse(0b000, 3), 0b000u);
  EXPECT_EQ(workload::BitReverse(0b001, 3), 0b100u);
  EXPECT_EQ(workload::BitReverse(0b011, 3), 0b110u);
  EXPECT_EQ(workload::BitReverse(0b110, 3), 0b011u);
  EXPECT_EQ(workload::BitReverse(1, 10), 512u);
}

}  // namespace
}  // namespace prtree

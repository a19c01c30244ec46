#include <gtest/gtest.h>

#include <cmath>

#include "rtree/bulk_loader.h"
#include "rtree/validate.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace prtree {
namespace {

using testing_util::BruteForceQuery;
using testing_util::RandomRects;
using testing_util::RandomWindow;
using testing_util::SortedIds;

/// Builds `tree` as a PR-tree over `data` on the tree's device.
template <int D>
Status BuildPr(const std::vector<Record<D>>& data, RTree<D>* tree,
               const BuildOptions& opts = {.memory_bytes = 8u << 20}) {
  return MakeBulkLoader<D>(LoaderKind::kPrTree, opts)
      ->Build(tree->device(), data, tree);
}

TEST(PrTreeTest, EmptyInput) {
  MemoryBlockDevice dev(4096);
  RTree<2> tree(&dev);
  std::vector<Record2> empty;
  ASSERT_TRUE(BuildPr(empty, &tree).ok());
  EXPECT_TRUE(tree.empty());
}

TEST(PrTreeTest, RejectsNonEmptyTree) {
  MemoryBlockDevice dev(4096);
  RTree<2> tree(&dev);
  auto data = RandomRects<2>(10, 1);
  ASSERT_TRUE(BuildPr(data, &tree).ok());
  Status st = BuildPr(data, &tree);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(PrTreeTest, RejectsBadPriorityFraction) {
  MemoryBlockDevice dev(4096);
  RTree<2> tree(&dev);
  auto data = RandomRects<2>(10, 1);
  EXPECT_FALSE(BuildPr(data, &tree, {.priority_fraction = 0.0}).ok());
  EXPECT_FALSE(BuildPr(data, &tree, {.priority_fraction = 1.5}).ok());
}

class PrTreeCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, bool>> {};

TEST_P(PrTreeCorrectnessTest, ValidTreeAndExactQueries) {
  auto [n, block_size, force_grid] = GetParam();
  MemoryBlockDevice dev(block_size);
  auto data = RandomRects<2>(n, 31 * n + block_size);
  RTree<2> tree(&dev);
  // A small memory budget forces multi-level grid recursion when forced.
  ASSERT_TRUE(BuildPr(data, &tree,
                      {.memory_bytes = force_grid ? 64u << 10 : 8u << 20,
                       .force_grid = force_grid})
                  .ok());

  ASSERT_TRUE(ValidateTree(tree).ok());
  EXPECT_EQ(tree.size(), n);

  // The stored multiset equals the input.
  auto dumped = DumpRecords(tree);
  auto expect = data;
  CanonicalSort(&dumped);
  CanonicalSort(&expect);
  EXPECT_EQ(dumped.size(), expect.size());
  EXPECT_TRUE(dumped == expect);

  Rng rng(n + 7);
  for (int q = 0; q < 30; ++q) {
    Rect2 w = RandomWindow<2>(&rng, q % 2 ? 0.25 : 0.05);
    EXPECT_EQ(SortedIds(tree.QueryToVector(w)), BruteForceQuery(data, w));
  }
}

INSTANTIATE_TEST_SUITE_P(
    InMemory, PrTreeCorrectnessTest,
    ::testing::Combine(::testing::Values(1, 113, 114, 1000, 12000),
                       ::testing::Values(size_t{512}, size_t{4096}),
                       ::testing::Values(false)));

INSTANTIATE_TEST_SUITE_P(
    GridPath, PrTreeCorrectnessTest,
    ::testing::Combine(::testing::Values(1000, 12000, 40000),
                       ::testing::Values(size_t{512}, size_t{4096}),
                       ::testing::Values(true)));

TEST(PrTreeTest, AllLeavesOnBottomLevelAndPacked) {
  MemoryBlockDevice dev(4096);
  auto data = RandomRects<2>(100000, 41);
  RTree<2> tree(&dev);
  ASSERT_TRUE(BuildPr(data, &tree, {.memory_bytes = 64u << 20}).ok());
  ASSERT_TRUE(ValidateTree(tree).ok());
  TreeStats ts = tree.ComputeStats();
  // §3.3: "in all experiments and for all R-trees we achieved a space
  // utilization above 99%".
  EXPECT_GT(ts.utilization, 0.99);
  // Height matches ceil(log_B N) for a packed tree.
  EXPECT_EQ(ts.height, 2);  // 100000 <= 113^3
  EXPECT_EQ(ts.num_entries, data.size());
}

TEST(PrTreeTest, GridAndInMemoryBuildsAreBothValidOnSameData) {
  // The second input gives every id to two records, as a forest merge does
  // when a moved object's new position is inserted before its old one is
  // deleted; the grid path must still tell the two apart.
  auto shared_ids = RandomRects<2>(500, 45);
  for (size_t i = 0; i < shared_ids.size(); ++i) {
    shared_ids[i].id = static_cast<DataId>(i / 2);
  }
  const std::pair<std::vector<Record2>, size_t> inputs[] = {
      {RandomRects<2>(20000, 43), 128u << 10}, {shared_ids, 8u << 10}};
  for (const auto& [data, grid_memory] : inputs) {
    MemoryBlockDevice dev(512);
    RTree<2> mem_tree(&dev), grid_tree(&dev);
    ASSERT_TRUE(BuildPr(data, &mem_tree).ok());
    ASSERT_TRUE(
        BuildPr(data, &grid_tree,
                {.memory_bytes = grid_memory, .force_grid = true})
            .ok());
    ASSERT_TRUE(ValidateTree(mem_tree).ok());
    ASSERT_TRUE(ValidateTree(grid_tree).ok());
    EXPECT_EQ(grid_tree.size(), data.size());
    // Identical answers.
    Rng rng(47);
    for (int q = 0; q < 20; ++q) {
      Rect2 w = RandomWindow<2>(&rng, 0.1);
      EXPECT_EQ(SortedIds(mem_tree.QueryToVector(w)),
                SortedIds(grid_tree.QueryToVector(w)));
    }
    // Both near-full.
    EXPECT_GT(mem_tree.ComputeStats().utilization, 0.95);
    EXPECT_GT(grid_tree.ComputeStats().utilization, 0.90);
  }
}

TEST(PrTreeTest, BuildIoIsSortLike) {
  // Theorem 1: O((N/B) log_{M/B} (N/B)) I/Os — i.e., a small constant
  // times the cost of 2D external sorts at realistic M.
  MemoryBlockDevice dev(4096);
  auto data = RandomRects<2>(60000, 53);
  Stream<Record2> input(&dev);
  input.Append(data);
  input.Flush();
  size_t data_blocks = input.num_blocks();

  dev.ResetStats();
  RTree<2> tree(&dev);
  // M << N forces external behaviour.
  ASSERT_TRUE(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 1u << 20})
                  ->Build(&dev, &input, &tree)
                  .ok());
  uint64_t io = dev.stats().Total();
  // 4 sorts (read+write each ~2 passes) + counting/filter/distribute scans
  // + output: generously under 40 passes over the data.
  EXPECT_LE(io, 40u * data_blocks) << "io=" << io
                                   << " blocks=" << data_blocks;
  ASSERT_TRUE(ValidateTree(tree).ok());
}

TEST(PrTreeTest, PriorityFractionAblationStillCorrect) {
  MemoryBlockDevice dev(512);
  auto data = RandomRects<2>(8000, 59);
  for (double frac : {0.25, 0.5, 1.0}) {
    RTree<2> tree(&dev);
    ASSERT_TRUE(BuildPr(data, &tree,
                        {.memory_bytes = 8u << 20, .priority_fraction = frac})
                    .ok());
    ASSERT_TRUE(ValidateTree(tree).ok());
    Rng rng(61);
    for (int q = 0; q < 10; ++q) {
      Rect2 w = RandomWindow<2>(&rng, 0.2);
      EXPECT_EQ(SortedIds(tree.QueryToVector(w)), BruteForceQuery(data, w));
    }
    tree.FreeAll();
  }
}

TEST(PrTreeTest, ThreeDimensionalPrTree) {
  // §2.3: the d-dimensional PR-tree.
  MemoryBlockDevice dev(4096);
  auto data = RandomRects<3>(20000, 67);
  RTree<3> tree(&dev);
  ASSERT_TRUE(BuildPr(data, &tree).ok());
  ASSERT_TRUE(ValidateTree(tree).ok());
  EXPECT_GT(tree.ComputeStats().utilization, 0.95);
  Rng rng(71);
  for (int q = 0; q < 15; ++q) {
    Rect<3> w = RandomWindow<3>(&rng, 0.3);
    EXPECT_EQ(SortedIds(tree.QueryToVector(w)), BruteForceQuery(data, w));
  }
}

TEST(PrTreeTest, ThreeDimensionalGridPath) {
  MemoryBlockDevice dev(4096);
  auto data = RandomRects<3>(15000, 73);
  RTree<3> tree(&dev);
  ASSERT_TRUE(
      BuildPr(data, &tree, {.memory_bytes = 256u << 10, .force_grid = true})
          .ok());
  ASSERT_TRUE(ValidateTree(tree).ok());
  Rng rng(79);
  for (int q = 0; q < 10; ++q) {
    Rect<3> w = RandomWindow<3>(&rng, 0.3);
    EXPECT_EQ(SortedIds(tree.QueryToVector(w)), BruteForceQuery(data, w));
  }
}

// Theorem 1 query-bound property: empty-result queries on the worst-case
// grid stay within c * sqrt(N/B) leaves across a sweep of N.
class PrTreeQueryBoundTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PrTreeQueryBoundTest, EmptyQueryLeafVisitsAreSqrtBounded) {
  size_t columns = GetParam();
  MemoryBlockDevice dev(512);
  const size_t b = NodeCapacity<2>(512);  // 13
  auto data = workload::MakeWorstCaseGrid(columns, b);
  RTree<2> tree(&dev);
  ASSERT_TRUE(BuildPr(data, &tree).ok());

  double worst = 0;
  const size_t n = data.size();
  for (int row = 1; row < 8; ++row) {
    double y = row / static_cast<double>(b) - 0.5 / static_cast<double>(n);
    Rect2 line = MakeRect(-1, y, 1e9, y);
    QueryStats qs = tree.Query(line, [](const Record2&) {});
    ASSERT_EQ(qs.results, 0u);
    worst = std::max(worst, static_cast<double>(qs.leaves_visited));
  }
  double bound = std::sqrt(static_cast<double>(n) / b);
  EXPECT_LE(worst, 12 * bound + 12)
      << "N=" << n << " sqrt(N/B)=" << bound << " worst=" << worst;
}

INSTANTIATE_TEST_SUITE_P(GridSizes, PrTreeQueryBoundTest,
                         ::testing::Values(64, 128, 256, 512, 1024));

}  // namespace
}  // namespace prtree

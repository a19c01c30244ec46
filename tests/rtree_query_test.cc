#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rtree/builder.h"
#include "rtree/rtree.h"
#include "rtree/validate.h"
#include "tests/test_util.h"

namespace prtree {
namespace {

using testing_util::BruteForceQuery;
using testing_util::DamageNodeHeader;
using testing_util::kCountField;
using testing_util::kLevelField;
using testing_util::RandomRects;
using testing_util::RandomWindow;
using testing_util::SortedIds;

// Builds an (unoptimised) R-tree by packing records in input order; query
// correctness must hold for any packing.
template <int D>
RTree<D> PackInOrder(BlockDevice* dev, const std::vector<Record<D>>& data) {
  RTree<D> tree(dev);
  NodeWriter<D> writer(dev, 0);
  for (const auto& rec : data) writer.Add(rec.rect, rec.id);
  PackUpward(&tree, writer.Finish(), data.size());
  return tree;
}

TEST(RTreeQueryTest, EmptyTree) {
  MemoryBlockDevice dev(4096);
  RTree<2> tree(&dev);
  EXPECT_TRUE(tree.empty());
  auto res = tree.QueryToVector(MakeRect(0, 0, 1, 1));
  EXPECT_TRUE(res.empty());
  EXPECT_TRUE(tree.Mbr().IsEmpty());
}

TEST(RTreeQueryTest, PointQueryFindsExactRecord) {
  MemoryBlockDevice dev(4096);
  auto data = RandomRects<2>(500, 31);
  auto tree = PackInOrder(&dev, data);
  const auto& target = data[123];
  auto res = tree.QueryToVector(target.rect);
  bool found = false;
  for (const auto& r : res) {
    if (r.id == target.id && r.rect == target.rect) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(RTreeQueryTest, WholeExtentReturnsEverything) {
  MemoryBlockDevice dev(512);
  auto data = RandomRects<2>(2000, 37);
  auto tree = PackInOrder(&dev, data);
  Rect2 all = MakeRect(-1, -1, 2, 2);
  QueryStats qs = tree.Query(all, [](const Record2&) {});
  EXPECT_EQ(qs.results, 2000u);
  TreeStats ts = tree.ComputeStats();
  EXPECT_EQ(qs.leaves_visited, ts.num_leaves);
  EXPECT_EQ(qs.nodes_visited, ts.num_nodes);
}

TEST(RTreeQueryTest, DisjointWindowReturnsNothing) {
  MemoryBlockDevice dev(4096);
  auto data = RandomRects<2>(500, 41);
  auto tree = PackInOrder(&dev, data);
  auto res = tree.QueryToVector(MakeRect(5, 5, 6, 6));
  EXPECT_TRUE(res.empty());
}

class QueryCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {};

TEST_P(QueryCorrectnessTest, MatchesBruteForce) {
  auto [n, block_size, seed] = GetParam();
  MemoryBlockDevice dev(block_size);
  auto data = RandomRects<2>(n, seed);
  auto tree = PackInOrder(&dev, data);
  ASSERT_TRUE(ValidateTree(tree).ok());

  Rng rng(seed * 31 + 7);
  for (int q = 0; q < 50; ++q) {
    Rect2 w = RandomWindow<2>(&rng, q % 2 ? 0.3 : 0.05);
    auto got = SortedIds(tree.QueryToVector(w));
    auto expect = BruteForceQuery(data, w);
    EXPECT_EQ(got, expect) << "window " << w.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueryCorrectnessTest,
    ::testing::Combine(::testing::Values(1, 50, 113, 114, 1000, 5000),
                       ::testing::Values(512, 4096),
                       ::testing::Values(1, 99)));

TEST(RTreeQueryTest, QueryThroughBufferPoolIsEquivalent) {
  MemoryBlockDevice dev(512);
  auto data = RandomRects<2>(3000, 43);
  auto tree = PackInOrder(&dev, data);
  BufferPool pool(&dev, 1024);
  tree.CacheInternalNodes(&pool);

  Rng rng(17);
  for (int q = 0; q < 25; ++q) {
    Rect2 w = RandomWindow<2>(&rng, 0.2);
    auto with_pool = SortedIds(tree.QueryToVector(w, &pool));
    auto without = SortedIds(tree.QueryToVector(w));
    EXPECT_EQ(with_pool, without);
  }
}

TEST(RTreeQueryTest, CachedInternalNodesMakeQueriesLeafOnly) {
  MemoryBlockDevice dev(512);
  auto data = RandomRects<2>(3000, 47);
  auto tree = PackInOrder(&dev, data);
  BufferPool pool(&dev, 4096);
  tree.CacheInternalNodes(&pool);
  dev.ResetStats();
  pool.ResetCounters();

  Rect2 w = MakeRect(0.4, 0.4, 0.6, 0.6);
  QueryStats qs = tree.Query(w, [](const Record2&) {}, &pool);
  // §3.3: with internal nodes cached, device reads == leaves visited.
  EXPECT_EQ(dev.stats().reads, qs.leaves_visited);
  EXPECT_EQ(pool.hits(), qs.internal_visited);
}

TEST(RTreeQueryTest, ReadaheadNeverChangesAnswersOrQueryStats) {
  MemoryBlockDevice dev(512);
  auto data = RandomRects<2>(3000, 49);
  auto tree = PackInOrder(&dev, data);
  TreeStats ts = tree.ComputeStats();

  // A pool too small for the tree, so eviction and staging both run.
  BufferPool scalar_pool(&dev, ts.num_nodes / 4 + 2, /*num_shards=*/1);
  BufferPool ahead_pool(&dev, ts.num_nodes / 4 + 2, /*num_shards=*/1);
  ahead_pool.set_readahead(true);

  Rng rng(19);
  for (int q = 0; q < 25; ++q) {
    Rect2 w = RandomWindow<2>(&rng, 0.2);
    QueryStats scalar_stats, ahead_stats;
    std::vector<Record2> scalar_out, ahead_out;
    scalar_stats = tree.Query(
        w, [&](const Record2& r) { scalar_out.push_back(r); }, &scalar_pool);
    ahead_stats = tree.Query(
        w, [&](const Record2& r) { ahead_out.push_back(r); }, &ahead_pool);
    // The readahead contract: identical visits, identical results, in the
    // identical order (prefetch must not perturb the traversal at all).
    EXPECT_EQ(ahead_stats.nodes_visited, scalar_stats.nodes_visited);
    EXPECT_EQ(ahead_stats.internal_visited, scalar_stats.internal_visited);
    EXPECT_EQ(ahead_stats.leaves_visited, scalar_stats.leaves_visited);
    EXPECT_EQ(ahead_stats.results, scalar_stats.results);
    EXPECT_EQ(SortedIds(ahead_out), SortedIds(scalar_out));
  }
  // The speculative traffic exists and is charged to the prefetch counter.
  EXPECT_GT(ahead_pool.prefetch_staged(), 0u);
  EXPECT_GT(dev.stats().prefetch_reads, 0u);
}

TEST(RTreeQueryTest, StatsCountNodesByKind) {
  MemoryBlockDevice dev(512);
  auto data = RandomRects<2>(2000, 53);
  auto tree = PackInOrder(&dev, data);
  QueryStats qs = tree.Query(MakeRect(-1, -1, 2, 2), [](const Record2&) {});
  EXPECT_EQ(qs.nodes_visited, qs.leaves_visited + qs.internal_visited);
  EXPECT_GT(qs.internal_visited, 0u);
}

TEST(RTreeQueryTest, ThreeDimensionalQueries) {
  MemoryBlockDevice dev(4096);
  auto data = RandomRects<3>(2000, 59);
  RTree<3> tree(&dev);
  NodeWriter<3> writer(&dev, 0);
  for (const auto& rec : data) writer.Add(rec.rect, rec.id);
  PackUpward(&tree, writer.Finish(), data.size());
  ASSERT_TRUE(ValidateTree(tree).ok());

  Rng rng(61);
  for (int q = 0; q < 20; ++q) {
    Rect<3> w = RandomWindow<3>(&rng, 0.4);
    auto got = SortedIds(tree.QueryToVector(w));
    auto expect = BruteForceQuery(data, w);
    EXPECT_EQ(got, expect);
  }
}

TEST(RTreeQueryTest, FreeAllReleasesEveryBlock) {
  MemoryBlockDevice dev(512);
  size_t before = dev.num_allocated();
  auto data = RandomRects<2>(2000, 67);
  auto tree = PackInOrder(&dev, data);
  EXPECT_GT(dev.num_allocated(), before);
  tree.FreeAll();
  EXPECT_EQ(dev.num_allocated(), before);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
}

TEST(ValidateTest, DetectsCorruptedMbr) {
  MemoryBlockDevice dev(4096);
  auto data = RandomRects<2>(500, 71);
  auto tree = PackInOrder(&dev, data);
  ASSERT_GE(tree.height(), 1);
  // Corrupt the root: shrink the first child MBR so it no longer covers the
  // subtree.
  std::vector<std::byte> buf(4096);
  ASSERT_TRUE(dev.Read(tree.root(), buf.data()).ok());
  NodeView<2> root(buf.data(), buf.size());
  Rect2 r = root.GetRect(0);
  r.hi[0] = r.lo[0];  // collapse
  r.hi[1] = r.lo[1];
  root.SetEntry(0, r, root.GetId(0));
  ASSERT_TRUE(dev.Write(tree.root(), buf.data()).ok());
  Status st = ValidateTree(tree);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST(ValidateTest, DetectsWrongRecordCount) {
  MemoryBlockDevice dev(4096);
  auto data = RandomRects<2>(100, 73);
  auto tree = PackInOrder(&dev, data);
  tree.set_size(99);
  EXPECT_FALSE(ValidateTree(tree).ok());
}

// The first child of a height-1 tree's root: a leaf.
PageId FirstLeaf(const RTree<2>& tree) {
  PageGuard guard;
  tree.PinNode(tree.root(), nullptr, &guard);
  return ConstNodeView<2>(guard.data(), tree.block_size()).GetId(0);
}

// An entry count over the node's capacity would send every entry loop past
// the end of the block.
TEST(ValidateTest, DetectsEntryCountOverCapacity) {
  MemoryBlockDevice dev(4096);
  auto tree = PackInOrder(&dev, RandomRects<2>(500, 79));
  ASSERT_EQ(tree.height(), 1);
  DamageNodeHeader(&dev, FirstLeaf(tree), kCountField, 0xFFFF);
  Status st = ValidateTree(tree);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

// A level above the root's would index past the per-level node counts.
TEST(TreeStatsDeathTest, RefusesANodeAboveTheRootLevel) {
  MemoryBlockDevice dev(4096);
  auto tree = PackInOrder(&dev, RandomRects<2>(500, 83));
  ASSERT_EQ(tree.height(), 1);
  const PageId leaf = FirstLeaf(tree);
  DamageNodeHeader(&dev, leaf, kLevelField, 5000);
  EXPECT_DEATH(tree.ComputeStats(),
               "page " + std::to_string(leaf) +
                   " claims level 5000, but its place in the tree allows "
                   "at most level 0");
}

// A leaf whose level reads 1 under a level-1 root would be walked as an
// internal node, its data ids pinned as pages — here id 0 names the leaf
// itself, so an unchecked Contains would loop forever.  Every traversal
// bounds a child's level by its parent's and refuses the leaf, naming it.
TEST(RTreeTraversalDeathTest, RefusesALeafClaimingItsParentsLevel) {
  MemoryBlockDevice dev(4096);
  const auto data = RandomRects<2>(500, 89);
  auto tree = PackInOrder(&dev, data);
  ASSERT_EQ(tree.height(), 1);
  const PageId leaf = FirstLeaf(tree);
  DamageNodeHeader(&dev, leaf, kLevelField, 1);
  const std::string message =
      "page " + std::to_string(leaf) +
      " claims level 1, but its place in the tree allows at most level 0";
  EXPECT_DEATH(tree.QueryToVector(MakeRect(-1, -1, 2, 2)), message);
  EXPECT_DEATH(tree.Contains(data[0]), message);  // packed into that leaf
  EXPECT_DEATH(tree.ComputeStats(), message);
  EXPECT_DEATH(tree.FreeAll(), message);
}

}  // namespace
}  // namespace prtree

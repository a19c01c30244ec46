#include "rtree/knn.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/dynamic_prtree.h"
#include "rtree/bulk_loader.h"
#include "tests/test_util.h"

namespace prtree {
namespace {

using testing_util::Bits;
using testing_util::BruteForceKnn;
using testing_util::DamageNodeHeader;
using testing_util::kCountField;
using testing_util::RandomRects;
using testing_util::ScopedLayout;

// The distance a kNN search must cover: the k-th returned distance, or
// infinity when fewer than k records came back (every node is needed).
template <int D>
Real KthDistance(const std::vector<Neighbor<D>>& got, size_t k) {
  return got.size() < k ? std::numeric_limits<Real>::infinity()
                        : got.back().distance;
}

// Adds to `out` the nodes under `root` that a best-first kNN search must
// expand: the root, and every other node whose MINDIST (from its parent's
// entry) is <= `kth`.  Walks the whole tree, not just the expanded part.
template <int D>
void AddMustVisit(const RTree<D>& tree, PageId root,
                  const std::array<Real, D>& p, Real kth, QueryStats* out) {
  struct Pending {
    PageId page;
    Real dist;
  };
  std::vector<Pending> stack{{root, 0.0}};
  PageGuard guard;
  while (!stack.empty()) {
    const Pending at = stack.back();
    stack.pop_back();
    tree.PinNode(at.page, nullptr, &guard);
    ConstNodeView<D> node(guard.data(), tree.block_size());
    if (at.dist <= kth) {
      ++out->nodes_visited;
      ++(node.is_leaf() ? out->leaves_visited : out->internal_visited);
    }
    if (node.is_leaf()) continue;
    for (int i = 0; i < node.count(); ++i) {
      stack.push_back(Pending{node.GetId(i), MinDist<D>(p, node.GetRect(i))});
    }
  }
}

void ExpectSameNeighbors(const std::vector<Neighbor<2>>& got,
                         const std::vector<Neighbor<2>>& expect) {
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].record.id, expect[i].record.id) << i;
    EXPECT_EQ(Bits(got[i].distance), Bits(expect[i].distance)) << i;
  }
}

TEST(MinDistTest, BasicGeometry) {
  Rect2 r = MakeRect(1, 1, 2, 2);
  EXPECT_DOUBLE_EQ((MinDist<2>({1.5, 1.5}, r)), 0.0);  // inside
  EXPECT_DOUBLE_EQ((MinDist<2>({1.5, 1.0}, r)), 0.0);  // on boundary
  EXPECT_DOUBLE_EQ((MinDist<2>({0, 1.5}, r)), 1.0);    // left of
  EXPECT_DOUBLE_EQ((MinDist<2>({1.5, 4}, r)), 2.0);    // above
  EXPECT_DOUBLE_EQ((MinDist<2>({0, 0}, r)), std::sqrt(2.0));  // corner
}

TEST(KnnTest, EmptyTreeAndZeroK) {
  MemoryBlockDevice dev(4096);
  RTree<2> tree(&dev);
  EXPECT_TRUE(KnnSearch<2>(tree, {0.5, 0.5}, 5).empty());
  auto data = RandomRects<2>(100, 1);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 1u << 20})
                   ->Build(&dev, data, &tree));
  dev.ResetStats();
  QueryStats stats;
  EXPECT_TRUE(KnnSearch<2>(tree, {0.5, 0.5}, 0, &stats).empty());
  EXPECT_EQ(stats.nodes_visited, 0u);
  EXPECT_EQ(dev.stats().reads, 0u);  // k == 0 reads no page
}

TEST(KnnTest, KLargerThanTreeReturnsEverything) {
  MemoryBlockDevice dev(4096);
  RTree<2> tree(&dev);
  auto data = RandomRects<2>(50, 3);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 1u << 20})
                   ->Build(&dev, data, &tree));
  auto res = KnnSearch<2>(tree, {0.5, 0.5}, 500);
  EXPECT_EQ(res.size(), 50u);
  // Distances non-decreasing.
  for (size_t i = 1; i < res.size(); ++i) {
    EXPECT_GE(res[i].distance, res[i - 1].distance);
  }
}

class KnnCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {
};

TEST_P(KnnCorrectnessTest, MatchesBruteForce) {
  auto [n, k, seed] = GetParam();
  MemoryBlockDevice dev(512);
  auto data = RandomRects<2>(n, seed);
  RTree<2> tree(&dev);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                   ->Build(&dev, data, &tree));

  Rng rng(seed + 99);
  for (int q = 0; q < 20; ++q) {
    std::array<Real, 2> p{rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)};
    auto got = KnnSearch<2>(tree, p, k);
    auto expect = BruteForceKnn<2>(data, p, k);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i) {
      // Distances must agree exactly; the record may differ only between
      // equidistant candidates.
      EXPECT_DOUBLE_EQ(got[i].distance, expect[i].distance) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnCorrectnessTest,
    ::testing::Combine(::testing::Values(1, 100, 3000),
                       ::testing::Values(size_t{1}, size_t{10}, size_t{64}),
                       ::testing::Values(7, 1001)));

TEST(KnnTest, VisitsFarFewerNodesThanFullScan) {
  MemoryBlockDevice dev(4096);
  auto data = RandomRects<2>(100000, 13);
  RTree<2> tree(&dev);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 16u << 20})
                   ->Build(&dev, data, &tree));
  QueryStats stats;
  auto res = KnnSearch<2>(tree, {0.5, 0.5}, 10, &stats);
  ASSERT_EQ(res.size(), 10u);
  // Best-first search should touch a tiny fraction of the tree.
  EXPECT_LT(stats.nodes_visited, tree.ComputeStats().num_nodes / 20);
}

TEST(KnnTest, WorksThroughBufferPool) {
  MemoryBlockDevice dev(512);
  auto data = RandomRects<2>(5000, 17);
  RTree<2> tree(&dev);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                   ->Build(&dev, data, &tree));
  BufferPool pool(&dev, 4096);
  tree.CacheInternalNodes(&pool);
  auto with_pool = KnnSearch<2>(tree, {0.3, 0.7}, 25, nullptr, &pool);
  auto without = KnnSearch<2>(tree, {0.3, 0.7}, 25);
  ASSERT_EQ(with_pool.size(), without.size());
  for (size_t i = 0; i < with_pool.size(); ++i) {
    EXPECT_EQ(with_pool[i].record.id, without[i].record.id);
  }
}

TEST(KnnTest, ReadaheadPoolGivesIdenticalNeighborsAndStats) {
  MemoryBlockDevice dev(512);
  auto data = RandomRects<2>(5000, 21);
  RTree<2> tree(&dev);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                   ->Build(&dev, data, &tree));
  // Small pool, readahead on: best-first expansion prefetches each pushed
  // frontier; some of that is speculative, none of it may change answers.
  BufferPool pool(&dev, 64);
  pool.set_readahead(true);
  QueryStats plain_stats, ahead_stats;
  auto plain = KnnSearch<2>(tree, {0.6, 0.2}, 25, &plain_stats);
  auto ahead = KnnSearch<2>(tree, {0.6, 0.2}, 25, &ahead_stats, &pool);
  ASSERT_EQ(ahead.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(ahead[i].record.id, plain[i].record.id);
    EXPECT_EQ(ahead[i].distance, plain[i].distance);
  }
  EXPECT_EQ(ahead_stats.nodes_visited, plain_stats.nodes_visited);
  EXPECT_EQ(ahead_stats.leaves_visited, plain_stats.leaves_visited);
  EXPECT_GT(pool.prefetch_staged(), 0u);
}

// The visit counters are pinned by definition: a node is expanded exactly
// when its MINDIST is <= the final k-th distance, on either node layout.
// The tie case stores one rectangle under many distinct ids across several
// leaves, so the k-th distance is shared by many records and nodes.
TEST(KnnVisitCountTest, StaticTreeExpandsExactlyTheNodesWithinTheKthDistance) {
  auto data = RandomRects<2>(3000, 31);
  for (DataId i = 0; i < 200; ++i) {
    data.push_back(Record2{MakeRect(0.40, 0.40, 0.42, 0.41), 5000 + i});
  }
  Rng rng(37);
  std::vector<std::array<Real, 2>> points{{0.41, 0.405}, {0.30, 0.40}};
  for (int q = 0; q < 10; ++q) {
    points.push_back({rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)});
  }
  for (NodeLayout layout : {NodeLayout::kAoS, NodeLayout::kSoA}) {
    ScopedLayout pin(layout);
    MemoryBlockDevice dev(512);
    RTree<2> tree(&dev);
    AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                     ->Build(&dev, data, &tree));
    for (const auto& p : points) {
      for (size_t k : {size_t{1}, size_t{16}, size_t{150}, size_t{250},
                       data.size() + 5}) {
        QueryStats stats;
        auto got = KnnSearch<2>(tree, p, k, &stats);
        ExpectSameNeighbors(got, BruteForceKnn<2>(data, p, k));
        QueryStats expect;
        AddMustVisit<2>(tree, tree.root(), p, KthDistance(got, k), &expect);
        EXPECT_EQ(stats.nodes_visited, expect.nodes_visited) << k;
        EXPECT_EQ(stats.internal_visited, expect.internal_visited) << k;
        EXPECT_EQ(stats.leaves_visited, expect.leaves_visited) << k;
        EXPECT_EQ(stats.results, got.size());
      }
    }
  }
}

// The forest counterpart: one search over every level expands each
// occupied level's root, plus every node of any level whose MINDIST is <=
// the k-th *live* distance (buffer records and tombstones in play).
TEST(KnnVisitCountTest, ForestExpandsEachRootAndTheNodesWithinTheKthDistance) {
  MemoryBlockDevice dev(512);
  DynamicPrTreeOptions opts;
  opts.buffer_capacity = 13;
  DynamicPRTree<2> index(WorkEnv{&dev, 1u << 20}, opts);
  auto data = RandomRects<2>(1500, 41);
  for (const auto& rec : data) index.Insert(rec);
  std::vector<Record2> live;
  for (const auto& rec : data) {
    if (rec.id % 5 == 0) {
      ASSERT_TRUE(index.Delete(rec));
    } else {
      live.push_back(rec);
    }
  }
  for (DataId id = 3000; id < 3006; ++id) {  // a few records stay buffered
    live.push_back(Record2{MakeRect(0.5, 0.5, 0.5, 0.5), id});
    index.Insert(live.back());
  }
  ASSERT_GT(index.tombstones(), 0u);

  auto snap = index.Snapshot();
  RTree<2> view(&dev);  // rootless: only PinNode is used
  size_t occupied = 0;
  for (const auto& level : snap.levels()) occupied += level.size != 0;
  ASSERT_GE(occupied, 2u);
  Rng rng(43);
  for (int q = 0; q < 12; ++q) {
    std::array<Real, 2> p{rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)};
    for (size_t k : {size_t{1}, size_t{16}, size_t{100}, live.size() + 5}) {
      QueryStats stats;
      auto got = snap.Knn(p, k, &stats);
      ExpectSameNeighbors(got, BruteForceKnn<2>(live, p, k));
      QueryStats expect;
      for (const auto& level : snap.levels()) {
        if (level.size == 0) continue;
        AddMustVisit<2>(view, level.root, p, KthDistance(got, k), &expect);
      }
      EXPECT_EQ(stats.nodes_visited, expect.nodes_visited) << k;
      EXPECT_EQ(stats.internal_visited, expect.internal_visited) << k;
      EXPECT_EQ(stats.leaves_visited, expect.leaves_visited) << k;
      EXPECT_EQ(stats.results, got.size());
    }
  }
}

// kNN reads every node through RTree::PinNode, which refuses a node whose
// entry count exceeds its capacity instead of scanning past the block.
TEST(KnnDeathTest, RefusesANodeCountOverCapacity) {
  MemoryBlockDevice dev(4096);
  RTree<2> tree(&dev);
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                   ->Build(&dev, RandomRects<2>(2000, 41), &tree));
  ASSERT_EQ(tree.height(), 1);
  PageGuard guard;
  tree.PinNode(tree.root(), nullptr, &guard);
  ConstNodeView<2> root(guard.data(), tree.block_size());
  const PageId leaf = root.GetId(0);
  const Rect2 mbr = root.GetRect(0);
  DamageNodeHeader(&dev, leaf, kCountField, 0xFFFF);
  // A point inside the damaged leaf's MBR: best-first search expands it.
  const std::array<Real, 2> p{(mbr.lo[0] + mbr.hi[0]) / 2,
                              (mbr.lo[1] + mbr.hi[1]) / 2};
  EXPECT_DEATH(KnnSearch<2>(tree, p, 10),
               "page " + std::to_string(leaf) +
                   " holds 65535 entries, over its capacity of 113");
}

TEST(KnnTest, ThreeDimensional) {
  MemoryBlockDevice dev(4096);
  auto data = RandomRects<3>(3000, 19);
  RTree<3> tree(&dev);
  AbortIfError(
      MakeBulkLoader<3>(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
          ->Build(&dev, data, &tree));
  Rng rng(23);
  for (int q = 0; q < 10; ++q) {
    std::array<Real, 3> p{rng.Uniform(0, 1), rng.Uniform(0, 1),
                          rng.Uniform(0, 1)};
    auto got = KnnSearch<3>(tree, p, 8);
    auto expect = BruteForceKnn<3>(data, p, 8);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_DOUBLE_EQ(got[i].distance, expect[i].distance);
    }
  }
}

}  // namespace
}  // namespace prtree

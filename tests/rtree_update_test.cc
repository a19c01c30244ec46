#include "rtree/update.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "rtree/bulk_loader.h"
#include "rtree/validate.h"
#include "tests/test_util.h"

namespace prtree {
namespace {

using testing_util::BruteForceQuery;
using testing_util::RandomRects;
using testing_util::RandomWindow;
using testing_util::SortedIds;

TEST(RTreeInsertTest, InsertIntoEmptyTree) {
  MemoryBlockDevice dev(4096);
  RTree<2> tree(&dev);
  RTreeUpdater<2> upd(&tree);
  upd.Insert(Record2{MakeRect(0.1, 0.1, 0.2, 0.2), 42});
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 0);
  auto res = tree.QueryToVector(MakeRect(0, 0, 1, 1));
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].id, 42u);
  ASSERT_TRUE(ValidateTree(tree).ok());
}

class InsertManyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(InsertManyTest, RepeatedInsertionKeepsInvariantsAndAnswers) {
  MemoryBlockDevice dev(GetParam());
  RTree<2> tree(&dev);
  RTreeUpdater<2> upd(&tree);
  auto data = RandomRects<2>(1500, 79);
  for (const auto& rec : data) upd.Insert(rec);
  EXPECT_EQ(tree.size(), data.size());

  ValidateOptions opts;
  opts.min_entries = 1;
  ASSERT_TRUE(ValidateTree(tree, opts).ok());

  // Every record findable; window queries match brute force.
  Rng rng(83);
  for (int q = 0; q < 30; ++q) {
    Rect2 w = RandomWindow<2>(&rng, 0.15);
    EXPECT_EQ(SortedIds(tree.QueryToVector(w)), BruteForceQuery(data, w));
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, InsertManyTest,
                         ::testing::Values(size_t{512}, size_t{4096}));

TEST(RTreeInsertTest, ThreeDimensional) {
  MemoryBlockDevice dev(4096);
  RTree<3> tree(&dev);
  RTreeUpdater<3> upd(&tree);
  auto data = RandomRects<3>(1000, 37);
  for (const auto& rec : data) upd.Insert(rec);
  EXPECT_EQ(tree.size(), data.size());
  ASSERT_TRUE(ValidateTree(tree, {.min_entries = 1}).ok());
  Rng rng(41);
  for (int q = 0; q < 10; ++q) {
    Rect<3> w = RandomWindow<3>(&rng, 0.3);
    EXPECT_EQ(SortedIds(tree.QueryToVector(w)), BruteForceQuery(data, w));
  }
}

TEST(RTreeInsertTest, UpdatesOnBulkLoadedPrTree) {
  // §1.2: a bulk-loaded PR-tree "can be updated in O(log_B N) I/Os using
  // the standard R-tree updating algorithms".
  MemoryBlockDevice dev(512);
  RTree<2> tree(&dev);
  auto data = RandomRects<2>(2000, 29);
  std::vector<Record2> base(data.begin(), data.begin() + 1500);
  std::vector<Record2> extra(data.begin() + 1500, data.end());
  AbortIfError(MakeBulkLoader(LoaderKind::kPrTree, {.memory_bytes = 4u << 20})
                   ->Build(&dev, base, &tree));
  RTreeUpdater<2> upd(&tree);
  for (const auto& rec : extra) upd.Insert(rec);
  EXPECT_EQ(tree.size(), data.size());
  ASSERT_TRUE(ValidateTree(tree, {.min_entries = 1}).ok());
  Rng rng(31);
  for (int q = 0; q < 20; ++q) {
    Rect2 w = RandomWindow<2>(&rng, 0.2);
    EXPECT_EQ(SortedIds(tree.QueryToVector(w)), BruteForceQuery(data, w));
  }
}

TEST(RTreeInsertTest, SplitsRaiseHeightLogarithmically) {
  MemoryBlockDevice dev(512);  // fan-out 13
  RTree<2> tree(&dev);
  RTreeUpdater<2> upd(&tree);
  auto data = RandomRects<2>(2000, 89);
  for (const auto& rec : data) upd.Insert(rec);
  // Height must be within [log_13 N - 1, log_2 N]: sane split behaviour.
  EXPECT_GE(tree.height(), 2);
  EXPECT_LE(tree.height(), 12);
}

TEST(RTreeInsertTest, DuplicateRectanglesAllowed) {
  MemoryBlockDevice dev(512);
  RTree<2> tree(&dev);
  RTreeUpdater<2> upd(&tree);
  Rect2 r = MakeRect(0.5, 0.5, 0.6, 0.6);
  for (uint32_t i = 0; i < 200; ++i) upd.Insert(Record2{r, i});
  auto res = tree.QueryToVector(r);
  EXPECT_EQ(res.size(), 200u);
  ASSERT_TRUE(ValidateTree(tree).ok());
}

TEST(RTreeDeleteTest, DeleteMissingReturnsFalse) {
  MemoryBlockDevice dev(4096);
  RTree<2> tree(&dev);
  RTreeUpdater<2> upd(&tree);
  EXPECT_FALSE(upd.Delete(Record2{MakeRect(0, 0, 1, 1), 7}));
  upd.Insert(Record2{MakeRect(0.1, 0.1, 0.2, 0.2), 1});
  EXPECT_FALSE(upd.Delete(Record2{MakeRect(0.1, 0.1, 0.2, 0.2), 2}));  // id
  Record2 other{MakeRect(0.1, 0.1, 0.2, 0.3), 1};  // rect mismatch
  EXPECT_FALSE(upd.Delete(other));
  EXPECT_EQ(tree.size(), 1u);
}

TEST(RTreeDeleteTest, InsertThenDeleteAllLeavesEmptyTree) {
  MemoryBlockDevice dev(512);
  size_t baseline = dev.num_allocated();
  RTree<2> tree(&dev);
  RTreeUpdater<2> upd(&tree);
  auto data = RandomRects<2>(500, 97);
  for (const auto& rec : data) upd.Insert(rec);
  for (const auto& rec : data) EXPECT_TRUE(upd.Delete(rec));
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(dev.num_allocated(), baseline);  // no leaked node blocks
}

TEST(RTreeDeleteTest, DeleteHalfKeepsOtherHalfQueryable) {
  MemoryBlockDevice dev(512);
  RTree<2> tree(&dev);
  RTreeUpdater<2> upd(&tree);
  auto data = RandomRects<2>(1200, 101);
  for (const auto& rec : data) upd.Insert(rec);
  std::vector<Record2> kept;
  for (size_t i = 0; i < data.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(upd.Delete(data[i])) << i;
    } else {
      kept.push_back(data[i]);
    }
  }
  EXPECT_EQ(tree.size(), kept.size());
  ASSERT_TRUE(ValidateTree(tree).ok());
  Rng rng(103);
  for (int q = 0; q < 30; ++q) {
    Rect2 w = RandomWindow<2>(&rng, 0.2);
    EXPECT_EQ(SortedIds(tree.QueryToVector(w)), BruteForceQuery(kept, w));
  }
}

// Random mixed workload cross-checked against a flat reference model.
class UpdateFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UpdateFuzzTest, MixedInsertDeleteQueryAgreesWithModel) {
  MemoryBlockDevice dev(512);
  RTree<2> tree(&dev);
  RTreeUpdater<2> upd(&tree);
  Rng rng(GetParam());
  std::map<DataId, Record2> model;
  DataId next_id = 0;

  for (int step = 0; step < 3000; ++step) {
    double dice = rng.Uniform(0, 1);
    if (dice < 0.55 || model.empty()) {
      Record2 rec;
      double side = rng.Uniform(0, 0.05);
      rec.rect.lo[0] = rng.Uniform(0, 1 - side);
      rec.rect.lo[1] = rng.Uniform(0, 1 - side);
      rec.rect.hi[0] = rec.rect.lo[0] + side;
      rec.rect.hi[1] = rec.rect.lo[1] + side;
      rec.id = next_id++;
      model[rec.id] = rec;
      upd.Insert(rec);
    } else if (dice < 0.85) {
      auto it = model.begin();
      std::advance(it, rng.UniformInt(0, model.size() - 1));
      EXPECT_TRUE(upd.Delete(it->second));
      model.erase(it);
    } else {
      Rect2 w = RandomWindow<2>(&rng, 0.3);
      std::vector<Record2> expect;
      for (const auto& [id, rec] : model) {
        if (rec.rect.Intersects(w)) expect.push_back(rec);
      }
      auto got = SortedIds(tree.QueryToVector(w));
      auto want = SortedIds(expect);
      ASSERT_EQ(got, want) << "step " << step;
    }
    EXPECT_EQ(tree.size(), model.size());
  }
  ASSERT_TRUE(ValidateTree(tree).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateFuzzTest,
                         ::testing::Values(1, 7, 13, 2024));

// Interleaves queries through a pool with inserts, then with deletes of
// every other record, checking each against brute force: a stale pool
// frame would lose or resurrect records.
TEST(RTreeUpdateTest, PoolInvalidationKeepsCachedQueriesFresh) {
  auto data = RandomRects<2>(800, 107);
  MemoryBlockDevice dev(512);
  RTree<2> tree(&dev);
  BufferPool pool(&dev, 4096);
  RTreeUpdater<2> upd(&tree, &pool);
  const Rect2 everything = MakeRect(-1, -1, 2, 2);
  std::vector<Record2> live;
  for (const auto& rec : data) {
    upd.Insert(rec);
    live.push_back(rec);
    if (rec.id % 97 == 0) {
      EXPECT_EQ(SortedIds(tree.QueryToVector(everything, &pool)),
                BruteForceQuery(live, everything));
    }
  }
  for (size_t i = 0; i < data.size(); i += 2) {
    EXPECT_TRUE(upd.Delete(data[i]));
    if (i % 98 == 0 || i + 2 >= data.size()) {
      live.clear();
      for (size_t j = 0; j < data.size(); ++j) {
        if (j % 2 == 1 || j > i) live.push_back(data[j]);
      }
      EXPECT_EQ(SortedIds(tree.QueryToVector(everything, &pool)),
                BruteForceQuery(live, everything));
    }
  }
  EXPECT_TRUE(ValidateTree(tree).ok());
}

}  // namespace
}  // namespace prtree

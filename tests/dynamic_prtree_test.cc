#include "core/dynamic_prtree.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <ostream>

#include "tests/test_util.h"

namespace prtree {
namespace {

using testing_util::Bits;
using testing_util::BruteForceKnn;
using testing_util::BruteForceQuery;
using testing_util::RandomRects;
using testing_util::RandomWindow;
using testing_util::SortedIds;

TEST(DynamicPrTreeTest, InsertAndQuerySmall) {
  MemoryBlockDevice dev(4096);
  DynamicPRTree<2> index(WorkEnv{&dev, 1u << 20});
  index.Insert(Record2{MakeRect(0.1, 0.1, 0.2, 0.2), 1});
  index.Insert(Record2{MakeRect(0.7, 0.7, 0.8, 0.8), 2});
  EXPECT_EQ(index.size(), 2u);
  auto res = index.QueryToVector(MakeRect(0, 0, 0.5, 0.5));
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].id, 1u);
}

TEST(DynamicPrTreeTest, BufferFlushCreatesLevels) {
  MemoryBlockDevice dev(512);  // node capacity 13 -> small buffer
  DynamicPrTreeOptions opts;
  opts.buffer_capacity = 8;
  DynamicPRTree<2> index(WorkEnv{&dev, 1u << 20}, opts);
  auto data = RandomRects<2>(100, 3);
  for (const auto& rec : data) index.Insert(rec);
  EXPECT_GE(index.num_levels(), 1u);
  ASSERT_TRUE(index.Validate().ok());
  // Levels respect their geometric capacities.
  auto sizes = index.LevelSizes();
  for (size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_LE(sizes[i], opts.buffer_capacity << (i + 1));
  }
  EXPECT_EQ(SortedIds(index.QueryToVector(MakeRect(-1, -1, 2, 2))),
            BruteForceQuery(data, MakeRect(-1, -1, 2, 2)));
}

TEST(DynamicPrTreeTest, DeleteFromBufferAndLevels) {
  MemoryBlockDevice dev(512);
  DynamicPrTreeOptions opts;
  opts.buffer_capacity = 16;
  DynamicPRTree<2> index(WorkEnv{&dev, 1u << 20}, opts);
  auto data = RandomRects<2>(200, 5);
  for (const auto& rec : data) index.Insert(rec);
  // Delete odd ids (some in the buffer, most in levels).
  std::vector<Record2> kept;
  for (const auto& rec : data) {
    if (rec.id % 2) {
      EXPECT_TRUE(index.Delete(rec));
    } else {
      kept.push_back(rec);
    }
  }
  EXPECT_EQ(index.size(), kept.size());
  Rect2 all = MakeRect(-1, -1, 2, 2);
  EXPECT_EQ(SortedIds(index.QueryToVector(all)), BruteForceQuery(kept, all));
  EXPECT_FALSE(index.Delete(data[1]));  // already gone
}

TEST(DynamicPrTreeTest, DeleteMissingReturnsFalse) {
  MemoryBlockDevice dev(4096);
  DynamicPRTree<2> index(WorkEnv{&dev, 1u << 20});
  EXPECT_FALSE(index.Delete(Record2{MakeRect(0, 0, 1, 1), 9}));
  index.Insert(Record2{MakeRect(0.2, 0.2, 0.3, 0.3), 9});
  // Wrong rectangle, right id.
  EXPECT_FALSE(index.Delete(Record2{MakeRect(0.2, 0.2, 0.35, 0.3), 9}));
  EXPECT_EQ(index.size(), 1u);
}

TEST(DynamicPrTreeTest, ReinsertAfterDeleteCancelsTombstone) {
  MemoryBlockDevice dev(512);
  DynamicPrTreeOptions opts;
  opts.buffer_capacity = 4;
  DynamicPRTree<2> index(WorkEnv{&dev, 1u << 20}, opts);
  auto data = RandomRects<2>(50, 7);
  for (const auto& rec : data) index.Insert(rec);
  // Force the target record out of the buffer and delete it.
  Record2 victim = data[10];
  ASSERT_TRUE(index.Delete(victim));
  EXPECT_EQ(index.tombstones(), 1u);
  index.Insert(victim);
  EXPECT_EQ(index.tombstones(), 0u);
  EXPECT_EQ(index.size(), data.size());
  auto res = index.QueryToVector(victim.rect);
  bool found = false;
  for (const auto& r : res) {
    if (r.id == victim.id) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(DynamicPrTreeTest, DeleteProbesThroughTheAttachedPool) {
  MemoryBlockDevice dev(512);
  // Declared before the index: an attached pool must outlive the forest.
  BufferPool pool(&dev, 1024);
  DynamicPrTreeOptions opts;
  opts.buffer_capacity = 16;
  DynamicPRTree<2> index(WorkEnv{&dev, 1u << 20}, opts);
  index.AttachPool(&pool);
  auto data = RandomRects<2>(400, 31);
  for (const auto& rec : data) index.Insert(rec);
  ASSERT_GE(index.num_levels(), 3u);
  // A query over everything pins every page of every level.
  const Rect2 all = MakeRect(-1, -1, 2, 2);
  ASSERT_EQ(index.QueryToVector(all, &pool).size(), data.size());
  ASSERT_LT(pool.size(), pool.capacity());

  // data[0..] were flushed out of the buffer long ago: they live in levels.
  uint64_t reads = dev.stats().reads;
  ASSERT_TRUE(index.Delete(data[0]));
  EXPECT_EQ(dev.stats().reads, reads);  // every page came from the pool
  EXPECT_EQ(index.tombstones(), 1u);

  // Without a pool the probe reads the device, and still finds the record.
  index.DetachPool(&pool);
  reads = dev.stats().reads;
  ASSERT_TRUE(index.Delete(data[1]));
  EXPECT_GT(dev.stats().reads, reads);
  EXPECT_EQ(index.tombstones(), 2u);

  // Absent records whose rectangles lie inside a level's MBR: a stored
  // rectangle under a new id, and a stored id with a shrunken rectangle.
  Record2 fresh_id{data[2].rect, 100000};
  Record2 shrunk = data[2];
  shrunk.rect.hi[0] = (shrunk.rect.lo[0] + shrunk.rect.hi[0]) / 2;
  EXPECT_FALSE(index.Delete(fresh_id));
  EXPECT_FALSE(index.Delete(shrunk));
  EXPECT_EQ(index.size(), data.size() - 2);
  EXPECT_EQ(index.tombstones(), 2u);
  ASSERT_TRUE(index.Validate().ok());
}

TEST(DynamicPrTreeTest, RebuildReadsEachMergedPageOnce) {
  MemoryBlockDevice dev(512);
  DynamicPrTreeOptions opts;
  opts.buffer_capacity = 8;
  DynamicPRTree<2> index(WorkEnv{&dev, 1u << 20}, opts);
  auto data = RandomRects<2>(48, 41);
  for (size_t i = 0; i + 1 < data.size(); ++i) index.Insert(data[i]);
  ASSERT_EQ(index.LevelSizes(), (std::vector<size_t>{16, 24}));

  // The 48th insert fills the buffer and merges it with both levels (3
  // pages each at 13 records per node) into one level of 48 records.
  const uint64_t reads = dev.stats().reads;
  index.Insert(data.back());
  ASSERT_EQ(index.LevelSizes(), (std::vector<size_t>{0, 0, 48}));
  // Each merged page once, plus the loader's read-back of its input
  // stream (48 records at 12 per block).
  EXPECT_EQ(dev.stats().reads - reads, 6u + 4u);
  ASSERT_TRUE(index.Validate().ok());
}

TEST(DynamicPrTreeTest, MassDeletionTriggersGlobalRebuild) {
  MemoryBlockDevice dev(512);
  DynamicPrTreeOptions opts;
  opts.buffer_capacity = 16;
  DynamicPRTree<2> index(WorkEnv{&dev, 1u << 20}, opts);
  auto data = RandomRects<2>(500, 9);
  for (const auto& rec : data) index.Insert(rec);
  for (size_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(index.Delete(data[i]));
  }
  // Tombstones never exceed live records.
  EXPECT_LE(index.tombstones(), index.size());
  EXPECT_EQ(index.size(), 100u);
  std::vector<Record2> kept(data.begin() + 400, data.end());
  Rect2 all = MakeRect(-1, -1, 2, 2);
  EXPECT_EQ(SortedIds(index.QueryToVector(all)), BruteForceQuery(kept, all));
  ASSERT_TRUE(index.Validate().ok());
}

TEST(DynamicPrTreeTest, DeleteEverything) {
  MemoryBlockDevice dev(512);
  size_t baseline = dev.num_allocated();
  DynamicPrTreeOptions opts;
  opts.buffer_capacity = 8;
  DynamicPRTree<2> index(WorkEnv{&dev, 1u << 20}, opts);
  auto data = RandomRects<2>(300, 11);
  for (const auto& rec : data) index.Insert(rec);
  for (const auto& rec : data) ASSERT_TRUE(index.Delete(rec));
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.QueryToVector(MakeRect(-1, -1, 2, 2)).empty());
  // The global rebuild reclaims all blocks once everything is gone.
  EXPECT_EQ(dev.num_allocated(), baseline);
}

TEST(DynamicPrTreeTest, MoveSameIdRepeatedly) {
  // Regression: the moving-objects pattern — delete id, re-insert it at a
  // new position, delete it again.  A tombstone keyed by id alone would
  // block the second delete.
  MemoryBlockDevice dev(512);
  DynamicPrTreeOptions opts;
  opts.buffer_capacity = 4;  // force records out of the buffer quickly
  DynamicPRTree<2> index(WorkEnv{&dev, 1u << 20}, opts);
  Rng rng(17);
  std::vector<Record2> pos(50);
  for (DataId id = 0; id < 50; ++id) {
    double x = rng.Uniform(0, 1), y = rng.Uniform(0, 1);
    pos[id] = Record2{MakeRect(x, y, x, y), id};
    index.Insert(pos[id]);
  }
  for (int step = 0; step < 500; ++step) {
    DataId id = static_cast<DataId>(rng.UniformInt(0, 49));
    ASSERT_TRUE(index.Delete(pos[id])) << "step " << step;
    double x = rng.Uniform(0, 1), y = rng.Uniform(0, 1);
    pos[id] = Record2{MakeRect(x, y, x, y), id};
    index.Insert(pos[id]);
    ASSERT_EQ(index.size(), 50u);
  }
  auto res = index.QueryToVector(MakeRect(-1, -1, 2, 2));
  EXPECT_EQ(SortedIds(res).size(), 50u);
}

TEST(DynamicPrTreeTest, MoveInsertingTheNewPositionFirst) {
  // A fleet that moves ten objects per tick by inserting their new
  // positions before deleting the old ones keeps pairs of live records that
  // share an id.  At a 4 KB budget a merge of them runs the grid algorithm,
  // which must tell captured records apart by (id, rectangle), not by id.
  MemoryBlockDevice dev(512);
  DynamicPrTreeOptions opts;
  opts.buffer_capacity = 8;
  DynamicPRTree<2> index(WorkEnv{&dev, 4u << 10}, opts);
  Rng rng(23);
  auto place = [&rng](DataId id) {
    double x = rng.Uniform(0, 1), y = rng.Uniform(0, 1);
    return Record2{MakeRect(x, y, x, y), id};
  };
  std::vector<Record2> pos(500);
  for (DataId id = 0; id < pos.size(); ++id) {
    pos[id] = place(id);
    index.Insert(pos[id]);
  }
  for (DataId tick = 0; tick < pos.size(); tick += 10) {
    std::vector<Record2> old(pos.begin() + tick, pos.begin() + tick + 10);
    for (DataId id = tick; id < tick + 10; ++id) {
      pos[id] = place(id);
      index.Insert(pos[id]);
    }
    for (const Record2& rec : old) ASSERT_TRUE(index.Delete(rec));
  }
  ASSERT_TRUE(index.Validate().ok());
  EXPECT_EQ(index.size(), pos.size());
  const Rect2 all = MakeRect(-1, -1, 2, 2);
  EXPECT_EQ(SortedIds(index.QueryToVector(all)), BruteForceQuery(pos, all));
}

// The seed and the forest's memory budget.  At 1 MB every rebuild fits in
// memory.  At 4 KB, with 512-byte blocks, a merge of more than
// max(4096 / 40 / 2, 4 * 13) = 52 records runs through the grid algorithm
// (GridEmitLeaves).
struct FuzzCase {
  uint64_t seed;
  size_t budget;
};

// Test names show the seed; the instantiation name tells the budgets apart.
void PrintTo(const FuzzCase& c, std::ostream* os) { *os << c.seed; }

class DynamicFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

// `knn(p, k)` must equal the model's kNN, ids and distance bits, for a
// small k, a typical k and a k beyond the live count.
template <typename KnnFn>
void ExpectKnnMatchesModel(KnnFn knn, const std::map<DataId, Record2>& model,
                           const std::array<Real, 2>& p, int step) {
  std::vector<Record2> live;
  for (const auto& [id, rec] : model) live.push_back(rec);
  for (size_t k : {size_t{1}, size_t{16}, live.size() + 5}) {
    auto got = knn(p, k);
    auto expect = BruteForceKnn<2>(live, p, k);
    ASSERT_EQ(got.size(), expect.size()) << "step " << step << " k " << k;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].record.id, expect[i].record.id)
          << "step " << step << " k " << k << " rank " << i;
      ASSERT_EQ(Bits(got[i].distance), Bits(expect[i].distance))
          << "step " << step << " k " << k << " rank " << i;
    }
  }
}

TEST_P(DynamicFuzzTest, AgreesWithModelUnderMixedWorkload) {
  MemoryBlockDevice dev(512);
  DynamicPrTreeOptions opts;
  opts.buffer_capacity = 13;
  const auto [seed, budget] = GetParam();
  DynamicPRTree<2> index(WorkEnv{&dev, budget}, opts);
  Rng rng(seed);
  std::map<DataId, Record2> model;
  DataId next_id = 0;
  // A snapshot taken at the previous read, with the model as it was then:
  // re-checked (and replaced) at the next read, after intervening writes.
  std::optional<DynamicPRTree<2>::SnapshotHandle> held;
  std::map<DataId, Record2> held_model;

  auto random_rect = [&] {
    Rect2 r;
    double side = rng.Uniform(0, 0.05);
    r.lo[0] = rng.Uniform(0, 1 - side);
    r.lo[1] = rng.Uniform(0, 1 - side);
    r.hi[0] = r.lo[0] + side;
    r.hi[1] = r.lo[1] + side;
    return r;
  };
  for (int step = 0; step < 2500; ++step) {
    double dice = rng.Uniform(0, 1);
    if (dice < 0.45 || model.empty()) {
      Record2 rec{random_rect(), next_id++};
      model[rec.id] = rec;
      index.Insert(rec);
    } else if (dice < 0.55) {
      // Move: the same id re-inserted at a new position.
      auto it = model.begin();
      std::advance(it, rng.UniformInt(0, model.size() - 1));
      ASSERT_TRUE(index.Delete(it->second)) << "step " << step;
      it->second.rect = random_rect();
      index.Insert(it->second);
    } else if (dice < 0.8) {
      auto it = model.begin();
      std::advance(it, rng.UniformInt(0, model.size() - 1));
      EXPECT_TRUE(index.Delete(it->second)) << "step " << step;
      model.erase(it);
    } else {
      Rect2 w = RandomWindow<2>(&rng, 0.3);
      std::vector<Record2> expect;
      for (const auto& [id, rec] : model) {
        if (rec.rect.Intersects(w)) expect.push_back(rec);
      }
      auto got = SortedIds(index.QueryToVector(w));
      ASSERT_EQ(got, SortedIds(expect)) << "step " << step;

      std::array<Real, 2> p{rng.Uniform(-0.1, 1.1), rng.Uniform(-0.1, 1.1)};
      ExpectKnnMatchesModel(
          [&](const std::array<Real, 2>& q, size_t k) {
            return index.Knn(q, k);
          },
          model, p, step);
      if (held) {
        ExpectKnnMatchesModel(
            [&](const std::array<Real, 2>& q, size_t k) {
              return held->Knn(q, k);
            },
            held_model, p, step);
      }
      if (HasFatalFailure()) return;
      held.emplace(index.Snapshot());
      held_model = model;
    }
    ASSERT_EQ(index.size(), model.size());
  }
  held.reset();
  ASSERT_TRUE(index.Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicFuzzTest,
                         ::testing::Values(FuzzCase{1, 1u << 20},
                                           FuzzCase{23, 1u << 20},
                                           FuzzCase{4096, 1u << 20}));
INSTANTIATE_TEST_SUITE_P(GridRebuildSeeds, DynamicFuzzTest,
                         ::testing::Values(FuzzCase{1, 4096},
                                           FuzzCase{23, 4096},
                                           FuzzCase{4096, 4096}));

TEST(DynamicPrTreeTest, QueryStatsAggregateAcrossLevels) {
  MemoryBlockDevice dev(512);
  DynamicPrTreeOptions opts;
  opts.buffer_capacity = 8;
  DynamicPRTree<2> index(WorkEnv{&dev, 1u << 20}, opts);
  auto data = RandomRects<2>(400, 13);
  for (const auto& rec : data) index.Insert(rec);
  QueryStats qs = index.Query(MakeRect(-1, -1, 2, 2), [](const Record2&) {});
  EXPECT_EQ(qs.results, 400u);
  EXPECT_GT(qs.leaves_visited, 0u);
}

}  // namespace
}  // namespace prtree

// Focused tests of the grid bulk loader (§2.1 "Efficient construction"),
// exercising its options and internal phases directly through
// GridEmitLeaves rather than through the full PR-tree build.

#include "core/grid_builder.h"

#include <gtest/gtest.h>

#include <map>

#include "tests/test_util.h"
#include "workload/datasets.h"

namespace prtree {
namespace {

using testing_util::RandomRects;

template <int D>
struct EmitSummary {
  size_t total_records = 0;
  size_t chunks = 0;
  size_t oversized = 0;
  std::map<DataId, int> seen;
};

template <int D>
EmitSummary<D> RunGrid(const std::vector<Record<D>>& data, WorkEnv env,
                       GridBuildOptions opts) {
  Stream<Record<D>> input(env.device);
  input.Append(data);
  input.Flush();
  EmitSummary<D> summary;
  GridEmitLeaves<D>(env, &input, opts,
                    [&](const std::vector<Record<D>>& chunk) {
                      ++summary.chunks;
                      summary.total_records += chunk.size();
                      if (chunk.size() > opts.capacity) ++summary.oversized;
                      for (const auto& r : chunk) summary.seen[r.id]++;
                    });
  return summary;
}

class GridOptionSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(GridOptionSweepTest, EveryRecordEmittedExactlyOnce) {
  auto [n, z, mem_kb] = GetParam();
  MemoryBlockDevice dev(512);
  WorkEnv env{&dev, mem_kb << 10};
  auto data = RandomRects<2>(n, n + z);
  GridBuildOptions opts;
  opts.capacity = 13;
  opts.z_override = z;
  auto summary = RunGrid<2>(data, env, opts);
  EXPECT_EQ(summary.total_records, n);
  EXPECT_EQ(summary.oversized, 0u);
  EXPECT_EQ(summary.seen.size(), n);  // no duplicates, no drops
  for (const auto& [id, count] : summary.seen) {
    ASSERT_EQ(count, 1) << "record " << id << " emitted " << count
                        << " times";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GridOptionSweepTest,
    ::testing::Combine(::testing::Values(2000, 20000),
                       ::testing::Values(size_t{2}, size_t{4}, size_t{16}),
                       ::testing::Values(size_t{16}, size_t{64},
                                         size_t{512})));

TEST(GridBuilderTest, TinyMemoryForcesDeepRecursion) {
  // With a 16 KB budget over 40k records the builder must recurse through
  // several grid phases; the device must see multi-pass I/O but the
  // output must stay exact.
  MemoryBlockDevice dev(512);
  WorkEnv env{&dev, 16u << 10};
  auto data = RandomRects<2>(40000, 99);
  GridBuildOptions opts;
  opts.capacity = 13;
  size_t live_before = dev.num_allocated();
  auto summary = RunGrid<2>(data, env, opts);
  EXPECT_EQ(summary.total_records, data.size());
  // All intermediate streams freed: only the caller's input stream
  // remains, and it is freed when it goes out of scope inside RunGrid.
  EXPECT_EQ(dev.num_allocated(), live_before);
}

TEST(GridBuilderTest, PrioritySizeOptionBoundsPriorityChunks) {
  MemoryBlockDevice dev(512);
  WorkEnv env{&dev, 64u << 10};
  auto data = RandomRects<2>(20000, 5);
  GridBuildOptions opts;
  opts.capacity = 13;
  opts.priority_size = 4;
  Stream<Record2> input(&dev);
  input.Append(data);
  input.Flush();
  size_t total = 0;
  GridEmitLeaves<2>(env, &input, opts,
                    [&](const std::vector<Record2>& chunk) {
                      EXPECT_LE(chunk.size(), 13u);
                      total += chunk.size();
                    });
  EXPECT_EQ(total, data.size());
}

TEST(GridBuilderTest, SkewedDataDoesNotBreakSlabMath) {
  // Heavily duplicated coordinates stress the threshold tie-breaking: all
  // x equal, y highly skewed.
  MemoryBlockDevice dev(512);
  WorkEnv env{&dev, 32u << 10};
  std::vector<Record2> data;
  Rng rng(7);
  for (DataId id = 0; id < 20000; ++id) {
    double y = std::pow(rng.Uniform(0, 1), 9);
    data.push_back(Record2{MakeRect(0.5, y, 0.5, y), id});
  }
  GridBuildOptions opts;
  opts.capacity = 13;
  auto summary = RunGrid<2>(data, env, opts);
  EXPECT_EQ(summary.total_records, data.size());
  EXPECT_EQ(summary.seen.size(), data.size());
}

TEST(GridBuilderTest, IdenticalRectanglesHandledByIdTieBreak) {
  MemoryBlockDevice dev(512);
  WorkEnv env{&dev, 32u << 10};
  std::vector<Record2> data(15000,
                            Record2{MakeRect(0.3, 0.3, 0.4, 0.4), 0});
  for (size_t i = 0; i < data.size(); ++i) {
    data[i].id = static_cast<DataId>(i);
  }
  GridBuildOptions opts;
  opts.capacity = 13;
  auto summary = RunGrid<2>(data, env, opts);
  EXPECT_EQ(summary.total_records, data.size());
  EXPECT_EQ(summary.seen.size(), data.size());
}

TEST(GridBuilderTest, ThreeDimensionalGrid) {
  MemoryBlockDevice dev(4096);
  WorkEnv env{&dev, 128u << 10};
  auto data = RandomRects<3>(20000, 11);
  GridBuildOptions opts;
  opts.capacity = NodeCapacity<3>(4096);
  auto summary = RunGrid<3>(data, env, opts);
  EXPECT_EQ(summary.total_records, data.size());
  EXPECT_EQ(summary.seen.size(), data.size());
}

TEST(GridBuilderTest, IoWithinSortBoundTimesConstant) {
  MemoryBlockDevice dev(512);
  WorkEnv env{&dev, 64u << 10};  // forces ~2 levels of grid recursion
  auto data = RandomRects<2>(30000, 13);
  Stream<Record2> input(&dev);
  input.Append(data);
  input.Flush();
  size_t blocks = input.num_blocks();
  dev.ResetStats();
  GridBuildOptions opts;
  opts.capacity = 13;
  GridEmitLeaves<2>(env, &input, opts, [](const std::vector<Record2>&) {});
  // 4 sorts + per-phase count/filter/distribute scans over each level of
  // recursion; a generous constant catches runaway rescans.
  EXPECT_LE(dev.stats().Total(), 60u * blocks);
}

}  // namespace
}  // namespace prtree

// Differential test across every bulk loader: on any dataset family, all
// five loaders must produce trees that answer every window query
// identically (and identically to brute force).  This is the strongest
// end-to-end guard in the suite — an index bug in any loader, the node
// format, the query engine or a generator breaks it.

#include <gtest/gtest.h>

#include "rtree/bulk_loader.h"
#include "rtree/validate.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace prtree {
namespace {

using testing_util::BruteForceQuery;
using testing_util::RandomWindow;
using testing_util::SortedIds;

enum class Family { kSize, kAspect, kSkewed, kCluster, kTiger, kWorstCase };

std::vector<Record2> MakeData(Family family, size_t n) {
  switch (family) {
    case Family::kSize:
      return workload::MakeSize(n, 0.05, 5);
    case Family::kAspect:
      return workload::MakeAspect(n, 1000, 5);
    case Family::kSkewed:
      return workload::MakeSkewed(n, 7, 5);
    case Family::kCluster:
      return workload::MakeCluster(std::max<size_t>(4, n / 100), 100, 5);
    case Family::kTiger:
      return workload::MakeTigerLike(n, workload::TigerRegion::kWestern, 5);
    case Family::kWorstCase:
      return workload::MakeWorstCaseGrid(std::max<size_t>(4, n / 13), 13);
  }
  return {};
}

class LoaderDifferentialTest : public ::testing::TestWithParam<Family> {};

TEST_P(LoaderDifferentialTest, AllLoadersAnswerIdentically) {
  const size_t n = 6000;
  auto data = MakeData(GetParam(), n);
  MemoryBlockDevice dev(512);
  // Small budget: external paths exercised (the PR-tree's grid path too).
  const BuildOptions opts{.memory_bytes = 256u << 10, .force_grid = true};

  RTree<2> pr(&dev), h(&dev), h4(&dev), tgs(&dev), str(&dev);
  RTree<2>* const trees[] = {&pr, &h, &h4, &tgs, &str};
  const std::vector<LoaderKind> kinds = AllLoaderKinds();  // same order
  for (size_t i = 0; i < kinds.size(); ++i) {
    AbortIfError(MakeBulkLoader(kinds[i], opts)->Build(&dev, data, trees[i]));
  }

  for (const RTree<2>* tree : trees) {
    ASSERT_TRUE(ValidateTree(*tree).ok());
    ASSERT_EQ(tree->size(), data.size());
  }

  Rect2 extent = pr.Mbr();
  Rng rng(17);
  for (int q = 0; q < 25; ++q) {
    // Mix of windows scaled to the data extent and tiny stabs.
    Rect2 w;
    if (q % 3 == 0) {
      auto qs = workload::MakeSquareQueries(extent, 0.01, 1, 1000 + q);
      w = qs[0];
    } else {
      w = RandomWindow<2>(&rng, 0.1);
      for (int d = 0; d < 2; ++d) {
        double span = extent.Extent(d);
        w.lo[d] = extent.lo[d] + w.lo[d] * span;
        w.hi[d] = extent.lo[d] + w.hi[d] * span;
      }
    }
    auto expect = BruteForceQuery(data, w);
    EXPECT_EQ(SortedIds(pr.QueryToVector(w)), expect) << "PR q=" << q;
    EXPECT_EQ(SortedIds(h.QueryToVector(w)), expect) << "H q=" << q;
    EXPECT_EQ(SortedIds(h4.QueryToVector(w)), expect) << "H4 q=" << q;
    EXPECT_EQ(SortedIds(tgs.QueryToVector(w)), expect) << "TGS q=" << q;
    EXPECT_EQ(SortedIds(str.QueryToVector(w)), expect) << "STR q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, LoaderDifferentialTest,
                         ::testing::Values(Family::kSize, Family::kAspect,
                                           Family::kSkewed, Family::kCluster,
                                           Family::kTiger,
                                           Family::kWorstCase));

}  // namespace
}  // namespace prtree

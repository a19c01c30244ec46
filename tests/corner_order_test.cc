#include "core/corner_order.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "tests/test_util.h"

namespace prtree {
namespace {

using testing_util::RandomRects;

TEST(CornerOrderTest, CoordLessOrdersByEachCornerCoordinate) {
  Record2 a{MakeRect(1, 5, 3, 8), 0};
  Record2 b{MakeRect(2, 4, 2.5, 9), 1};
  EXPECT_TRUE((CoordLess<2>{0}(a, b)));   // xmin 1 < 2
  EXPECT_FALSE((CoordLess<2>{1}(a, b)));  // ymin 5 > 4
  EXPECT_FALSE((CoordLess<2>{2}(a, b)));  // xmax 3 > 2.5
  EXPECT_TRUE((CoordLess<2>{3}(a, b)));   // ymax 8 < 9
}

TEST(CornerOrderTest, ExtremeLessMinimisesLowsAndMaximisesHighs) {
  Record2 a{MakeRect(1, 5, 3, 8), 0};
  Record2 b{MakeRect(2, 4, 2.5, 9), 1};
  // Direction 0 (xmin): smaller xmin is more extreme.
  EXPECT_TRUE((ExtremeLess<2>{0}(a, b)));
  // Direction 2 (xmax): larger xmax is more extreme.
  EXPECT_TRUE((ExtremeLess<2>{2}(a, b)));
  // Direction 3 (ymax): larger ymax is more extreme -> b first.
  EXPECT_TRUE((ExtremeLess<2>{3}(b, a)));
}

TEST(CornerOrderTest, TiesBrokenByIdGiveStrictTotalOrder) {
  Record2 a{MakeRect(1, 1, 2, 2), 3};
  Record2 b{MakeRect(1, 1, 2, 2), 7};
  for (int c = 0; c < 4; ++c) {
    EXPECT_TRUE((CoordLess<2>{c}(a, b)));
    EXPECT_FALSE((CoordLess<2>{c}(b, a)));
    EXPECT_FALSE((CoordLess<2>{c}(a, a)));  // irreflexive
    EXPECT_TRUE((ExtremeLess<2>{c}(a, b)));
    EXPECT_FALSE((ExtremeLess<2>{c}(b, a)));
  }
}

TEST(CornerOrderTest, SharedIdsBrokenByTheOtherCorners) {
  // Same id and xmin; only ymax differs.
  Record2 a{MakeRect(1, 1, 2, 2), 3};
  Record2 b{MakeRect(1, 1, 2, 5), 3};
  for (int c = 0; c < 4; ++c) {
    EXPECT_NE((CoordLess<2>{c}(a, b)), (CoordLess<2>{c}(b, a))) << c;
    EXPECT_NE((ExtremeLess<2>{c}(a, b)), (ExtremeLess<2>{c}(b, a))) << c;
    EXPECT_FALSE((CoordLess<2>{c}(b, b)));
    EXPECT_FALSE((ExtremeLess<2>{c}(b, b)));
  }
  EXPECT_TRUE((CoordLess<2>{0}(a, b)));    // tie on xmin and id: ymax 2 < 5
  EXPECT_TRUE((ExtremeLess<2>{3}(b, a)));  // ymax itself: 5 is more extreme
}

TEST(CornerOrderTest, CutRecordSeparatesItsRank) {
  // Pairs share an id and every corner coordinate but xmax, so in every
  // other dimension they tie on (coordinate, id).  The record at rank r of
  // the sorted order, used as a cut, has exactly r records before it.
  auto data = RandomRects<2>(300, 55);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i].id = static_cast<DataId>(i / 2);
    if (i % 2 == 1) {
      data[i].rect = data[i - 1].rect;
      data[i].rect.hi[0] += 0.01;
    }
  }
  for (int c = 0; c < 4; ++c) {
    std::sort(data.begin(), data.end(), CoordLess<2>{c});
    for (size_t r = 0; r < data.size(); ++r) {
      size_t before = 0;
      for (const auto& rec : data) {
        if (CoordLess<2>{c}(rec, data[r])) ++before;
      }
      EXPECT_EQ(before, r) << "dim " << c << " rank " << r;
    }
  }
}

TEST(CornerOrderTest, SortingByAllDirectionsIsAPermutation) {
  auto data = RandomRects<2>(500, 57);
  for (int c = 0; c < 4; ++c) {
    auto copy = data;
    std::sort(copy.begin(), copy.end(), ExtremeLess<2>{c});
    // Most-extreme-first: the front element attains the direction optimum.
    Real front = copy.front().rect.CornerCoord(c);
    for (const auto& rec : copy) {
      if (c < 2) {
        EXPECT_GE(rec.rect.CornerCoord(c), front);
      } else {
        EXPECT_LE(rec.rect.CornerCoord(c), front);
      }
    }
    EXPECT_EQ(copy.size(), data.size());
  }
}

TEST(CornerOrderTest, ThreeDimensionalDirections) {
  Record<3> a, b;
  a.rect.lo = {1, 2, 3};
  a.rect.hi = {4, 5, 6};
  a.id = 0;
  b.rect.lo = {2, 1, 4};
  b.rect.hi = {3, 6, 5};
  b.id = 1;
  EXPECT_TRUE((ExtremeLess<3>{0}(a, b)));  // xmin: 1 < 2
  EXPECT_TRUE((ExtremeLess<3>{1}(b, a)));  // ymin: 1 < 2
  EXPECT_TRUE((ExtremeLess<3>{2}(a, b)));  // zmin: 3 < 4
  EXPECT_TRUE((ExtremeLess<3>{3}(a, b)));  // xmax: 4 > 3
  EXPECT_TRUE((ExtremeLess<3>{4}(b, a)));  // ymax: 6 > 5
  EXPECT_TRUE((ExtremeLess<3>{5}(a, b)));  // zmax: 6 > 5
}

}  // namespace
}  // namespace prtree

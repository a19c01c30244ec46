#include "geom/rect.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace prtree {
namespace {

TEST(RectTest, IntersectsBasic) {
  Rect2 a = MakeRect(0, 0, 1, 1);
  Rect2 b = MakeRect(0.5, 0.5, 2, 2);
  Rect2 c = MakeRect(1.5, 1.5, 2, 2);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_FALSE(c.Intersects(a));
}

TEST(RectTest, TouchingBoundariesIntersect) {
  Rect2 a = MakeRect(0, 0, 1, 1);
  Rect2 b = MakeRect(1, 0, 2, 1);  // shares the x=1 edge
  Rect2 c = MakeRect(1, 1, 2, 2);  // shares only the corner (1,1)
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(a.Intersects(c));
}

TEST(RectTest, DegenerateRectsIntersect) {
  Rect2 point = MakeRect(0.5, 0.5, 0.5, 0.5);
  Rect2 hline = MakeRect(0, 0.5, 1, 0.5);
  Rect2 box = MakeRect(0, 0, 1, 1);
  EXPECT_TRUE(point.Intersects(box));
  EXPECT_TRUE(hline.Intersects(box));
  EXPECT_TRUE(point.Intersects(hline));
  EXPECT_TRUE(point.Intersects(point));
}

TEST(RectTest, ContainsIncludesBoundary) {
  Rect2 a = MakeRect(0, 0, 1, 1);
  EXPECT_TRUE(a.Contains(MakeRect(0, 0, 1, 1)));
  EXPECT_TRUE(a.Contains(MakeRect(0.2, 0.3, 0.4, 0.5)));
  EXPECT_FALSE(a.Contains(MakeRect(0.2, 0.3, 1.4, 0.5)));
  EXPECT_FALSE(a.Contains(MakeRect(-0.1, 0, 1, 1)));
}

TEST(RectTest, ContainsPoint) {
  Rect2 a = MakeRect(0, 0, 1, 1);
  EXPECT_TRUE(a.ContainsPoint({0.0, 0.0}));
  EXPECT_TRUE(a.ContainsPoint({1.0, 1.0}));
  EXPECT_FALSE(a.ContainsPoint({1.0, 1.0001}));
}

TEST(RectTest, EmptyIdentity) {
  Rect2 e = Rect2::Empty();
  EXPECT_TRUE(e.IsEmpty());
  EXPECT_EQ(e.Area(), 0);
  Rect2 a = MakeRect(0.25, 0.5, 0.75, 1.0);
  Rect2 joined = Rect2::Cover(e, a);
  EXPECT_EQ(joined, a);
  EXPECT_FALSE(joined.IsEmpty());
}

TEST(RectTest, CoverAndExtend) {
  Rect2 a = MakeRect(0, 0, 1, 1);
  Rect2 b = MakeRect(2, -1, 3, 0.5);
  Rect2 c = Rect2::Cover(a, b);
  EXPECT_EQ(c, MakeRect(0, -1, 3, 1));
  a.ExtendToCover(b);
  EXPECT_EQ(a, c);
}

TEST(RectTest, AreaMarginExtent) {
  Rect2 a = MakeRect(0, 0, 2, 3);
  EXPECT_DOUBLE_EQ(a.Area(), 6);
  EXPECT_DOUBLE_EQ(a.Extent(0), 2);
  EXPECT_DOUBLE_EQ(a.Extent(1), 3);
  EXPECT_DOUBLE_EQ(a.Center(0), 1);
  EXPECT_DOUBLE_EQ(a.Center(1), 1.5);
}

TEST(RectTest, Enlargement) {
  Rect2 a = MakeRect(0, 0, 1, 1);
  EXPECT_DOUBLE_EQ(a.Enlargement(MakeRect(0.2, 0.2, 0.8, 0.8)), 0);
  EXPECT_DOUBLE_EQ(a.Enlargement(MakeRect(0, 0, 2, 1)), 1);
}

TEST(RectTest, CornerCoordMatchesPaperMapping) {
  // R* = (xmin, ymin, xmax, ymax) per §2.1.
  Rect2 a = MakeRect(1, 2, 3, 4);
  EXPECT_EQ(a.CornerCoord(0), 1);
  EXPECT_EQ(a.CornerCoord(1), 2);
  EXPECT_EQ(a.CornerCoord(2), 3);
  EXPECT_EQ(a.CornerCoord(3), 4);
}

TEST(RectTest, ThreeDimensional) {
  Rect<3> a;
  a.lo = {0, 0, 0};
  a.hi = {1, 2, 3};
  EXPECT_DOUBLE_EQ(a.Area(), 6);
  EXPECT_EQ(Rect<3>::kCorners, 6);
  Rect<3> b;
  b.lo = {0.5, 0.5, 2.9};
  b.hi = {0.6, 0.6, 3.1};
  EXPECT_TRUE(a.Intersects(b));
  b.lo[2] = 3.01;
  b.hi[2] = 3.2;
  EXPECT_FALSE(a.Intersects(b));
}

// Property sweep: Cover is commutative/associative and Intersects is
// symmetric on random rectangles.
class RectPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RectPropertyTest, AlgebraicProperties) {
  auto data = testing_util::RandomRects<2>(200, GetParam(), 0.3);
  for (size_t i = 0; i + 2 < data.size(); i += 3) {
    const Rect2& a = data[i].rect;
    const Rect2& b = data[i + 1].rect;
    const Rect2& c = data[i + 2].rect;
    EXPECT_EQ(Rect2::Cover(a, b), Rect2::Cover(b, a));
    EXPECT_EQ(Rect2::Cover(Rect2::Cover(a, b), c),
              Rect2::Cover(a, Rect2::Cover(b, c)));
    EXPECT_EQ(a.Intersects(b), b.Intersects(a));
    EXPECT_TRUE(Rect2::Cover(a, b).Contains(a));
    EXPECT_TRUE(Rect2::Cover(a, b).Contains(b));
    EXPECT_GE(a.Enlargement(b), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RectPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 1234));

}  // namespace
}  // namespace prtree

// Kernel-level tests for geom/rect_batch.h: every available SIMD level
// must reproduce the scalar Rect predicates bit for bit — masks, tail
// bits, MINDIST² bits — over hostile inputs (special values, unaligned
// exactly-sized buffers, every batch length across the lane boundaries).
// The ASan/UBSan presets turn the "never read past element n-1" and
// alignment-freedom claims into hard failures.

#include "geom/rect_batch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "geom/rect.h"
#include "util/random.h"

namespace prtree {
namespace {

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  for (SimdLevel l : {SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (ForceSimdLevel(l) == l) levels.push_back(l);
  }
  ForceSimdLevel(SimdLevel::kScalar);
  return levels;
}

struct Runs {
  std::vector<Real> xmin, ymin, xmax, ymax;
  size_t size() const { return xmin.size(); }
};

// Random rectangles with special values sprinkled in: infinities (an
// unbounded dimension), signed zeros, denormals, and NaN — the scalar
// predicates have defined comparison behaviour for all of them and the
// kernels must match it exactly.
Runs MakeRuns(size_t n, uint64_t seed) {
  Rng rng(seed);
  Runs r;
  const Real inf = std::numeric_limits<Real>::infinity();
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  const Real denorm = std::numeric_limits<Real>::denorm_min();
  for (size_t i = 0; i < n; ++i) {
    Real lox = rng.Uniform(-1, 1), loy = rng.Uniform(-1, 1);
    Real hix = lox + rng.Uniform(0, 0.5), hiy = loy + rng.Uniform(0, 0.5);
    switch (i % 11) {
      case 7:
        lox = -inf;
        break;
      case 8:
        hiy = inf;
        break;
      case 9:
        lox = -0.0;
        hix = denorm;
        break;
      case 10:
        loy = nan;
        break;
      default:
        break;
    }
    r.xmin.push_back(lox);
    r.ymin.push_back(loy);
    r.xmax.push_back(hix);
    r.ymax.push_back(hiy);
  }
  return r;
}

Rect2 EntryRect(const Runs& r, size_t i) {
  Rect2 e;
  e.lo = {r.xmin[i], r.ymin[i]};
  e.hi = {r.xmax[i], r.ymax[i]};
  return e;
}

// Reference MINDIST², the same if/else accumulation as MinDist in
// rtree/knn.h before the sqrt.  The test binary targets baseline x86-64 /
// AArch64 like the library, so no FMA contraction can sneak in here and
// bit-equality with the -ffp-contract=off kernel TU is well-defined.
Real RefMinDist2(Real px, Real py, const Rect2& r) {
  Real dx = 0;
  if (px < r.lo[0]) {
    dx = r.lo[0] - px;
  } else if (px > r.hi[0]) {
    dx = px - r.hi[0];
  }
  Real dy = 0;
  if (py < r.lo[1]) {
    dy = r.lo[1] - py;
  } else if (py > r.hi[1]) {
    dy = py - r.hi[1];
  }
  return dx * dx + dy * dy;
}

uint64_t Bits(Real v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

class RectBatchTest : public ::testing::Test {
 protected:
  void TearDown() override { ForceSimdLevel(SimdLevel::kScalar); }
};

// Batch lengths straddling every lane and mask-word boundary.
const size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16,
                           63, 64, 65, 100, 113, 127, 128, 130};

TEST_F(RectBatchTest, MasksMatchScalarPredicatesAtEveryLevel) {
  const Rect2 q = MakeRect(-0.25, -0.25, 0.4, 0.4);
  for (SimdLevel level : AvailableLevels()) {
    ASSERT_EQ(ForceSimdLevel(level), level);
    for (size_t n : kLengths) {
      Runs runs = MakeRuns(n, 1000 + n);
      std::vector<uint64_t> mask(RectMaskWords(n) + 1, ~uint64_t{0});
      BatchIntersect(q, runs.xmin.data(), runs.ymin.data(), runs.xmax.data(),
                     runs.ymax.data(), n, mask.data());
      for (size_t i = 0; i < n; ++i) {
        bool got = (mask[i >> 6] >> (i & 63)) & 1;
        EXPECT_EQ(got, EntryRect(runs, i).Intersects(q))
            << SimdLevelName(level) << " intersect entry " << i << "/" << n;
      }
      BatchCovers(q, runs.xmin.data(), runs.ymin.data(), runs.xmax.data(),
                  runs.ymax.data(), n, mask.data());
      for (size_t i = 0; i < n; ++i) {
        bool got = (mask[i >> 6] >> (i & 63)) & 1;
        EXPECT_EQ(got, EntryRect(runs, i).Contains(q))
            << SimdLevelName(level) << " covers entry " << i << "/" << n;
      }
    }
  }
}

TEST_F(RectBatchTest, TailBitsBeyondNAreZero) {
  const Rect2 q = MakeRect(-10, -10, 10, 10);  // accepts every finite entry
  for (SimdLevel level : AvailableLevels()) {
    ASSERT_EQ(ForceSimdLevel(level), level);
    for (size_t n : kLengths) {
      if (n == 0) continue;
      Runs runs = MakeRuns(n, 2000 + n);
      std::vector<uint64_t> mask(RectMaskWords(n), ~uint64_t{0});
      BatchIntersect(q, runs.xmin.data(), runs.ymin.data(), runs.xmax.data(),
                     runs.ymax.data(), n, mask.data());
      for (size_t i = n; i < RectMaskWords(n) * 64; ++i) {
        EXPECT_EQ((mask[i >> 6] >> (i & 63)) & 1, 0u)
            << SimdLevelName(level) << " stray tail bit " << i << " at n=" << n;
      }
    }
  }
}

TEST_F(RectBatchTest, MinDist2BitIdenticalToReferenceAtEveryLevel) {
  for (SimdLevel level : AvailableLevels()) {
    ASSERT_EQ(ForceSimdLevel(level), level);
    for (size_t n : kLengths) {
      Runs runs = MakeRuns(n, 3000 + n);
      Rng rng(4000 + n);
      Real px = rng.Uniform(-1.5, 1.5), py = rng.Uniform(-1.5, 1.5);
      std::vector<Real> d2(n > 0 ? n : 1);
      BatchMinDist2(px, py, runs.xmin.data(), runs.ymin.data(),
                    runs.xmax.data(), runs.ymax.data(), n, d2.data());
      for (size_t i = 0; i < n; ++i) {
        Real want = RefMinDist2(px, py, EntryRect(runs, i));
        EXPECT_EQ(Bits(d2[i]), Bits(want))
            << SimdLevelName(level) << " d2 entry " << i << "/" << n
            << " got " << d2[i] << " want " << want;
      }
    }
  }
}

// The alignment/UB audit: exactly-sized runs placed at deliberately odd
// byte offsets.  Under ASan any overread of the heap block fails; under
// UBSan any aligned-load assumption fails.  The mask/d2 outputs must still
// be bit-exact.
TEST_F(RectBatchTest, UnalignedExactlySizedRunsAreSafe) {
  const Rect2 q = MakeRect(-0.5, -0.5, 0.5, 0.5);
  for (SimdLevel level : AvailableLevels()) {
    ASSERT_EQ(ForceSimdLevel(level), level);
    for (size_t offset : {1, 3, 5, 7}) {
      const size_t n = 113;
      Runs runs = MakeRuns(n, 5000 + offset);
      // One raw allocation per run, sized to the byte and shifted off
      // natural Real alignment.
      std::vector<std::vector<char>> storage;
      const Real* views[4];
      const std::vector<Real>* sources[4] = {&runs.xmin, &runs.ymin,
                                             &runs.xmax, &runs.ymax};
      for (int k = 0; k < 4; ++k) {
        storage.emplace_back(offset + n * sizeof(Real));
        std::memcpy(storage.back().data() + offset, sources[k]->data(),
                    n * sizeof(Real));
        views[k] = reinterpret_cast<const Real*>(storage.back().data() +
                                                 offset);
      }
      std::vector<uint64_t> mask(RectMaskWords(n));
      BatchIntersect(q, views[0], views[1], views[2], views[3], n,
                     mask.data());
      for (size_t i = 0; i < n; ++i) {
        bool got = (mask[i >> 6] >> (i & 63)) & 1;
        EXPECT_EQ(got, EntryRect(runs, i).Intersects(q))
            << SimdLevelName(level) << " offset " << offset << " entry " << i;
      }
      std::vector<Real> d2(n);
      BatchMinDist2(0.1, -0.2, views[0], views[1], views[2], views[3], n,
                    d2.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(Bits(d2[i]), Bits(RefMinDist2(0.1, -0.2, EntryRect(runs, i))))
            << SimdLevelName(level) << " offset " << offset << " entry " << i;
      }
    }
  }
}

TEST_F(RectBatchTest, ForEachSetBitVisitsInIncreasingOrder) {
  std::vector<uint64_t> mask(3, 0);
  std::vector<int> expected;
  for (int i : {0, 1, 63, 64, 70, 127, 128, 130, 191}) {
    mask[i >> 6] |= uint64_t{1} << (i & 63);
    expected.push_back(i);
  }
  std::vector<int> seen;
  ForEachSetBit(mask.data(), mask.size(), [&](int i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);

  seen.clear();
  std::vector<uint64_t> empty(2, 0);
  ForEachSetBit(empty.data(), empty.size(), [&](int i) { seen.push_back(i); });
  EXPECT_TRUE(seen.empty());
}

TEST_F(RectBatchTest, ForceSimdLevelClampsAndNames) {
  EXPECT_EQ(ForceSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  // Forcing an unavailable level falls back to something real and reports
  // what it actually activated.
  SimdLevel got = ForceSimdLevel(SimdLevel::kAvx2);
  EXPECT_EQ(ActiveSimdLevel(), got);
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kNeon), "neon");
}

}  // namespace
}  // namespace prtree

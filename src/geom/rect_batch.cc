// Batched rectangle kernels: scalar reference, AVX2 and NEON paths behind
// one runtime dispatch.  See rect_batch.h for the contract.
//
// Bit-identity across implementations is load-bearing (QueryStats must be
// byte-identical whichever path runs), so three rules hold everywhere in
// this file:
//
//  1. This translation unit is compiled with -ffp-contract=off (see
//     src/CMakeLists.txt) and the SIMD paths use mul+add, never FMA —
//     dx*dx + dy*dy produces the same bits in every implementation.
//  2. Comparison predicates mirror the scalar Rect methods exactly,
//     including their NaN behaviour: Rect::Intersects is
//     !(a > b) && ..., which is true for unordered operands, so the SIMD
//     comparisons use the unordered "not greater/less than" predicates.
//  3. Partial lanes (n % width) run the same scalar helpers the scalar
//     kernels use, and no load ever touches an element past index n-1, so
//     exactly-sized and arbitrarily aligned buffers are safe.
//
// Loads go through memcpy (scalar) or unaligned-load intrinsics (SIMD):
// the coordinate runs live inside node blocks whose base alignment is
// whatever the buffer pool or caller provides — possibly none.

#include "geom/rect_batch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if !defined(PRTREE_DISABLE_SIMD) && (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define PRTREE_HAVE_AVX2_PATH 1
#include <immintrin.h>
#endif

#if !defined(PRTREE_DISABLE_SIMD) && defined(__aarch64__)
#define PRTREE_HAVE_NEON_PATH 1
#include <arm_neon.h>
#endif

namespace prtree {
namespace {

// Alignment-free load: the runs may start at any byte offset.
inline Real LoadReal(const Real* base, size_t i) {
  Real v;
  std::memcpy(&v, reinterpret_cast<const std::byte*>(base) + i * sizeof(Real),
              sizeof(v));
  return v;
}

// ---- scalar predicates (the reference semantics) ----------------------

// Exactly Rect::Intersects: !(lo > q.hi) && !(q.lo > hi) per dimension.
inline bool ScalarIntersects(const Rect2& q, Real xmin, Real ymin, Real xmax,
                             Real ymax) {
  return !(xmin > q.hi[0]) && !(q.lo[0] > xmax) && !(ymin > q.hi[1]) &&
         !(q.lo[1] > ymax);
}

// Exactly entry.Contains(q): !(q.lo < lo) && !(q.hi > hi) per dimension.
inline bool ScalarCovers(const Rect2& q, Real xmin, Real ymin, Real xmax,
                         Real ymax) {
  return !(q.lo[0] < xmin) && !(q.hi[0] > xmax) && !(q.lo[1] < ymin) &&
         !(q.hi[1] > ymax);
}

// Squared MINDIST, accumulated x-then-y like MinDist (rtree/knn.h).
inline Real ScalarMinDist2(Real px, Real py, Real xmin, Real ymin, Real xmax,
                           Real ymax) {
  Real dx = 0;
  if (px < xmin) {
    dx = xmin - px;
  } else if (px > xmax) {
    dx = px - xmax;
  }
  Real dy = 0;
  if (py < ymin) {
    dy = ymin - py;
  } else if (py > ymax) {
    dy = py - ymax;
  }
  return dx * dx + dy * dy;
}

template <typename Pred>
void ScalarMaskKernel(const Rect2& q, const Real* xmin, const Real* ymin,
                      const Real* xmax, const Real* ymax, size_t n,
                      uint64_t* mask, Pred pred) {
  std::memset(mask, 0, RectMaskWords(n) * sizeof(uint64_t));
  for (size_t i = 0; i < n; ++i) {
    if (pred(q, LoadReal(xmin, i), LoadReal(ymin, i), LoadReal(xmax, i),
             LoadReal(ymax, i))) {
      mask[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

void ScalarIntersectKernel(const Rect2& q, const Real* xmin, const Real* ymin,
                           const Real* xmax, const Real* ymax, size_t n,
                           uint64_t* mask) {
  ScalarMaskKernel(q, xmin, ymin, xmax, ymax, n, mask,
                   [](const Rect2& w, Real a, Real b, Real c, Real d) {
                     return ScalarIntersects(w, a, b, c, d);
                   });
}

void ScalarCoversKernel(const Rect2& q, const Real* xmin, const Real* ymin,
                        const Real* xmax, const Real* ymax, size_t n,
                        uint64_t* mask) {
  ScalarMaskKernel(q, xmin, ymin, xmax, ymax, n, mask,
                   [](const Rect2& w, Real a, Real b, Real c, Real d) {
                     return ScalarCovers(w, a, b, c, d);
                   });
}

void ScalarMinDist2Kernel(Real px, Real py, const Real* xmin, const Real* ymin,
                          const Real* xmax, const Real* ymax, size_t n,
                          Real* d2) {
  for (size_t i = 0; i < n; ++i) {
    d2[i] = ScalarMinDist2(px, py, LoadReal(xmin, i), LoadReal(ymin, i),
                           LoadReal(xmax, i), LoadReal(ymax, i));
  }
}

// ---- AVX2 -------------------------------------------------------------
//
// Four rectangles per lane.  The unordered comparison predicates
// (_CMP_NGT_UQ / _CMP_NLT_UQ) are exactly the scalar !(a > b) / !(a < b),
// NaN included.  movemask gives 4 result bits per lane; 64/4 lanes fill
// one mask word, and lanes never straddle a word boundary.

#ifdef PRTREE_HAVE_AVX2_PATH

__attribute__((target("avx2"))) void Avx2IntersectKernel(
    const Rect2& q, const Real* xmin, const Real* ymin, const Real* xmax,
    const Real* ymax, size_t n, uint64_t* mask) {
  std::memset(mask, 0, RectMaskWords(n) * sizeof(uint64_t));
  const __m256d qxmin = _mm256_set1_pd(q.lo[0]);
  const __m256d qymin = _mm256_set1_pd(q.lo[1]);
  const __m256d qxmax = _mm256_set1_pd(q.hi[0]);
  const __m256d qymax = _mm256_set1_pd(q.hi[1]);
  const size_t full = n & ~size_t{3};
  for (size_t i = 0; i < full; i += 4) {
    __m256d m =
        _mm256_cmp_pd(_mm256_loadu_pd(xmin + i), qxmax, _CMP_NGT_UQ);
    m = _mm256_and_pd(
        m, _mm256_cmp_pd(qxmin, _mm256_loadu_pd(xmax + i), _CMP_NGT_UQ));
    m = _mm256_and_pd(
        m, _mm256_cmp_pd(_mm256_loadu_pd(ymin + i), qymax, _CMP_NGT_UQ));
    m = _mm256_and_pd(
        m, _mm256_cmp_pd(qymin, _mm256_loadu_pd(ymax + i), _CMP_NGT_UQ));
    uint64_t bits = static_cast<unsigned>(_mm256_movemask_pd(m));
    mask[i >> 6] |= bits << (i & 63);
  }
  for (size_t i = full; i < n; ++i) {
    if (ScalarIntersects(q, LoadReal(xmin, i), LoadReal(ymin, i),
                         LoadReal(xmax, i), LoadReal(ymax, i))) {
      mask[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

__attribute__((target("avx2"))) void Avx2CoversKernel(
    const Rect2& q, const Real* xmin, const Real* ymin, const Real* xmax,
    const Real* ymax, size_t n, uint64_t* mask) {
  std::memset(mask, 0, RectMaskWords(n) * sizeof(uint64_t));
  const __m256d qxmin = _mm256_set1_pd(q.lo[0]);
  const __m256d qymin = _mm256_set1_pd(q.lo[1]);
  const __m256d qxmax = _mm256_set1_pd(q.hi[0]);
  const __m256d qymax = _mm256_set1_pd(q.hi[1]);
  const size_t full = n & ~size_t{3};
  for (size_t i = 0; i < full; i += 4) {
    __m256d m =
        _mm256_cmp_pd(qxmin, _mm256_loadu_pd(xmin + i), _CMP_NLT_UQ);
    m = _mm256_and_pd(
        m, _mm256_cmp_pd(qxmax, _mm256_loadu_pd(xmax + i), _CMP_NGT_UQ));
    m = _mm256_and_pd(
        m, _mm256_cmp_pd(qymin, _mm256_loadu_pd(ymin + i), _CMP_NLT_UQ));
    m = _mm256_and_pd(
        m, _mm256_cmp_pd(qymax, _mm256_loadu_pd(ymax + i), _CMP_NGT_UQ));
    uint64_t bits = static_cast<unsigned>(_mm256_movemask_pd(m));
    mask[i >> 6] |= bits << (i & 63);
  }
  for (size_t i = full; i < n; ++i) {
    if (ScalarCovers(q, LoadReal(xmin, i), LoadReal(ymin, i),
                     LoadReal(xmax, i), LoadReal(ymax, i))) {
      mask[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

// Branch-free delta: max(lo - p, p - hi, 0) equals the scalar if/else for
// every non-NaN input (inside the interval both differences are <= 0), and
// maxpd's returns-second-operand-on-NaN rule makes NaN coordinates yield 0
// like the scalar comparisons do.
__attribute__((target("avx2"))) void Avx2MinDist2Kernel(
    Real px, Real py, const Real* xmin, const Real* ymin, const Real* xmax,
    const Real* ymax, size_t n, Real* d2) {
  const __m256d vpx = _mm256_set1_pd(px);
  const __m256d vpy = _mm256_set1_pd(py);
  const __m256d zero = _mm256_setzero_pd();
  const size_t full = n & ~size_t{3};
  for (size_t i = 0; i < full; i += 4) {
    __m256d dx = _mm256_max_pd(
        _mm256_max_pd(_mm256_sub_pd(_mm256_loadu_pd(xmin + i), vpx),
                      _mm256_sub_pd(vpx, _mm256_loadu_pd(xmax + i))),
        zero);
    __m256d dy = _mm256_max_pd(
        _mm256_max_pd(_mm256_sub_pd(_mm256_loadu_pd(ymin + i), vpy),
                      _mm256_sub_pd(vpy, _mm256_loadu_pd(ymax + i))),
        zero);
    _mm256_storeu_pd(d2 + i, _mm256_add_pd(_mm256_mul_pd(dx, dx),
                                           _mm256_mul_pd(dy, dy)));
  }
  for (size_t i = full; i < n; ++i) {
    d2[i] = ScalarMinDist2(px, py, LoadReal(xmin, i), LoadReal(ymin, i),
                           LoadReal(xmax, i), LoadReal(ymax, i));
  }
}

#endif  // PRTREE_HAVE_AVX2_PATH

// ---- NEON -------------------------------------------------------------
//
// Two rectangles per lane.  vcgtq/vcltq are ordered "greater/less than"
// (false on NaN), so the scalar !(a > b) is the bitwise NOT of vcgtq —
// same truth table, NaN included.

#ifdef PRTREE_HAVE_NEON_PATH

inline uint64_t NeonPairBits(uint64x2_t m) {
  return (vgetq_lane_u64(m, 0) & 1) | ((vgetq_lane_u64(m, 1) & 1) << 1);
}

void NeonIntersectKernel(const Rect2& q, const Real* xmin, const Real* ymin,
                         const Real* xmax, const Real* ymax, size_t n,
                         uint64_t* mask) {
  std::memset(mask, 0, RectMaskWords(n) * sizeof(uint64_t));
  const float64x2_t qxmin = vdupq_n_f64(q.lo[0]);
  const float64x2_t qymin = vdupq_n_f64(q.lo[1]);
  const float64x2_t qxmax = vdupq_n_f64(q.hi[0]);
  const float64x2_t qymax = vdupq_n_f64(q.hi[1]);
  const size_t full = n & ~size_t{1};
  for (size_t i = 0; i < full; i += 2) {
    uint64x2_t reject =
        vorrq_u64(vcgtq_f64(vld1q_f64(xmin + i), qxmax),
                  vcgtq_f64(qxmin, vld1q_f64(xmax + i)));
    reject = vorrq_u64(reject, vcgtq_f64(vld1q_f64(ymin + i), qymax));
    reject = vorrq_u64(reject, vcgtq_f64(qymin, vld1q_f64(ymax + i)));
    uint64_t bits = NeonPairBits(veorq_u64(reject, vdupq_n_u64(~0ull)));
    mask[i >> 6] |= bits << (i & 63);
  }
  for (size_t i = full; i < n; ++i) {
    if (ScalarIntersects(q, LoadReal(xmin, i), LoadReal(ymin, i),
                         LoadReal(xmax, i), LoadReal(ymax, i))) {
      mask[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

void NeonCoversKernel(const Rect2& q, const Real* xmin, const Real* ymin,
                      const Real* xmax, const Real* ymax, size_t n,
                      uint64_t* mask) {
  std::memset(mask, 0, RectMaskWords(n) * sizeof(uint64_t));
  const float64x2_t qxmin = vdupq_n_f64(q.lo[0]);
  const float64x2_t qymin = vdupq_n_f64(q.lo[1]);
  const float64x2_t qxmax = vdupq_n_f64(q.hi[0]);
  const float64x2_t qymax = vdupq_n_f64(q.hi[1]);
  const size_t full = n & ~size_t{1};
  for (size_t i = 0; i < full; i += 2) {
    uint64x2_t reject =
        vorrq_u64(vcltq_f64(qxmin, vld1q_f64(xmin + i)),
                  vcgtq_f64(qxmax, vld1q_f64(xmax + i)));
    reject = vorrq_u64(reject, vcltq_f64(qymin, vld1q_f64(ymin + i)));
    reject = vorrq_u64(reject, vcgtq_f64(qymax, vld1q_f64(ymax + i)));
    uint64_t bits = NeonPairBits(veorq_u64(reject, vdupq_n_u64(~0ull)));
    mask[i >> 6] |= bits << (i & 63);
  }
  for (size_t i = full; i < n; ++i) {
    if (ScalarCovers(q, LoadReal(xmin, i), LoadReal(ymin, i),
                     LoadReal(xmax, i), LoadReal(ymax, i))) {
      mask[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

void NeonMinDist2Kernel(Real px, Real py, const Real* xmin, const Real* ymin,
                        const Real* xmax, const Real* ymax, size_t n,
                        Real* d2) {
  const float64x2_t vpx = vdupq_n_f64(px);
  const float64x2_t vpy = vdupq_n_f64(py);
  const float64x2_t zero = vdupq_n_f64(0.0);
  const size_t full = n & ~size_t{1};
  for (size_t i = 0; i < full; i += 2) {
    // vmaxq on NaN returns NaN, unlike maxpd; route NaN deltas to 0 the
    // way the scalar comparisons do by selecting on an ordered compare.
    float64x2_t lo_d = vsubq_f64(vld1q_f64(xmin + i), vpx);
    float64x2_t hi_d = vsubq_f64(vpx, vld1q_f64(xmax + i));
    float64x2_t dx = vmaxq_f64(vmaxq_f64(lo_d, hi_d), zero);
    dx = vbslq_f64(vcgtq_f64(dx, zero), dx, zero);
    float64x2_t lo_dy = vsubq_f64(vld1q_f64(ymin + i), vpy);
    float64x2_t hi_dy = vsubq_f64(vpy, vld1q_f64(ymax + i));
    float64x2_t dy = vmaxq_f64(vmaxq_f64(lo_dy, hi_dy), zero);
    dy = vbslq_f64(vcgtq_f64(dy, zero), dy, zero);
    vst1q_f64(d2 + i,
              vaddq_f64(vmulq_f64(dx, dx), vmulq_f64(dy, dy)));
  }
  for (size_t i = full; i < n; ++i) {
    d2[i] = ScalarMinDist2(px, py, LoadReal(xmin, i), LoadReal(ymin, i),
                           LoadReal(xmax, i), LoadReal(ymax, i));
  }
}

#endif  // PRTREE_HAVE_NEON_PATH

// ---- dispatch ---------------------------------------------------------

SimdLevel DetectSimdLevel() {
#if defined(PRTREE_DISABLE_SIMD)
  return SimdLevel::kScalar;
#else
  const char* env = std::getenv("PRTREE_NO_SIMD");
  if (env != nullptr && env[0] == '1') return SimdLevel::kScalar;
#ifdef PRTREE_HAVE_AVX2_PATH
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
#ifdef PRTREE_HAVE_NEON_PATH
  return SimdLevel::kNeon;
#endif
  return SimdLevel::kScalar;
#endif
}

std::atomic<SimdLevel>& ActiveLevelSlot() {
  static std::atomic<SimdLevel> level{DetectSimdLevel()};
  return level;
}

bool LevelAvailable(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
#ifdef PRTREE_HAVE_AVX2_PATH
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case SimdLevel::kNeon:
#ifdef PRTREE_HAVE_NEON_PATH
      return true;
#else
      return false;
#endif
  }
  return false;
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "unknown";
}

SimdLevel ActiveSimdLevel() {
  return ActiveLevelSlot().load(std::memory_order_relaxed);
}

SimdLevel ForceSimdLevel(SimdLevel level) {
  if (!LevelAvailable(level)) level = DetectSimdLevel();
  ActiveLevelSlot().store(level, std::memory_order_relaxed);
  return level;
}

void BatchIntersect(const Rect2& q, const Real* xmin, const Real* ymin,
                    const Real* xmax, const Real* ymax, size_t n,
                    uint64_t* mask) {
  switch (ActiveSimdLevel()) {
#ifdef PRTREE_HAVE_AVX2_PATH
    case SimdLevel::kAvx2:
      Avx2IntersectKernel(q, xmin, ymin, xmax, ymax, n, mask);
      return;
#endif
#ifdef PRTREE_HAVE_NEON_PATH
    case SimdLevel::kNeon:
      NeonIntersectKernel(q, xmin, ymin, xmax, ymax, n, mask);
      return;
#endif
    default:
      ScalarIntersectKernel(q, xmin, ymin, xmax, ymax, n, mask);
  }
}

void BatchCovers(const Rect2& q, const Real* xmin, const Real* ymin,
                 const Real* xmax, const Real* ymax, size_t n,
                 uint64_t* mask) {
  switch (ActiveSimdLevel()) {
#ifdef PRTREE_HAVE_AVX2_PATH
    case SimdLevel::kAvx2:
      Avx2CoversKernel(q, xmin, ymin, xmax, ymax, n, mask);
      return;
#endif
#ifdef PRTREE_HAVE_NEON_PATH
    case SimdLevel::kNeon:
      NeonCoversKernel(q, xmin, ymin, xmax, ymax, n, mask);
      return;
#endif
    default:
      ScalarCoversKernel(q, xmin, ymin, xmax, ymax, n, mask);
  }
}

void BatchMinDist2(Real px, Real py, const Real* xmin, const Real* ymin,
                   const Real* xmax, const Real* ymax, size_t n, Real* d2) {
  switch (ActiveSimdLevel()) {
#ifdef PRTREE_HAVE_AVX2_PATH
    case SimdLevel::kAvx2:
      Avx2MinDist2Kernel(px, py, xmin, ymin, xmax, ymax, n, d2);
      return;
#endif
#ifdef PRTREE_HAVE_NEON_PATH
    case SimdLevel::kNeon:
      NeonMinDist2Kernel(px, py, xmin, ymin, xmax, ymax, n, d2);
      return;
#endif
    default:
      ScalarMinDist2Kernel(px, py, xmin, ymin, xmax, ymax, n, d2);
  }
}

}  // namespace prtree

// Batched rectangle kernels over struct-of-arrays coordinate runs.
//
// The v2 node layout (rtree/node.h) stores a node's MBRs as contiguous
// xmin[]/ymin[]/xmax[]/ymax[] runs precisely so that one SIMD lane can test
// 4 (AVX2) or 2 (NEON) rectangles branch-free.  This header is the kernel
// library the traversal layers call: batched window-intersection and
// containment tests producing a bitmask, and batched squared MINDIST for
// kNN.  Three implementations live behind one runtime dispatch:
//
//  * AVX2 on x86-64 when the CPU has it (compiled with a per-function
//    target attribute, so the rest of the library keeps the baseline ISA);
//  * NEON on AArch64 (baseline there, no probing needed);
//  * portable scalar everywhere else.
//
// The dispatch contract is strict bit-identity: for the same inputs every
// implementation produces the same mask bits and the same IEEE-754 result
// bits for MinDist2 (rect_batch.cc is compiled with -ffp-contract=off and
// the SIMD paths use mul+add, never FMA), so QueryStats and query results
// are byte-identical whichever path runs.  `PRTREE_NO_SIMD=1` in the
// environment — or building with -DPRTREE_SIMD=OFF — forces the scalar
// path; tests and benches may pin a level with ForceSimdLevel.
//
// All coordinate pointers are byte-alignment-free: kernels load through
// memcpy / unaligned-load intrinsics, so they are safe over runs inside
// arbitrarily (mis)aligned pool frames.  Kernels never read past element
// n-1 of any run (partial lanes fall back to scalar), so exactly-sized
// buffers are safe too.

#ifndef PRTREE_GEOM_RECT_BATCH_H_
#define PRTREE_GEOM_RECT_BATCH_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "geom/rect.h"

namespace prtree {

/// Which kernel implementation is dispatched at runtime.
enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// Human-readable name ("scalar", "avx2", "neon").
const char* SimdLevelName(SimdLevel level);

/// The level the kernels currently dispatch to.  Resolved once at first
/// use: compile-time opt-out (PRTREE_SIMD=OFF) and the PRTREE_NO_SIMD=1
/// environment variable force kScalar; otherwise the best level the CPU
/// supports.
SimdLevel ActiveSimdLevel();

/// \brief Pins the dispatch level for benches and tests (e.g. the
/// scalar-vs-SIMD legs of bench/query_warm).  Clamped to what this build
/// and CPU actually support; returns the level now active.  Not meant to
/// be raced against in-flight kernels — call it between query batches.
SimdLevel ForceSimdLevel(SimdLevel level);

/// Number of 64-bit mask words covering `n` entries.
inline constexpr size_t RectMaskWords(size_t n) { return (n + 63) / 64; }

// Every kernel takes the query rectangle (or point) plus four coordinate
// runs of `n` doubles each.  Mask kernels fill RectMaskWords(n) words in
// `mask`: bit i is set iff entry i passes the predicate; tail bits beyond
// n are zero.  Runs need no alignment and are never read past index n-1.

/// Entry i intersects `q` (closed rectangles, exactly Rect::Intersects).
void BatchIntersect(const Rect2& q, const Real* xmin, const Real* ymin,
                    const Real* xmax, const Real* ymax, size_t n,
                    uint64_t* mask);

/// Entry i entirely covers `q` (exactly entry.Contains(q)) — the delete
/// descent's "which subtree can hold this rectangle" test.
void BatchCovers(const Rect2& q, const Real* xmin, const Real* ymin,
                 const Real* xmax, const Real* ymax, size_t n,
                 uint64_t* mask);

/// Squared Euclidean MINDIST from point (px, py) to each entry, written to
/// d2[0..n).  sqrt(d2[i]) equals MinDist (rtree/knn.h) bit-for-bit.
void BatchMinDist2(Real px, Real py, const Real* xmin, const Real* ymin,
                   const Real* xmax, const Real* ymax, size_t n, Real* d2);

/// Calls `f(i)` for every set bit i of `mask` (`words` 64-bit words), in
/// increasing order of i — the same visit order as a scalar entry loop, so
/// traversals built on masks report results in the historical order.
template <typename F>
inline void ForEachSetBit(const uint64_t* mask, size_t words, F f) {
  for (size_t w = 0; w < words; ++w) {
    uint64_t m = mask[w];
    while (m != 0) {
      f(static_cast<int>(w * 64 +
                         static_cast<size_t>(std::countr_zero(m))));
      m &= m - 1;
    }
  }
}

}  // namespace prtree

#endif  // PRTREE_GEOM_RECT_BATCH_H_

// Batched per-node entry testing for traversals.
//
// NodeScanner is the seam between a node view (either on-disk layout,
// rtree/node.h) and the SIMD kernel library (geom/rect_batch.h).  A
// traversal owns one scanner and calls it once per visited node; the
// scanner fills reusable scratch (a bitmask of passing entries, or a run
// of squared distances) so the hot loop allocates nothing after the first
// node.
//
// Layout policy:
//  * v2 (SoA) nodes with D == 2 feed their coordinate runs straight into
//    the batched kernels — the fast path the layout exists for.
//  * v1 (AoS) nodes take a per-entry scalar loop for the mask predicates
//    (gathering four runs just to run a comparison kernel would cost more
//    than it saves, and it would make the scalar-v1 bench leg dishonestly
//    slow).  For MinDist2 — real arithmetic, where lanes do win — AoS
//    nodes gather their coordinates into scratch runs and call the same
//    kernel the SoA path uses.
//  * D != 2 always runs the scalar loops (the kernels are 2-D).
//
// Every path produces bit-identical masks and distance bits (see
// rect_batch.h's dispatch contract), so QueryStats and results do not
// depend on layout or SIMD level.  Mask iteration via ForEachSetBit runs
// in increasing entry order — the same order as the historical scalar
// entry loop.

#ifndef PRTREE_RTREE_NODE_SCAN_H_
#define PRTREE_RTREE_NODE_SCAN_H_

#include <array>
#include <cstring>
#include <vector>

#include "geom/rect_batch.h"
#include "rtree/node.h"

namespace prtree {

/// \brief Reusable per-traversal scratch + dispatch over one node's entries.
///
/// Not thread-safe: one scanner per traversal (they are cheap — a few
/// lazily grown vectors).  The returned pointers alias the scanner's
/// scratch and are valid until the next call on the same scanner.
template <int D>
class NodeScanner {
 public:
  /// Bitmask of entries whose rectangle intersects `q`
  /// (Rect::Intersects semantics).  RectMaskWords(node.count()) words;
  /// bits at or above node.count() are zero.
  template <bool M>
  const uint64_t* IntersectMask(const BasicNodeView<D, M>& node,
                                const Rect<D>& q) {
    const size_t n = node.count();
    if constexpr (D == 2) {
      if (node.layout() == NodeLayout::kSoA) {
        GrowMask(n);
        BatchIntersect(q, node.CoordRun(0), node.CoordRun(1),
                       node.CoordRun(2), node.CoordRun(3), n, mask_.data());
        return mask_.data();
      }
    }
    return ScalarMask(n, [&](int i) { return node.GetRect(i).Intersects(q); });
  }

  /// Bitmask of entries whose rectangle entirely covers `q`
  /// (entry.Contains(q)) — the delete descent's subtree test.
  template <bool M>
  const uint64_t* CoversMask(const BasicNodeView<D, M>& node,
                             const Rect<D>& q) {
    const size_t n = node.count();
    if constexpr (D == 2) {
      if (node.layout() == NodeLayout::kSoA) {
        GrowMask(n);
        BatchCovers(q, node.CoordRun(0), node.CoordRun(1), node.CoordRun(2),
                    node.CoordRun(3), n, mask_.data());
        return mask_.data();
      }
    }
    return ScalarMask(n, [&](int i) { return node.GetRect(i).Contains(q); });
  }

  /// Squared MINDIST from `p` to every entry, in entry order; element i is
  /// valid for i < node.count().  sqrt(d2[i]) is bit-identical to
  /// MinDist (rtree/knn.h) on the same entry.
  template <bool M>
  const Real* MinDist2(const BasicNodeView<D, M>& node,
                       const std::array<Real, D>& p) {
    const size_t n = node.count();
    if (dist_.size() < n) dist_.resize(node.capacity());
    if constexpr (D == 2) {
      if (node.layout() == NodeLayout::kSoA) {
        BatchMinDist2(p[0], p[1], node.CoordRun(0), node.CoordRun(1),
                      node.CoordRun(2), node.CoordRun(3), n, dist_.data());
      } else {
        // AoS: gather into scratch runs, then the same kernel as SoA —
        // same TU, same math, same bits.
        for (int k = 0; k < 4; ++k) {
          if (gather_[k].size() < n) gather_[k].resize(node.capacity());
        }
        for (size_t i = 0; i < n; ++i) {
          Rect<D> r = node.GetRect(static_cast<int>(i));
          gather_[0][i] = r.lo[0];
          gather_[1][i] = r.lo[1];
          gather_[2][i] = r.hi[0];
          gather_[3][i] = r.hi[1];
        }
        BatchMinDist2(p[0], p[1], gather_[0].data(), gather_[1].data(),
                      gather_[2].data(), gather_[3].data(), n, dist_.data());
      }
      return dist_.data();
    } else {
      for (size_t i = 0; i < n; ++i) {
        Rect<D> r = node.GetRect(static_cast<int>(i));
        Real d2 = 0;
        for (int d = 0; d < D; ++d) {
          Real delta = 0;
          if (p[d] < r.lo[d]) {
            delta = r.lo[d] - p[d];
          } else if (p[d] > r.hi[d]) {
            delta = p[d] - r.hi[d];
          }
          d2 += delta * delta;
        }
        dist_[i] = d2;
      }
      return dist_.data();
    }
  }

 private:
  template <typename Pred>
  const uint64_t* ScalarMask(size_t n, Pred pred) {
    GrowMask(n);
    std::memset(mask_.data(), 0, RectMaskWords(n) * sizeof(uint64_t));
    for (size_t i = 0; i < n; ++i) {
      if (pred(static_cast<int>(i))) {
        mask_[i >> 6] |= uint64_t{1} << (i & 63);
      }
    }
    return mask_.data();
  }

  void GrowMask(size_t n) {
    if (mask_.size() < RectMaskWords(n)) mask_.resize(RectMaskWords(n));
  }

  std::vector<uint64_t> mask_;
  std::vector<Real> dist_;
  std::array<std::vector<Real>, 4> gather_;  // AoS kNN coordinate staging
};

}  // namespace prtree

#endif  // PRTREE_RTREE_NODE_SCAN_H_

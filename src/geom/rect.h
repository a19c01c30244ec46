// Axis-parallel (hyper-)rectangles, the objects the paper indexes (§2.1).
//
// A `Rect<D>` stores the minimal bounding box of a spatial object as
// `lo[d] <= hi[d]` per dimension.  The paper's corner transformation maps a
// D-dimensional rectangle to a point in 2D dimensions,
// R* = (xmin, ymin, xmax, ymax) for D = 2; `CornerCoord` exposes that view
// without materialising the point.

#ifndef PRTREE_GEOM_RECT_H_
#define PRTREE_GEOM_RECT_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "util/check.h"

namespace prtree {

/// Coordinate type used throughout the library (8 bytes, as in the paper's
/// 36-byte record layout).
using Real = double;

/// Identifier attached to each input rectangle (the paper's 4-byte "pointer
/// to the original object").
using DataId = uint32_t;

/// \brief An axis-parallel rectangle in D dimensions.
///
/// The paper's evaluation is two-dimensional; the structure definitions in
/// §2.3 are d-dimensional, so the whole library is templated on D.
template <int D>
struct Rect {
  static_assert(D >= 1, "dimension must be positive");

  /// Number of corner coordinates (the dimension of the kd-tree the
  /// pseudo-PR-tree is built on): 2D.
  static constexpr int kCorners = 2 * D;

  std::array<Real, D> lo;
  std::array<Real, D> hi;

  /// An "empty" rectangle that is the identity for ExtendToCover.
  static Rect Empty() {
    Rect r;
    for (int d = 0; d < D; ++d) {
      r.lo[d] = std::numeric_limits<Real>::infinity();
      r.hi[d] = -std::numeric_limits<Real>::infinity();
    }
    return r;
  }

  /// True if this rectangle is the Empty() identity.
  bool IsEmpty() const { return lo[0] > hi[0]; }

  /// A degenerate rectangle covering a single point.
  static Rect AtPoint(const std::array<Real, D>& p) {
    Rect r;
    r.lo = p;
    r.hi = p;
    return r;
  }

  /// The i-th corner coordinate of the 2D-dimensional corner transformation.
  /// Coordinates 0..D-1 are the lower corner (xmin, ymin, ...); coordinates
  /// D..2D-1 are the upper corner (xmax, ymax, ...).
  Real CornerCoord(int i) const {
    PRTREE_DCHECK(i >= 0 && i < kCorners);
    return i < D ? lo[i] : hi[i - D];
  }

  /// True iff this rectangle and `o` share at least one point (closed
  /// rectangles; touching boundaries intersect, as in Guttman's R-tree).
  bool Intersects(const Rect& o) const {
    for (int d = 0; d < D; ++d) {
      if (lo[d] > o.hi[d] || o.lo[d] > hi[d]) return false;
    }
    return true;
  }

  /// True iff `o` lies entirely inside this rectangle (boundaries included).
  bool Contains(const Rect& o) const {
    for (int d = 0; d < D; ++d) {
      if (o.lo[d] < lo[d] || o.hi[d] > hi[d]) return false;
    }
    return true;
  }

  /// True iff point `p` lies inside this rectangle (boundaries included).
  bool ContainsPoint(const std::array<Real, D>& p) const {
    for (int d = 0; d < D; ++d) {
      if (p[d] < lo[d] || p[d] > hi[d]) return false;
    }
    return true;
  }

  /// Grows this rectangle to cover `o`.
  void ExtendToCover(const Rect& o) {
    for (int d = 0; d < D; ++d) {
      lo[d] = std::min(lo[d], o.lo[d]);
      hi[d] = std::max(hi[d], o.hi[d]);
    }
  }

  /// The minimal rectangle covering both `a` and `b`.
  static Rect Cover(const Rect& a, const Rect& b) {
    Rect r = a;
    r.ExtendToCover(b);
    return r;
  }

  /// D-dimensional volume ("area" in the paper's 2-D cost functions; zero
  /// for degenerate rectangles).
  Real Area() const {
    if (IsEmpty()) return 0;
    Real a = 1;
    for (int d = 0; d < D; ++d) a *= hi[d] - lo[d];
    return a;
  }

  /// Side length in dimension `d`.
  Real Extent(int d) const { return hi[d] - lo[d]; }

  /// Centre coordinate in dimension `d`.
  Real Center(int d) const { return (lo[d] + hi[d]) / 2; }

  /// Increase of Area() if this rectangle were extended to cover `o`
  /// (Guttman's insertion cost).
  Real Enlargement(const Rect& o) const {
    return Cover(*this, o).Area() - Area();
  }

  bool operator==(const Rect& o) const { return lo == o.lo && hi == o.hi; }
  bool operator!=(const Rect& o) const { return !(*this == o); }

  /// "[lo0,hi0]x[lo1,hi1]" debug form.
  std::string ToString() const {
    std::string s;
    for (int d = 0; d < D; ++d) {
      if (d) s += 'x';
      s += '[';
      s += std::to_string(lo[d]);
      s += ',';
      s += std::to_string(hi[d]);
      s += ']';
    }
    return s;
  }
};

/// Convenience constructor for the ubiquitous 2-D case.
inline Rect<2> MakeRect(Real xmin, Real ymin, Real xmax, Real ymax) {
  Rect<2> r;
  r.lo = {xmin, ymin};
  r.hi = {xmax, ymax};
  return r;
}

/// \brief An input record: a rectangle plus the identifier of the object it
/// approximates.  36 bytes for D = 2, matching the paper's layout (§3.1).
template <int D>
struct Record {
  Rect<D> rect;
  DataId id;

  bool operator==(const Record& o) const {
    return id == o.id && rect == o.rect;
  }
};

using Rect2 = Rect<2>;
using Record2 = Record<2>;

}  // namespace prtree

#endif  // PRTREE_GEOM_RECT_H_

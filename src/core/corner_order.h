// Total orderings over the 2D corner coordinates of rectangles.
//
// The pseudo-PR-tree (§2.1) views each rectangle as the 2D-dimensional point
// R* = (xmin, ..., ymax) and needs two families of orderings over a corner
// coordinate c:
//
//  * CoordLess  — plain ascending coordinate order, used for the kd-tree
//    divisions ("the division is performed using the xmin, ymin, xmax or
//    ymax-coordinate in a round-robin fashion");
//  * ExtremeLess — most-extreme-first order, used to pick priority-leaf
//    contents ("the B rectangles with minimal xmin-coordinates", "maximal
//    xmax-coordinates", ...).  For c < D "extreme" means a small minimum
//    coordinate; for c >= D it means a large maximum coordinate.
//
// The paper assumes no two defining coordinates are equal; both orderings
// break ties by record id, then by the remaining corner coordinates, which
// restores that assumption for arbitrary inputs without perturbing the
// data.  TGS uses the same orderings for its binary partitions (§1.1 [12]),
// and a cut between two sorted positions is the record at the upper one:
// a record falls below the cut iff it is CoordLess than that record.
//
// The tie-breaks make both orderings strict TOTAL orders over distinct
// records (no two equal in both id and rectangle), which the parallel
// bulk-load pipeline depends on: a totally ordered sequence has exactly
// one sorted permutation, so ParallelSort and the parallel
// nth_element-based selections produce byte-identical results to their
// serial counterparts on equal coordinates.  Records with distinct ids
// never reach the corner tie-break.  Any new comparator fed to
// ExternalSort/ParallelSort must keep a unique secondary key.

#ifndef PRTREE_CORE_CORNER_ORDER_H_
#define PRTREE_CORE_CORNER_ORDER_H_

#include "geom/rect.h"

namespace prtree {

/// Compares the corner coordinates other than `c`, in index order: the
/// last tie-break of both orderings, for records that share coordinate `c`
/// and id.
template <int D>
inline bool OtherCornersLess(const Record<D>& a, const Record<D>& b, int c) {
  for (int k = 0; k < 2 * D; ++k) {
    if (k == c) continue;
    Real va = a.rect.CornerCoord(k);
    Real vb = b.rect.CornerCoord(k);
    if (va != vb) return va < vb;
  }
  return false;
}

/// Ascending order by corner coordinate `c`, ties by id, then by the other
/// corner coordinates.  A strict total order over distinct records.
template <int D>
struct CoordLess {
  int c;
  bool operator()(const Record<D>& a, const Record<D>& b) const {
    Real va = a.rect.CornerCoord(c);
    Real vb = b.rect.CornerCoord(c);
    if (va != vb) return va < vb;
    if (a.id != b.id) return a.id < b.id;
    return OtherCornersLess(a, b, c);
  }
};

/// Most-extreme-first order in direction `c` (see file comment), ties by
/// id, then by the other corner coordinates.
template <int D>
struct ExtremeLess {
  int c;
  bool operator()(const Record<D>& a, const Record<D>& b) const {
    Real va = a.rect.CornerCoord(c);
    Real vb = b.rect.CornerCoord(c);
    if (va != vb) return c < D ? va < vb : va > vb;
    if (a.id != b.id) return a.id < b.id;
    return OtherCornersLess(a, b, c);
  }
};

}  // namespace prtree

#endif  // PRTREE_CORE_CORNER_ORDER_H_

// Packed Hilbert R-tree (H) and four-dimensional Hilbert R-tree (H4)
// bulk loaders — the paper's primary comparison baselines (§1.1, §3, [15]).
//
// Both sort the input by a single one-dimensional key and pack leaves in
// that order, then build the upper levels bottom-up level-by-level:
//
//  * H sorts by the Hilbert value of the rectangle centre — query-efficient
//    on nicely distributed data but blind to rectangle extent;
//  * H4 maps each rectangle to the 2D-dimensional corner point
//    (xmin, ymin, xmax, ymax) and sorts by its position on the
//    2D-dimensional Hilbert curve — slightly worse on nice data, more
//    robust on extreme data (§3.3 confirms both claims).
//
// Sorting goes through the external sorter, so build cost is measured in
// block I/Os exactly as in Figures 9-10.

#ifndef PRTREE_BASELINES_HILBERT_RTREE_H_
#define PRTREE_BASELINES_HILBERT_RTREE_H_

#include "geom/hilbert.h"
#include "io/external_sort.h"
#include "io/stream.h"
#include "io/work_env.h"
#include "rtree/builder.h"
#include "rtree/rtree.h"

namespace prtree {

namespace internal {

/// A record tagged with its 128-bit Hilbert sort key.
template <int D>
struct HilbertKeyed {
  HilbertKey key;
  Record<D> rec;
};

template <int D>
struct HilbertKeyedLess {
  bool operator()(const HilbertKeyed<D>& a, const HilbertKeyed<D>& b) const {
    if (!(a.key == b.key)) return a.key < b.key;
    return a.rec.id < b.rec.id;
  }
};

/// One scan to find the dataset extent (needed to quantise coordinates
/// onto the Hilbert grid).
template <int D>
Rect<D> ComputeExtent(Stream<Record<D>>* input) {
  Rect<D> extent = Rect<D>::Empty();
  typename Stream<Record<D>>::Reader reader(input);
  while (!reader.Done()) extent.ExtendToCover(reader.Next().rect);
  return extent;
}

/// Shared tail of both Hilbert loaders: key, sort, pack.  `tree` is empty
/// and `input` flushed and non-empty (BulkLoader checks both).
template <int D, typename KeyFn>
void BulkLoadHilbertImpl(WorkEnv env, Stream<Record<D>>* input,
                         RTree<D>* tree, KeyFn key_fn) {
  Rect<D> extent = ComputeExtent(input);

  // Tag every record with its curve position.
  Stream<HilbertKeyed<D>> keyed(env.device);
  {
    typename Stream<Record<D>>::Reader reader(input);
    while (!reader.Done()) {
      Record<D> rec = reader.Next();
      keyed.Push(HilbertKeyed<D>{key_fn(rec.rect, extent), rec});
    }
    keyed.Flush();
  }
  Stream<HilbertKeyed<D>> sorted =
      ExternalSort(env, &keyed, HilbertKeyedLess<D>{});
  keyed.Clear();

  // Pack leaves in curve order, then the upper levels (§1.1 [15]).
  NodeWriter<D> writer(env.device, /*level=*/0);
  {
    typename Stream<HilbertKeyed<D>>::Reader reader(&sorted);
    while (!reader.Done()) {
      HilbertKeyed<D> k = reader.Next();
      writer.Add(k.rec.rect, k.rec.id);
    }
  }
  size_t n = sorted.size();
  sorted.Clear();
  PackUpward(tree, writer.Finish(), n);
}

/// \brief Bulk-loads the packed Hilbert R-tree of Kamel and Faloutsos:
/// records sorted by the 2-D Hilbert value of their centres.
inline void BulkLoadHilbert(WorkEnv env, Stream<Record<2>>* input,
                            RTree<2>* tree) {
  BulkLoadHilbertImpl<2>(
      env, input, tree, [](const Rect<2>& r, const Rect<2>& extent) {
        return HilbertCenterKey(r, extent);
      });
}

/// \brief Bulk-loads the four-dimensional (generally, 2D-dimensional)
/// Hilbert R-tree: records sorted by the Hilbert value of their corner
/// transformation.
template <int D>
void BulkLoadHilbert4D(WorkEnv env, Stream<Record<D>>* input,
                       RTree<D>* tree) {
  BulkLoadHilbertImpl<D>(
      env, input, tree, [](const Rect<D>& r, const Rect<D>& extent) {
        return HilbertCornerKey<D>(r, extent);
      });
}

}  // namespace internal

}  // namespace prtree

#endif  // PRTREE_BASELINES_HILBERT_RTREE_H_

// Sort-Tile-Recursive (STR) packing of Leutenegger, López and Edgington —
// an additional one-dimensional-ordering baseline the paper cites among the
// bulk-loading algorithms (§1.1 [18]).
//
// STR sorts by the centre coordinate of one axis, slices the data into
// ceil(L^(1/D)) vertical slabs of whole leaves, and recurses on the next
// axis inside each slab; leaves are packed full in the final order.

#ifndef PRTREE_BASELINES_STR_RTREE_H_
#define PRTREE_BASELINES_STR_RTREE_H_

#include <cmath>
#include <vector>

#include "io/external_sort.h"
#include "io/stream.h"
#include "io/work_env.h"
#include "rtree/builder.h"
#include "rtree/rtree.h"

namespace prtree {

namespace internal {

/// Ascending centre-coordinate order on axis `axis`, ties by id.
template <int D>
struct CenterLess {
  int axis;
  bool operator()(const Record<D>& a, const Record<D>& b) const {
    Real ca = a.rect.Center(axis);
    Real cb = b.rect.Center(axis);
    if (ca != cb) return ca < cb;
    return a.id < b.id;
  }
};

/// Recursive slab step: sorts `input` (consumed) on `axis`, cuts it into
/// slabs holding a multiple of the per-slab leaf budget, and recurses;
/// at the last axis, records are fed to the leaf writer in sorted order.
template <int D>
void StrSlab(WorkEnv env, Stream<Record<D>>* input, int axis,
             size_t leaf_capacity, NodeWriter<D>* writer) {
  Stream<Record<D>> sorted = ExternalSort(env, input, CenterLess<D>{axis});
  input->Clear();
  const size_t n = sorted.size();
  if (axis == D - 1) {
    typename Stream<Record<D>>::Reader reader(&sorted);
    while (!reader.Done()) {
      Record<D> rec = reader.Next();
      writer->Add(rec.rect, rec.id);
    }
    return;
  }
  // leaves in this sub-problem and slab count for the remaining axes.
  size_t leaves = (n + leaf_capacity - 1) / leaf_capacity;
  int remaining_axes = D - axis;
  size_t slabs = static_cast<size_t>(std::ceil(
      std::pow(static_cast<double>(leaves),
               1.0 / static_cast<double>(remaining_axes))));
  slabs = std::max<size_t>(1, slabs);
  size_t per_slab =
      ((leaves + slabs - 1) / slabs) * leaf_capacity;  // whole leaves

  typename Stream<Record<D>>::Reader reader(&sorted);
  while (!reader.Done()) {
    Stream<Record<D>> slab(env.device);
    for (size_t i = 0; i < per_slab && !reader.Done(); ++i) {
      slab.Push(reader.Next());
    }
    slab.Flush();
    StrSlab<D>(env, &slab, axis + 1, leaf_capacity, writer);
  }
}

/// \brief Bulk-loads the empty `tree` with the STR packing over the
/// flushed, non-empty `input` (consumed).
template <int D>
void BulkLoadStr(WorkEnv env, Stream<Record<D>>* input, RTree<D>* tree) {
  const size_t n = input->size();
  NodeWriter<D> writer(env.device, /*level=*/0);
  StrSlab<D>(env, input, 0, tree->capacity(), &writer);
  PackUpward(tree, writer.Finish(), n);
}

}  // namespace internal

}  // namespace prtree

#endif  // PRTREE_BASELINES_STR_RTREE_H_

// Shared helpers for the prtree test suite.

#ifndef PRTREE_TESTS_TEST_UTIL_H_
#define PRTREE_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstring>
#include <vector>

#include "geom/rect.h"
#include "rtree/knn.h"
#include "rtree/node.h"
#include "util/random.h"

namespace prtree {
namespace testing_util {

/// Uniform random rectangles in the unit square with sides up to max_side.
template <int D>
std::vector<Record<D>> RandomRects(size_t n, uint64_t seed,
                                   double max_side = 0.05) {
  Rng rng(seed);
  std::vector<Record<D>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Record<D> rec;
    for (int d = 0; d < D; ++d) {
      double side = rng.Uniform(0.0, max_side);
      double lo = rng.Uniform(0.0, 1.0 - side);
      rec.rect.lo[d] = lo;
      rec.rect.hi[d] = lo + side;
    }
    rec.id = static_cast<DataId>(i);
    out.push_back(rec);
  }
  return out;
}

/// Uniform random points (degenerate rectangles) in the unit square.
template <int D>
std::vector<Record<D>> RandomPoints(size_t n, uint64_t seed) {
  return RandomRects<D>(n, seed, 0.0);
}

/// Reference result: ids of records intersecting `window`, sorted.
template <int D>
std::vector<DataId> BruteForceQuery(const std::vector<Record<D>>& data,
                                    const Rect<D>& window) {
  std::vector<DataId> out;
  for (const auto& rec : data) {
    if (rec.rect.Intersects(window)) out.push_back(rec.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Sorted id list from query output.
template <int D>
std::vector<DataId> SortedIds(const std::vector<Record<D>>& records) {
  std::vector<DataId> out;
  out.reserve(records.size());
  for (const auto& r : records) out.push_back(r.id);
  std::sort(out.begin(), out.end());
  return out;
}

/// A random query window with sides up to `max_side`.
template <int D>
Rect<D> RandomWindow(Rng* rng, double max_side) {
  Rect<D> w;
  for (int d = 0; d < D; ++d) {
    double side = rng->Uniform(0.0, max_side);
    double lo = rng->Uniform(-0.1, 1.1 - side);
    w.lo[d] = lo;
    w.hi[d] = lo + side;
  }
  return w;
}

/// Reference kNN: the k records of `data` closest to `p`, in (distance,
/// id) order.
template <int D>
std::vector<Neighbor<D>> BruteForceKnn(const std::vector<Record<D>>& data,
                                       const std::array<Real, D>& p,
                                       size_t k) {
  std::vector<Neighbor<D>> all;
  for (const auto& rec : data) {
    all.push_back(Neighbor<D>{rec, MinDist<D>(p, rec.rect)});
  }
  std::sort(all.begin(), all.end(),
            [](const Neighbor<D>& a, const Neighbor<D>& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.record.id < b.record.id;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

/// The bit pattern of a distance, for exact comparisons.
inline uint64_t Bits(Real v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Byte offsets of a node header's 16-bit level and entry-count fields
/// (rtree/node.h).
inline constexpr size_t kLevelField = 4;
inline constexpr size_t kCountField = 6;

/// Overwrites one 16-bit node header field of `page` in place, bypassing
/// the node view's checks, as a damaged file would.
inline void DamageNodeHeader(BlockDevice* dev, PageId page, size_t field,
                             uint16_t value) {
  std::vector<std::byte> buf(dev->block_size());
  AbortIfError(dev->Read(page, buf.data()));
  std::memcpy(buf.data() + field, &value, sizeof(value));
  AbortIfError(dev->Write(page, buf.data()));
}

/// Pins the process-wide default layout for new nodes; restores on scope
/// exit so test order cannot leak one test's layout into another.
class ScopedLayout {
 public:
  explicit ScopedLayout(NodeLayout l) : prev_(SetDefaultNodeLayout(l)) {}
  ~ScopedLayout() { SetDefaultNodeLayout(prev_); }

 private:
  NodeLayout prev_;
};

}  // namespace testing_util
}  // namespace prtree

#endif  // PRTREE_TESTS_TEST_UTIL_H_

// I/O-efficient pseudo-PR-tree construction (§2.1, "Efficient construction
// algorithm") — the part of the paper that brings bulk loading from
// O((N/B) log N) down to O((N/B) log_{M/B} (N/B)) I/Os.
//
// One recursion step over a sub-problem of n records:
//
//  1. The records are available as 2D sorted lists L_c (one per corner
//     coordinate, ascending, tie-broken by id).
//  2. Pick z = Θ(M^(1/2D)).  Read the (j·n/z)-th record of each list to get
//     z slab boundaries per dimension, defining a z^(2D) grid; one scan of
//     the records counts the population of every grid cell (the counts fit
//     in memory by the choice of z).
//  3. Build z kd-nodes breadth-first without their priority leaves: the
//     median slab of a node's region is found from the in-memory counts,
//     the exact median record by scanning only that slab's O(n/z) records
//     from the sorted list; the split subdivides the slab's cells (cheap
//     rescan of the same records).
//  4. Fill the 4z priority leaves (2D per kd-node) by "filtering" every
//     record down the partial kd-tree, evicting less extreme records from
//     full leaves (one scan; the leaves fit in memory since
//     M = Ω(B^(4/3))).  The leaves' contents do not depend on the scan
//     order, but the evictions do, and list 0's sorted order makes nearly
//     every record evict one; so the scan reads list 0's blocks in a
//     stride order whose first pass samples the whole list.  Each leaf is
//     emitted sorted most extreme first.
//  5. Distribute the 2D sorted lists over the partial tree's leaf regions,
//     omitting records captured by priority leaves (one scan per list),
//     and recurse on each region.  Once a sub-problem fits in memory the
//     in-memory builder finishes it (making the multiple-of-B splits that
//     give ~100 % packing).
//
// As the paper notes, the kd divisions differ slightly from the definition
// (priority records are not removed before medians are computed), but
// Lemma 2's query bound only needs each child to get at most half of its
// parent's points, which holds here by construction.
//
// Every cut (a slab boundary or a kd split) is a record of the sorted
// list: the records CoordLess than it fall below.  The whole recursion,
// base cases included, runs on the calling thread; only the sorts and a
// base case's in-memory kd recursion use the pool.

#ifndef PRTREE_CORE_GRID_BUILDER_H_
#define PRTREE_CORE_GRID_BUILDER_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <vector>

#include "core/corner_order.h"
#include "core/pseudo_prtree.h"
#include "io/external_sort.h"
#include "io/stream.h"
#include "io/work_env.h"
#include "util/check.h"

namespace prtree {

/// Options for the grid bulk loader.
struct GridBuildOptions {
  /// Records per leaf (the paper's B).  Required.
  size_t capacity = 0;
  /// Records per priority leaf (0 = capacity, the PR-tree; smaller values
  /// are the ablation toward Agarwal et al.'s size-1 priority boxes [2]).
  size_t priority_size = 0;
  /// Grid resolution override (0 = derive z from the memory budget).
  size_t z_override = 0;
};

namespace grid_internal {

/// In-memory population counts of a growing 2D-dimensional grid.
/// Dimension d has sizes_[d] slabs; subdividing a slab re-buckets only that
/// slab's records (provided by the caller).
template <int K>
class GridCounts {
 public:
  explicit GridCounts(const std::array<int, K>& sizes) : sizes_(sizes) {
    size_t total = 1;
    for (int d = 0; d < K; ++d) total *= static_cast<size_t>(sizes_[d]);
    counts_.assign(total, 0);
  }

  int size(int d) const { return sizes_[d]; }

  void Increment(const std::array<int, K>& idx) {
    ++counts_[Flatten(idx)];
  }

  /// Total count of the sub-box [lo, hi) restricted to slab `j` of
  /// dimension `d`.
  uint64_t SliceCount(const std::array<int, K>& lo,
                      const std::array<int, K>& hi, int d, int j) const {
    std::array<int, K> cur = lo;
    cur[d] = j;
    uint64_t total = 0;
    // Iterate the (K-1)-dimensional sub-box.
    while (true) {
      total += counts_[Flatten(cur)];
      int c = 0;
      for (; c < K; ++c) {
        if (c == d) continue;
        if (++cur[c] < hi[c]) break;
        cur[c] = lo[c];
      }
      if (c == K) break;
    }
    return total;
  }

  /// Splits slab `j` of dimension `d` in two.  Both new slabs start at
  /// zero; the caller re-adds the slab's records via Increment.
  void SubdivideSlab(int d, int j) {
    // Cells are row-major with dimension 0 outermost, so for each index
    // over dimensions [0, d) the cells of slabs [0, j) and (j, size) are
    // two contiguous runs; they move whole, and the new slabs j and j + 1
    // between them stay zero.
    size_t outer = 1;
    size_t inner = 1;
    for (int c = 0; c < d; ++c) outer *= static_cast<size_t>(sizes_[c]);
    for (int c = d + 1; c < K; ++c) inner *= static_cast<size_t>(sizes_[c]);
    const size_t before = static_cast<size_t>(j) * inner;
    const size_t after = static_cast<size_t>(sizes_[d] - j - 1) * inner;
    const size_t old_block = static_cast<size_t>(sizes_[d]) * inner;
    const size_t new_block = old_block + inner;
    std::vector<uint32_t> fresh(outer * new_block, 0);
    for (size_t o = 0; o < outer; ++o) {
      const uint32_t* src = counts_.data() + o * old_block;
      uint32_t* dst = fresh.data() + o * new_block;
      std::copy_n(src, before, dst);
      std::copy_n(src + before + inner, after, dst + before + 2 * inner);
    }
    sizes_[d] += 1;
    counts_ = std::move(fresh);
  }

 private:
  size_t Flatten(const std::array<int, K>& idx) const {
    size_t flat = 0;
    for (int d = 0; d < K; ++d) {
      PRTREE_DCHECK(idx[d] >= 0 && idx[d] < sizes_[d]);
      flat = flat * static_cast<size_t>(sizes_[d]) +
             static_cast<size_t>(idx[d]);
    }
    return flat;
  }

  std::array<int, K> sizes_;
  std::vector<uint32_t> counts_;
};

/// Slab index of record `r` in dimension `c`: the number of thresholds at
/// or before r in CoordLess(c) order.
template <int D>
int SlabIndex(const std::vector<Record<D>>& thresholds, const Record<D>& r,
              int c) {
  // Search on the coordinate alone, then step back over the thresholds
  // that tie with r on it but follow r: the common, tie-free case stays a
  // plain search over doubles.
  const Real v = r.rect.CornerCoord(c);
  auto it = std::upper_bound(
      thresholds.begin(), thresholds.end(), v,
      [c](Real x, const Record<D>& t) { return x < t.rect.CornerCoord(c); });
  while (it != thresholds.begin() && it[-1].rect.CornerCoord(c) == v &&
         CoordLess<D>{c}(r, it[-1])) {
    --it;
  }
  return static_cast<int>(it - thresholds.begin());
}

/// Corner coordinate `c` of `r` as an extremeness in direction `c`: the
/// coordinate, negated for a maximum corner (c >= D), so that smaller is
/// more extreme.  ExtremeLess<D>{c} orders first by it (negation is exact).
template <int D>
Real Extremeness(const Record<D>& r, int c) {
  const Real v = r.rect.CornerCoord(c);
  return c < D ? v : -v;
}

}  // namespace grid_internal

/// \brief Runs the grid algorithm over `input`, emitting every
/// pseudo-PR-tree leaf as `emit(const Record<D>* records, size_t count)`.
///
/// The input stream is read (not consumed); all working streams live on
/// env.device, so the device counters measure the paper's build cost.
///
/// Parallelism: env.pool sorts the 2D preprocessing runs (through
/// ExternalSort) and forks the kd recursion of each in-memory base case
/// (PseudoPRTreeBuilder::EmitLeaves) over its record array.  Every device
/// call and every emit() happens on the calling thread, in the serial
/// order, so the leaf sequence and the device's allocation history do not
/// depend on the thread count.
template <int D, typename Emit>
void GridEmitLeaves(WorkEnv env, Stream<Record<D>>* input,
                    const GridBuildOptions& opts, Emit emit) {
  using Rec = Record<D>;
  constexpr int K = 2 * D;
  PRTREE_CHECK(opts.capacity >= 1);
  const size_t b = opts.capacity;
  const size_t prio =
      opts.priority_size == 0 ? opts.capacity : opts.priority_size;
  PRTREE_CHECK(prio >= 1 && prio <= b);
  const size_t memory = env.memory_bytes;

  input->Flush();
  if (input->size() == 0) return;

  // A sub-problem: the same record set sorted by each corner coordinate.
  struct Sub {
    std::vector<Stream<Rec>> lists;  // K streams
    size_t n = 0;
    int depth = 0;
  };

  // Preprocessing: 2D external sorts of the input (which is only read).
  Sub top;
  top.n = input->size();
  top.depth = 0;
  for (int c = 0; c < K; ++c) {
    top.lists.push_back(ExternalSort(env, input, CoordLess<D>{c}));
  }

  std::deque<Sub> pending;
  pending.push_back(std::move(top));

  const size_t mem_records = std::max<size_t>(
      memory / sizeof(Rec) / 2, 4 * b);  // working space for the base case

  // In-memory base case: read the region, free its streams, then emit its
  // leaves.  Freeing first lets the emitted leaf pages reuse the region's
  // stream pages.
  PseudoPRTreeBuilder<D> builder(b, prio);
  std::vector<Rec> recs;
  auto run_base = [&](Sub& sub) {
    sub.lists[0].ReadAll(&recs);
    for (auto& l : sub.lists) l.Clear();
    builder.EmitLeaves(
        &recs,
        [&](const PseudoLeafChunk& c) {
          emit(recs.data() + c.offset, c.count);
        },
        sub.depth, env.pool);
  };

  while (!pending.empty()) {
    Sub sub = std::move(pending.front());
    pending.pop_front();
    PRTREE_CHECK(sub.n == sub.lists[0].size());

    // ---- recursion base: build in memory ---------------------------
    if (sub.n <= mem_records) {
      run_base(sub);
      continue;
    }

    // ---- grid phase -------------------------------------------------
    const size_t n = sub.n;
    // z: number of kd-nodes this phase and initial slabs per dimension.
    size_t z = opts.z_override;
    if (z == 0) {
      z = static_cast<size_t>(
          std::floor(std::pow(static_cast<double>(memory / sizeof(Rec)),
                              1.0 / K)));
      // The count grid must also fit: at most 2·z^K uint32 cells.
      while (z > 2 && 2.0 * std::pow(static_cast<double>(z), K) *
                              sizeof(uint32_t) >
                          static_cast<double>(memory) / 2.0) {
        --z;
      }
    }
    // The cap keeps the O(z^(2D+1)) in-memory grid arithmetic negligible
    // next to the O(n/B) block transfers it saves.
    z = std::clamp<size_t>(z, 2, 32);

    // Initial slab thresholds at ranks j*n/z, and slab start ranks.
    std::array<std::vector<Rec>, K> thresholds;
    std::array<std::vector<size_t>, K> starts;  // slab j = [starts[j], starts[j+1])
    for (int c = 0; c < K; ++c) {
      starts[c].push_back(0);
      std::vector<Rec> one;
      for (size_t j = 1; j < z; ++j) {
        size_t rank = j * n / z;
        if (rank == 0 || rank >= n || rank == starts[c].back()) continue;
        sub.lists[c].ReadRange(rank, 1, &one);
        thresholds[c].push_back(one[0]);
        starts[c].push_back(rank);
      }
      starts[c].push_back(n);
    }

    // Count grid population with one scan.
    std::array<int, K> sizes;
    for (int c = 0; c < K; ++c) {
      sizes[c] = static_cast<int>(thresholds[c].size()) + 1;
    }
    grid_internal::GridCounts<K> counts(sizes);
    {
      typename Stream<Rec>::Reader reader(&sub.lists[0]);
      std::array<int, K> idx;
      while (!reader.Done()) {
        Rec r = reader.Next();
        for (int c = 0; c < K; ++c) {
          idx[c] = grid_internal::SlabIndex<D>(thresholds[c], r, c);
        }
        counts.Increment(idx);
      }
    }

    // ---- build z kd-nodes breadth-first -----------------------------
    struct KdNode {
      int dim;
      Rec t;     // records CoordLess(dim) than t go left
      Real key;  // t's coordinate on dim
      // Per side (0 left, 1 right): a kd-node index, or ~region for a
      // final region.
      std::array<int, 2> child{};
    };
    struct Region {
      std::array<int, K> lo, hi;  // slab-index box [lo, hi)
      size_t count;
      int depth;
      int parent;  // kd-node index, -1 for the root region
      int side;    // which side of the parent: 0 left, 1 right
    };
    std::vector<KdNode> nodes;
    std::vector<Region> final_regions;
    std::deque<Region> frontier;
    {
      Region root;
      root.lo.fill(0);
      for (int c = 0; c < K; ++c) root.hi[c] = counts.size(c);
      root.count = n;
      root.depth = sub.depth;
      root.parent = -1;
      root.side = 0;
      frontier.push_back(root);
    }
    // Records `r` as the kd-node or ~final-region `child` of its parent.
    auto link = [&](const Region& r, int child) {
      if (r.parent >= 0) nodes[r.parent].child[r.side] = child;
    };
    const size_t min_split = std::max<size_t>(2 * (K + 2) * b, 2);
    std::vector<Rec> slab_recs;

    while (!frontier.empty()) {
      if (nodes.size() >= z || frontier.front().count <= min_split) {
        // Out of node budget, or too small to split: everything left in
        // the frontier becomes a recursion region.
        Region r = frontier.front();
        frontier.pop_front();
        link(r, ~static_cast<int>(final_regions.size()));
        final_regions.push_back(r);
        continue;
      }
      Region r = frontier.front();
      frontier.pop_front();
      int d = r.depth % K;

      // Median slab of the region along d, from the in-memory counts.
      size_t target = r.count / 2;
      size_t cum = 0;
      int jstar = -1;
      for (int j = r.lo[d]; j < r.hi[d]; ++j) {
        uint64_t scnt = counts.SliceCount(r.lo, r.hi, d, j);
        if (cum + scnt > target) {
          jstar = j;
          break;
        }
        cum += scnt;
      }
      PRTREE_CHECK(jstar >= 0);
      size_t inner = target - cum;

      int node_idx = static_cast<int>(nodes.size());
      KdNode kd;
      kd.dim = d;
      Region left = r, right = r;
      left.depth = right.depth = r.depth + 1;
      left.parent = right.parent = node_idx;
      left.side = 0;
      right.side = 1;
      left.count = target;
      right.count = r.count - target;

      if (inner == 0 && jstar > r.lo[d]) {
        // The existing slab boundary is exactly the median cut.
        kd.t = thresholds[d][jstar - 1];
        left.hi[d] = jstar;
        right.lo[d] = jstar;
      } else {
        // Scan slab j* from the sorted list to find the exact median and
        // subdivide the slab (§2.1: "we can determine the exact xmin-value
        // x to use ... then we subdivide the z^3 grid cells intersected").
        size_t seg_begin = starts[d][jstar];
        size_t seg_end = starts[d][jstar + 1];
        sub.lists[d].ReadRange(seg_begin, seg_end - seg_begin, &slab_recs);
        // Keys of the region's records inside the slab.
        std::vector<Rec> in_region;
        for (const Rec& rec : slab_recs) {
          bool inside = true;
          for (int c = 0; c < K && inside; ++c) {
            if (c == d) continue;
            int idx = grid_internal::SlabIndex<D>(thresholds[c], rec, c);
            inside = idx >= r.lo[c] && idx < r.hi[c];
          }
          if (inside) in_region.push_back(rec);
        }
        PRTREE_CHECK(inner < in_region.size());
        std::nth_element(in_region.begin(), in_region.begin() + inner,
                         in_region.end(), CoordLess<D>{d});
        kd.t = in_region[inner];

        // Global split position of the slab, then re-bucket its records.
        size_t slab_left = 0;
        for (const Rec& rec : slab_recs) {
          if (CoordLess<D>{d}(rec, kd.t)) ++slab_left;
        }
        counts.SubdivideSlab(d, jstar);
        thresholds[d].insert(thresholds[d].begin() + jstar, kd.t);
        starts[d].insert(starts[d].begin() + jstar + 1,
                         seg_begin + slab_left);
        std::array<int, K> idx;
        for (const Rec& rec : slab_recs) {
          for (int c = 0; c < K; ++c) {
            idx[c] = grid_internal::SlabIndex<D>(thresholds[c], rec, c);
          }
          counts.Increment(idx);
        }
        // Shift every live region's slab interval past the split.
        auto shift = [&](Region* reg) {
          if (reg->lo[d] > jstar) reg->lo[d] += 1;
          if (reg->hi[d] > jstar) reg->hi[d] += 1;
        };
        for (auto& reg : frontier) shift(&reg);
        for (auto& reg : final_regions) shift(&reg);
        left.hi[d] = jstar + 1;
        right.lo[d] = jstar + 1;
        right.hi[d] = r.hi[d] + 1;
      }

      kd.key = kd.t.rect.CornerCoord(d);
      nodes.push_back(kd);
      link(r, node_idx);
      frontier.push_back(left);
      frontier.push_back(right);
    }

    if (nodes.empty()) {
      // Degenerate (tiny n with an overridden budget): fall back to the
      // in-memory builder to guarantee progress.
      run_base(sub);
      continue;
    }

    // Side of kd-node `kd` that `rec` goes to (1: right), as
    // CoordLess(dim)(rec, t) decides it: the cached key settles every
    // record whose coordinate differs from t's.
    auto goes_right = [](const KdNode& kd, const Rec& rec) -> int {
      const Real v = rec.rect.CornerCoord(kd.dim);
      if (v == kd.key) [[unlikely]] {
        return CoordLess<D>{kd.dim}(rec, kd.t) ? 0 : 1;
      }
      return v < kd.key ? 0 : 1;
    };

    // ---- fill priority leaves by filtering (§2.1) --------------------
    // Per node and direction, a heap whose top is the least extreme
    // captured record.  Of a record and a full heap's top, the less
    // extreme moves on to the node's next direction, and after the last
    // one down the kd-tree.  So in any scan order each heap ends up with
    // the `prio` most extreme records that reach it, but each eviction
    // costs a pop and a push.  List 0's xmin order is the worst case: for
    // small rectangles xmax follows xmin, so nearly every record would
    // evict the top of the xmax heap at every node on its path.  The scan
    // reads list 0's blocks in a fixed stride order instead, with
    // s = ceil(sqrt(blocks)): 0, s, 2s, ..., then 1, s + 1, ....  Its
    // first pass samples the whole list, so later records rarely displace
    // one.  Each block is read once into one reused buffer, and the order
    // depends only on the block count.
    //
    // `edge` caches each full heap's top coordinate as an extremeness
    // (infinite while the heap fills): a record whose extremeness is
    // greater cannot enter, which settles most records on one comparison.
    std::vector<std::array<std::vector<Rec>, K>> prio_leaves(nodes.size());
    std::vector<std::array<Real, K>> edge(nodes.size());
    for (auto& e : edge) e.fill(std::numeric_limits<Real>::infinity());
    auto filter = [&](Rec cur) {
      int node = 0;
      do {
        for (int c = 0; c < K; ++c) {
          if (grid_internal::Extremeness(cur, c) > edge[node][c]) continue;
          const ExtremeLess<D> less{c};  // most extreme first => top least
          auto& h = prio_leaves[node][c];
          if (h.size() < prio) {
            h.push_back(cur);
            std::push_heap(h.begin(), h.end(), less);
            if (h.size() == prio) {
              edge[node][c] = grid_internal::Extremeness(h.front(), c);
            }
            return;
          }
          if (less(cur, h.front())) {
            std::pop_heap(h.begin(), h.end(), less);
            std::swap(cur, h.back());  // keep filtering the evicted record
            std::push_heap(h.begin(), h.end(), less);
            edge[node][c] = grid_internal::Extremeness(h.front(), c);
          }
        }
        node = nodes[node].child[goes_right(nodes[node], cur)];
      } while (node >= 0);  // a final region: no priority leaf takes it
    };
    {
      Stream<Rec>& list = sub.lists[0];
      const size_t blocks = list.num_blocks();
      size_t stride = 1;
      while (stride * stride < blocks) ++stride;
      std::vector<std::byte> block(env.device->block_size());
      for (size_t first = 0; first < stride; ++first) {
        for (size_t blk = first; blk < blocks; blk += stride) {
          const size_t count = list.ReadBlock(blk, block.data());
          for (size_t i = 0; i < count; ++i) {
            Rec cur;
            std::memcpy(&cur, block.data() + i * sizeof(Rec), sizeof(Rec));
            filter(cur);
          }
        }
      }
    }

    // Emit the priority leaves, each sorted most extreme first, so that a
    // leaf's entry order, like its set, does not depend on the scan order.
    size_t captured_count = 0;
    for (auto& per_node : prio_leaves) {
      for (int c = 0; c < K; ++c) {
        auto& leaf = per_node[c];
        if (leaf.empty()) continue;
        std::sort_heap(leaf.begin(), leaf.end(), ExtremeLess<D>{c});
        captured_count += leaf.size();
        emit(leaf.data(), leaf.size());
      }
    }

    // The final region of a record, or -1 if a priority leaf captured it.
    // The record retraces its filter path, and a leaf on it holds the
    // record iff the leaf is not full or its last (least extreme) entry,
    // whose extremeness is the edge, is not more extreme than the record.
    // Records are compared, not ids, so two that share an id stay apart.
    auto region_of = [&](const Rec& rec) {
      int node = 0;
      do {
        for (int c = 0; c < K; ++c) {
          if (grid_internal::Extremeness(rec, c) > edge[node][c]) continue;
          const std::vector<Rec>& leaf = prio_leaves[node][c];
          if (leaf.size() < prio || !ExtremeLess<D>{c}(leaf.back(), rec)) {
            return -1;
          }
        }
        node = nodes[node].child[goes_right(nodes[node], rec)];
      } while (node >= 0);
      return ~node;
    };

    // ---- distribute the lists over the final regions and recurse -----
    std::vector<Sub> children(final_regions.size());
    for (size_t f = 0; f < final_regions.size(); ++f) {
      children[f].depth = final_regions[f].depth;
      for (int c = 0; c < K; ++c) {
        children[f].lists.emplace_back(env.device);
      }
    }
    for (int c = 0; c < K; ++c) {
      typename Stream<Rec>::Reader reader(&sub.lists[c]);
      while (!reader.Done()) {
        Rec rec = reader.Next();
        const int region = region_of(rec);
        if (region < 0) continue;
        Sub& child = children[region];
        child.lists[c].Push(rec);
        if (c == 0) child.n += 1;
      }
      sub.lists[c].Clear();
    }
    size_t distributed = 0;
    for (auto& child : children) {
      distributed += child.n;
      for (auto& l : child.lists) l.Flush();
    }
    PRTREE_CHECK(distributed + captured_count == n);
    for (auto& child : children) {
      if (child.n > 0) pending.push_back(std::move(child));
    }
  }
}

}  // namespace prtree

#endif  // PRTREE_CORE_GRID_BUILDER_H_

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
//  4. Fill the 4z priority leaves by "filtering" every record down the
//     partial kd-tree, evicting less extreme records from full leaves
//     (one scan; the leaves fit in memory since M = Ω(B^(4/3))).
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

#ifndef PRTREE_CORE_GRID_BUILDER_H_
#define PRTREE_CORE_GRID_BUILDER_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <memory>
#include <queue>
#include <unordered_set>
#include <vector>

#include "core/corner_order.h"
#include "core/pseudo_prtree.h"
#include "io/external_sort.h"
#include "io/stream.h"
#include "io/work_env.h"
#include "util/check.h"
#include "util/parallel.h"

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
    std::array<int, K> new_sizes = sizes_;
    new_sizes[d] += 1;
    size_t total = 1;
    for (int c = 0; c < K; ++c) total *= static_cast<size_t>(new_sizes[c]);
    std::vector<uint32_t> fresh(total, 0);
    // Copy every old cell to its new position; the split slab's two halves
    // stay zero.
    std::array<int, K> idx{};
    while (true) {
      if (idx[d] != j) {
        std::array<int, K> nidx = idx;
        if (idx[d] > j) nidx[d] += 1;
        fresh[FlattenWith(nidx, new_sizes)] = counts_[Flatten(idx)];
      }
      int c = 0;
      for (; c < K; ++c) {
        if (++idx[c] < sizes_[c]) break;
        idx[c] = 0;
      }
      if (c == K) break;
    }
    sizes_ = new_sizes;
    counts_ = std::move(fresh);
  }

 private:
  size_t Flatten(const std::array<int, K>& idx) const {
    return FlattenWith(idx, sizes_);
  }
  static size_t FlattenWith(const std::array<int, K>& idx,
                            const std::array<int, K>& sizes) {
    size_t flat = 0;
    for (int d = 0; d < K; ++d) {
      PRTREE_DCHECK(idx[d] >= 0 && idx[d] < sizes[d]);
      flat = flat * static_cast<size_t>(sizes[d]) +
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
int SlabIndex(const std::vector<CoordThreshold>& thresholds,
              const Record<D>& r, int c) {
  auto it = std::upper_bound(
      thresholds.begin(), thresholds.end(), r,
      [c](const Record<D>& rec, const CoordThreshold& t) {
        return BeforeThreshold(rec, c, t);
      });
  return static_cast<int>(it - thresholds.begin());
}

}  // namespace grid_internal

/// \brief Runs the grid algorithm over `input`, emitting every
/// pseudo-PR-tree leaf as `emit(const std::vector<Record<D>>&)`.
///
/// The input stream is read (not consumed); all working streams live on
/// env.device, so the device counters measure the paper's build cost.
///
/// Parallelism: env.pool accelerates the 2D preprocessing sorts (through
/// ExternalSort) and runs the independent in-memory base-case sub-problems
/// as pool tasks.  Finished base cases are retired in discovery order on
/// the calling thread — which performs every emit() and stream Clear() —
/// so the leaf sequence and the device's allocation history are identical
/// to a serial build.  Worker tasks only read from the device.
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

  ThreadPool* pool =
      (env.pool != nullptr && env.pool->num_threads() > 1) ? env.pool
                                                           : nullptr;
  PseudoPRTreeBuilder<D> builder(b, prio);

  // In-memory base cases: a pool task reads the region's records and
  // computes its leaf chunks; the calling thread retires finished cases in
  // discovery order, performing the emits and freeing the region's streams
  // — so emission order and device allocation order match the serial
  // build.  Backpressure below keeps the inflight record buffers within
  // ~2x the advisory memory budget (each case holds at most mem_records =
  // M/2 of records), on top of a num_threads cap; retire timing never
  // touches the device out of order, so the bound costs no determinism.
  struct BaseCase {
    Sub sub;
    std::vector<Rec> recs;
    std::vector<PseudoLeafChunk> chunks;
    ThreadPool::TaskGroup done;
  };
  std::deque<std::unique_ptr<BaseCase>> inflight;
  size_t inflight_records = 0;
  const size_t max_inflight = pool != nullptr ? pool->num_threads() : 1;
  const size_t max_inflight_records = 2 * mem_records;

  auto run_base = [&builder, pool, b](BaseCase* bc) {
    bc->sub.lists[0].ReadAll(&bc->recs);
    bc->chunks.reserve(bc->recs.size() / b + 2);
    builder.EmitLeaves(
        &bc->recs,
        [bc](const PseudoLeafChunk& c) { bc->chunks.push_back(c); },
        bc->sub.depth, pool);
  };
  std::vector<Rec> chunk_buf;
  auto retire_one = [&]() {
    std::unique_ptr<BaseCase> bc = std::move(inflight.front());
    inflight.pop_front();
    if (pool != nullptr) pool->WaitFor(&bc->done);
    inflight_records -= bc->sub.n;
    // Clear before emitting, exactly like the pre-pipeline serial code:
    // the emitted leaf pages then reuse the region's just-freed stream
    // pages, keeping the device's allocation history (page layout,
    // peak_allocated) identical to historical serial builds.  Safe: the
    // region's task has finished reading (WaitFor above).
    for (auto& l : bc->sub.lists) l.Clear();
    for (const PseudoLeafChunk& c : bc->chunks) {
      chunk_buf.assign(bc->recs.begin() + c.offset,
                       bc->recs.begin() + c.offset + c.count);
      emit(chunk_buf);
    }
  };
  auto retire_all = [&]() {
    while (!inflight.empty()) retire_one();
  };

  while (!pending.empty()) {
    Sub sub = std::move(pending.front());
    pending.pop_front();
    PRTREE_CHECK(sub.n == sub.lists[0].size());

    // ---- recursion base: build in memory ---------------------------
    if (sub.n <= mem_records) {
      auto bc = std::make_unique<BaseCase>();
      bc->sub = std::move(sub);
      BaseCase* raw = bc.get();
      if (pool != nullptr) {
        while (!inflight.empty() &&
               (inflight.size() >= max_inflight ||
                inflight_records + raw->sub.n > max_inflight_records)) {
          retire_one();
        }
        inflight_records += raw->sub.n;
        inflight.push_back(std::move(bc));
        pool->Submit(&raw->done, [&run_base, raw] { run_base(raw); });
      } else {
        inflight_records += raw->sub.n;
        inflight.push_back(std::move(bc));
        run_base(raw);
        retire_one();
      }
      continue;
    }

    // A grid phase emits its own priority leaves below; retire every
    // earlier base case first so the global leaf order stays serial.
    retire_all();

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
    std::array<std::vector<CoordThreshold>, K> thresholds;
    std::array<std::vector<size_t>, K> starts;  // slab j = [starts[j], starts[j+1])
    for (int c = 0; c < K; ++c) {
      starts[c].push_back(0);
      std::vector<Rec> one;
      for (size_t j = 1; j < z; ++j) {
        size_t rank = j * n / z;
        if (rank == 0 || rank >= n || rank == starts[c].back()) continue;
        sub.lists[c].ReadRange(rank, 1, &one);
        thresholds[c].push_back(
            CoordThreshold{one[0].rect.CornerCoord(c), one[0].id});
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
      CoordThreshold t;
      int left_node = -1, right_node = -1;      // child kd-node index
      int left_region = -1, right_region = -1;  // or final region index
    };
    struct Region {
      std::array<int, K> lo, hi;  // slab-index box [lo, hi)
      size_t count;
      int depth;
      int parent;    // kd-node index, -1 for the root region
      bool is_left;  // which side of the parent
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
      root.is_left = false;
      frontier.push_back(root);
    }
    auto link_region = [&](const Region& r, int region_id) {
      if (r.parent < 0) return;
      if (r.is_left) {
        nodes[r.parent].left_region = region_id;
      } else {
        nodes[r.parent].right_region = region_id;
      }
    };
    const size_t min_split = std::max<size_t>(2 * (K + 2) * b, 2);
    std::vector<Rec> slab_recs;

    while (!frontier.empty()) {
      if (nodes.size() >= z || frontier.front().count <= min_split) {
        // Out of node budget, or too small to split: everything left in
        // the frontier becomes a recursion region.
        Region r = frontier.front();
        frontier.pop_front();
        link_region(r, static_cast<int>(final_regions.size()));
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
      left.is_left = true;
      right.is_left = false;
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
        const Rec& med = in_region[inner];
        kd.t = CoordThreshold{med.rect.CornerCoord(d), med.id};

        // Global split position of the slab, then re-bucket its records.
        size_t slab_left = 0;
        for (const Rec& rec : slab_recs) {
          if (BeforeThreshold(rec, d, kd.t)) ++slab_left;
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

      nodes.push_back(kd);
      if (r.parent >= 0) {
        if (r.is_left) {
          nodes[r.parent].left_node = node_idx;
        } else {
          nodes[r.parent].right_node = node_idx;
        }
      }
      frontier.push_back(left);
      frontier.push_back(right);
    }

    if (nodes.empty()) {
      // Degenerate (tiny n with an overridden budget): fall back to the
      // in-memory builder to guarantee progress.  Inline (not a task) so
      // the leaves land exactly here in the emission order.
      auto bc = std::make_unique<BaseCase>();
      bc->sub = std::move(sub);
      BaseCase* raw = bc.get();
      inflight_records += raw->sub.n;
      inflight.push_back(std::move(bc));
      run_base(raw);
      retire_one();
      continue;
    }

    // ---- fill priority leaves by filtering (§2.1) --------------------
    // Per node and direction, a heap whose top is the least extreme
    // captured record.
    struct PrioLeaf {
      std::vector<Rec> heap;
    };
    const size_t prio_fill = prio;
    std::vector<std::array<PrioLeaf, K>> prio_leaves(nodes.size());
    auto heap_cmp = [](int c) {
      return [c](const Rec& x, const Rec& y) {
        return ExtremeLess<D>{c}(x, y);  // most extreme first => top least
      };
    };
    {
      typename Stream<Rec>::Reader reader(&sub.lists[0]);
      while (!reader.Done()) {
        Rec cur = reader.Next();
        int node = 0;
        while (node >= 0) {
          bool placed = false;
          for (int c = 0; c < K; ++c) {
            auto cmp = heap_cmp(c);
            auto& h = prio_leaves[node][c].heap;
            if (h.size() < prio_fill) {
              h.push_back(cur);
              std::push_heap(h.begin(), h.end(), cmp);
              placed = true;
              break;
            }
            if (ExtremeLess<D>{c}(cur, h.front())) {
              std::pop_heap(h.begin(), h.end(), cmp);
              Rec evicted = h.back();
              h.back() = cur;
              std::push_heap(h.begin(), h.end(), cmp);
              cur = evicted;  // keep filtering the evicted record
            }
          }
          if (placed) break;
          const KdNode& kd = nodes[node];
          if (BeforeThreshold(cur, kd.dim, kd.t)) {
            node = kd.left_node;  // -1 ends at a final region
          } else {
            node = kd.right_node;
          }
        }
      }
    }

    // Emit the priority leaves and remember who was captured.
    std::unordered_set<DataId> captured;
    size_t captured_count = 0;
    for (auto& per_node : prio_leaves) {
      for (int c = 0; c < K; ++c) {
        auto& h = per_node[c].heap;
        if (h.empty()) continue;
        for (const Rec& rec : h) captured.insert(rec.id);
        captured_count += h.size();
        emit(h);
        h.clear();
      }
    }

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
        if (captured.contains(rec.id)) continue;
        int node = 0;
        int region = -1;
        while (true) {
          const KdNode& kd = nodes[node];
          if (BeforeThreshold(rec, kd.dim, kd.t)) {
            if (kd.left_node >= 0) {
              node = kd.left_node;
            } else {
              region = kd.left_region;
              break;
            }
          } else {
            if (kd.right_node >= 0) {
              node = kd.right_node;
            } else {
              region = kd.right_region;
              break;
            }
          }
        }
        PRTREE_CHECK(region >= 0);
        children[region].lists[c].Push(rec);
        if (c == 0) children[region].n += 1;
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
  retire_all();
}

}  // namespace prtree

#endif  // PRTREE_CORE_GRID_BUILDER_H_

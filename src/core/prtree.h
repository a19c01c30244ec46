// The Priority R-tree (§2.2) — the paper's primary contribution.
//
// A PR-tree is a normal height-balanced R-tree built in bottom-up stages:
// stage 0 groups the N input rectangles into leaves using a pseudo-PR-tree
// on S_0 = S and keeps only its leaves; stage i >= 1 does the same on S_i =
// the bounding boxes of the stage-(i-1) nodes, producing level-i nodes.
// The construction ends when a stage's input fits in a single block, which
// becomes the root.  Theorem 1: bulk-loading costs
// O((N/B) log_{M/B} (N/B)) I/Os and window queries cost
// O(sqrt(N/B) + T/B) I/Os (O((N/B)^{1-1/d} + T/B) in d dimensions,
// Theorem 2 — the whole construction is templated on D).
//
// Every stage, stage 0 included, runs through one function
// (internal::BuildPrStage): the I/O-efficient grid algorithm
// (core/grid_builder.h) while its input exceeds the memory budget and the
// in-memory builder (core/pseudo_prtree.h) once it fits — exactly the
// paper's recursion structure, so measured build I/Os reproduce Figures
// 9-10.  Stage 0 reads the loader's input stream; later stages hold their
// input in memory and spill it to a stream only for the grid algorithm.
// Either way each leaf chunk becomes one node through the stage's
// NodeWriter (rtree/builder.h).
// BulkLoader (rtree/bulk_loader.h) checks the tree and options before it
// calls internal::BulkLoadPrTree; the forest's rebuild
// (core/dynamic_prtree.h) is the one other caller.

#ifndef PRTREE_CORE_PRTREE_H_
#define PRTREE_CORE_PRTREE_H_

#include <vector>

#include "core/grid_builder.h"
#include "core/pseudo_prtree.h"
#include "io/stream.h"
#include "io/work_env.h"
#include "rtree/builder.h"
#include "rtree/rtree.h"
#include "util/status.h"

namespace prtree {

namespace internal {

/// Builds one PR-tree stage: groups the stage input into nodes at `level`
/// via a pseudo-PR-tree, returning the finished nodes' (MBR, page) entries.
/// The input is `*stream` when it is non-null (stage 0: the loader's input,
/// cleared here), else `recs` (stages i >= 1).  The in-memory builder runs
/// once the input fits in memory (unless `force_grid`); above that the grid
/// algorithm streams it, spilling `recs` to a stream first.
template <int D>
std::vector<LevelEntry<D>> BuildPrStage(WorkEnv env, Stream<Record<D>>* stream,
                                        std::vector<Record<D>> recs,
                                        int level, size_t node_capacity,
                                        double priority_fraction,
                                        bool force_grid) {
  // Every leaf chunk becomes one node; chunks arrive on this thread in
  // allocation order.
  NodeWriter<D> writer(env.device, level);
  auto write_chunk = [&writer](const Record<D>* chunk, size_t n) {
    for (size_t i = 0; i < n; ++i) writer.Add(chunk[i].rect, chunk[i].id);
    writer.EndNode();
  };

  size_t prio_size = std::max<size_t>(
      1, static_cast<size_t>(priority_fraction *
                             static_cast<double>(node_capacity)));
  size_t mem_records = env.MemoryRecords<Record<D>>() / 2;  // working space
  const size_t n = stream != nullptr ? stream->size() : recs.size();
  if (!force_grid && n <= std::max(mem_records, 4 * node_capacity)) {
    if (stream != nullptr) {
      stream->ReadAll(&recs);
      stream->Clear();
    }
    PseudoPRTreeBuilder<D> builder(node_capacity, prio_size);
    builder.EmitLeaves(
        &recs,
        [&](const PseudoLeafChunk& chunk) {
          write_chunk(recs.data() + chunk.offset, chunk.count);
        },
        /*start_depth=*/0, env.pool);
    return writer.Finish();
  }

  // External path: the grid algorithm reads its input from a stream.
  Stream<Record<D>> spilled(env.device);
  if (stream == nullptr) {
    spilled.Append(recs);
    spilled.Flush();
    recs.clear();
    recs.shrink_to_fit();
    stream = &spilled;
  }
  GridBuildOptions gopts;
  gopts.capacity = node_capacity;
  gopts.priority_size = prio_size;
  GridEmitLeaves<D>(env, stream, gopts, write_chunk);
  std::vector<LevelEntry<D>> finished = writer.Finish();
  stream->Clear();
  return finished;
}

/// \brief Bulk-loads the empty `tree` as a PR-tree over the flushed,
/// non-empty `input` (consumed), per §2.2.
///
/// All block transfers are accounted on env.device; the memory budget
/// selects between the grid algorithm and the in-memory base case per
/// stage.  env.pool (if set) parallelises the sorts and the pseudo-PR-tree
/// recursion; the produced tree is byte-identical for any thread count
/// (see rtree/bulk_loader.h for the contract).
/// `priority_fraction` (in (0, 1]) sizes the priority leaves relative to a
/// node; 1.0 is the paper's structure.
template <int D>
void BulkLoadPrTree(WorkEnv env, Stream<Record<D>>* input, RTree<D>* tree,
                    double priority_fraction = 1.0, bool force_grid = false) {
  const size_t n = input->size();
  const size_t cap = tree->capacity();

  // Stage 0 consumes the input stream.
  std::vector<LevelEntry<D>> level_entries = BuildPrStage<D>(
      env, input, {}, 0, cap, priority_fraction, force_grid);

  // Stages i >= 1 on the bounding boxes of the previous level's nodes
  // (§2.2), until everything fits in one block — the root.
  int level = 0;
  while (level_entries.size() > 1) {
    ++level;
    if (level_entries.size() <= cap) {
      // The root: one block, written directly rather than as a batch of
      // one through a NodeWriter's stager.
      std::vector<std::byte> buf(env.device->block_size());
      NodeView<D> node(buf.data(), env.device->block_size());
      node.Format(static_cast<uint16_t>(level));
      for (const auto& e : level_entries) node.Append(e.mbr, e.page);
      PageId page = env.device->Allocate();
      AbortIfError(env.device->Write(page, buf.data()));
      level_entries.assign(1, LevelEntry<D>{node.ComputeMbr(), page});
      break;
    }
    std::vector<Record<D>> recs;
    recs.reserve(level_entries.size());
    for (const auto& e : level_entries) {
      recs.push_back(Record<D>{e.mbr, e.page});
    }
    level_entries = BuildPrStage<D>(env, nullptr, std::move(recs), level, cap,
                                    priority_fraction, force_grid);
  }
  tree->SetRoot(level_entries.front().page, level, n);
}

}  // namespace internal

}  // namespace prtree

#endif  // PRTREE_CORE_PRTREE_H_

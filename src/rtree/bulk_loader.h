// Unified bulk-load entry point — one API over every loader in the paper.
//
// The PR-tree (§2), the packed Hilbert / four-dimensional Hilbert R-trees,
// TGS and STR (§1.1) are interchangeable producers of one RTree container.
// Every caller builds any of them through BulkLoader: pick a LoaderKind, set
// BuildOptions (memory budget, threads, PR-tree knobs), Build().  The
// algorithms themselves are internal:: functions that assume a checked,
// non-empty input; BulkLoader::Build runs the shared checks once, and
// DynamicPRTree's level rebuild is the one other caller (of the PR-tree
// algorithm).  This header sits at the top of the construction stack — it
// is the one place that includes the core and baseline loaders together.
//
// Parallel builds are deterministic by construction.  BuildOptions.threads
// accelerates two CPU-heavy stages, both on in-memory arrays: run sorting
// (util/parallel.h ParallelSort) and the pseudo-PR-tree kd recursion
// (PseudoPRTreeBuilder::EmitLeaves, whose chunks reach the caller in
// serial order).  Every device call happens on the calling thread, in the
// order of a serial build.  Same input + same options => byte-identical
// tree and identical I/O counters for ANY thread count, so every
// paper-figure bench stays reproducible; the determinism suite
// (tests/bulk_loader_test.cc) walks both trees page by page to enforce it.

#ifndef PRTREE_RTREE_BULK_LOADER_H_
#define PRTREE_RTREE_BULK_LOADER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "baselines/hilbert_rtree.h"
#include "baselines/str_rtree.h"
#include "baselines/tgs_rtree.h"
#include "core/prtree.h"
#include "io/stream.h"
#include "io/work_env.h"
#include "rtree/rtree.h"
#include "util/parallel.h"
#include "util/status.h"

namespace prtree {

/// Construction options shared by every loader.
struct BuildOptions {
  /// Advisory working-memory budget (the paper's M, §3.1).
  size_t memory_bytes = kDefaultMemoryBudget;

  /// Worker threads for the CPU-heavy build stages.  1 = fully serial.
  /// The built tree is byte-identical for any value (see file comment).
  int threads = 1;

  /// PR-tree only: priority-leaf capacity as a fraction of node capacity.
  /// 1.0 is the paper's structure (priority leaves of size B); smaller
  /// values are the ablation toward Agarwal et al.'s size-1 priority
  /// boxes [2].
  double priority_fraction = 1.0;

  /// PR-tree only: force the external grid algorithm even when a stage
  /// fits in memory (tests exercise the grid path end to end with this).
  bool force_grid = false;
};

/// The bulk-loading algorithms of the paper's evaluation (§3) plus STR.
enum class LoaderKind { kPrTree, kHilbert, kHilbert4D, kTgs, kStr };

/// All kinds, in the paper's presentation order.
inline std::vector<LoaderKind> AllLoaderKinds() {
  return {LoaderKind::kPrTree, LoaderKind::kHilbert, LoaderKind::kHilbert4D,
          LoaderKind::kTgs, LoaderKind::kStr};
}

/// Lower-case identifier used by flags and JSON output.
inline const char* LoaderKindName(LoaderKind kind) {
  switch (kind) {
    case LoaderKind::kPrTree:
      return "pr";
    case LoaderKind::kHilbert:
      return "hilbert";
    case LoaderKind::kHilbert4D:
      return "hilbert4d";
    case LoaderKind::kTgs:
      return "tgs";
    case LoaderKind::kStr:
      return "str";
  }
  return "?";
}

/// Parses "pr", "hilbert"/"h", "hilbert4d"/"h4", "tgs", "str".
inline bool ParseLoaderKind(std::string_view name, LoaderKind* out) {
  if (name == "pr") {
    *out = LoaderKind::kPrTree;
  } else if (name == "hilbert" || name == "h") {
    *out = LoaderKind::kHilbert;
  } else if (name == "hilbert4d" || name == "h4") {
    *out = LoaderKind::kHilbert4D;
  } else if (name == "tgs") {
    *out = LoaderKind::kTgs;
  } else if (name == "str") {
    *out = LoaderKind::kStr;
  } else {
    return false;
  }
  return true;
}

/// \brief Builds an RTree<D> over a record stream with one of the paper's
/// loaders.
///
/// Every loader shares one preamble, run here once: the tree must be empty
/// and live on the build's device, `priority_fraction` must lie in (0, 1],
/// and the centre-curve Hilbert loader is 2-D only.  An empty input leaves
/// the tree empty.  Each Build() runs independently, spawning a private
/// pool when opts.threads > 1.  Records may share an id; the corner
/// orderings break ties on the other corner coordinates
/// (core/corner_order.h).
template <int D>
class BulkLoader {
 public:
  BulkLoader(LoaderKind kind, const BuildOptions& opts)
      : kind_(kind), opts_(opts) {}

  /// Bulk-loads `tree` (empty, on `device`) over `input`.
  Status Build(BlockDevice* device, Stream<Record<D>>* input,
               RTree<D>* tree) const {
    if (device != tree->device()) {
      return Status::InvalidArgument("output tree lives on another device");
    }
    if (!tree->empty()) {
      return Status::InvalidArgument("output tree is not empty");
    }
    if (opts_.priority_fraction <= 0.0 || opts_.priority_fraction > 1.0) {
      return Status::InvalidArgument("priority_fraction must be in (0, 1]");
    }
    if (D != 2 && kind_ == LoaderKind::kHilbert) {
      return Status::InvalidArgument(
          "the centre-curve Hilbert loader is 2-D only; use hilbert4d");
    }
    input->Flush();
    if (input->size() == 0) return Status::OK();
    WorkEnv env{device, opts_.memory_bytes};
    std::unique_ptr<ThreadPool> pool;
    if (opts_.threads > 1) {
      pool = std::make_unique<ThreadPool>(opts_.threads);
      env.pool = pool.get();
    }
    switch (kind_) {
      case LoaderKind::kPrTree:
        internal::BulkLoadPrTree<D>(env, input, tree, opts_.priority_fraction,
                                    opts_.force_grid);
        break;
      case LoaderKind::kHilbert:
        if constexpr (D == 2) internal::BulkLoadHilbert(env, input, tree);
        break;
      case LoaderKind::kHilbert4D:
        internal::BulkLoadHilbert4D<D>(env, input, tree);
        break;
      case LoaderKind::kTgs:
        internal::BulkLoadTgs<D>(env, input, tree);
        break;
      case LoaderKind::kStr:
        internal::BulkLoadStr<D>(env, input, tree);
        break;
    }
    return Status::OK();
  }

  /// Convenience overload: spills `input` to a stream on `device` first so
  /// I/O accounting matches the stream entry point.
  Status Build(BlockDevice* device, const std::vector<Record<D>>& input,
               RTree<D>* tree) const {
    Stream<Record<D>> stream(device);
    stream.Append(input);
    stream.Flush();
    return Build(device, &stream, tree);
  }

 private:
  const LoaderKind kind_;
  const BuildOptions opts_;
};

/// Factory: one construction entry point for every index variant.
template <int D = 2>
std::unique_ptr<BulkLoader<D>> MakeBulkLoader(
    LoaderKind kind, const BuildOptions& opts = BuildOptions{}) {
  return std::make_unique<BulkLoader<D>>(kind, opts);
}

}  // namespace prtree

#endif  // PRTREE_RTREE_BULK_LOADER_H_

// Execution environment for external-memory algorithms: the device plus the
// main-memory budget M.  Mirrors the paper's experimental setup of a fixed
// disk block size with 64 MB of memory available to TPIE (§3.1).  The
// device is the abstract BlockDevice interface — loaders run unchanged
// (and produce identical bytes and I/O counts) over the in-memory backend
// or a FileBlockDevice whose pages live on real disk.

#ifndef PRTREE_IO_WORK_ENV_H_
#define PRTREE_IO_WORK_ENV_H_

#include <cstddef>

#include "io/block_device.h"

namespace prtree {

class ThreadPool;  // util/parallel.h

/// Memory budget the paper grants the external-memory library (§3.1).
inline constexpr size_t kDefaultMemoryBudget = 64ull << 20;  // 64 MB

/// \brief Device handle plus advisory memory budget, passed to every bulk
/// loader and external algorithm.
///
/// The budget is advisory in the sense that algorithms size their run
/// buffers, merge fan-in, grid resolution z and base-case thresholds from
/// it; it is not enforced by a custom allocator.  Tests pass tiny budgets to
/// force multi-pass external behaviour on small inputs.
struct WorkEnv {
  BlockDevice* device = nullptr;
  size_t memory_bytes = kDefaultMemoryBudget;

  /// Optional worker pool for the CPU-heavy build stages (run sorting and
  /// the pseudo-PR-tree recursion, both on in-memory arrays).  Null means
  /// serial.  Never changes *what* is built: all sizing thresholds derive
  /// from memory_bytes alone, and every device call stays on the calling
  /// thread in serial order, so a pooled build is byte-identical to a
  /// serial one (see rtree/bulk_loader.h).
  ThreadPool* pool = nullptr;

  /// Number of records of type T that fit in memory (the paper's M).
  template <typename T>
  size_t MemoryRecords() const {
    return memory_bytes / sizeof(T);
  }
};

}  // namespace prtree

#endif  // PRTREE_IO_WORK_ENV_H_

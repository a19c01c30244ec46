// A minimal io_uring submission/completion queue for batched block I/O.
//
// io_uring (Linux 5.1+) lets a process hand the kernel a *batch* of I/O
// requests through a pair of shared-memory rings and collect completions
// without one syscall per request.  That is exactly the shape of two
// problems in this library: the PR-tree's readahead (a traversal knows the
// next frontier of leaf pages before it needs them) and bulk-load
// serialization (the external sort and the level packers emit long trains
// of freshly allocated pages).  A real disk can serve many 4 KB transfers
// concurrently — but only if they are in flight at the same time.  One
// UringQueue turns N block reads or writes into a single io_uring_enter
// call with all N requests queued at once.
//
// The class is deliberately small: raw syscalls only (the container has
// kernel headers but no liburing — and the ABI below is stable), fixed
// queue depth, synchronous submit-and-wait-all semantics.  Callers
// serialise access (UringBlockDevice holds a mutex around its queue); the
// queue itself is not thread-safe.
//
// Registered resources.  RegisterFile() and RegisterBuffer() perform the
// one-time IORING_REGISTER_FILES / IORING_REGISTER_BUFFERS handshake so the
// hot path skips the per-op fd lookup and buffer pinning: once registered,
// every sqe uses IOSQE_FIXED_FILE, and ops whose buffer lies inside the
// registered region are submitted as IORING_OP_READ_FIXED /
// IORING_OP_WRITE_FIXED.  Registration is best-effort — a kernel without
// the register syscall, or an exhausted memlock rlimit, just leaves the
// queue on the plain opcodes.
//
// Availability is a runtime property, not a compile-time one: kernels older
// than 5.1, seccomp profiles (Docker's default once blocked io_uring) and
// sysctl io_uring_disabled all make io_uring_setup fail at run time.
// KernelSupport() probes once per process; Create() reports the precise
// failure.  Callers must treat "no io_uring" as a normal state and fall
// back to pread/pwrite — UringBlockDevice does exactly that.

#ifndef PRTREE_IO_URING_IO_H_
#define PRTREE_IO_URING_IO_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/status.h"

namespace prtree {

/// \brief One transfer of a batch: `len` bytes at file offset `offset`
/// from/into `buf`.  After SubmitAndWaitReads/Writes, `result` holds the
/// byte count on success or -errno on failure (the io_uring CQE
/// convention).
struct UringIoOp {
  uint64_t offset = 0;
  void* buf = nullptr;
  uint32_t len = 0;
  int32_t result = 0;
};

/// \brief A fixed-depth io_uring bound to one file descriptor, submitting
/// batches of reads or writes and waiting for all their completions.
class UringQueue {
 public:
  /// True iff this kernel/process can create an io_uring at all.  Probes
  /// once (io_uring_setup + close) and caches the answer.  Honours the
  /// PRTREE_NO_URING environment variable (any non-empty value forces
  /// false) so CI can exercise the fallback path on io_uring-capable
  /// kernels.
  static bool KernelSupport();

  /// Creates a queue of (at least) `entries` submission slots transferring
  /// from/to `fd`.  Fails with IoError when the kernel refuses (no
  /// io_uring, seccomp, rlimit) — never aborts, so callers can fall back.
  static Status Create(int fd, unsigned entries,
                       std::unique_ptr<UringQueue>* out);

  ~UringQueue();
  UringQueue(const UringQueue&) = delete;
  UringQueue& operator=(const UringQueue&) = delete;

  /// Submission slots actually granted by the kernel (>= the requested
  /// `entries`, rounded up to a power of two).
  unsigned depth() const { return sq_entries_; }

  /// \brief Submits all `n` ops as reads and blocks until every one
  /// completes, chunking internally when `n` exceeds depth().  Per-op
  /// outcomes land in each op's `result`; the return value is non-OK only
  /// for ring-level failures (io_uring_enter itself erroring), in which
  /// case unprocessed ops keep result == INT32_MIN.
  ///
  /// Not thread-safe: the caller serialises (one batch in the ring at a
  /// time).
  Status SubmitAndWaitReads(UringIoOp* ops, size_t n);

  /// Same contract for writes (IORING_OP_WRITE / IORING_OP_WRITE_FIXED).
  Status SubmitAndWaitWrites(UringIoOp* ops, size_t n);

  /// One-time IORING_REGISTER_FILES of the bound fd.  On success every
  /// subsequent sqe references the fd by fixed-table index (skipping the
  /// per-op fdget).  Fails (without side effects) on kernels lacking the
  /// register syscall.
  Status RegisterFile();

  /// One-time IORING_REGISTER_BUFFERS of [base, base + len): the kernel
  /// pins the region once, and every subsequent op whose buffer lies wholly
  /// inside it is submitted as a FIXED opcode (no per-op pin).  Ops outside
  /// the region keep the plain opcodes — the two kinds mix freely in one
  /// batch.  `len` counts against RLIMIT_MEMLOCK; keep it ring-sized.
  Status RegisterBuffer(void* base, size_t len);

 private:
  UringQueue() = default;

  Status SubmitAndWait(UringIoOp* ops, size_t n, bool write);

  /// Queues ops[0..m) into the (empty) ring and waits for all m
  /// completions.  m <= depth().
  Status RunChunk(UringIoOp* ops, size_t m, bool write);

  int ring_fd_ = -1;
  int file_fd_ = -1;
  unsigned sq_entries_ = 0;
  unsigned cq_entries_ = 0;

  // Registered resources (see RegisterFile/RegisterBuffer).
  bool file_registered_ = false;
  void* reg_base_ = nullptr;
  size_t reg_len_ = 0;

  // Mapped ring memory.  sq_ring_ and cq_ring_ may be one mapping
  // (IORING_FEAT_SINGLE_MMAP); sqes_ is always its own.
  void* sq_ring_ = nullptr;
  size_t sq_ring_bytes_ = 0;
  void* cq_ring_ = nullptr;
  size_t cq_ring_bytes_ = 0;
  void* sqes_ = nullptr;
  size_t sqes_bytes_ = 0;

  // Pointers into the mapped rings (kernel-shared; accessed with
  // acquire/release atomics).
  uint32_t* sq_head_ = nullptr;
  uint32_t* sq_tail_ = nullptr;
  uint32_t* sq_mask_ = nullptr;
  uint32_t* sq_array_ = nullptr;
  uint32_t* cq_head_ = nullptr;
  uint32_t* cq_tail_ = nullptr;
  uint32_t* cq_mask_ = nullptr;
  void* cqes_ = nullptr;
};

}  // namespace prtree

#endif  // PRTREE_IO_URING_IO_H_

// The io_uring-backed block device: FileBlockDevice's on-disk format and
// scalar I/O path, with batched reads AND writes served through an io_uring.
//
// Why a subclass and not a new backend: the async engine changes *how*
// blocks move, not what is stored.  UringBlockDevice inherits the whole
// file layout (superblock, threaded free list, user-meta region), the
// durability rules and the allocation determinism contract, and a device
// file written by either class opens under the other.  The overrides are
// ReadBatch() and the WriteBatch() backend hook: a batch of N block
// transfers becomes one io_uring_enter with all N requests in flight at
// once, instead of N sequential preads/pwrites.  Scalar Read()/Write()
// deliberately stay on pread/pwrite — a single block transfer is one
// syscall either way, and the pread path runs lock-free from any number of
// threads while a ring must be serialised.
//
// Registered resources.  The ring owns a page-aligned arena of depth()
// block-sized slots, and every batched read and write bounces through it:
// writes are copied into their slots before the submission, reads out of
// theirs after it.  Open() performs the one-time IORING_REGISTER_FILES /
// IORING_REGISTER_BUFFERS handshake, so submissions use the FIXED opcodes
// — no per-op buffer pinning or fd lookup on the hot path.  The arena
// doubles as the O_DIRECT bounce (its slots satisfy the sector-alignment
// rules).  Registration is best-effort: a kernel without
// io_uring_register, or an exhausted RLIMIT_MEMLOCK, leaves the ring on the
// plain opcodes over the same arena — registered() reports what was
// negotiated.
//
// Fallback.  io_uring availability is a runtime property (kernel < 5.1,
// seccomp, the io_uring_disabled sysctl).  Open() probes: if a ring cannot
// be created — or a probe read through it (and through the registered
// tables, when they came up) fails — the device keeps ring_active() ==
// false and every batch transparently takes the inherited scalar loop.
// Semantics, accounting and on-disk bytes are identical in both modes;
// only wall-clock differs.  Setting the PRTREE_NO_URING environment
// variable forces the fallback (Open() reads it every time), which is how
// CI and the tests exercise it on io_uring-capable kernels.
//
// Write staging.  The bulk-load serializers coalesce their page writes
// into WriteBatch() submissions of PreferredWriteBatch() pages
// (io/write_stager.h).  That is the ring depth only when O_DIRECT was
// requested, where each write has device latency for the ring to hide;
// over a page cache a pwrite is a memcpy, staging would only add a slab per
// writing stream, an arena copy and a submission, so the hint is 1 and a
// buffered uring device writes exactly as FileBlockDevice does
// (write_batches stays 0).  The hint follows the request, not whether the
// filesystem granted O_DIRECT, so it too is a function of configuration.
//
// Accounting matches the BlockDevice contract: one read (or prefetch_read,
// per ReadKind) / one write per successful request, whichever engine
// served it, plus one audit-only write_batches tick per WriteBatch() call
// (charged in the base wrapper, so it is engine-independent too).

#ifndef PRTREE_IO_URING_BLOCK_DEVICE_H_
#define PRTREE_IO_URING_BLOCK_DEVICE_H_

#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>

#include "io/file_block_device.h"
#include "io/uring_io.h"

namespace prtree {

/// How to open a uring device: the file options plus the ring shape.
struct UringDeviceOptions {
  FileDeviceOptions file;

  /// Submission-queue depth to request (the kernel rounds up to a power of
  /// two).  Batches larger than the granted depth are chunked.  Also the
  /// device's PreferredWriteBatch() when `file.direct_io` is requested (1
  /// otherwise) — reported whether or not a ring came up or O_DIRECT was
  /// granted, so write staging (and the write_batches counter) depends only
  /// on configuration, never on kernel or filesystem capabilities.
  unsigned ring_entries = 64;

  /// Keep the ring but skip buffer/file registration, so the plain
  /// (non-FIXED) opcodes are exercised on registration-capable kernels.
  /// Test-only.
  bool force_unregistered = false;
};

/// \brief FileBlockDevice with an io_uring engine under ReadBatch() and
/// WriteBatch().  See the file comment for the registration, fallback and
/// accounting story.
class UringBlockDevice final : public FileBlockDevice {
 public:
  /// Opens (or creates) the device file exactly as FileBlockDevice::Open
  /// does, then tries to stand up an io_uring over its fd and register the
  /// fd and a transfer arena with it.  Ring or registration failure is
  /// never an Open failure — the device degrades to the plain opcodes or
  /// all the way to pread/pwrite.
  static Status Open(const std::string& path, const UringDeviceOptions& opts,
                     std::unique_ptr<UringBlockDevice>* out);

  /// Serves the whole batch with one ring submission (chunked at ring
  /// depth); per-request failures — including opcodes an old kernel lacks —
  /// retry through the scalar pread path, so a batch never fails harder
  /// than the same sequence of Read() calls.
  Status ReadBatch(BlockReadRequest* reqs, size_t n,
                   ReadKind kind = ReadKind::kDemand) const override;

  /// The requested ring depth if O_DIRECT was requested, else 1, whether
  /// or not a ring is active (see UringDeviceOptions::ring_entries).
  size_t PreferredWriteBatch() const override { return write_batch_hint_; }

  /// True iff batches go through an io_uring (false: scalar fallback).
  bool ring_active() const { return ring_ != nullptr; }

  /// True iff the ring's fd and arena are registered (FIXED opcodes).
  bool registered() const { return registered_; }

 protected:
  /// Same engine and same never-fails-harder contract as ReadBatch, for
  /// writes.  While any write injection (fault, torn write, crash switch)
  /// is armed the batch takes the ordered scalar loop instead, so injected
  /// crash points are deterministic — the ring keeps a whole batch in
  /// flight at once and has no defined inter-request order to crash
  /// between.
  Status DoWriteBatch(BlockWriteRequest* reqs, size_t n,
                      WriteKind kind) override;

 private:
  /// The one ring engine behind ReadBatch() and DoWriteBatch() (the .cc).
  /// `self` carries the caller's constness: a read batch is const.
  template <typename Self, typename Request, typename Kind>
  static Status RingBatch(Self* self, Request* reqs, size_t n, Kind kind);

  // The device-side steps in which a ring read and a ring write differ,
  // overloaded on the request (or kind) type: the injected-fault screen,
  // a request whose page still reads as zeros (a read is served as zeros
  // without a transfer; a write goes to the ring like any other, and once
  // it has landed the batch clears the page's mark), what a request the
  // ring served still needs (a read's copy out of the arena, a write's
  // attempt tick), the scalar retry of a request the ring failed, and the
  // counter each successful request ticks.
  Status InjectedFault(const BlockReadRequest& req) const;
  Status InjectedFault(const BlockWriteRequest& req) const;
  bool ServedAsZeros(const BlockReadRequest& req) const;
  bool ServedAsZeros(const BlockWriteRequest&) const { return false; }
  void Landed(const BlockReadRequest*, size_t, const uint8_t*) const {}
  void Landed(const BlockWriteRequest* reqs, size_t n,
              const uint8_t* reads_zero) {
    MarkWritten(reqs, n, reads_zero);
  }
  void Served(const BlockReadRequest& req, const void* slot) const;
  void Served(const BlockWriteRequest& req, const void* slot);
  Status Retry(BlockReadRequest& req) const {
    return DoRead(req.page, req.buf);
  }
  Status Retry(BlockWriteRequest& req) { return DoWrite(req.page, req.buf); }
  void Count(ReadKind kind) const { CountBatchedRead(kind); }
  void Count(WriteKind kind) { CountBatchedWrite(kind); }

  struct ArenaDeleter {
    void operator()(std::byte* p) const { std::free(p); }
  };
  using Arena = std::unique_ptr<std::byte, ArenaDeleter>;

  UringBlockDevice(size_t block_size, std::string path, int fd)
      : FileBlockDevice(block_size, std::move(path), fd,
                        /*direct_io=*/false) {}

  mutable std::mutex ring_mu_;        // one batch in the ring at a time
  std::unique_ptr<UringQueue> ring_;  // null => transparent scalar fallback
  Arena arena_;           // depth() block slots, registered when possible
  size_t arena_slots_ = 0;
  bool registered_ = false;
  size_t write_batch_hint_ = 1;  // the requested ring depth under O_DIRECT
};

/// \brief Opens `path` as a file-backed device of `kind` — "file" (plain
/// pread/pwrite) or "uring" (io_uring-batched ReadBatch/WriteBatch, a
/// FileBlockDevice subclass).  The kinds share one on-disk format, so
/// either opens files the other wrote.  Any other kind is
/// InvalidArgument.  This is the one switch the drivers (harness,
/// quickstart, prtree_tool) and JournaledTree share; new backend knobs
/// thread through here once.
Status OpenFileBackedDevice(const std::string& kind, const std::string& path,
                            const FileDeviceOptions& opts,
                            std::unique_ptr<FileBlockDevice>* out);

}  // namespace prtree

#endif  // PRTREE_IO_URING_BLOCK_DEVICE_H_

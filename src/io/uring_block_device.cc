#include "io/uring_block_device.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace prtree {

namespace {

// Aligned scratch: the transfer arena (and the O_DIRECT bounce) is
// page-aligned so its block-sized slots satisfy both the FIXED-buffer
// registration and the sector-alignment rules pread/pwrite enforce under
// O_DIRECT.
struct FreeDeleter {
  void operator()(void* p) const { std::free(p); }
};

using AlignedBuffer = std::unique_ptr<std::byte, FreeDeleter>;

AlignedBuffer AllocAligned(size_t bytes) {
  // aligned_alloc requires the size to be a multiple of the alignment.
  size_t rounded = (bytes + 4095) / 4096 * 4096;
  return AlignedBuffer(
      static_cast<std::byte*>(std::aligned_alloc(4096, rounded)));
}

}  // namespace

Status UringBlockDevice::Open(const std::string& path,
                              const UringDeviceOptions& opts,
                              std::unique_ptr<UringBlockDevice>* out) {
  out->reset();
  OpenedFile file;
  PRTREE_RETURN_NOT_OK(OpenBackingFile(path, opts.file, &file));
  std::unique_ptr<UringBlockDevice> dev(
      new UringBlockDevice(file.block_size, path, file.fd));
  PRTREE_RETURN_NOT_OK(dev->FinishOpen(opts.file, file.fresh));
  dev->write_batch_hint_ = std::max(1u, opts.ring_entries);

  if (UringQueue::KernelSupport()) {
    std::unique_ptr<UringQueue> ring;
    if (UringQueue::Create(dev->fd(), opts.ring_entries, &ring).ok()) {
      const size_t block = dev->block_size();
      const size_t slots = ring->depth();
      AlignedBuffer arena = AllocAligned(slots * block);
      bool registered = false;
      if (arena != nullptr && !opts.force_unregistered) {
        // One-time registration: the fd into the fixed-file table, the
        // arena into the fixed-buffer table.  Best effort — either syscall
        // failing (old kernel, RLIMIT_MEMLOCK) keeps the plain opcodes.
        registered = ring->RegisterFile().ok() &&
                     ring->RegisterBuffer(arena.get(), slots * block).ok();
      }
      // Settle with a probe transfer — the superblock, read through the
      // ring and through whatever registration was negotiated — before
      // trusting it: setup success alone does not prove the chosen opcode
      // works here (old kernels, O_DIRECT alignment).  Same idiom as
      // NegotiateDirectIo().  The probe lands in arena slot 0, so a
      // registered ring is probed through the FIXED path it will serve
      // batches with.
      if (arena != nullptr) {
        UringIoOp op;
        op.offset = 0;
        op.buf = arena.get();
        op.len = static_cast<uint32_t>(block);
        if (ring->SubmitAndWaitReads(&op, 1).ok() &&
            op.result == static_cast<int32_t>(block)) {
          dev->ring_ = std::move(ring);
          dev->arena_ = Arena(arena.release());
          dev->arena_slots_ = slots;
          dev->registered_ = registered;
        }
      }
    }
  }
  *out = std::move(dev);
  return Status::OK();
}

Status UringBlockDevice::ReadBatch(BlockReadRequest* reqs, size_t n,
                                   ReadKind kind) const {
  // A 0/1-request batch gains nothing from the ring; and without a ring the
  // inherited loop IS the transparent pread fallback.
  if (ring_ == nullptr || n < 2) {
    return BlockDevice::ReadBatch(reqs, n, kind);
  }

  const size_t block = block_size();
  for (size_t i = 0; i < n; ++i) reqs[i].status = Status::OK();
  ScreenBatchLiveness(reqs, n);
  for (size_t i = 0; i < n; ++i) {
    if (reqs[i].status.ok() && HasReadFault(reqs[i].page)) {
      reqs[i].status = Status::IoError("injected read fault on page " +
                                       std::to_string(reqs[i].page));
    }
  }

  std::vector<size_t> pending;
  pending.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (reqs[i].status.ok()) pending.push_back(i);
  }

  if (!pending.empty()) {
    // Registered mode (and O_DIRECT) bounces through the arena, chunked at
    // its slot count, so every submission takes the FIXED opcodes; the
    // unregistered buffered path reads straight into caller memory.
    const bool via_arena = registered_ || direct_io();
    const size_t chunk =
        via_arena ? std::min(pending.size(), arena_slots_) : pending.size();
    std::vector<UringIoOp> ops(chunk);
    for (size_t base = 0; base < pending.size(); base += chunk) {
      const size_t m = std::min(chunk, pending.size() - base);
      // The arena is shared between concurrent batches, so arena chunks
      // hold the ring mutex across the whole fill/submit/copy-out; the
      // direct-into-caller path only needs it around the submission.
      std::unique_lock<std::mutex> arena_lock;
      if (via_arena) arena_lock = std::unique_lock<std::mutex>(ring_mu_);
      for (size_t k = 0; k < m; ++k) {
        BlockReadRequest& req = reqs[pending[base + k]];
        ops[k].offset = PageOffset(req.page);
        ops[k].buf = via_arena ? arena_.get() + k * block : req.buf;
        ops[k].len = static_cast<uint32_t>(block);
      }

      Status ring_status;
      if (via_arena) {
        ring_status = ring_->SubmitAndWaitReads(ops.data(), m);
      } else {
        std::lock_guard<std::mutex> lock(ring_mu_);
        ring_status = ring_->SubmitAndWaitReads(ops.data(), m);
      }

      for (size_t k = 0; k < m; ++k) {
        BlockReadRequest& req = reqs[pending[base + k]];
        if (ring_status.ok() &&
            ops[k].result == static_cast<int32_t>(block)) {
          if (ops[k].buf != req.buf) {
            std::memcpy(req.buf, ops[k].buf, block);
          }
          req.status = Status::OK();
        } else {
          // Per-request retry through the scalar path: a short read, an
          // opcode the kernel lacks (-EINVAL) or a ring-level failure must
          // never fail harder than the same Read() call would.
          req.status = DoRead(req.page, req.buf);
        }
        if (req.status.ok()) CountBatchedRead(kind);
      }
    }
  }

  for (size_t i = 0; i < n; ++i) {
    if (!reqs[i].status.ok()) return reqs[i].status;
  }
  return Status::OK();
}

Status UringBlockDevice::DoWriteBatch(BlockWriteRequest* reqs, size_t n,
                                      WriteKind kind) {
  // Mirror of ReadBatch: same screens, same chunking, same per-request
  // scalar retry — a batch never fails harder than the same Write() calls.
  // Armed write injections (torn writes, the crash switch) need the
  // ordered scalar loop to be deterministic.
  if (ring_ == nullptr || arena_ == nullptr || n < 2 ||
      WriteInjectionArmed()) {
    return BlockDevice::DoWriteBatch(reqs, n, kind);
  }

  const size_t block = block_size();
  for (size_t i = 0; i < n; ++i) reqs[i].status = Status::OK();
  ScreenBatchLiveness(reqs, n);
  for (size_t i = 0; i < n; ++i) {
    if (reqs[i].status.ok() && HasWriteFault(reqs[i].page)) {
      reqs[i].status = Status::IoError("injected write fault on page " +
                                       std::to_string(reqs[i].page));
    }
  }

  std::vector<size_t> pending;
  pending.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (reqs[i].status.ok()) pending.push_back(i);
  }

  if (!pending.empty()) {
    // Writes always bounce through the arena: the slots are what is
    // registered (FIXED opcodes), and caller buffers need not satisfy
    // O_DIRECT alignment.
    const size_t chunk = std::min(pending.size(), arena_slots_);
    std::vector<UringIoOp> ops(chunk);
    for (size_t base = 0; base < pending.size(); base += chunk) {
      const size_t m = std::min(chunk, pending.size() - base);
      // Arena chunks hold the ring mutex across fill + submit (the arena is
      // shared with concurrent batches).
      std::lock_guard<std::mutex> lock(ring_mu_);
      for (size_t k = 0; k < m; ++k) {
        BlockWriteRequest& req = reqs[pending[base + k]];
        std::byte* slot = arena_.get() + k * block;
        std::memcpy(slot, req.buf, block);
        ops[k].offset = PageOffset(req.page);
        ops[k].buf = slot;
        ops[k].len = static_cast<uint32_t>(block);
      }

      Status ring_status = ring_->SubmitAndWaitWrites(ops.data(), m);

      for (size_t k = 0; k < m; ++k) {
        BlockWriteRequest& req = reqs[pending[base + k]];
        if (ring_status.ok() &&
            ops[k].result == static_cast<int32_t>(block)) {
          req.status = Status::OK();
          // The ring path bypasses PWriteBlock, where attempts are
          // normally ticked; the scalar retry below ticks its own.
          CountWriteAttempt();
        } else {
          req.status = DoWrite(req.page, req.buf);
        }
        if (req.status.ok()) CountBatchedWrite(kind);
      }
    }
  }

  for (size_t i = 0; i < n; ++i) {
    if (!reqs[i].status.ok()) return reqs[i].status;
  }
  return Status::OK();
}

Status OpenFileBackedDevice(const std::string& kind, const std::string& path,
                            const FileDeviceOptions& opts,
                            std::unique_ptr<FileBlockDevice>* out) {
  out->reset();
  if (kind == "uring") {
    UringDeviceOptions uopts;
    uopts.file = opts;
    std::unique_ptr<UringBlockDevice> dev;
    PRTREE_RETURN_NOT_OK(UringBlockDevice::Open(path, uopts, &dev));
    *out = std::move(dev);
    return Status::OK();
  }
  if (kind == "file") return FileBlockDevice::Open(path, opts, out);
  return Status::InvalidArgument("unknown file-backed device kind '" + kind +
                                 "' (file|uring)");
}

}  // namespace prtree

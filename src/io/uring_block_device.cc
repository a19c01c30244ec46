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

// The request-side steps in which a ring read and a ring write differ:
// writes are copied into their arena slots before the submission, and
// the submission takes the read or the write opcode.
void CopyIn(const BlockReadRequest&, void*, size_t) {}
void CopyIn(const BlockWriteRequest& req, void* slot, size_t block) {
  std::memcpy(slot, req.buf, block);
}

Status Submit(UringQueue* ring, const BlockReadRequest*, UringIoOp* ops,
              size_t m) {
  return ring->SubmitAndWaitReads(ops, m);
}
Status Submit(UringQueue* ring, const BlockWriteRequest*, UringIoOp* ops,
              size_t m) {
  return ring->SubmitAndWaitWrites(ops, m);
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
  // Write staging only under a requested O_DIRECT (see the header).
  if (opts.file.direct_io) {
    dev->write_batch_hint_ = std::max(1u, opts.ring_entries);
  }

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
  if (ring_ == nullptr || n < 2) return BlockDevice::ReadBatch(reqs, n, kind);
  return RingBatch(this, reqs, n, kind);
}

Status UringBlockDevice::DoWriteBatch(BlockWriteRequest* reqs, size_t n,
                                      WriteKind kind) {
  // Armed write injections (faults, torn writes, the crash switch) need
  // the ordered scalar loop to be deterministic.
  if (ring_ == nullptr || n < 2 || WriteInjectionArmed()) {
    return BlockDevice::DoWriteBatch(reqs, n, kind);
  }
  return RingBatch(this, reqs, n, kind);
}

template <typename Self, typename Request, typename Kind>
Status UringBlockDevice::RingBatch(Self* self, Request* reqs, size_t n,
                                   Kind kind) {
  const size_t block = self->block_size();
  for (size_t i = 0; i < n; ++i) reqs[i].status = Status::OK();
  std::vector<uint8_t> reads_zero(n);
  self->ScreenBatchLiveness(reqs, n, reads_zero.data());
  std::vector<size_t> pending;
  pending.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (reqs[i].status.ok()) reqs[i].status = self->InjectedFault(reqs[i]);
    if (!reqs[i].status.ok()) continue;
    if (reads_zero[i] != 0 && self->ServedAsZeros(reqs[i])) {
      self->Count(kind);
    } else {
      pending.push_back(i);
    }
  }

  // Chunked at the arena's slot count.  The arena is shared between
  // concurrent batches, so each chunk holds the ring mutex across the
  // copy in, the submission and the copy out.
  std::vector<UringIoOp> ops(std::min(pending.size(), self->arena_slots_));
  for (size_t base = 0; base < pending.size(); base += ops.size()) {
    const size_t m = std::min(ops.size(), pending.size() - base);
    std::lock_guard<std::mutex> lock(self->ring_mu_);
    for (size_t k = 0; k < m; ++k) {
      const Request& req = reqs[pending[base + k]];
      ops[k].offset = self->PageOffset(req.page);
      ops[k].buf = self->arena_.get() + k * block;
      ops[k].len = static_cast<uint32_t>(block);
      CopyIn(req, ops[k].buf, block);
    }
    const Status ring_status = Submit(self->ring_.get(), reqs, ops.data(), m);
    for (size_t k = 0; k < m; ++k) {
      Request& req = reqs[pending[base + k]];
      if (ring_status.ok() && ops[k].result == static_cast<int32_t>(block)) {
        self->Served(req, ops[k].buf);
      } else {
        // Per-request retry through the scalar path: a short transfer, an
        // opcode the kernel lacks (-EINVAL) or a ring-level failure must
        // never fail harder than the same Read()/Write() call would.
        req.status = self->Retry(req);
      }
      if (req.status.ok()) self->Count(kind);
    }
  }
  self->Landed(reqs, n, reads_zero.data());

  for (size_t i = 0; i < n; ++i) {
    if (!reqs[i].status.ok()) return reqs[i].status;
  }
  return Status::OK();
}

Status UringBlockDevice::InjectedFault(const BlockReadRequest& req) const {
  return HasReadFault(req.page)
             ? Status::IoError("injected read fault on page " +
                               std::to_string(req.page))
             : Status::OK();
}

Status UringBlockDevice::InjectedFault(const BlockWriteRequest& req) const {
  return HasWriteFault(req.page)
             ? Status::IoError("injected write fault on page " +
                               std::to_string(req.page))
             : Status::OK();
}

bool UringBlockDevice::ServedAsZeros(const BlockReadRequest& req) const {
  std::memset(req.buf, 0, block_size());
  return true;
}

void UringBlockDevice::Served(const BlockReadRequest& req,
                              const void* slot) const {
  std::memcpy(req.buf, slot, block_size());
}

void UringBlockDevice::Served(const BlockWriteRequest&, const void*) {
  // The ring bypasses PWriteBlock, where attempts are normally ticked;
  // the scalar retry ticks its own.
  CountWriteAttempt();
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

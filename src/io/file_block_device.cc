#include "io/file_block_device.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/check.h"

namespace prtree {

namespace {

inline constexpr uint32_t kSuperblockMagic = 0x50524244u;  // "PRBD"
inline constexpr uint32_t kSuperblockVersion = 1;
inline constexpr uint32_t kFreePageMagic = 0x46524545u;  // "FREE"

// On-disk superblock header, followed by user_meta_len opaque bytes.
// Fixed-width fields in host byte order, as in the node pages.  The device
// file is the library's one index format: rtree/persist.h also moves trees
// between devices through it.
struct SuperblockHeader {
  uint32_t magic;
  uint32_t version;
  uint64_t block_size;
  uint64_t num_pages;
  uint64_t allocated;
  uint64_t peak_allocated;
  uint32_t free_head;
  uint32_t free_count;
  uint32_t user_meta_len;
  uint32_t reserved;
};
static_assert(sizeof(SuperblockHeader) == 56);
static_assert(sizeof(SuperblockHeader) + FileBlockDevice::kUserMetaCapacity <=
              FileBlockDevice::kMinBlockSize);

// First bytes of a freed page while it sits on the free list.
struct FreePageStamp {
  uint32_t magic;
  uint32_t next;  // PageId of the next free page, kInvalidPageId at the end
};

std::string ErrnoMessage(const char* what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

struct FreeDeleter {
  void operator()(void* p) const { std::free(p); }
};

// Sector-aligned buffer for O_DIRECT transfers.  `size` must be a multiple
// of 512 (guaranteed: direct mode requires block_size % 512 == 0).
std::unique_ptr<std::byte, FreeDeleter> AllocAligned(size_t size) {
  void* p = std::aligned_alloc(512, size);
  PRTREE_CHECK(p != nullptr);
  return std::unique_ptr<std::byte, FreeDeleter>(static_cast<std::byte*>(p));
}

// Reusable per-thread bounce buffer: direct-mode Read/Write run on the hot
// path, so they must not pay an aligned_alloc/free round-trip per block.
std::byte* ThreadAlignedScratch(size_t size) {
  thread_local std::unique_ptr<std::byte, FreeDeleter> buf;
  thread_local size_t cap = 0;
  if (cap < size) {
    buf = AllocAligned(size);
    cap = size;
  }
  return buf.get();
}

}  // namespace

Status FileBlockDevice::Open(const std::string& path,
                             const FileDeviceOptions& opts,
                             std::unique_ptr<FileBlockDevice>* out) {
  out->reset();
  OpenedFile file;
  PRTREE_RETURN_NOT_OK(OpenBackingFile(path, opts, &file));
  std::unique_ptr<FileBlockDevice> dev(new FileBlockDevice(
      file.block_size, path, file.fd, /*direct_io=*/false));
  PRTREE_RETURN_NOT_OK(dev->FinishOpen(opts, file.fresh));
  *out = std::move(dev);
  return Status::OK();
}

Status FileBlockDevice::OpenBackingFile(const std::string& path,
                                        const FileDeviceOptions& opts,
                                        OpenedFile* out) {
  if (opts.truncate && opts.must_exist) {
    // Contradictory: truncating would destroy the file the caller insists
    // on reading, before any validation could fail.
    return Status::InvalidArgument(
        "truncate and must_exist are mutually exclusive");
  }
  if (opts.block_size != 0 && opts.block_size < kMinBlockSize) {
    // Refused before the open, which may create or truncate the file.  An
    // existing file's superblock size is checked below.
    return Status::InvalidArgument("file device block size must be >= " +
                                   std::to_string(kMinBlockSize));
  }
  int flags = O_RDWR | O_CLOEXEC;
  if (!opts.must_exist) flags |= O_CREAT;
  if (opts.truncate) flags |= O_TRUNC;
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    if (opts.must_exist && errno == ENOENT) {
      return Status::NotFound("no device file at " + path);
    }
    return Status::IoError(ErrnoMessage("cannot open", path));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status err = Status::IoError(ErrnoMessage("cannot stat", path));
    ::close(fd);
    return err;
  }
  const bool fresh = (st.st_size == 0);
  if (fresh && opts.must_exist) {
    // A read path must not initialise the caller's (empty) file.
    ::close(fd);
    return Status::Corruption(path + " is empty, not a device file");
  }

  // Learn the block size (file's superblock wins for an existing device)
  // before negotiating O_DIRECT, whose alignment rules depend on it.
  size_t block_size =
      opts.block_size != 0 ? opts.block_size : kDefaultBlockSize;
  SuperblockHeader hdr{};
  if (!fresh) {
    ssize_t n = ::pread(fd, &hdr, sizeof(hdr), 0);
    if (n != static_cast<ssize_t>(sizeof(hdr))) {
      ::close(fd);
      return Status::Corruption("short read of device superblock in " + path);
    }
    if (hdr.magic != kSuperblockMagic) {
      ::close(fd);
      return Status::Corruption(path + " is not a prtree device file");
    }
    if (hdr.version != kSuperblockVersion) {
      ::close(fd);
      return Status::Corruption("unsupported device version in " + path);
    }
    if (hdr.block_size < kMinBlockSize || hdr.block_size > (1u << 30)) {
      ::close(fd);
      return Status::Corruption("implausible block size in " + path);
    }
    if (opts.block_size != 0 && opts.block_size != hdr.block_size) {
      ::close(fd);
      return Status::InvalidArgument(
          "device " + path + " has block size " +
          std::to_string(hdr.block_size) + ", expected " +
          std::to_string(opts.block_size));
    }
    block_size = hdr.block_size;
  }

  out->fd = fd;
  out->block_size = block_size;
  out->fresh = fresh;
  return Status::OK();
}

Status FileBlockDevice::FinishOpen(const FileDeviceOptions& opts,
                                   bool fresh) {
  // On failure the caller destroys the device, whose dtor closes the fd
  // without writing anything back.
  PRTREE_RETURN_NOT_OK(fresh ? InitFresh() : LoadExisting());
  if (opts.direct_io && block_size() % 512 == 0) NegotiateDirectIo();
  init_ok_ = true;
  return Status::OK();
}

void FileBlockDevice::NegotiateDirectIo() {
#ifdef O_DIRECT
  int fl = ::fcntl(fd_, F_GETFL);
  if (fl < 0 || ::fcntl(fd_, F_SETFL, fl | O_DIRECT) != 0) return;
  // Probe with a real transfer: Linux validates O_DIRECT alignment at I/O
  // time, not at fcntl time, so a successful F_SETFL alone proves nothing.
  // Re-read the superblock through the direct path; on failure fall back
  // to buffered I/O as the header promises.
  direct_io_ = true;
  std::vector<std::byte> probe(block_size());
  if (!PReadBlock(0, probe.data()).ok()) {
    direct_io_ = false;
    ::fcntl(fd_, F_SETFL, fl);
  }
#endif
}

FileBlockDevice::FileBlockDevice(size_t block_size, std::string path, int fd,
                                 bool direct_io)
    : BlockDevice(block_size),
      path_(std::move(path)),
      fd_(fd),
      direct_io_(direct_io) {}

FileBlockDevice::~FileBlockDevice() {
  {
    std::unique_lock lock(mu_);
    // Best effort, and only when there is something to save: a device
    // whose Open() failed must not clobber the (possibly diagnosable)
    // on-disk state, and a purely read session must not dirty the file.
    if (init_ok_ && meta_dirty_) WriteMetadataLocked();
  }
  ::close(fd_);
}

Status FileBlockDevice::InitFresh() {
  std::unique_lock lock(mu_);
  scratch_.resize(block_size());
  if (::ftruncate(fd_, static_cast<off_t>(block_size())) != 0) {
    return Status::IoError(ErrnoMessage("cannot size", path_));
  }
  file_pages_ = 0;
  return WriteSuperblockLocked();
}

Status FileBlockDevice::LoadExisting() {
  std::unique_lock lock(mu_);
  scratch_.resize(block_size());
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IoError(ErrnoMessage("cannot stat", path_));
  }
  file_pages_ = st.st_size >= static_cast<off_t>(block_size())
                    ? static_cast<size_t>(st.st_size) / block_size() - 1
                    : 0;
  stale_pages_ = file_pages_;
  // Re-read the superblock through PReadBlock: Open() only peeked at the
  // header with a plain pread, which is no longer legal once O_DIRECT is in
  // effect (unaligned size), and the user metadata still needs loading.
  std::vector<std::byte> super(block_size());
  PRTREE_RETURN_NOT_OK(PReadBlock(0, super.data()));
  SuperblockHeader hdr{};
  std::memcpy(&hdr, super.data(), sizeof(hdr));
  num_pages_ = hdr.num_pages;
  allocated_ = hdr.allocated;
  peak_allocated_ = hdr.peak_allocated;
  if (hdr.user_meta_len > kUserMetaCapacity) {
    return Status::Corruption("oversized user metadata in " + path_);
  }
  user_meta_.assign(super.data() + sizeof(hdr),
                    super.data() + sizeof(hdr) + hdr.user_meta_len);
  if (hdr.free_count > hdr.num_pages ||
      hdr.allocated != hdr.num_pages - hdr.free_count) {
    return Status::Corruption("inconsistent allocation counters in " + path_);
  }
  // The file's extent must cover every page the superblock claims (growth
  // always precedes the superblock write); this also bounds the liveness
  // table against a garbage num_pages field.
  if (hdr.num_pages >= kInvalidPageId || hdr.num_pages > file_pages_) {
    return Status::Corruption("device file shorter than its superblock "
                              "claims in " + path_);
  }
  live_.assign(num_pages_, 1);

  // Rebuild the LIFO free list by walking the chain threaded through the
  // free pages.  The head is the most recently freed page (the LIFO top).
  //
  // Chain states that post-Sync mutations (then a crash) legitimately
  // produce are NOT corruption and degrade gracefully:
  //  * a stamp without the magic — the chained page was reused and
  //    written (or zeroed by a Sync cut before its superblock) post-Sync;
  //  * the chain ending early (next == kInvalidPageId before count runs
  //    out) — a Sync cut before its superblock stamped pages re-freed
  //    with a shorter chain;
  //  * a tail beyond the recorded count — such a Sync stamped extra
  //    pages freed post-Sync.
  // Recovery keeps the walkable prefix of the recorded free list and
  // conservatively treats everything else as allocated: a bounded space
  // leak, never reuse of a page that might hold data.  Out-of-range
  // pointers and cycles, by contrast, can only come from a damaged
  // superblock or file and stay hard errors.
  std::vector<PageId> chain;
  chain.reserve(hdr.free_count);
  std::vector<std::byte> block(block_size());
  bool chain_broken = false;
  PageId cur = hdr.free_head;
  for (uint32_t i = 0; i < hdr.free_count; ++i) {
    if (cur == kInvalidPageId) {
      chain_broken = true;  // ended early: post-Sync re-free with less
      break;
    }
    if (cur >= num_pages_) {
      return Status::Corruption("free-list chain out of range in " + path_);
    }
    if (live_[cur] == 0) {
      return Status::Corruption("free-list chain cycle in " + path_);
    }
    PRTREE_RETURN_NOT_OK(PReadBlock(PageOffset(cur), block.data()));
    FreePageStamp stamp;
    std::memcpy(&stamp, block.data(), sizeof(stamp));
    if (stamp.magic != kFreePageMagic) {
      chain_broken = true;  // stamp destroyed: page reused post-Sync
      break;
    }
    live_[cur] = 0;
    chain.push_back(cur);
    cur = stamp.next;
  }
  // A tail beyond the recorded count (cur != kInvalidPageId here) is the
  // post-Sync "freed more pages" state: ignore it, those pages stay live.
  free_list_.assign(chain.rbegin(), chain.rend());
  stamped_ = free_list_.size();
  if (chain_broken) {
    // Leaked pages count as allocated.  The repair does not dirty the
    // metadata, so a session that only reads leaves the file as it found
    // it (later opens repeat the same repair); the next Sync, or closing
    // a session that changed the device, writes the repaired state out.
    allocated_ = num_pages_ - free_list_.size();
    peak_allocated_ = std::max(peak_allocated_, allocated_);
  }
  return Status::OK();
}

PageId FileBlockDevice::Allocate() {
  std::unique_lock lock(mu_);
  PageId page;
  if (!free_list_.empty()) {
    page = free_list_.back();
    free_list_.pop_back();
    stamped_ = std::min(stamped_, free_list_.size());
    // The page reads as zeros until a client write lands on it; the file
    // keeps its stamp (or older bytes) until then, or until Sync zeroes
    // it.  Nothing is written here.
    live_[page] = kZeroPage;
  } else {
    PRTREE_CHECK(num_pages_ < kInvalidPageId);
    page = static_cast<PageId>(num_pages_);
    ++num_pages_;
    // A page inside the extent the file had at Open may hold bytes written
    // before a crash, past the recorded page count: like a recycled page,
    // it reads as zeros until written, and Sync zeroes it otherwise.
    live_.push_back(page < stale_pages_ ? kZeroPage : kLivePage);
    // Extend the file so a never-written fresh page reads back as zeros.
    // Grown geometrically (sparse), so a build costs O(log N) ftruncate
    // calls instead of one per page.
    if (num_pages_ > file_pages_) {
      file_pages_ = std::max<size_t>(num_pages_, 2 * file_pages_);
      int rc = ::ftruncate(
          fd_, static_cast<off_t>((file_pages_ + 1) * block_size()));
      PRTREE_CHECK(rc == 0);
    }
  }
  ++allocated_;
  peak_allocated_ = std::max(peak_allocated_, allocated_);
  meta_dirty_ = true;
  return page;
}

void FileBlockDevice::Free(PageId page) {
  std::unique_lock lock(mu_);
  PRTREE_CHECK(page < num_pages_ && live_[page] != kFreePage);
  // The page's stamp (next = the previous LIFO top) waits for Sync.
  live_[page] = kFreePage;
  free_list_.push_back(page);
  PRTREE_CHECK(allocated_ > 0);
  --allocated_;
  meta_dirty_ = true;
}

Status FileBlockDevice::DoRead(PageId page, void* buf) const {
  BlockReadRequest req{page, buf, Status::OK()};
  uint8_t reads_zero = 0;
  ScreenBatchLiveness(&req, 1, &reads_zero);
  if (!req.status.ok()) return req.status;
  if (reads_zero != 0) {
    std::memset(buf, 0, block_size());
    return Status::OK();
  }
  return PReadBlock(PageOffset(page), buf);
}

Status FileBlockDevice::DoWrite(PageId page, const void* buf) {
  BlockWriteRequest req{page, buf, Status::OK()};
  uint8_t reads_zero = 0;
  ScreenBatchLiveness(&req, 1, &reads_zero);
  if (!req.status.ok()) return req.status;
  if (reads_zero == 0) return PWriteBlock(PageOffset(page), buf);
  bool still_zero = true;
  PRTREE_RETURN_NOT_OK(PWriteBlock(PageOffset(page), buf, &still_zero));
  if (!still_zero) MarkWritten(&req, 1, &reads_zero);
  return Status::OK();
}

void FileBlockDevice::MarkWritten(const BlockWriteRequest* reqs, size_t n,
                                  const uint8_t* reads_zero) {
  if (std::find(reads_zero, reads_zero + n, 1) == reads_zero + n) return;
  std::unique_lock lock(mu_);
  for (size_t i = 0; i < n; ++i) {
    if (reads_zero[i] != 0 && reqs[i].status.ok() &&
        live_[reqs[i].page] == kZeroPage) {
      live_[reqs[i].page] = kLivePage;
    }
  }
}

void FileBlockDevice::PrefetchHint(const PageId* pages, size_t n) const {
#ifdef POSIX_FADV_WILLNEED
  if (direct_io_) return;  // no page cache to warm
  std::shared_lock lock(mu_);
  for (size_t i = 0; i < n; ++i) {
    // A page that reads as zeros is served without touching the file.
    if (pages[i] >= num_pages_ || live_[pages[i]] != kLivePage) continue;
    // Purely advisory; a failure (e.g. an fs without fadvise) is ignored.
    ::posix_fadvise(fd_, static_cast<off_t>(PageOffset(pages[i])),
                    static_cast<off_t>(block_size()), POSIX_FADV_WILLNEED);
  }
#else
  (void)pages;
  (void)n;
#endif
}

size_t FileBlockDevice::num_allocated() const {
  std::shared_lock lock(mu_);
  return allocated_;
}

size_t FileBlockDevice::peak_allocated() const {
  std::shared_lock lock(mu_);
  return peak_allocated_;
}

Status FileBlockDevice::Sync() {
  std::unique_lock lock(mu_);
  PRTREE_RETURN_NOT_OK(WriteMetadataLocked());
  if (::fsync(fd_) != 0) {
    return Status::IoError(ErrnoMessage("fsync failed on", path_));
  }
  return Status::OK();
}

Status FileBlockDevice::SetUserMeta(const void* data, size_t len) {
  if (len > kUserMetaCapacity) {
    return Status::InvalidArgument("user metadata exceeds " +
                                   std::to_string(kUserMetaCapacity) +
                                   " bytes");
  }
  std::unique_lock lock(mu_);
  user_meta_.assign(static_cast<const std::byte*>(data),
                    static_cast<const std::byte*>(data) + len);
  meta_dirty_ = true;
  return Status::OK();
}

size_t FileBlockDevice::GetUserMeta(void* buf, size_t cap) const {
  std::shared_lock lock(mu_);
  size_t n = std::min(cap, user_meta_.size());
  if (n > 0) std::memcpy(buf, user_meta_.data(), n);
  return user_meta_.size();
}

Status FileBlockDevice::PReadBlock(uint64_t off, void* buf) const {
  void* target = direct_io_ ? ThreadAlignedScratch(block_size()) : buf;
  size_t done = 0;
  while (done < block_size()) {
    ssize_t r = ::pread(fd_, static_cast<char*>(target) + done,
                        block_size() - done, static_cast<off_t>(off + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("pread failed on", path_));
    }
    if (r == 0) {
      return Status::IoError("short read at offset " + std::to_string(off) +
                             " of " + path_);
    }
    done += static_cast<size_t>(r);
  }
  if (direct_io_) std::memcpy(buf, target, block_size());
  return Status::OK();
}

size_t FileBlockDevice::num_pages() const {
  std::shared_lock lock(mu_);
  return num_pages_;
}

bool FileBlockDevice::IsAllocated(PageId page) const {
  std::shared_lock lock(mu_);
  return page < num_pages_ && live_[page] != kFreePage;
}

size_t FileBlockDevice::AdoptOrphanPages() {
  std::unique_lock lock(mu_);
  if (file_pages_ <= num_pages_) return 0;
  // Everything between the superblock's page count and the file extent was
  // created post-Sync (Allocate grows the file before the page is handed
  // out, and extent growth over-provisions, so some of these ids were
  // never handed out at all).  All of it is adopted as allocated: pages a
  // committed op wrote become readable, and the rest — garbage or never
  // used — is exactly what the recovery sweep exists to free.
  const size_t adopted = file_pages_ - num_pages_;
  live_.resize(file_pages_, kLivePage);
  num_pages_ = file_pages_;
  allocated_ += adopted;
  peak_allocated_ = std::max(peak_allocated_, allocated_);
  meta_dirty_ = true;
  return adopted;
}

Status FileBlockDevice::PWriteBlock(uint64_t off, const void* buf,
                                    bool* reads_zero) {
  // Every byte this backend puts on disk funnels through here — client
  // writes, superblock write-out, free-list stamps, zeroing of reused
  // pages — so this is where the injected faults are decided: a dropped
  // write is acknowledged but never issued, a torn one lands only its
  // prefix over the page's previous contents (zeros for a page that still
  // reads as zeros, else the on-disk bytes).  Offset 0, the superblock, is
  // no page.
  const PageId page = off == 0 ? kInvalidPageId
                               : static_cast<PageId>(off / block_size() - 1);
  size_t tear = 0;
  std::vector<std::byte> merged;
  switch (ConsumeWriteBudget(page, &tear)) {
    case WriteOutcome::kDrop:
      return Status::OK();
    case WriteOutcome::kTear:
      merged.resize(block_size());  // zeros
      if (reads_zero == nullptr || !*reads_zero) {
        PRTREE_RETURN_NOT_OK(PReadBlock(off, merged.data()));
      }
      std::memcpy(merged.data(), buf, std::min(tear, block_size()));
      buf = merged.data();
      break;
    case WriteOutcome::kLand:
      break;
  }
  const void* source = buf;
  if (direct_io_) {
    std::byte* bounce = ThreadAlignedScratch(block_size());
    std::memcpy(bounce, buf, block_size());
    source = bounce;
  }
  size_t done = 0;
  while (done < block_size()) {
    ssize_t w = ::pwrite(fd_, static_cast<const char*>(source) + done,
                         block_size() - done, static_cast<off_t>(off + done));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("pwrite failed on", path_));
    }
    done += static_cast<size_t>(w);
  }
  if (reads_zero != nullptr) *reads_zero = false;
  return Status::OK();
}

Status FileBlockDevice::WriteMetadataLocked() {
  // Zeroing comes first and the superblock last, so a crash anywhere in
  // between leaves the previous superblock naming a chain that the
  // writes so far can only have shortened, extended or cut (LoadExisting
  // degrades each of those to a leak).
  std::fill(scratch_.begin(), scratch_.end(), std::byte{0});
  for (auto it = std::find(live_.begin(), live_.end(), kZeroPage);
       it != live_.end(); it = std::find(it + 1, live_.end(), kZeroPage)) {
    const auto page = static_cast<PageId>(it - live_.begin());
    PRTREE_RETURN_NOT_OK(PWriteBlock(PageOffset(page), scratch_.data()));
    *it = kLivePage;
  }
  // Entries below stamped_ have not moved since their stamps were
  // written; each one above gets {magic, next = the entry below it}.
  for (; stamped_ < free_list_.size(); ++stamped_) {
    const FreePageStamp stamp{
        kFreePageMagic,
        stamped_ == 0 ? kInvalidPageId : free_list_[stamped_ - 1]};
    std::memcpy(scratch_.data(), &stamp, sizeof(stamp));
    PRTREE_RETURN_NOT_OK(
        PWriteBlock(PageOffset(free_list_[stamped_]), scratch_.data()));
  }
  return WriteSuperblockLocked();
}

Status FileBlockDevice::WriteSuperblockLocked() {
  std::vector<std::byte> block(block_size());
  SuperblockHeader hdr{};
  hdr.magic = kSuperblockMagic;
  hdr.version = kSuperblockVersion;
  hdr.block_size = block_size();
  hdr.num_pages = num_pages_;
  hdr.allocated = allocated_;
  hdr.peak_allocated = peak_allocated_;
  hdr.free_head = free_list_.empty() ? kInvalidPageId : free_list_.back();
  hdr.free_count = static_cast<uint32_t>(free_list_.size());
  hdr.user_meta_len = static_cast<uint32_t>(user_meta_.size());
  std::memcpy(block.data(), &hdr, sizeof(hdr));
  if (!user_meta_.empty()) {
    std::memcpy(block.data() + sizeof(hdr), user_meta_.data(),
                user_meta_.size());
  }
  Status st = PWriteBlock(0, block.data());
  if (st.ok()) meta_dirty_ = false;
  return st;
}

}  // namespace prtree

// FileBlockDevice: superblock round-trips, free-list reuse across reopen,
// failure paths (short reads, corruption), I/O-accounting parity with the
// in-memory backend, and the flagship guarantee of the multi-device I/O
// layer — an 8-thread file-backed bulk load is byte-identical to a serial
// one even after closing and reopening the device file.

#include "io/file_block_device.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "io/uring_block_device.h"
#include "rtree/bulk_loader.h"
#include "rtree/persist.h"
#include "rtree/validate.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace prtree {
namespace {

using testing_util::RandomWindow;
using testing_util::SortedIds;

class FileBlockDeviceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Test-name + pid qualified: ctest runs each TEST as its own process,
    // often concurrently, so an address-based name could collide.
    path_ = ::testing::TempDir() + "/prtree_device_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "." + std::to_string(static_cast<long>(getpid())) + ".dev";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::unique_ptr<FileBlockDevice> Create(size_t block_size = 512) {
    FileDeviceOptions opts;
    opts.block_size = block_size;
    opts.truncate = true;
    std::unique_ptr<FileBlockDevice> dev;
    AbortIfError(FileBlockDevice::Open(path_, opts, &dev));
    return dev;
  }
  std::unique_ptr<FileBlockDevice> Reopen(size_t expect_block_size = 0) {
    FileDeviceOptions opts;
    opts.block_size = expect_block_size;  // 0 = accept the file's
    std::unique_ptr<FileBlockDevice> dev;
    AbortIfError(FileBlockDevice::Open(path_, opts, &dev));
    return dev;
  }

  std::string path_;
};

TEST_F(FileBlockDeviceTest, AllocateReadWriteAndCounters) {
  auto dev = Create(512);
  PageId p = dev->Allocate();
  std::vector<std::byte> w(512), r(512);
  std::memset(w.data(), 0xAB, 512);
  ASSERT_TRUE(dev->Write(p, w.data()).ok());
  ASSERT_TRUE(dev->Read(p, r.data()).ok());
  EXPECT_EQ(std::memcmp(w.data(), r.data(), 512), 0);
  // Client I/Os only: the superblock and free-list traffic is not charged.
  EXPECT_EQ(dev->stats().reads, 1u);
  EXPECT_EQ(dev->stats().writes, 1u);
}

TEST_F(FileBlockDeviceTest, FreshAndReusedBlocksAreZeroed) {
  auto dev = Create(512);
  PageId p = dev->Allocate();
  std::vector<std::byte> buf(512);
  ASSERT_TRUE(dev->Read(p, buf.data()).ok());
  for (auto b : buf) EXPECT_EQ(b, std::byte{0});
  std::memset(buf.data(), 0xFF, 512);
  ASSERT_TRUE(dev->Write(p, buf.data()).ok());
  dev->Free(p);
  PageId q = dev->Allocate();  // reuses p
  EXPECT_EQ(q, p);
  ASSERT_TRUE(dev->Read(q, buf.data()).ok());
  for (auto b : buf) EXPECT_EQ(b, std::byte{0});
}

TEST_F(FileBlockDeviceTest, ReadOfUnallocatedOrFreedPageFails) {
  auto dev = Create(512);
  std::vector<std::byte> buf(512);
  EXPECT_FALSE(dev->Read(17, buf.data()).ok());
  PageId p = dev->Allocate();
  dev->Free(p);
  EXPECT_FALSE(dev->Read(p, buf.data()).ok());
  EXPECT_FALSE(dev->Write(p, buf.data()).ok());
}

TEST_F(FileBlockDeviceTest, InjectedFaultSurfacesAsIoError) {
  auto dev = Create(512);
  PageId p = dev->Allocate();
  std::vector<std::byte> buf(512);
  dev->InjectReadFault(p);
  Status st = dev->Read(p, buf.data());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  dev->ClearFaults();
  EXPECT_TRUE(dev->Read(p, buf.data()).ok());
}

TEST_F(FileBlockDeviceTest, AllocationSequenceMatchesMemoryBackend) {
  // The determinism contract is backend-independent: the same Allocate/Free
  // call sequence must hand out the same page ids on both devices.
  auto fdev = Create(512);
  MemoryBlockDevice mdev(512);
  std::vector<PageId> fp, mp;
  for (int i = 0; i < 10; ++i) {
    fp.push_back(fdev->Allocate());
    mp.push_back(mdev.Allocate());
  }
  EXPECT_EQ(fp, mp);
  fdev->Free(fp[3]);
  mdev.Free(mp[3]);
  fdev->Free(fp[7]);
  mdev.Free(mp[7]);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(fdev->Allocate(), mdev.Allocate());
  }
  EXPECT_EQ(fdev->num_allocated(), mdev.num_allocated());
  EXPECT_EQ(fdev->peak_allocated(), mdev.peak_allocated());
}

TEST_F(FileBlockDeviceTest, SuperblockAndFreeListSurviveReopen) {
  std::vector<std::byte> content(512);
  PageId a, b, c;
  {
    auto dev = Create(512);
    a = dev->Allocate();
    b = dev->Allocate();
    c = dev->Allocate();
    std::memset(content.data(), 0x5C, 512);
    ASSERT_TRUE(dev->Write(a, content.data()).ok());
    ASSERT_TRUE(dev->Write(c, content.data()).ok());
    dev->Free(b);
    ASSERT_TRUE(dev->Sync().ok());
  }  // destructor closes the file
  {
    auto dev = Reopen(512);
    EXPECT_EQ(dev->num_allocated(), 2u);
    EXPECT_EQ(dev->peak_allocated(), 3u);
    // Data pages intact.
    std::vector<std::byte> buf(512);
    ASSERT_TRUE(dev->Read(a, buf.data()).ok());
    EXPECT_EQ(std::memcmp(buf.data(), content.data(), 512), 0);
    ASSERT_TRUE(dev->Read(c, buf.data()).ok());
    EXPECT_EQ(std::memcmp(buf.data(), content.data(), 512), 0);
    // The freed page is not readable and is the next one reused.
    EXPECT_FALSE(dev->Read(b, buf.data()).ok());
    EXPECT_EQ(dev->Allocate(), b);
  }
}

TEST_F(FileBlockDeviceTest, LifoFreeOrderSurvivesReopen) {
  std::vector<PageId> pages;
  {
    auto dev = Create(512);
    for (int i = 0; i < 6; ++i) pages.push_back(dev->Allocate());
    // Free in a scrambled order; LIFO reuse must replay it exactly.
    dev->Free(pages[1]);
    dev->Free(pages[4]);
    dev->Free(pages[2]);
    ASSERT_TRUE(dev->Sync().ok());
  }
  auto dev = Reopen();
  EXPECT_EQ(dev->Allocate(), pages[2]);
  EXPECT_EQ(dev->Allocate(), pages[4]);
  EXPECT_EQ(dev->Allocate(), pages[1]);
  EXPECT_EQ(dev->num_allocated(), 6u);
}

TEST_F(FileBlockDeviceTest, UserMetaRoundTrip) {
  const char msg[] = "prtree user metadata";
  {
    auto dev = Create(512);
    ASSERT_TRUE(dev->SetUserMeta(msg, sizeof(msg)).ok());
    ASSERT_TRUE(dev->Sync().ok());
  }
  auto dev = Reopen();
  char buf[64] = {};
  EXPECT_EQ(dev->GetUserMeta(buf, sizeof(buf)), sizeof(msg));
  EXPECT_STREQ(buf, msg);
  // Oversized metadata is rejected.
  std::vector<char> big(FileBlockDevice::kUserMetaCapacity + 1);
  EXPECT_FALSE(dev->SetUserMeta(big.data(), big.size()).ok());
}

TEST_F(FileBlockDeviceTest, ShortReadSurfacesAsIoError) {
  // Truncate the file out from under a live device: the read of the
  // vanished page must fail with IoError, not return garbage.
  auto dev = Create(512);
  dev->Allocate();
  PageId last = dev->Allocate();
  std::vector<std::byte> buf(512, std::byte{0x11});
  ASSERT_TRUE(dev->Write(last, buf.data()).ok());
  ASSERT_TRUE(dev->Sync().ok());
  ASSERT_EQ(truncate(path_.c_str(), 2 * 512), 0);
  Status st = dev->Read(last, buf.data());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST_F(FileBlockDeviceTest, ReopenOfTruncatedFileFailsAtOpen) {
  // A truncated device file (e.g. a partial copy) is rejected up front:
  // the superblock claims more pages than the file holds.
  {
    auto dev = Create(512);
    dev->Allocate();
    dev->Allocate();
    ASSERT_TRUE(dev->Sync().ok());
  }
  ASSERT_EQ(truncate(path_.c_str(), 2 * 512), 0);
  std::unique_ptr<FileBlockDevice> dev;
  Status st = FileBlockDevice::Open(path_, FileDeviceOptions{}, &dev);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST_F(FileBlockDeviceTest, RejectsForeignAndCorruptFiles) {
  // Not a device file at all.
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a block device", f);
    std::fclose(f);
  }
  std::unique_ptr<FileBlockDevice> dev;
  Status st = FileBlockDevice::Open(path_, FileDeviceOptions{}, &dev);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);

  // Valid file, wrong expected block size.
  { auto d = Create(512); ASSERT_TRUE(d->Sync().ok()); }
  FileDeviceOptions opts;
  opts.block_size = 4096;
  st = FileBlockDevice::Open(path_, opts, &dev);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  // Damaged superblock topology: free a page, sync, then point the
  // free-list head out of range.
  {
    auto d = Create(512);
    PageId p = d->Allocate();
    d->Allocate();
    d->Free(p);
    ASSERT_TRUE(d->Sync().ok());
  }
  constexpr long kFreeHeadOffset = 40;  // after magic..peak_allocated
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, kFreeHeadOffset, SEEK_SET);
    uint32_t junk = 0x7FFFFFFF;
    std::fwrite(&junk, sizeof(junk), 1, f);
    std::fclose(f);
  }
  st = FileBlockDevice::Open(path_, FileDeviceOptions{}, &dev);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);

  // A failed open must not rewrite the file: the damaged field (and the
  // rest of the on-disk state) stays diagnosable.
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, kFreeHeadOffset, SEEK_SET);
    uint32_t head = 0;
    ASSERT_EQ(std::fread(&head, sizeof(head), 1, f), 1u);
    std::fclose(f);
    EXPECT_EQ(head, 0x7FFFFFFFu);
  }
}

TEST_F(FileBlockDeviceTest, BrokenFreeStampDegradesToLeakNotFailure) {
  // A missing free stamp is the signature of a crash after the superblock
  // write (the chained page was reused and zeroed post-Sync).  Recovery
  // must open the device, keep the walkable free-list prefix and leak the
  // rest as allocated — never refuse the file, never reuse the page.
  PageId p;
  {
    auto dev = Create(512);
    p = dev->Allocate();
    dev->Allocate();
    dev->Free(p);
    ASSERT_TRUE(dev->Sync().ok());
  }
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 512, SEEK_SET);  // the freed page's stamp
    uint32_t junk[2] = {0xDEADBEEF, 0xDEADBEEF};
    std::fwrite(junk, sizeof(junk), 1, f);
    std::fclose(f);
  }
  auto dev = Reopen();
  EXPECT_EQ(dev->num_allocated(), 2u);  // the chained page leaked as live
  EXPECT_NE(dev->Allocate(), p);        // and is never handed out again
}

// Allocate and Free only change the in-memory free list and page marks;
// Sync writes what they deferred, one block per item, and the file then
// reads back exactly what the device did.
TEST_F(FileBlockDeviceTest, AllocateAndFreeWriteNothingUntilSync) {
  auto dev = Create(512);
  std::vector<std::byte> data(512, std::byte{0x5A}), buf(512);
  std::vector<PageId> p;
  for (int i = 0; i < 5; ++i) {
    p.push_back(dev->Allocate());
    ASSERT_TRUE(dev->Write(p.back(), data.data()).ok());
  }
  dev->Free(p[0]);
  dev->Free(p[1]);
  ASSERT_TRUE(dev->Sync().ok());  // stamps [p0, p1]

  const uint64_t before = dev->write_attempts();
  dev->Free(p[2]);
  const PageId unwritten = dev->Allocate();  // p2: list [p0, p1]
  const PageId rewritten = dev->Allocate();  // p1: list [p0]
  dev->Free(p[3]);
  dev->Free(p[4]);  // list [p0, p3, p4]; p0's stamp is still valid
  EXPECT_EQ(unwritten, p[2]);
  EXPECT_EQ(rewritten, p[1]);
  EXPECT_EQ(dev->write_attempts(), before);

  // Recycled pages read zeros before their first write, counted as reads.
  const uint64_t reads = dev->stats().reads;
  for (PageId page : {unwritten, rewritten}) {
    ASSERT_TRUE(dev->Read(page, buf.data()).ok());
    for (auto b : buf) ASSERT_EQ(b, std::byte{0});
  }
  EXPECT_EQ(dev->stats().reads, reads + 2);
  ASSERT_TRUE(dev->Write(rewritten, data.data()).ok());

  // One zeroing write (the unwritten recycled page), one stamp per free
  // entry above p0 (p3, p4), one superblock.
  const uint64_t before_sync = dev->write_attempts();
  ASSERT_TRUE(dev->Sync().ok());
  EXPECT_EQ(dev->write_attempts() - before_sync, 1u + 2u + 1u);

  dev.reset();
  dev = Reopen();
  ASSERT_TRUE(dev->Read(unwritten, buf.data()).ok());
  for (auto b : buf) ASSERT_EQ(b, std::byte{0});
  ASSERT_TRUE(dev->Read(rewritten, buf.data()).ok());
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), 512), 0);
  EXPECT_EQ(dev->num_allocated(), 2u);
  EXPECT_EQ(dev->Allocate(), p[4]);  // the LIFO order survived
  EXPECT_EQ(dev->Allocate(), p[3]);
  EXPECT_EQ(dev->Allocate(), p[0]);
}

// A recycled page reads as zeros although the file still holds its old
// bytes, so a torn write keeps zeros past its prefix (as on the memory
// backend) and a dropped one leaves the page reading zeros.
TEST_F(FileBlockDeviceTest, RecycledPageKeepsZerosPastATornOrDroppedWrite) {
  auto dev = Create(512);
  std::vector<std::byte> old_bytes(512, std::byte{0xAA});
  std::vector<std::byte> fresh(512, std::byte{0xBB}), buf(512);
  const PageId torn = dev->Allocate();
  const PageId dropped = dev->Allocate();
  ASSERT_TRUE(dev->Write(torn, old_bytes.data()).ok());
  ASSERT_TRUE(dev->Write(dropped, old_bytes.data()).ok());
  dev->Free(dropped);
  dev->Free(torn);
  ASSERT_EQ(dev->Allocate(), torn);
  ASSERT_EQ(dev->Allocate(), dropped);

  dev->InjectTornWrite(torn, 100);
  ASSERT_TRUE(dev->Write(torn, fresh.data()).ok());
  ASSERT_TRUE(dev->Read(torn, buf.data()).ok());
  EXPECT_EQ(std::memcmp(buf.data(), fresh.data(), 100), 0);
  for (size_t i = 100; i < 512; ++i) ASSERT_EQ(buf[i], std::byte{0}) << i;

  dev->InjectCrashAfterWrites(0);
  ASSERT_TRUE(dev->Write(dropped, fresh.data()).ok());
  ASSERT_TRUE(dev->Read(dropped, buf.data()).ok());
  for (auto b : buf) ASSERT_EQ(b, std::byte{0});
}

TEST_F(FileBlockDeviceTest, MustExistRefusesToCreate) {
  FileDeviceOptions opts;
  opts.must_exist = true;
  std::unique_ptr<FileBlockDevice> dev;
  Status st = FileBlockDevice::Open(path_, opts, &dev);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  // No stray device file was left behind by the failed open.
  EXPECT_NE(::access(path_.c_str(), F_OK), 0);

  // truncate + must_exist would wipe the file before validation could
  // fail; the contradiction is rejected up front, file untouched.
  { auto d = Create(512); d->Allocate(); ASSERT_TRUE(d->Sync().ok()); }
  opts.truncate = true;
  st = FileBlockDevice::Open(path_, opts, &dev);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  FileDeviceOptions reopen_opts;
  reopen_opts.must_exist = true;
  std::unique_ptr<FileBlockDevice> back;
  ASSERT_TRUE(FileBlockDevice::Open(path_, reopen_opts, &back).ok());
  EXPECT_EQ(back->num_allocated(), 1u);
}

// Simulates crashes AFTER a Sync by snapshotting the device file while the
// live device keeps mutating: the copy holds the as-of-Sync superblock
// with post-Sync page contents — exactly what a kill -9 leaves behind.
// Every case runs on both file-backed backends, which share the format
// and the deferred metadata.
class FileBlockDeviceCrashTest : public FileBlockDeviceTest {
 protected:
  std::unique_ptr<FileBlockDevice> Create(const std::string& backend) {
    FileDeviceOptions opts;
    opts.block_size = 512;
    opts.truncate = true;
    std::unique_ptr<FileBlockDevice> dev;
    AbortIfError(OpenFileBackedDevice(backend, path_, opts, &dev));
    return dev;
  }
  std::unique_ptr<FileBlockDevice> OpenImage(const std::string& backend,
                                             const std::string& image) {
    std::unique_ptr<FileBlockDevice> dev;
    AbortIfError(
        OpenFileBackedDevice(backend, image, FileDeviceOptions{}, &dev));
    return dev;
  }
  std::string CrashImage() {
    std::string copy = path_ + ".crash";
    std::FILE* in = std::fopen(path_.c_str(), "rb");
    std::FILE* out = std::fopen(copy.c_str(), "wb");
    PRTREE_CHECK(in != nullptr && out != nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
      PRTREE_CHECK(std::fwrite(buf, 1, n, out) == n);
    }
    std::fclose(in);
    std::fclose(out);
    return copy;
  }
  // What every caller does with a page it allocates.
  static void WriteData(FileBlockDevice* dev, PageId page) {
    std::vector<std::byte> data(dev->block_size(), std::byte{0xC3});
    AbortIfError(dev->Write(page, data.data()));
  }
};

TEST_F(FileBlockDeviceCrashTest, ReuseThenRefreeAfterSyncStillOpens) {
  // Sync records free chain [P0 -> P1]; afterwards both are reused and
  // written, and P0 is freed again.  The re-free's stamp waits for the
  // next Sync, so the crash image's recorded chain starts at a page that
  // holds client data: recovery leaks P0 and P1 and never hands out a
  // page that might hold data.
  for (const std::string backend : {"file", "uring"}) {
    SCOPED_TRACE(backend);
    auto dev = Create(backend);
    PageId p0 = dev->Allocate();
    PageId p1 = dev->Allocate();
    dev->Allocate();  // p2 stays live
    dev->Free(p1);
    dev->Free(p0);
    ASSERT_TRUE(dev->Sync().ok());
    ASSERT_EQ(dev->Allocate(), p0);
    ASSERT_EQ(dev->Allocate(), p1);
    WriteData(dev.get(), p0);
    WriteData(dev.get(), p1);
    dev->Free(p0);
    std::string image = CrashImage();

    auto re = OpenImage(backend, image);
    EXPECT_EQ(re->num_allocated(), 3u);  // p0 and p1 leaked as live
    const PageId next = re->Allocate();
    EXPECT_NE(next, p0);
    EXPECT_NE(next, p1);
    std::remove(image.c_str());
  }
}

TEST_F(FileBlockDeviceCrashTest, AllocatedButUnwrittenPageStaysOnTheChain) {
  // Sync records free chain [P0 -> P1]; afterwards P0 is allocated again
  // but nothing is written to it before the crash.  Allocate wrote
  // nothing either, so P0's stamp still holds and recovery returns both
  // pages to the free list.
  for (const std::string backend : {"file", "uring"}) {
    SCOPED_TRACE(backend);
    auto dev = Create(backend);
    PageId p0 = dev->Allocate();
    PageId p1 = dev->Allocate();
    dev->Allocate();  // p2 stays live
    dev->Free(p1);
    dev->Free(p0);
    ASSERT_TRUE(dev->Sync().ok());
    ASSERT_EQ(dev->Allocate(), p0);
    std::string image = CrashImage();

    auto re = OpenImage(backend, image);
    EXPECT_EQ(re->num_allocated(), 1u);
    EXPECT_EQ(re->Allocate(), p0);
    EXPECT_EQ(re->Allocate(), p1);
    std::remove(image.c_str());
  }
}

TEST_F(FileBlockDeviceCrashTest, ExtraFreesAfterSyncStillOpen) {
  // Sync records free chain [P1]; afterwards P1 is reused and written, and
  // two MORE pages are freed.  A second Sync stamps the chain P1 -> P2 and
  // is cut before its superblock, so the crash image's chain is longer
  // than recorded.  Recovery takes exactly the recorded count and leaves
  // the tail live.
  for (const std::string backend : {"file", "uring"}) {
    SCOPED_TRACE(backend);
    auto dev = Create(backend);
    dev->Allocate();  // p0
    PageId p1 = dev->Allocate();
    PageId p2 = dev->Allocate();
    dev->Free(p1);
    ASSERT_TRUE(dev->Sync().ok());
    ASSERT_EQ(dev->Allocate(), p1);
    WriteData(dev.get(), p1);
    dev->Free(p2);
    dev->Free(p1);  // chain now p1 -> p2, longer than the recorded [p1]
    dev->InjectCrashAfterWrites(2);  // both stamps land, the superblock not
    ASSERT_TRUE(dev->Sync().ok());
    ASSERT_TRUE(dev->crash_triggered());
    std::string image = CrashImage();

    auto re = OpenImage(backend, image);
    EXPECT_EQ(re->num_allocated(), 2u);  // p2's post-Sync free is ignored
    EXPECT_EQ(re->Allocate(), p1);
    std::remove(image.c_str());
  }
}

TEST_F(FileBlockDeviceCrashTest, SyncCutBeforeItsSuperblockStillOpens) {
  // Sync records free chain [P0 -> P1]; afterwards both are reused and
  // written, and P0 is freed again.  A second Sync stamps P0 as a
  // one-entry chain and is cut before its superblock: the recorded chain
  // (two entries) now ends early.  Recovery keeps P0, leaks P1.
  for (const std::string backend : {"file", "uring"}) {
    SCOPED_TRACE(backend);
    auto dev = Create(backend);
    PageId p0 = dev->Allocate();
    PageId p1 = dev->Allocate();
    dev->Allocate();  // p2 stays live
    dev->Free(p1);
    dev->Free(p0);
    ASSERT_TRUE(dev->Sync().ok());
    ASSERT_EQ(dev->Allocate(), p0);
    ASSERT_EQ(dev->Allocate(), p1);
    WriteData(dev.get(), p0);
    WriteData(dev.get(), p1);
    dev->Free(p0);
    dev->InjectCrashAfterWrites(1);  // P0's stamp lands, the superblock not
    ASSERT_TRUE(dev->Sync().ok());
    ASSERT_TRUE(dev->crash_triggered());
    std::string image = CrashImage();

    auto re = OpenImage(backend, image);
    EXPECT_EQ(re->num_allocated(), 2u);  // p1 leaked as live
    EXPECT_EQ(re->Allocate(), p0);       // the walkable prefix survives
    std::remove(image.c_str());
  }
}

TEST_F(FileBlockDeviceCrashTest, FreshPagePastTheRecordedCountReadsZeros) {
  // Sync records an empty device; afterwards page P0 is allocated and
  // written.  The crash image's extent holds P0's bytes past the recorded
  // page count, so a reopened device hands P0 out again as a fresh page:
  // it must read as zeros, and Sync must zero it on the file.
  for (const std::string backend : {"file", "uring"}) {
    SCOPED_TRACE(backend);
    auto dev = Create(backend);
    ASSERT_TRUE(dev->Sync().ok());
    const PageId p0 = dev->Allocate();
    WriteData(dev.get(), p0);
    std::string image = CrashImage();
    auto count_nonzero = [](const std::vector<std::byte>& buf) {
      return std::count_if(buf.begin(), buf.end(),
                           [](std::byte b) { return b != std::byte{0}; });
    };

    std::vector<std::byte> buf(512);
    {
      auto re = OpenImage(backend, image);
      EXPECT_EQ(re->num_allocated(), 0u);
      ASSERT_EQ(re->Allocate(), p0);
      ASSERT_TRUE(re->Read(p0, buf.data()).ok());
      EXPECT_EQ(count_nonzero(buf), 0);
      ASSERT_TRUE(re->Sync().ok());
    }
    auto synced = OpenImage(backend, image);
    EXPECT_EQ(synced->num_allocated(), 1u);
    ASSERT_TRUE(synced->Read(p0, buf.data()).ok());
    EXPECT_EQ(count_nonzero(buf), 0);
    std::remove(image.c_str());
  }
}

TEST_F(FileBlockDeviceTest, DirectIoRequestDegradesGracefully) {
  // tmpfs (the usual TempDir) rejects O_DIRECT; either outcome is fine as
  // long as the device works and reports what was negotiated.
  FileDeviceOptions opts;
  opts.block_size = 4096;
  opts.truncate = true;
  opts.direct_io = true;
  std::unique_ptr<FileBlockDevice> dev;
  ASSERT_TRUE(FileBlockDevice::Open(path_, opts, &dev).ok());
  PageId p = dev->Allocate();
  std::vector<std::byte> w(4096, std::byte{0x42}), r(4096);
  ASSERT_TRUE(dev->Write(p, w.data()).ok());
  ASSERT_TRUE(dev->Read(p, r.data()).ok());
  EXPECT_EQ(std::memcmp(w.data(), r.data(), 4096), 0);
  ASSERT_TRUE(dev->Sync().ok());
}

// The acceptance bar for the multi-device layer: an 8-thread bulk load
// onto a file device produces, page for page, the bytes a serial build
// produces — and the guarantee survives closing and reopening the file.
TEST_F(FileBlockDeviceTest, ParallelFileBuildByteIdenticalToSerialAfterReopen) {
  auto data =
      workload::MakeTigerLike(20000, workload::TigerRegion::kWestern, 5);
  std::string path2 = path_ + ".parallel";

  auto build = [&](const std::string& path, int threads) {
    FileDeviceOptions fopts;
    fopts.block_size = 1024;
    fopts.truncate = true;
    std::unique_ptr<FileBlockDevice> dev;
    AbortIfError(FileBlockDevice::Open(path, fopts, &dev));
    RTree<2> tree(dev.get());
    BuildOptions opts;
    opts.memory_bytes = 2u << 20;
    opts.threads = threads;
    AbortIfError(
        MakeBulkLoader<2>(LoaderKind::kPrTree, opts)->Build(dev.get(), data,
                                                            &tree));
    AbortIfError(PersistTree(tree, dev.get()));
  };
  build(path_, 1);
  build(path2, 8);

  // Reopen both from disk alone and compare the full page space.
  std::unique_ptr<FileBlockDevice> serial, parallel;
  AbortIfError(FileBlockDevice::Open(path_, FileDeviceOptions{}, &serial));
  AbortIfError(FileBlockDevice::Open(path2, FileDeviceOptions{}, &parallel));
  ASSERT_EQ(serial->num_allocated(), parallel->num_allocated());
  ASSERT_EQ(serial->peak_allocated(), parallel->peak_allocated());

  RTree<2> ts(serial.get()), tp(parallel.get());
  AbortIfError(AttachTree(serial.get(), &ts));
  AbortIfError(AttachTree(parallel.get(), &tp));
  ASSERT_EQ(ts.root(), tp.root());
  ASSERT_EQ(ts.height(), tp.height());
  ASSERT_EQ(ts.size(), tp.size());
  ASSERT_TRUE(ValidateTree(tp).ok());

  std::vector<std::byte> ba(1024), bb(1024);
  std::vector<PageId> stack{ts.root()};
  while (!stack.empty()) {
    PageId page = stack.back();
    stack.pop_back();
    AbortIfError(serial->Read(page, ba.data()));
    AbortIfError(parallel->Read(page, bb.data()));
    ASSERT_EQ(std::memcmp(ba.data(), bb.data(), 1024), 0)
        << "node page " << page << " differs after reopen";
    ConstNodeView<2> node(ba.data(), 1024);
    if (!node.is_leaf()) {
      for (int i = 0; i < node.count(); ++i) stack.push_back(node.GetId(i));
    }
  }

  // And the reopened trees answer queries identically.
  Rng rng(23);
  for (int q = 0; q < 10; ++q) {
    Rect2 w = RandomWindow<2>(&rng, 0.15);
    EXPECT_EQ(SortedIds(ts.QueryToVector(w)), SortedIds(tp.QueryToVector(w)));
  }
  std::remove(path2.c_str());
}

}  // namespace
}  // namespace prtree

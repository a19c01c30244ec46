// Crash-recovery contract of the update journal (io/journal.h,
// rtree/journaled_tree.h, docs/DURABILITY.md):
//
//   * Deterministic crash-point matrix: a dry run measures W, the exact
//     number of block-write attempts an op sequence makes; then for a
//     stride sample of every k <= W a forked child is "killed" after
//     exactly k writes (the device's crash switch silently drops the
//     rest) and the reopened index must validate clean and hold exactly
//     a committed PREFIX of the op sequence — with and without tearing
//     the final surviving write.
//   * Torn journal tail: a commit frame that lands partially is
//     truncated on recovery, everything before it survives.
//   * Commit-only format: each op appends exactly one frame and writes one
//     journal page; a delete miss writes nothing.  A dirty journal in the
//     older layout (record, intent and commit frames per op) still
//     recovers every commit.
//   * Torn data page: a shadow page torn under an uncommitted op never
//     becomes visible (copy-on-write keeps the committed root intact).
//   * Randomized property: 200+ seeded trials of random op streams X
//     random crash points, file and uring backends; recovery is always a
//     committed prefix and num_allocated is leak-free afterwards (the
//     failing seed is echoed).
//   * Demand-I/O identity: journaling charges only the meta counters —
//     the same op and query sequences produce byte-identical demand
//     stats and QueryStats with the journal on or off.
//   * persist.h integration: AttachTree refuses a device with unapplied
//     journal frames and accepts it again after recovery's checkpoint; an
//     index closed empty attaches and loads as an empty tree; a
//     journal-less index that fails validation, and a journaled index of
//     another dimension, are refused by Open without a byte changing; and
//     a journal-less reopen frees the region of a journal that a plain
//     PersistTree detached.

#include "rtree/journaled_tree.h"

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "rtree/persist.h"
#include "rtree/update.h"
#include "rtree/validate.h"

namespace prtree {
namespace {

struct Op {
  bool insert = true;
  Record2 rec;
};

Rect2 RectFor(uint32_t id) {
  std::mt19937 rng(id * 2654435761u + 7u);
  std::uniform_real_distribution<double> pos(0.0, 100.0);
  std::uniform_real_distribution<double> ext(0.5, 3.0);
  Rect2 r;
  r.lo = {pos(rng), pos(rng)};
  r.hi = {r.lo[0] + ext(rng), r.lo[1] + ext(rng)};
  return r;
}

// Deterministic op stream: mostly inserts of ids 1,2,3,…; now and then a
// delete of the oldest id still live.
std::vector<Op> MakeOps(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<Op> ops;
  ops.reserve(n);
  uint32_t next = 1, oldest = 1;
  for (size_t i = 0; i < n; ++i) {
    Op op;
    if (next - oldest > 4 && rng() % 4 == 0) {
      op.insert = false;
      op.rec = Record2{RectFor(oldest), oldest};
      ++oldest;
    } else {
      op.rec = Record2{RectFor(next), next};
      ++next;
    }
    ops.push_back(op);
  }
  return ops;
}

// The record set after applying the first `count` ops.
std::map<uint32_t, Rect2> ExpectedAfter(const std::vector<Op>& ops,
                                        size_t count) {
  std::map<uint32_t, Rect2> live;
  for (size_t i = 0; i < count; ++i) {
    if (ops[i].insert) {
      live[ops[i].rec.id] = ops[i].rec.rect;
    } else {
      live.erase(ops[i].rec.id);
    }
  }
  return live;
}

JournaledTree<2>::Options MakeOpts(const std::string& backend) {
  JournaledTree<2>::Options o;
  o.backend = backend;
  o.device.block_size = 1024;
  o.journal.region_pages = 16;
  return o;
}

void ApplyOps(JournaledTree<2>* t, const std::vector<Op>& ops) {
  for (const Op& op : ops) {
    if (op.insert) {
      ASSERT_TRUE(t->Insert(op.rec).ok());
    } else {
      bool deleted = false;
      ASSERT_TRUE(t->Delete(op.rec, &deleted).ok());
      ASSERT_TRUE(deleted);
    }
  }
}

// Forks a child that creates the index, arms the crash switch (drop every
// write after the k-th, optionally tearing the k-th) and applies the op
// stream.  Post-crash the child's in-memory state diverges from the dead
// disk, so it may abort — any termination is fine; the disk image is what
// is under test.
void RunCrashChild(const std::string& path, const std::string& backend,
                   const std::vector<Op>& ops, uint64_t k,
                   size_t tear_prefix) {
  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    std::remove(path.c_str());
    std::unique_ptr<JournaledTree<2>> t;
    if (!JournaledTree<2>::Create(path, MakeOpts(backend), &t).ok()) {
      _exit(3);
    }
    t->device()->InjectCrashAfterWrites(k, tear_prefix);
    // Post-crash the child may abort on its own diverged reads — that is
    // the simulated kill, not a failure; keep its noise out of the log.
    (void)!freopen("/dev/null", "w", stderr);
    for (const Op& op : ops) {
      if (op.insert) {
        if (!t->Insert(op.rec).ok()) _exit(0);
      } else {
        if (!t->Delete(op.rec).ok()) _exit(0);
      }
    }
    _exit(0);  // no destructors: the crash also killed the close path
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  if (WIFEXITED(wstatus)) {
    ASSERT_NE(WEXITSTATUS(wstatus), 3) << "child Create failed";
  }
}

// The file at `path`, byte for byte.
std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

size_t CountReachable(FileBlockDevice* dev, PageId root) {
  if (root == kInvalidPageId) return 0;
  std::vector<uint8_t> mark(dev->num_pages(), 0);
  std::vector<PageId> stack{root};
  std::vector<std::byte> buf(dev->block_size());
  size_t n = 0;
  while (!stack.empty()) {
    PageId p = stack.back();
    stack.pop_back();
    if (p >= mark.size() || mark[p] != 0) continue;
    mark[p] = 1;
    ++n;
    if (!dev->ReadMeta(p, buf.data()).ok()) continue;
    ConstNodeView<2> node(buf.data(), dev->block_size());
    if (!node.IsFormatted() || node.is_leaf()) continue;
    for (int i = 0; i < node.count(); ++i) stack.push_back(node.GetId(i));
  }
  return n;
}

// Reopens `path` and asserts the whole recovery contract: the tree holds
// exactly the record set of the committed prefix, ValidateTree passes
// (done inside Open), allocation is leak-free.  `context` is echoed on
// failure (seeds, k).
void CheckRecovered(const std::string& path, const std::string& backend,
                    const std::vector<Op>& ops, const std::string& context) {
  std::unique_ptr<JournaledTree<2>> t;
  JournaledTree<2>::RecoveryReport rep;
  Status st = JournaledTree<2>::Open(path, MakeOpts(backend), &t, &rep);
  ASSERT_TRUE(st.ok()) << context << ": Open: " << st.message();

  // The committed ops are a prefix of the applied stream (no op stream
  // here reaches a checkpoint, so every commit is this epoch's), and the
  // tree must hold exactly that prefix's record set.
  ASSERT_LE(rep.committed_ops, ops.size()) << context;
  auto expected = ExpectedAfter(ops, rep.committed_ops);
  Rect2 all;
  all.lo = {-10.0, -10.0};
  all.hi = {200.0, 200.0};
  std::map<uint32_t, Rect2> got;
  t->tree().Query(all, [&](const Record2& rec) { got[rec.id] = rec.rect; });
  ASSERT_EQ(got.size(), expected.size()) << context;
  EXPECT_EQ(t->tree().size(), expected.size()) << context;
  for (const auto& [id, rect] : expected) {
    auto it = got.find(id);
    ASSERT_NE(it, got.end()) << context << ": id " << id << " missing";
    EXPECT_TRUE(it->second == rect) << context << ": id " << id;
  }

  // Leak-free: after the recovery sweep + fresh checkpoint, allocation is
  // exactly live tree pages plus the journal region.
  const size_t reachable = CountReachable(
      t->device(), t->tree().empty() ? kInvalidPageId : t->tree().root());
  EXPECT_EQ(t->device()->num_allocated(),
            reachable + t->journal().journal_pages())
      << context << ": leaked pages";
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/prtree_crash_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "." + std::to_string(static_cast<long>(getpid())) + ".idx";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Measures W: the block-write attempts the full op stream makes after
  // Create (deterministic — the matrix crashes at indices below it).
  uint64_t DryRunWrites(const std::string& backend,
                        const std::vector<Op>& ops) {
    std::remove(path_.c_str());
    std::unique_ptr<JournaledTree<2>> t;
    AbortIfError(JournaledTree<2>::Create(path_, MakeOpts(backend), &t));
    const uint64_t before = t->device()->write_attempts();
    for (const Op& op : ops) {
      if (op.insert) {
        AbortIfError(t->Insert(op.rec));
      } else {
        AbortIfError(t->Delete(op.rec));
      }
    }
    const uint64_t w = t->device()->write_attempts() - before;
    t.reset();
    std::remove(path_.c_str());
    return w;
  }

  void RunMatrix(const std::string& backend) {
    const std::vector<Op> ops = MakeOps(/*seed=*/1234, /*n=*/48);
    const uint64_t w = DryRunWrites(backend, ops);
    ASSERT_GT(w, 0u);
    // Stride-sample ~40 crash points (plus k=0 and k=W); every 5th point
    // also tears the final surviving write mid-block.
    const uint64_t stride = std::max<uint64_t>(1, w / 40);
    size_t point = 0;
    for (uint64_t k = 0; k <= w; k += (k == 0 ? 1 : stride), ++point) {
      const size_t tear =
          point % 5 == 4 ? size_t{137} : BlockDevice::kNoTear;
      RunCrashChild(path_, backend, ops, k, tear);
      CheckRecovered(path_, backend, ops,
                     backend + " crash at k=" + std::to_string(k) +
                         (tear == BlockDevice::kNoTear ? "" : " (torn)"));
    }
  }

  std::string path_;
};

TEST_F(CrashRecoveryTest, DeterministicCrashMatrixFileBackend) {
  RunMatrix("file");
}

TEST_F(CrashRecoveryTest, DeterministicCrashMatrixUringBackend) {
  RunMatrix("uring");
}

TEST_F(CrashRecoveryTest, RandomizedRecoveryProperty) {
  constexpr int kTrials = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    const uint64_t seed = 0xC0FFEEu + static_cast<uint64_t>(trial);
    std::mt19937_64 rng(seed);
    const size_t n = 20 + rng() % 60;
    const std::vector<Op> ops = MakeOps(seed, n);
    const uint64_t k = rng() % 400;  // may exceed W: clean completion
    const size_t tear =
        rng() % 3 == 0 ? 1 + rng() % 1000 : BlockDevice::kNoTear;
    const std::string backend = trial % 4 == 3 ? "uring" : "file";
    RunCrashChild(path_, backend, ops, k, tear);
    CheckRecovered(path_, backend, ops,
                   "seed=" + std::to_string(seed) + " backend=" + backend +
                       " k=" + std::to_string(k));
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "replay with seed=" << seed;
    }
  }
}

// On both backends: uring's commit flush goes through WriteBatch, whose
// ordered scalar loop carries the armed tear to the page's pwrite.
TEST_F(CrashRecoveryTest, TornJournalTailIsTruncated) {
  for (const std::string backend : {"file", "uring"}) {
    SCOPED_TRACE(backend);
    auto opts = MakeOpts(backend);
    opts.checkpoint_on_close = false;
    const std::vector<Op> ops = MakeOps(/*seed=*/99, /*n=*/7);
    {
      std::unique_ptr<JournaledTree<2>> t;
      ASSERT_TRUE(JournaledTree<2>::Create(path_, opts, &t).ok());
      std::vector<Op> first(ops.begin(), ops.begin() + 6);
      ApplyOps(t.get(), first);
      ASSERT_EQ(t->journal().committed_ops(), 6u);

      // Tear the 7th op's commit write 20 bytes into its commit frame: a
      // torn journal tail.
      const size_t tail = t->journal().tail_bytes();
      t->device()->InjectTornWrite(t->journal().tail_page(), tail + 20);
      ApplyOps(t.get(), {ops[6]});
    }  // no close checkpoint: the dirty journal survives as-is

    std::unique_ptr<JournaledTree<2>> t;
    JournaledTree<2>::RecoveryReport rep;
    ASSERT_TRUE(
        JournaledTree<2>::Open(path_, MakeOpts(backend), &t, &rep).ok());
    EXPECT_EQ(rep.committed_ops, 6u);
    auto expected = ExpectedAfter(ops, 6);
    EXPECT_EQ(t->tree().size(), expected.size());
  }
}

// Each journaled insert or delete appends one frame, its commit, and
// writes one journal page, also when the commit moves on to the next
// frame page (25 commits fill a 1 KB page).  A delete miss mutates
// nothing, so it appends and writes nothing.
TEST_F(CrashRecoveryTest, EachOpAppendsOneCommitFrame) {
  for (const std::string backend : {"file", "uring"}) {
    SCOPED_TRACE(backend);
    const std::vector<Op> ops = MakeOps(/*seed=*/41, /*n=*/60);
    std::unique_ptr<JournaledTree<2>> t;
    ASSERT_TRUE(JournaledTree<2>::Create(path_, MakeOpts(backend), &t).ok());
    const JournalWriter& journal = t->journal();
    for (size_t i = 0; i < ops.size(); ++i) {
      const uint64_t seq = journal.next_seq();
      const uint64_t committed = journal.committed_ops();
      const uint64_t meta_writes = t->device()->stats().meta_writes;
      ApplyOps(t.get(), {ops[i]});
      EXPECT_EQ(journal.next_seq(), seq + 1) << "op " << i;
      EXPECT_EQ(journal.committed_ops(), committed + 1) << "op " << i;
      EXPECT_EQ(t->device()->stats().meta_writes, meta_writes + 1)
          << "op " << i;
    }

    const uint64_t seq = journal.next_seq();
    const uint64_t committed = journal.committed_ops();
    const uint64_t meta_writes = t->device()->stats().meta_writes;
    bool deleted = true;
    ASSERT_TRUE(t->Delete(Record2{ops[0].rec.rect, 999999}, &deleted).ok());
    EXPECT_FALSE(deleted);
    EXPECT_EQ(journal.next_seq(), seq);
    EXPECT_EQ(journal.committed_ops(), committed);
    EXPECT_EQ(t->device()->stats().meta_writes, meta_writes);
  }
}

// Appends one frame in the journal's frame layout at `*off` of `page`.
void PutFrame(std::vector<std::byte>* page, size_t* off, uint64_t seq,
              JournalFrameType type, uint32_t aux, const void* payload,
              size_t payload_len) {
  using journal_internal::FrameHeader;
  const size_t len = (sizeof(FrameHeader) + payload_len + 7) / 8 * 8;
  ASSERT_LE(*off + len, page->size());
  FrameHeader fh{0, static_cast<uint32_t>(len), seq,
                 static_cast<uint32_t>(type), aux};
  std::byte* at = page->data() + *off;
  std::memcpy(at, &fh, sizeof(fh));
  std::memcpy(at + sizeof(fh), payload, payload_len);
  fh.crc = JournalCrc32(at + sizeof(uint32_t), len - sizeof(uint32_t));
  std::memcpy(at, &fh.crc, sizeof(fh.crc));
  *off += len;
}

// Older writers logged three frames per op: the op's record, an intent
// frame naming the pages it shadowed out, then its commit.  A dirty
// journal they left, ending in a record frame whose commit never landed,
// recovers every commit: the scan checks and skips the other frames.
TEST_F(CrashRecoveryTest, OpenRecoversAJournalInTheOlderThreeFrameLayout) {
  for (const std::string backend : {"file", "uring"}) {
    SCOPED_TRACE(backend);
    auto opts = MakeOpts(backend);
    opts.checkpoint_on_close = false;
    const std::vector<Op> ops = MakeOps(/*seed=*/3, /*n=*/6);
    {
      std::unique_ptr<JournaledTree<2>> t;
      ASSERT_TRUE(JournaledTree<2>::Create(path_, opts, &t).ok());
      const PageId frame_page = t->journal().tail_page();
      std::vector<std::byte> page(t->device()->block_size(), std::byte{0});
      const journal_internal::PageHeader ph{journal_internal::kPageMagic,
                                            t->journal().epoch(), 0, 0};
      std::memcpy(page.data(), &ph, sizeof(ph));
      size_t off = sizeof(ph);
      uint64_t seq = t->journal().next_seq();

      auto put_record = [&](const Op& op) {
        struct {
          double lo[2], hi[2];
          uint32_t id, pad;
        } rec{{op.rec.rect.lo[0], op.rec.rect.lo[1]},
              {op.rec.rect.hi[0], op.rec.rect.hi[1]},
              op.rec.id,
              0};
        PutFrame(&page, &off, seq++,
                 op.insert ? JournalFrameType::kInsert
                           : JournalFrameType::kDelete,
                 /*aux=*/2, &rec, sizeof(rec));
      };
      for (const Op& op : ops) {
        const PageId old_root = t->tree().root();
        ApplyOps(t.get(), {op});
        put_record(op);
        if (old_root != kInvalidPageId) {
          PutFrame(&page, &off, seq++, JournalFrameType::kIntent, /*aux=*/1,
                   &old_root, sizeof(old_root));
        }
        const journal_internal::CommitPayload cp{
            t->tree().root(), static_cast<int32_t>(t->tree().height()),
            t->tree().size()};
        PutFrame(&page, &off, seq++, JournalFrameType::kCommit, /*aux=*/0,
                 &cp, sizeof(cp));
      }
      put_record(Op{true, Record2{RectFor(777), 777}});  // never committed
      ASSERT_TRUE(t->device()->WriteMeta(frame_page, page.data()).ok());
    }  // no close checkpoint: the dirty journal survives as-is

    std::unique_ptr<JournaledTree<2>> t;
    JournaledTree<2>::RecoveryReport rep;
    ASSERT_TRUE(
        JournaledTree<2>::Open(path_, MakeOpts(backend), &t, &rep).ok());
    EXPECT_TRUE(rep.recovered);
    EXPECT_EQ(rep.committed_ops, ops.size());
    const auto expected = ExpectedAfter(ops, ops.size());
    std::map<uint32_t, Rect2> got;
    t->tree().Query(t->tree().Mbr(),
                    [&](const Record2& rec) { got[rec.id] = rec.rect; });
    EXPECT_TRUE(got == expected);
    EXPECT_EQ(t->tree().size(), expected.size());
    const size_t reachable = CountReachable(t->device(), t->tree().root());
    EXPECT_EQ(t->device()->num_allocated(),
              reachable + t->journal().journal_pages());
  }
}

TEST_F(CrashRecoveryTest, TornDataPageUnderUncommittedOpStaysInvisible) {
  auto opts = MakeOpts("file");
  opts.checkpoint_on_close = false;
  const std::vector<Op> ops = MakeOps(/*seed=*/7, /*n=*/6);
  {
    std::unique_ptr<JournaledTree<2>> t;
    ASSERT_TRUE(JournaledTree<2>::Create(path_, opts, &t).ok());
    std::vector<Op> first(ops.begin(), ops.begin() + 5);
    ApplyOps(t.get(), first);

    // The 6th op's first block write — a copy-on-write shadow page —
    // lands torn and everything after it (its commit included) is lost.
    t->device()->InjectCrashAfterWrites(1, /*tear_prefix_bytes=*/100);
    ApplyOps(t.get(), {ops[5]});
  }

  std::unique_ptr<JournaledTree<2>> t;
  JournaledTree<2>::RecoveryReport rep;
  ASSERT_TRUE(JournaledTree<2>::Open(path_, MakeOpts("file"), &t, &rep).ok());
  EXPECT_EQ(rep.committed_ops, 5u);
  auto expected = ExpectedAfter(ops, 5);
  EXPECT_EQ(t->tree().size(), expected.size());
}

TEST_F(CrashRecoveryTest, CleanCloseReopensWithoutRecovery) {
  const std::vector<Op> ops = MakeOps(/*seed=*/5, /*n=*/30);
  {
    std::unique_ptr<JournaledTree<2>> t;
    ASSERT_TRUE(JournaledTree<2>::Create(path_, MakeOpts("file"), &t).ok());
    ApplyOps(t.get(), ops);
  }  // destructor checkpoints
  std::unique_ptr<JournaledTree<2>> t;
  JournaledTree<2>::RecoveryReport rep;
  ASSERT_TRUE(JournaledTree<2>::Open(path_, MakeOpts("file"), &t, &rep).ok());
  EXPECT_FALSE(rep.recovered);
  EXPECT_EQ(rep.committed_ops, 0u);
  EXPECT_EQ(t->tree().size(), ExpectedAfter(ops, ops.size()).size());
}

TEST_F(CrashRecoveryTest, AttachTreeRefusesDirtyJournalAcceptsCleanOne) {
  auto opts = MakeOpts("file");
  opts.checkpoint_on_close = false;
  const std::vector<Op> ops = MakeOps(/*seed=*/11, /*n=*/5);
  {
    std::unique_ptr<JournaledTree<2>> t;
    ASSERT_TRUE(JournaledTree<2>::Create(path_, opts, &t).ok());
    ApplyOps(t.get(), ops);
  }  // journal left dirty

  {
    FileDeviceOptions dopts;
    dopts.must_exist = true;
    std::unique_ptr<FileBlockDevice> dev;
    ASSERT_TRUE(FileBlockDevice::Open(path_, dopts, &dev).ok());
    RTree<2> tree(dev.get());
    Status st = AttachTree(dev.get(), &tree);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
  }
  // LoadTree attaches through AttachTree, so it refuses the same file.
  {
    MemoryBlockDevice mem(1024);
    RTree<2> loaded(&mem);
    EXPECT_EQ(LoadTree(path_, &loaded).code(), StatusCode::kCorruption);
    EXPECT_EQ(mem.peak_allocated(), 0u);
  }

  // Recovery + clean close checkpoint the journal; AttachTree is happy
  // again (the anchor epoch matches and nothing is pending).
  {
    std::unique_ptr<JournaledTree<2>> t;
    ASSERT_TRUE(JournaledTree<2>::Open(path_, MakeOpts("file"), &t).ok());
  }
  FileDeviceOptions dopts;
  dopts.must_exist = true;
  std::unique_ptr<FileBlockDevice> dev;
  ASSERT_TRUE(FileBlockDevice::Open(path_, dopts, &dev).ok());
  RTree<2> tree(dev.get());
  ASSERT_TRUE(AttachTree(dev.get(), &tree).ok());
  EXPECT_EQ(tree.size(), ExpectedAfter(ops, ops.size()).size());
  EXPECT_TRUE(ValidateTree(tree).ok());
  MemoryBlockDevice mem(1024);
  RTree<2> loaded(&mem);
  ASSERT_TRUE(LoadTree(path_, &loaded).ok());
  EXPECT_EQ(loaded.size(), tree.size());
}

// A clean close of an empty journaled index, fresh or emptied by its
// ops, records root kInvalidPageId at height 0 with no records.
// AttachTree and LoadTree take that as the empty tree it is; the same root
// under a record that claims records stays Corruption.
TEST_F(CrashRecoveryTest, CleanlyClosedEmptyIndexAttachesAsAnEmptyTree) {
  const Record2 rec{RectFor(1), 1};
  for (const std::string backend : {"file", "uring"}) {
    for (const bool churn : {false, true}) {
      SCOPED_TRACE(backend + (churn ? " after an insert and its delete"
                                    : " fresh"));
      {
        std::unique_ptr<JournaledTree<2>> t;
        ASSERT_TRUE(
            JournaledTree<2>::Create(path_, MakeOpts(backend), &t).ok());
        if (churn) ApplyOps(t.get(), {Op{true, rec}, Op{false, rec}});
      }  // clean close
      FileDeviceOptions dopts;
      dopts.must_exist = true;
      {
        std::unique_ptr<FileBlockDevice> dev;
        ASSERT_TRUE(OpenFileBackedDevice(backend, path_, dopts, &dev).ok());
        RTree<2> tree(dev.get());
        const Status st = AttachTree(dev.get(), &tree);
        ASSERT_TRUE(st.ok()) << st.ToString();
        EXPECT_TRUE(tree.empty());
        EXPECT_EQ(tree.size(), 0u);
      }
      MemoryBlockDevice mem(1024);
      RTree<2> loaded(&mem);
      ASSERT_TRUE(LoadTree(path_, &loaded).ok());
      EXPECT_TRUE(loaded.empty());
      EXPECT_EQ(mem.peak_allocated(), 0u);

      // The same record claiming 5 records, then a height of 1.
      for (const bool bad_height : {false, true}) {
        {
          std::unique_ptr<FileBlockDevice> dev;
          ASSERT_TRUE(
              OpenFileBackedDevice(backend, path_, dopts, &dev).ok());
          std::byte meta[FileBlockDevice::kUserMetaCapacity];
          const size_t len = dev->GetUserMeta(meta, sizeof(meta));
          persist_internal::TreeMetaRecord rec_meta{};
          std::memcpy(&rec_meta, meta, sizeof(rec_meta));
          ASSERT_EQ(rec_meta.root, kInvalidPageId);
          rec_meta.record_count = bad_height ? 0 : 5;
          rec_meta.height = bad_height ? 1 : 0;
          std::memcpy(meta, &rec_meta, sizeof(rec_meta));
          ASSERT_TRUE(dev->SetUserMeta(meta, len).ok());
          ASSERT_TRUE(dev->Sync().ok());
        }
        std::unique_ptr<FileBlockDevice> dev;
        ASSERT_TRUE(OpenFileBackedDevice(backend, path_, dopts, &dev).ok());
        RTree<2> tree(dev.get());
        EXPECT_EQ(AttachTree(dev.get(), &tree).code(),
                  StatusCode::kCorruption);
        EXPECT_TRUE(tree.empty());
      }
    }
  }
}

// A journaled index cycled through plain in-place updates (AttachTree,
// update, PersistTree, which detaches the journal) and journaled reopens:
// each journal-less Open frees the detached journal's region, so
// num_allocated stays live tree pages plus the live journal.
TEST_F(CrashRecoveryTest, JournalLessOpenFreesADetachedJournal) {
  for (const std::string backend : {"file", "uring"}) {
    SCOPED_TRACE(backend);
    {
      std::unique_ptr<JournaledTree<2>> t;
      ASSERT_TRUE(JournaledTree<2>::Create(path_, MakeOpts(backend), &t).ok());
      for (uint32_t id = 1; id <= 500; ++id) {
        ASSERT_TRUE(t->Insert(Record2{RectFor(id), id}).ok());
      }
    }  // clean close
    for (uint32_t cycle = 1; cycle <= 3; ++cycle) {
      SCOPED_TRACE(cycle);
      {
        FileDeviceOptions dopts;
        dopts.must_exist = true;
        std::unique_ptr<FileBlockDevice> dev;
        ASSERT_TRUE(OpenFileBackedDevice(backend, path_, dopts, &dev).ok());
        RTree<2> tree(dev.get());
        ASSERT_TRUE(AttachTree(dev.get(), &tree).ok());
        RTreeUpdater<2> upd(&tree);
        upd.Insert(Record2{RectFor(1000 + cycle), 1000 + cycle});
        ASSERT_TRUE(PersistTree(tree, dev.get()).ok());
      }
      std::unique_ptr<JournaledTree<2>> t;
      JournaledTree<2>::RecoveryReport rep;
      ASSERT_TRUE(
          JournaledTree<2>::Open(path_, MakeOpts(backend), &t, &rep).ok());
      EXPECT_EQ(t->tree().size(), 500u + cycle);
      EXPECT_EQ(rep.swept_pages, t->journal().journal_pages());
      EXPECT_EQ(t->device()->num_allocated(),
                CountReachable(t->device(), t->tree().root()) +
                    t->journal().journal_pages());
    }
  }
}

TEST_F(CrashRecoveryTest, FailedUpgradeOpenLeavesFileUnchanged) {
  // A plain, journal-less index whose root's first entry MBR no longer
  // covers its child: AttachTree accepts it, ValidateTree does not.
  {
    FileDeviceOptions dopts;
    dopts.block_size = 1024;
    dopts.truncate = true;
    std::unique_ptr<FileBlockDevice> dev;
    ASSERT_TRUE(FileBlockDevice::Open(path_, dopts, &dev).ok());
    RTree<2> tree(dev.get());
    RTreeUpdater<2> upd(&tree);
    for (uint32_t id = 1; id <= 400; ++id) {
      upd.Insert(Record2{RectFor(id), id});
    }
    ASSERT_GE(tree.height(), 1);
    std::vector<std::byte> buf(dev->block_size());
    ASSERT_TRUE(dev->Read(tree.root(), buf.data()).ok());
    NodeView<2> root(buf.data(), buf.size());
    Rect2 r = root.GetRect(0);
    r.hi = r.lo;  // collapse
    root.SetEntry(0, r, root.GetId(0));
    ASSERT_TRUE(dev->Write(tree.root(), buf.data()).ok());
    ASSERT_TRUE(PersistTree(tree, dev.get()).ok());
  }
  const std::string before = FileBytes(path_);
  ASSERT_FALSE(before.empty());

  std::unique_ptr<JournaledTree<2>> t;
  Status st = JournaledTree<2>::Open(path_, MakeOpts("file"), &t);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_EQ(t, nullptr);
  // Refused before the bootstrap checkpoint: no journal region, no anchor.
  const std::string after = FileBytes(path_);
  EXPECT_EQ(after.size(), before.size());
  EXPECT_TRUE(after == before) << "Open modified a file it refused";
}

TEST_F(CrashRecoveryTest, OpenWithTheWrongDimensionLeavesFileUnchanged) {
  {
    std::unique_ptr<JournaledTree<2>> t;
    ASSERT_TRUE(JournaledTree<2>::Create(path_, MakeOpts("file"), &t).ok());
    ApplyOps(t.get(), MakeOps(/*seed=*/17, /*n=*/40));
  }  // destructor checkpoints: a journaled 2-D index
  const std::string before = FileBytes(path_);
  ASSERT_FALSE(before.empty());

  JournaledTree<3>::Options opts3;
  opts3.backend = "file";
  opts3.device.block_size = 1024;
  opts3.journal.region_pages = 16;
  std::unique_ptr<JournaledTree<3>> t3;
  Status st = JournaledTree<3>::Open(path_, opts3, &t3);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(t3, nullptr);
  EXPECT_TRUE(FileBytes(path_) == before) << "Open modified a file it refused";
}

TEST_F(CrashRecoveryTest, DemandCountersIdenticalWithJournalOnOrOff) {
  const std::vector<Op> ops = MakeOps(/*seed=*/31, /*n=*/80);
  const std::string path_off = path_ + ".off";
  std::remove(path_off.c_str());

  // Journal OFF: a plain in-place updater on a bare file device.
  FileDeviceOptions dopts;
  dopts.block_size = 1024;
  dopts.truncate = true;
  std::unique_ptr<FileBlockDevice> dev_off;
  ASSERT_TRUE(FileBlockDevice::Open(path_off, dopts, &dev_off).ok());
  RTree<2> tree_off(dev_off.get());
  RTreeUpdater<2> up_off(&tree_off);
  dev_off->ResetStats();

  // Journal ON: the full journaled stack.
  std::unique_ptr<JournaledTree<2>> t;
  ASSERT_TRUE(JournaledTree<2>::Create(path_, MakeOpts("file"), &t).ok());
  t->device()->ResetStats();

  for (const Op& op : ops) {
    if (op.insert) {
      up_off.Insert(op.rec);
      ASSERT_TRUE(t->Insert(op.rec).ok());
    } else {
      ASSERT_TRUE(up_off.Delete(op.rec));
      bool deleted = false;
      ASSERT_TRUE(t->Delete(op.rec, &deleted).ok() && deleted);
    }
  }

  // Identical queries on both trees.
  QueryStats qs_off, qs_on;
  for (uint32_t q = 0; q < 5; ++q) {
    Rect2 w;
    w.lo = {q * 15.0, q * 10.0};
    w.hi = {q * 15.0 + 30.0, q * 10.0 + 40.0};
    size_t hits_off = 0, hits_on = 0;
    qs_off += tree_off.Query(w, [&](const Record2&) { ++hits_off; });
    qs_on += t->tree().Query(w, [&](const Record2&) { ++hits_on; });
    EXPECT_EQ(hits_off, hits_on) << "window " << q;
  }
  EXPECT_EQ(qs_off.nodes_visited, qs_on.nodes_visited);
  EXPECT_EQ(qs_off.internal_visited, qs_on.internal_visited);
  EXPECT_EQ(qs_off.leaves_visited, qs_on.leaves_visited);
  EXPECT_EQ(qs_off.results, qs_on.results);

  // The paper's demand metric is byte-identical; the journal's traffic
  // shows up only in the meta counters.
  const IoStats off = dev_off->stats();
  const IoStats on = t->device()->stats();
  EXPECT_EQ(off.reads, on.reads);
  EXPECT_EQ(off.writes, on.writes);
  EXPECT_EQ(off.Total(), on.Total());
  EXPECT_EQ(off.meta_writes, 0u);
  EXPECT_GT(on.meta_writes, 0u);

  std::remove(path_off.c_str());
}

}  // namespace
}  // namespace prtree

// crash_torture: subprocess crash/recovery driver for the update journal.
//
// Each trial forks a child that runs a multi-threaded journaled update
// storm against a file-backed JournaledTree, SIGKILLs it at a random
// moment, then reopens the index in the parent and checks the full
// durability contract:
//
//   1. Open() succeeds and ValidateTree passes (structural invariants).
//   2. Committed-prefix semantics: thread t inserts ids t*kStride+0,1,2,…
//      in order and deletes its own oldest live id now and then, so the
//      set of t's ids present after recovery must be one contiguous
//      window [d, n) — any gap means a non-prefix of t's op sequence
//      survived.
//   3. Every surviving record's rectangle matches the deterministic
//      function of its id (no torn data pages leaked into the tree).
//   4. Leak-free space accounting: num_allocated == reachable tree pages
//      + journal region pages, exactly.
//
// --journal=off runs a no-kill baseline leg (storm to completion, clean
// close, reopen) to separate harness bugs from recovery bugs.
//
// Exit status: 0 all trials passed, 1 a check failed (the seed and trial
// are printed so the run can be replayed).

#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "rtree/journaled_tree.h"

namespace {

using prtree::ConstNodeView;
using prtree::JournaledTree;
using prtree::kInvalidPageId;
using prtree::PageId;
using prtree::Record2;
using prtree::Rect2;
using prtree::Status;

// Ids are partitioned per thread so the prefix check can group them.
constexpr uint32_t kStride = 1u << 20;

Rect2 RectFor(uint32_t id) {
  // Deterministic, collision-friendly little boxes over [0, 1000)^2.
  std::mt19937 rng(id * 2654435761u + 12345u);
  std::uniform_real_distribution<double> pos(0.0, 1000.0);
  std::uniform_real_distribution<double> ext(0.1, 4.0);
  Rect2 r;
  r.lo = {pos(rng), pos(rng)};
  r.hi = {r.lo[0] + ext(rng), r.lo[1] + ext(rng)};
  return r;
}

struct Config {
  std::string backend = "file";
  std::string path = "/tmp/prtree_crash_torture.idx";
  int threads = 8;
  int trials = 8;
  int ops_per_thread = 4000;
  uint64_t seed = 42;
  bool journal = true;
  bool smoke = false;
  int max_kill_ms = 400;
};

JournaledTree<2>::Options TreeOptions(const Config& cfg) {
  JournaledTree<2>::Options o;
  o.backend = cfg.backend;
  o.device.block_size = 4096;
  return o;
}

// ---- child ----------------------------------------------------------------

[[noreturn]] void RunChild(const Config& cfg, uint64_t trial_seed,
                           int ready_fd) {
  std::unique_ptr<JournaledTree<2>> t;
  Status st = JournaledTree<2>::Create(cfg.path, TreeOptions(cfg), &t);
  if (!st.ok()) {
    std::fprintf(stderr, "child: Create failed: %s\n", st.message().c_str());
    _exit(3);
  }
  // Tell the parent the storm is about to start, then run until killed.
  char ok = 'R';
  if (write(ready_fd, &ok, 1) != 1) _exit(3);
  close(ready_fd);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(cfg.threads));
  for (int tid = 0; tid < cfg.threads; ++tid) {
    threads.emplace_back([&, tid] {
      std::mt19937_64 rng(trial_seed * 977u + static_cast<uint64_t>(tid));
      const uint32_t base = static_cast<uint32_t>(tid) * kStride;
      uint32_t next = 0;     // next id to insert
      uint32_t oldest = 0;   // oldest id still live
      for (int op = 0; op < cfg.ops_per_thread; ++op) {
        const bool del = next - oldest > 4 && rng() % 4 == 0;
        if (del) {
          const uint32_t id = base + oldest;
          bool deleted = false;
          if (!t->Delete(Record2{RectFor(id), id}, &deleted).ok() ||
              !deleted) {
            _exit(4);  // a committed insert went missing mid-run
          }
          ++oldest;
        } else {
          const uint32_t id = base + next;
          if (!t->Insert(Record2{RectFor(id), id}).ok()) _exit(4);
          ++next;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  if (cfg.journal) {
    // Completed without being killed: leave the journal dirty on purpose
    // (exit without destructors) so the parent still exercises recovery.
    _exit(0);
  }
  t.reset();  // clean close: checkpoint + superblock write-out
  _exit(0);
}

// ---- parent checks --------------------------------------------------------

size_t CountReachablePages(prtree::FileBlockDevice* dev, PageId root) {
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

bool CheckRecovered(const Config& cfg, uint64_t trial_seed) {
  JournaledTree<2>::Options o = TreeOptions(cfg);
  std::unique_ptr<JournaledTree<2>> t;
  JournaledTree<2>::RecoveryReport rep;
  Status st = JournaledTree<2>::Open(cfg.path, o, &t, &rep);
  if (!st.ok()) {
    std::fprintf(stderr, "FAIL(seed=%llu): Open: %s\n",
                 static_cast<unsigned long long>(trial_seed),
                 st.message().c_str());
    return false;
  }

  // Committed-prefix + data-integrity checks over a full-space query.
  Rect2 all;
  all.lo = {-1.0, -1.0};
  all.hi = {1100.0, 1100.0};
  std::vector<std::vector<uint32_t>> per_thread(
      static_cast<size_t>(cfg.threads));
  bool rects_ok = true;
  size_t emitted = 0;
  t->tree().Query(all, [&](const Record2& rec) {
    ++emitted;
    const uint32_t tid = rec.id / kStride;
    if (tid < per_thread.size()) per_thread[tid].push_back(rec.id % kStride);
    if (!(rec.rect == RectFor(rec.id))) rects_ok = false;
  });
  if (!rects_ok) {
    std::fprintf(stderr, "FAIL(seed=%llu): recovered rect != RectFor(id)\n",
                 static_cast<unsigned long long>(trial_seed));
    return false;
  }
  if (emitted != t->tree().size()) {
    std::fprintf(stderr,
                 "FAIL(seed=%llu): tree.size()=%llu but query emitted %zu\n",
                 static_cast<unsigned long long>(trial_seed),
                 static_cast<unsigned long long>(t->tree().size()), emitted);
    return false;
  }
  for (int tid = 0; tid < cfg.threads; ++tid) {
    auto& ids = per_thread[static_cast<size_t>(tid)];
    std::sort(ids.begin(), ids.end());
    for (size_t i = 0; i + 1 < ids.size(); ++i) {
      if (ids[i + 1] != ids[i] + 1) {
        std::fprintf(stderr,
                     "FAIL(seed=%llu): thread %d ids not contiguous "
                     "(%u then %u) — non-prefix recovery\n",
                     static_cast<unsigned long long>(trial_seed), tid,
                     ids[i], ids[i + 1]);
        return false;
      }
    }
  }

  // Leak check: after recovery's sweep + fresh checkpoint, every allocated
  // page is either a live tree page or part of the new journal region.
  const size_t reachable = CountReachablePages(
      t->device(), t->tree().empty() ? kInvalidPageId : t->tree().root());
  const size_t expected = reachable + t->journal().journal_pages();
  if (t->device()->num_allocated() != expected) {
    std::fprintf(stderr,
                 "FAIL(seed=%llu): num_allocated=%zu, want %zu "
                 "(%zu tree + %zu journal) — leaked pages\n",
                 static_cast<unsigned long long>(trial_seed),
                 t->device()->num_allocated(), expected, reachable,
                 t->journal().journal_pages());
    return false;
  }
  return true;
}

int RunTrial(const Config& cfg, int trial) {
  const uint64_t trial_seed = cfg.seed + static_cast<uint64_t>(trial);
  int pipefd[2];
  if (pipe(pipefd) != 0) {
    std::perror("pipe");
    return 1;
  }
  pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    close(pipefd[0]);
    RunChild(cfg, trial_seed, pipefd[1]);
  }
  close(pipefd[1]);
  char ready = 0;
  if (read(pipefd[0], &ready, 1) != 1 || ready != 'R') {
    std::fprintf(stderr, "child never came up (trial %d)\n", trial);
    close(pipefd[0]);
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    return 1;
  }
  close(pipefd[0]);

  if (cfg.journal) {
    std::mt19937_64 rng(trial_seed ^ 0x9E3779B97F4A7C15ull);
    const int us = static_cast<int>(
        rng() % (static_cast<uint64_t>(cfg.max_kill_ms) * 1000 + 1));
    usleep(static_cast<useconds_t>(us));
    kill(pid, SIGKILL);
  }
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  if (!cfg.journal &&
      (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0)) {
    std::fprintf(stderr, "baseline child failed (trial %d, status %d)\n",
                 trial, wstatus);
    return 1;
  }
  if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) >= 3) {
    std::fprintf(stderr, "child reported a mid-run failure (trial %d)\n",
                 trial);
    return 1;
  }
  return CheckRecovered(cfg, trial_seed) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--backend=", 10) == 0) {
      cfg.backend = arg + 10;
    } else if (std::strncmp(arg, "--path=", 7) == 0) {
      cfg.path = arg + 7;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      cfg.threads = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--trials=", 9) == 0) {
      cfg.trials = std::atoi(arg + 9);
    } else if (std::strncmp(arg, "--ops-per-thread=", 17) == 0) {
      cfg.ops_per_thread = std::atoi(arg + 17);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      cfg.seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--max-kill-ms=", 14) == 0) {
      cfg.max_kill_ms = std::atoi(arg + 14);
    } else if (std::strcmp(arg, "--journal=on") == 0) {
      cfg.journal = true;
    } else if (std::strcmp(arg, "--journal=off") == 0) {
      cfg.journal = false;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      cfg.smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: crash_torture [--backend=file|uring] [--path=P] "
                   "[--threads=N] [--trials=N] [--ops-per-thread=N] "
                   "[--seed=S] [--max-kill-ms=N] [--journal=on|off] "
                   "[--smoke]\n");
      return 2;
    }
  }
  if (cfg.smoke) {
    cfg.trials = std::min(cfg.trials, 3);
    cfg.threads = std::min(cfg.threads, 4);
    cfg.ops_per_thread = std::min(cfg.ops_per_thread, 800);
    cfg.max_kill_ms = std::min(cfg.max_kill_ms, 120);
  }
  if (cfg.threads < 1 || cfg.trials < 1 || cfg.ops_per_thread < 1) {
    std::fprintf(stderr, "--threads/--trials/--ops-per-thread must be >= 1\n");
    return 2;
  }

  for (int trial = 0; trial < cfg.trials; ++trial) {
    if (int rc = RunTrial(cfg, trial); rc != 0) {
      std::fprintf(stderr, "crash_torture: trial %d FAILED (seed=%llu)\n",
                   trial,
                   static_cast<unsigned long long>(
                       cfg.seed + static_cast<uint64_t>(trial)));
      return rc;
    }
  }
  std::remove(cfg.path.c_str());
  std::printf("crash_torture: %d/%d trials passed (backend=%s, journal=%s)\n",
              cfg.trials, cfg.trials, cfg.backend.c_str(),
              cfg.journal ? "on" : "off");
  return 0;
}

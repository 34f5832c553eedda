// Tests for the persistent worker-pool runtime: coverage/disjointness of
// the chunked scheduler, degenerate inputs, nested-call safety, concurrent
// callers, back-to-back regions through the polling handoff, and clean
// shutdown with every helper joined.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <dirent.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace adaptviz {
namespace {

// Counts this process's OS threads via /proc/self/task (Linux).
int os_thread_count() {
  int count = 0;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  closedir(dir);
  return count;
}

// The kernel can still list a thread in /proc/self/task for a moment after
// its join, so a count right after one may read high: re-reads the count
// while it is above `expected`, for at most 50 ms.
int settled_thread_count(int expected) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  int count = os_thread_count();
  while (count > expected && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    count = os_thread_count();
  }
  return count;
}

// Bumped by each thread that touched its ExitProbe, as the thread exits.
std::atomic<int> g_probe_exits{0};

struct ExitProbe {
  bool touched = false;
  ~ExitProbe() { g_probe_exits.fetch_add(1); }
};

void touch_exit_probe() {
  static thread_local ExitProbe probe;
  probe.touched = true;
}

// Runs a parallel_for and returns how many times each index was visited.
template <typename Launch>
std::vector<int> visit_counts(std::size_t n, const Launch& launch) {
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  launch([&](std::size_t lo, std::size_t hi) {
    ASSERT_LE(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  std::vector<int> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = hits[i].load();
  return out;
}

TEST(ThreadPool, EmptyRangeNeverCalls) {
  ThreadPool pool(2);
  bool called = false;
  const auto body = [&](std::size_t, std::size_t) { called = true; };
  pool.parallel_for(5, 5, 4, 2, body);
  pool.parallel_for(7, 3, 4, 2, body);
  EXPECT_FALSE(called);
}

// One chunk per lane, ceil(n / lanes): an even split of the range, for
// every range size against every lane count.
TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (const std::size_t n : {1u, 2u, 7u, 64u, 1000u}) {
    for (const int lanes : {1, 2, 3, 8}) {
      const auto w = static_cast<std::size_t>(lanes);
      const std::size_t band = (n + w - 1) / w;
      const auto counts = visit_counts(n, [&](auto body) {
        pool.parallel_for(0, n, lanes, band, body);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(counts[i], 1) << "n=" << n << " lanes=" << lanes
                                << " index=" << i;
      }
    }
  }
}

TEST(ThreadPool, ChunkedCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (const std::size_t chunk : {1u, 3u, 16u, 1000u}) {
    const std::size_t n = 257;
    const auto counts = visit_counts(n, [&](auto body) {
      pool.parallel_for(10, 10 + n, 4, chunk,
                        [&](std::size_t lo, std::size_t hi) {
                          body(lo - 10, hi - 10);
                        });
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(counts[i], 1) << "chunk=" << chunk << " index=" << i;
    }
  }
}

TEST(ThreadPool, MoreThreadsThanRows) {
  ThreadPool pool(8);
  const std::size_t n = 3;
  const auto counts = visit_counts(
      n, [&](auto body) { pool.parallel_for(0, n, 64, 1, body); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i], 1);
}

TEST(ThreadPool, NonPositiveThreadsRunsSerially) {
  ThreadPool pool(2);
  for (const int lanes : {0, -1, -100}) {
    int calls = 0;
    std::size_t lo = 99, hi = 0;
    pool.parallel_for(2, 12, lanes, 1, [&](std::size_t b, std::size_t e) {
      ++calls;
      lo = b;
      hi = e;
    });
    EXPECT_EQ(calls, 1);  // one inline call covering the whole range
    EXPECT_EQ(lo, 2u);
    EXPECT_EQ(hi, 12u);
  }
}

TEST(ThreadPool, ZeroWorkerPoolStillCompletes) {
  ThreadPool pool(0);
  const std::size_t n = 100;
  const auto counts = visit_counts(
      n, [&](auto body) { pool.parallel_for(0, n, 8, 7, body); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i], 1);
}

TEST(ThreadPool, NestedCallsRunInline) {
  ThreadPool pool(3);
  std::atomic<int> inner_total{0};
  pool.parallel_for(0, 8, 4, 2, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      // A nested region must not deadlock; it runs inline on this lane.
      pool.parallel_for(0, 10, 4, 3, [&](std::size_t b, std::size_t e) {
        inner_total.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 80);
}

TEST(ThreadPool, ConcurrentTopLevelCallersSerialize) {
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr std::size_t kN = 512;
  std::vector<std::atomic<int>> hits(kCallers);
  for (auto& h : hits) h.store(0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int rep = 0; rep < 20; ++rep) {
        pool.parallel_for(0, kN, 4, 32, [&](std::size_t lo, std::size_t hi) {
          hits[c].fetch_add(static_cast<int>(hi - lo));
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(hits[c].load(), 20 * static_cast<int>(kN));
  }
}

// Back-to-back regions, each with its own body stamping its region id: a
// helper still holding one region's body must never run it on the next
// region's cursor (the caller's locked check of active_ guards this), and
// every index of every region is written exactly once, by its own body.
// Each region writes its own row of `hits`, and the rows are checked after
// the last region, so nothing but the next region's set-up separates two
// regions. Half the regions take one band per lane, half a random chunk.
TEST(ThreadPool, BackToBackRegionsKeepTheirOwnBodies) {
  constexpr std::size_t kRegions = 10000;
  constexpr std::size_t kSpan = 128;
  for (const int workers : {1, 3}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ThreadPool pool(workers);
    std::vector<std::atomic<std::uint8_t>> hits(kRegions * kSpan);
    std::vector<std::pair<std::size_t, std::size_t>> ranges(kRegions);
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    const auto next = [&x](std::uint64_t bound) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      return (x >> 33) % bound;
    };
    for (std::size_t region = 0; region < kRegions; ++region) {
      const std::size_t begin = next(8);
      const std::size_t end = begin + 2 + next(kSpan - 9);
      ranges[region] = {begin, end};
      const int lanes = 2 + static_cast<int>(next(3));
      const std::size_t chunk = 1 + next(8);
      const auto w = static_cast<std::size_t>(lanes);
      const std::size_t band = (end - begin + w - 1) / w;
      std::atomic<std::uint8_t>* const row = &hits[region * kSpan];
      pool.parallel_for(begin, end, lanes, next(2) == 0 ? band : chunk,
                        [row](std::size_t lo, std::size_t hi) {
                          for (std::size_t i = lo; i < hi; ++i) {
                            row[i].fetch_add(1, std::memory_order_relaxed);
                          }
                        });
    }
    std::size_t bad_regions = 0;
    std::size_t first_bad = kRegions;
    for (std::size_t region = 0; region < kRegions; ++region) {
      const auto [begin, end] = ranges[region];
      bool ok = true;
      for (std::size_t i = 0; i < kSpan; ++i) {
        const bool inside = i >= begin && i < end;
        if (hits[region * kSpan + i].load() != (inside ? 1 : 0)) ok = false;
      }
      if (!ok && bad_regions++ == 0) first_bad = region;
    }
    EXPECT_EQ(bad_regions, 0u) << "first: region " << first_bad;
  }
}

// A region beside a serial chain: the chain runs exactly once on the
// caller, every index is covered exactly once, and both are done when the
// call returns, with or without helpers and when nested.
TEST(ThreadPool, BesideRegionRunsTheChainAndEveryBand) {
  constexpr std::size_t kN = 300;
  for (const int workers : {0, 1, 3}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ThreadPool pool(workers);
    for (int rep = 0; rep < 200; ++rep) {
      std::vector<std::atomic<int>> hits(kN);
      int chain_runs = 0;
      const std::thread::id caller = std::this_thread::get_id();
      bool chain_on_caller = false;
      pool.parallel_for_beside(
          0, kN, 2,
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
          },
          [&] {
            ++chain_runs;
            chain_on_caller = std::this_thread::get_id() == caller;
          });
      EXPECT_EQ(chain_runs, 1);
      EXPECT_TRUE(chain_on_caller);
      for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
    }
    // Nested inside a region: the chain, then the bands, inline.
    std::atomic<int> nested{0};
    pool.parallel_for(0, 4, 4, 1, [&](std::size_t, std::size_t) {
      pool.parallel_for_beside(
          0, 10, 3, [&](std::size_t b, std::size_t e) {
            nested.fetch_add(static_cast<int>(e - b));
          },
          [&] { nested.fetch_add(100); });
    });
    EXPECT_EQ(nested.load(), 4 * 110);
  }
}

// An exception from the chain surfaces only after every band has run.
TEST(ThreadPool, BesideRegionRethrowsAfterTheBands) {
  for (const int workers : {0, 3}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> hits(64);
    EXPECT_THROW(pool.parallel_for_beside(
                     0, hits.size(), 1,
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) {
                         hits[i].fetch_add(1);
                       }
                     },
                     [] { throw std::runtime_error("chain"); }),
                 std::runtime_error);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    // The pool still runs regions afterwards.
    std::atomic<int> after{0};
    pool.parallel_for(0, 8, 4, 1, [&](std::size_t lo, std::size_t hi) {
      after.fetch_add(static_cast<int>(hi - lo));
    });
    EXPECT_EQ(after.load(), 8);
  }
}

TEST(ThreadPool, RepeatedConstructionLeaksNoThreads) {
  constexpr int kHelpers = 3;
  // A warm-up pool first, so the baseline already counts any thread a
  // runtime starts lazily on first use (ThreadSanitizer's background
  // thread, for one). At least the test's own thread remains after its
  // join.
  { ThreadPool warm_up(kHelpers); }
  const int before = settled_thread_count(1);
  const int exits_before = g_probe_exits.load();
  for (int rep = 0; rep < 32; ++rep) {
    {
      ThreadPool pool(kHelpers);
      std::atomic<int> total{0};
      pool.parallel_for(0, 100, pool.worker_count(), 10,
                        [&](std::size_t lo, std::size_t hi) {
                          total.fetch_add(static_cast<int>(hi - lo));
                        });
      EXPECT_EQ(total.load(), 100);
      // Each task waits until all of them run, so each holds its own
      // helper: every helper touches its thread-local probe.
      std::latch all_running(kHelpers);
      std::vector<ThreadPool::TaskHandle> tasks;
      for (int h = 0; h < kHelpers; ++h) {
        tasks.push_back(pool.submit([&all_running] {
          touch_exit_probe();
          all_running.arrive_and_wait();
        }));
      }
      for (ThreadPool::TaskHandle& task : tasks) task.wait();
    }
    // The destructor joined every helper, and a joined thread has run its
    // thread-local destructors.
    EXPECT_EQ(g_probe_exits.load() - exits_before, kHelpers * (rep + 1));
  }
  // The OS thread count is back to where it started.
  const int after = settled_thread_count(before);
  if (before > 0 && after > 0) {
    EXPECT_EQ(after, before);
  }
}

TEST(ThreadPool, SharedSingletonIsStable) {
  ThreadPool* a = &ThreadPool::shared();
  ThreadPool* b = &ThreadPool::shared();
  EXPECT_EQ(a, b);
  EXPECT_GE(a->worker_count(), 1);
}

}  // namespace
}  // namespace adaptviz

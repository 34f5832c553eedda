// Persistent worker-pool runtime for the compute hot paths.
//
// A fixed set of long-lived workers parks on a condition variable and
// takes fork-join jobs, so no region spawns threads:
//
//   pool.parallel_for(0, n, pool.worker_count(), chunk, body);
//
// Scheduling: up to `lanes` lanes grab `chunk`-sized pieces off an atomic
// cursor. Chunk boundaries depend only on (range, chunk); which lane runs
// which chunk is unspecified. Every caller's body writes only the indices
// of its own chunk (storm-geometry rows, codec field slots, render
// batches), so results are bitwise identical to the serial loop for any
// lane count and any pool size.
//
// The calling thread always participates, so `lanes <= 1` (or a pool
// built with zero workers) degenerates to the plain serial loop with no
// synchronization. Nested calls — a body that itself calls into the pool,
// from a pool worker or from the thread that issued the outer region —
// run inline serially rather than deadlocking. Concurrent top-level
// callers serialize on the pool (one fork-join job at a time).
//
// Beside a serial chain: `parallel_for_beside(begin, end, chunk, body,
// serial)` hands every band to the helpers while the caller runs a serial
// chain of its own, then the caller claims what is left and joins. The
// weather step builds its storm geometry this way while it steps the
// solver, so the helpers have work in the gaps between regions.
//
// Handoff: regions on the forcing path last tens to hundreds of
// microseconds, often less than a parked helper takes to wake on a busy
// host. So both sides of a handoff poll before they block: a helper that
// has just finished its band (or woke with a ticket left to find the
// region already claimed) polls `generation_` for the next region, and the
// caller that has run out of bands polls `active_` for the helpers still
// inside theirs. A helper a region left without a ticket parks at once.
// Each poll is bounded by one constant (kHandoffSpin in thread_pool.cpp);
// past it the lane parks on its condition variable.
//
// The callable is passed by non-owning reference (RangeFnRef): no
// std::function allocation on the hot path.
//
// Run-context propagation: every worker lane of a fork-join region runs
// under the *submitting* thread's run context (runtime/run_context.hpp),
// so instrumentation fired inside a region lands in the submitting
// experiment's metrics — never in another experiment that happens to share
// the pool. The same applies to submitted tasks (below).
//
// Task submission (`submit`): whole units of work — e.g. one experiment of
// a campaign — run as pool tasks on the worker threads, draining a FIFO
// queue. Tasks run with in-region semantics: any parallel_for a task issues
// runs inline on its lane (deterministically — disjoint per-index writes
// make lane count invisible to results), so K tasks progress independently
// without nested fork-join deadlocks. Do not wait() on a task's handle
// from inside another task on the same pool: with every worker occupied
// that wait can never be satisfied.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "runtime/run_context.hpp"

namespace adaptviz {

/// Non-owning reference to a `void(std::size_t begin, std::size_t end)`
/// callable — the referenced object must outlive the call (true for a
/// fork-join region, where the caller blocks until the job completes).
class RangeFnRef {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, RangeFnRef>>>
  RangeFnRef(F&& f) noexcept  // NOLINT: implicit by design
      : ctx_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* ctx, std::size_t b, std::size_t e) {
          (*static_cast<std::remove_reference_t<F>*>(ctx))(b, e);
        }) {}

  void operator()(std::size_t begin, std::size_t end) const {
    call_(ctx_, begin, end);
  }

 private:
  void* ctx_;
  void (*call_)(void*, std::size_t, std::size_t);
};

class ThreadPool {
 public:
  /// `workers` long-lived helper threads (the caller of a parallel region
  /// participates too, so total parallelism is workers + 1). Zero workers
  /// is valid: every region runs inline on the caller.
  explicit ThreadPool(int workers = default_worker_count());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Helper threads + the participating caller.
  [[nodiscard]] int worker_count() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Process-wide lazily-constructed pool sized for the hardware: the
  /// storm geometry and the codec use it when a run passes no pool of its
  /// own.
  static ThreadPool& shared();

  /// hardware_concurrency - 1 helpers (the caller is the final lane).
  static int default_worker_count();

  /// Blocks until the task has finished. A default-constructed handle (or
  /// one whose task already ran) returns immediately.
  class TaskHandle {
   public:
    TaskHandle() = default;
    void wait();
    [[nodiscard]] bool valid() const { return state_ != nullptr; }

   private:
    friend class ThreadPool;
    struct State {
      std::mutex mutex;
      std::condition_variable cv;
      bool done = false;
    };
    explicit TaskHandle(std::shared_ptr<State> state)
        : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
  };

  /// Enqueues `task` to run on a worker thread under the submitting
  /// thread's run context (captured now, installed for the task's span).
  /// FIFO order; at most `workers` tasks run concurrently. On a pool with
  /// zero workers the task runs inline before submit returns. Tasks still
  /// queued when the pool is destroyed are discarded (their handles
  /// unblock).
  TaskHandle submit(std::function<void()> task);

  /// Fork-join over [begin, end): up to `lanes` lanes (the caller is one)
  /// grab `chunk`-sized pieces off a shared cursor. Chunk boundaries are
  /// deterministic; claim order is not — use only when the body's writes
  /// are disjoint per index. lanes <= 1, a single chunk or a nested call
  /// runs body(begin, end) inline.
  template <typename Body>
  void parallel_for(std::size_t begin, std::size_t end, int lanes,
                    std::size_t chunk, Body&& body) {
    if (end <= begin) return;
    if (chunk == 0) chunk = 1;
    const std::size_t n = end - begin;
    const std::size_t pieces = (n + chunk - 1) / chunk;
    const std::size_t used = std::min<std::size_t>(
        static_cast<std::size_t>(lanes > 1 ? lanes : 1), pieces);
    if (used <= 1 || in_parallel_region()) {
      body(begin, end);
      return;
    }
    run(begin, end, chunk, static_cast<int>(used) - 1, RangeFnRef(body),
        nullptr);
  }

  /// Fork-join over [begin, end) beside a serial chain: every helper may
  /// claim `chunk`-sized bands of `body` while the caller runs `serial()`;
  /// then the caller claims whatever is left and joins, so both have
  /// finished when this returns. `serial` must not touch what `body`
  /// reads or writes. With no helpers, or in a nested call, it runs
  /// serial() and then body(begin, end) inline. An exception from
  /// `serial` is rethrown once the bands are done.
  template <typename Body, typename Serial>
  void parallel_for_beside(std::size_t begin, std::size_t end,
                           std::size_t chunk, Body&& body, Serial&& serial) {
    if (workers_.empty() || in_parallel_region() || end <= begin) {
      std::exception_ptr serial_error;
      try {
        serial();
      } catch (...) {
        serial_error = std::current_exception();
      }
      if (end > begin) body(begin, end);
      if (serial_error) std::rethrow_exception(serial_error);
      return;
    }
    const auto serial_range = [&serial](std::size_t, std::size_t) {
      serial();
    };
    const RangeFnRef serial_ref(serial_range);
    run(begin, end, chunk == 0 ? 1 : chunk, static_cast<int>(workers_.size()),
        RangeFnRef(body), &serial_ref);
  }

 private:
  // One fork-join job: workers fetch-add `next` by `chunk` until the
  // cursor passes `end`. Lives inside the pool so a late-waking worker
  // never dereferences a dead stack frame. `context` is the submitting
  // thread's run context, installed on every helper lane for the span of
  // its borrowed work (the submitter keeps it alive while it blocks).
  struct Job {
    RangeFnRef body{[](std::size_t, std::size_t) {}};
    std::size_t end = 0;
    std::size_t chunk = 0;
    RunContext* context = nullptr;
    std::atomic<std::size_t> next{0};
  };

  // One queued task: the closure, the context to run it under, and the
  // completion state its handle waits on.
  struct PendingTask {
    std::function<void()> fn;
    RunContext* context = nullptr;
    std::shared_ptr<TaskHandle::State> state;
  };

  // `serial`, when given, runs on the caller before it claims bands.
  void run(std::size_t begin, std::size_t end, std::size_t chunk,
           int helper_tickets, RangeFnRef body, const RangeFnRef* serial);
  // Claims bands off the job's cursor until it passes `end`; returns how
  // many this lane ran.
  std::size_t work(RangeFnRef body, std::size_t end, std::size_t chunk);
  void worker_loop();
  static bool& in_parallel_region();

  std::atomic<int> queue_depth_{0};  // top-level callers waiting or running
  std::mutex run_mutex_;  // serializes top-level fork-join jobs
  std::mutex mutex_;      // guards the fields below
  std::condition_variable wake_cv_;  // workers park here
  std::condition_variable done_cv_;  // the caller waits here
  Job job_;
  std::deque<PendingTask> tasks_;  // submitted tasks, FIFO
  // Bumped per job, under mutex_; helpers poll it lock-free before parking.
  std::atomic<std::uint64_t> generation_{0};
  int tickets_ = 0;  // helper lanes still allowed to join
  // Helpers inside work(). Raised under mutex_ in the same critical
  // section as the claim test, lowered lock-free; the caller polls it.
  std::atomic<int> active_{0};
  bool job_active_ = false;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace adaptviz

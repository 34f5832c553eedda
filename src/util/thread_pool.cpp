#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "obs/obs.hpp"

namespace adaptviz {

namespace {

// How long a lane polls the other side of a fork-join handoff before it
// parks on a condition variable. It spans the serial solver and nest work
// between two storm-geometry regions; measured in EXPERIMENTS.md (P3).
constexpr std::chrono::microseconds kHandoffSpin{500};

// Polls between two clock reads, with a `pause` after each.
constexpr int kPauseBurst = 64;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Polls `ready` for up to kHandoffSpin: a burst of `pause`s, then a yield,
// so a polling lane hands its vCPU to any other runnable thread. Returns
// whether `ready` came to hold.
template <typename Ready>
bool spin_until(const Ready& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kHandoffSpin;
  for (;;) {
    for (int i = 0; i < kPauseBurst; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return ready();
    std::this_thread::yield();
  }
}

}  // namespace

ThreadPool::ThreadPool(int workers) {
  const int n = std::max(0, workers);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  std::deque<PendingTask> orphaned;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    // Ends the poll of a helper waiting for the next region, so it parks,
    // sees stop_ and exits now rather than when its spin runs out.
    generation_.fetch_add(1, std::memory_order_release);
    orphaned.swap(tasks_);
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Discarded tasks never run, but their handles must not hang.
  for (PendingTask& task : orphaned) {
    {
      std::lock_guard<std::mutex> lock(task.state->mutex);
      task.state->done = true;
    }
    task.state->cv.notify_all();
  }
}

void ThreadPool::TaskHandle::wait() {
  if (state_ == nullptr) return;
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [this] { return state_->done; });
}

ThreadPool::TaskHandle ThreadPool::submit(std::function<void()> task) {
  auto state = std::make_shared<TaskHandle::State>();
  if (workers_.empty()) {
    // No worker threads to hand the task to: run it inline. The submitting
    // thread's context is already installed, so semantics match.
    task();
    state->done = true;
    return TaskHandle(std::move(state));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(
        PendingTask{std::move(task), current_run_context(), state});
  }
  wake_cv_.notify_all();
  return TaskHandle(std::move(state));
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

int ThreadPool::default_worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? static_cast<int>(hw) - 1 : 0;
}

bool& ThreadPool::in_parallel_region() {
  static thread_local bool flag = false;
  return flag;
}

void ThreadPool::run(std::size_t begin, std::size_t end, std::size_t chunk,
                     int helper_tickets, RangeFnRef body,
                     const RangeFnRef* serial) {
  // Capture the bundle once so the increment/decrement below stay
  // symmetric even if observability is swapped mid-region.
  obs::Observability* const o = obs::current();
  // Regions fire at kilohertz rates on the forcing path: the registry
  // lookups are cached per caller thread (obs.hpp, hot-path handles).
  static thread_local obs::HotGauge depth_peak("pool.queue_depth_peak");
  static thread_local obs::HotCounter regions("pool.regions");
  static thread_local obs::HotHistogram queue_wait("pool.queue_wait_seconds");
  static thread_local obs::HotHistogram region_time("pool.region_seconds");
  static thread_local obs::HotCounter helper_bands("pool.helper_bands");
  if (o != nullptr) {
    const int depth = queue_depth_.fetch_add(1, std::memory_order_relaxed) + 1;
    depth_peak.resolve(o)->set_max(depth);
  }
  // One fork-join job at a time; a second top-level caller parks here.
  // Only a caller that parks reads the clock before the lock: an
  // uncontended region's queue wait is observed as zero.
  std::unique_lock<std::mutex> run_lock(run_mutex_, std::try_to_lock);
  const bool parked = !run_lock.owns_lock();
  double enqueued = 0.0;
  if (parked) {
    if (o != nullptr) enqueued = o->tracer().host_now();
    run_lock.lock();
  }
  double started = 0.0;
  if (o != nullptr) {
    started = o->tracer().host_now();
    regions.resolve(o)->add(1);
    queue_wait.resolve(o)->observe(parked ? started - enqueued : 0.0);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_.body = body;
    job_.end = end;
    job_.chunk = chunk;
    job_.context = current_run_context();
    job_.next.store(begin, std::memory_order_relaxed);
    tickets_ = std::min(helper_tickets, static_cast<int>(workers_.size()));
    job_active_ = true;
    generation_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_all();

  // The caller is a lane too: run its serial chain, if any, then claim
  // bands until the cursor runs out. The bands are finished even if the
  // chain throws, since they may point into the chain's frame.
  in_parallel_region() = true;
  std::exception_ptr serial_error;
  if (serial != nullptr) {
    try {
      (*serial)(0, 0);
    } catch (...) {
      serial_error = std::current_exception();
    }
  }
  const std::size_t caller_bands = work(body, end, chunk);
  in_parallel_region() = false;

  // All bands are claimed once the caller's loop exits (the cursor is
  // monotonic); wait for the helpers still finishing theirs, polling
  // first. Helpers that wake late see an exhausted cursor and never join.
  // The final check stays under mutex_: a helper raises active_ in the
  // critical section where it tests the cursor, so a lock-free zero may
  // miss a helper that has passed that test but not yet raised it. Such a
  // helper would then run this region's body on the next region's cursor.
  spin_until([this] { return active_.load(std::memory_order_acquire) == 0; });
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] {
    return active_.load(std::memory_order_acquire) == 0;
  });
  job_active_ = false;
  if (o != nullptr) {
    queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    region_time.resolve(o)->observe(o->tracer().host_now() - started);
    // Every band not run here ran on a helper. Counted by the caller, so
    // the helpers' hand-back to the caller carries no metric update.
    const std::size_t bands = (end - begin + chunk - 1) / chunk;
    if (bands > caller_bands) {
      helper_bands.resolve(o)->add(
          static_cast<std::int64_t>(bands - caller_bands));
    }
  }
  lock.unlock();
  if (serial_error) std::rethrow_exception(serial_error);
}

std::size_t ThreadPool::work(RangeFnRef body, std::size_t end,
                             std::size_t chunk) {
  std::size_t bands = 0;
  for (;; ++bands) {
    const std::size_t b = job_.next.fetch_add(chunk, std::memory_order_relaxed);
    if (b >= end) return bands;
    body(b, std::min(end, b + chunk));
  }
}

void ThreadPool::worker_loop() {
  in_parallel_region() = true;  // nested calls from a worker run inline
  std::uint64_t seen = 0;
  // Whether the last wake-up found a ticket left, whether or not any band
  // was left to claim with it. A helper a region left out (no ticket)
  // parks at once: the next region likely has the same lane count and
  // leaves it out again.
  bool poll = false;
  for (;;) {
    // The next region often follows within microseconds: poll for it
    // before parking, so the handoff needs no futex wake.
    if (poll) {
      spin_until([&] {
        return generation_.load(std::memory_order_acquire) != seen;
      });
    }
    std::unique_lock<std::mutex> lock(mutex_);
    wake_cv_.wait(lock, [&] {
      return stop_ || generation_.load(std::memory_order_relaxed) != seen ||
             !tasks_.empty();
    });
    if (stop_) return;
    poll = tickets_ > 0;
    const std::uint64_t generation =
        generation_.load(std::memory_order_relaxed);
    if (generation != seen) {
      seen = generation;
      if (job_active_ && tickets_ > 0 &&
          job_.next.load(std::memory_order_relaxed) < job_.end) {
        --tickets_;
        active_.fetch_add(1, std::memory_order_relaxed);
        const RangeFnRef body = job_.body;
        const std::size_t end = job_.end;
        const std::size_t chunk = job_.chunk;
        RunContext* const context = job_.context;
        lock.unlock();
        {
          // The lane borrows the submitting experiment's context: metrics
          // fired by the body land in that experiment's bundle.
          ScopedRunContext scope(context);
          work(body, end, chunk);
        }
        // The last helper out wakes a caller that has stopped polling.
        // Taking mutex_ orders the notify after the caller's locked check.
        if (active_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          { std::lock_guard<std::mutex> wake(mutex_); }
          done_cv_.notify_all();
        }
        continue;
      }
    }
    if (!tasks_.empty()) {
      PendingTask task = std::move(tasks_.front());
      tasks_.pop_front();
      lock.unlock();
      {
        ScopedRunContext scope(task.context);
        task.fn();
      }
      {
        std::lock_guard<std::mutex> state_lock(task.state->mutex);
        task.state->done = true;
      }
      task.state->cv.notify_all();
      poll = false;
    }
  }
}

}  // namespace adaptviz

// Observability bundle: one MetricsRegistry + one StageTracer, reachable
// from deeply nested hot paths (solver sweeps, render passes, pool
// regions) without threading a handle through every constructor.
//
// The bundle rides the per-run context (runtime/run_context.hpp):
// AdaptiveFramework owns the bundle for an experiment and installs it for
// the experiment's lifetime via its RunContext; the thread pool forwards
// the submitting thread's context into worker lanes, so N experiments
// running concurrently record into N disjoint bundles with zero
// cross-talk. Standalone component tests run with nothing installed and
// every helper below degenerates to a no-op. `current()` is one
// thread-local load on the fast path.
//
// Instrumentation NEVER touches simulation state, RNG streams or the
// event queue: results are bitwise identical with observability on, off,
// or absent (asserted by bench_observability).
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/run_context.hpp"

namespace adaptviz::obs {

class Observability {
 public:
  Observability();

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] StageTracer& tracer() { return tracer_; }
  [[nodiscard]] const StageTracer& tracer() const { return tracer_; }

  /// Process-unique, never-reused id for this bundle (>= 1). Lets hot
  /// call sites cache registry lookups without the risk of a new bundle
  /// reusing a freed bundle's address and validating a stale pointer.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

 private:
  std::uint64_t epoch_;
  MetricsRegistry metrics_;
  StageTracer tracer_;
};

/// The bundle installed on this thread's run context, or nullptr when none
/// is active.
Observability* current() noexcept;

// ---- Call-site helpers (no-ops when nothing is installed) ----

inline void count(const char* name, std::int64_t n = 1) {
  if (Observability* o = current()) o->metrics().counter(name).add(n);
}

inline void gauge_set(const char* name, double value) {
  if (Observability* o = current()) o->metrics().gauge(name).set(value);
}

inline void gauge_max(const char* name, double value) {
  if (Observability* o = current()) o->metrics().gauge(name).set_max(value);
}

inline void observe(const char* name, double value) {
  if (Observability* o = current()) {
    o->metrics().histogram(name).observe(value);
  }
}

/// Records an event-loop stage in simulated time, and observes the
/// duration into the histogram of the same name.
inline void trace_sim(const char* stage, double start_seconds,
                      double duration_seconds, std::string metadata = {}) {
  if (Observability* o = current()) {
    o->metrics().histogram(stage).observe(duration_seconds);
    o->tracer().record(stage, TraceClock::kSim, start_seconds,
                       duration_seconds, std::move(metadata));
  }
}

// ---- Hot-path handles ----
//
// The registry hands out references that stay valid for the bundle's
// lifetime, so a call site firing tens of thousands of times per run can
// pay the name lookup (registry mutex + map walk) once per installed
// bundle instead of once per event. Declare as `static thread_local` at
// the call site and resolve() against the bundle captured for the event.
// The cache keys on the bundle epoch, never its address.

template <typename Instrument>
class HotHandle {
 public:
  explicit HotHandle(const char* name) noexcept : name_(name) {}
  Instrument* resolve(Observability* o) {
    if (o == nullptr) return nullptr;
    if (epoch_ != o->epoch()) {
      slot_ = &lookup(o->metrics());
      epoch_ = o->epoch();
    }
    return slot_;
  }

 private:
  Instrument& lookup(MetricsRegistry& m) const {
    if constexpr (std::is_same_v<Instrument, Counter>) {
      return m.counter(name_);
    } else if constexpr (std::is_same_v<Instrument, Gauge>) {
      return m.gauge(name_);
    } else {
      return m.histogram(name_);
    }
  }

  const char* name_;
  std::uint64_t epoch_ = 0;
  Instrument* slot_ = nullptr;
};

using HotCounter = HotHandle<Counter>;
using HotGauge = HotHandle<Gauge>;
using HotHistogram = HotHandle<Histogram>;

/// RAII timer for sub-stages inside the solver/render inner loops:
/// histogram only, no trace event. These stages fire several times per
/// step — putting them on the ring would evict every narrative event
/// (transfers, decisions, render slots) and pay the tracer mutex at
/// tens of kilohertz for data the histogram already summarizes.
class ScopedTimer {
 public:
  explicit ScopedTimer(HotHistogram& slot) noexcept
      : obs_(current()),
        hist_(slot.resolve(obs_)),
        start_(obs_ != nullptr ? obs_->tracer().host_now() : 0.0) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (hist_ != nullptr) hist_->observe(obs_->tracer().host_now() - start_);
  }

 private:
  Observability* obs_;
  Histogram* hist_;
  double start_;
};

/// RAII host-clock stage timer: records a trace event and feeds the
/// histogram of the same name on destruction. Captures current() once,
/// so an install/uninstall mid-span cannot tear the handle.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* stage) noexcept
      : obs_(current()),
        stage_(stage),
        start_(obs_ != nullptr ? obs_->tracer().host_now() : 0.0) {}

  /// Same, with the histogram lookup cached at the call site (for spans
  /// inside per-step code).
  ScopedSpan(const char* stage, HotHistogram& slot) noexcept
      : obs_(current()),
        stage_(stage),
        hist_(slot.resolve(obs_)),
        start_(obs_ != nullptr ? obs_->tracer().host_now() : 0.0) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_metadata(std::string m) { metadata_ = std::move(m); }

  ~ScopedSpan() {
    if (obs_ == nullptr) return;
    const double duration = obs_->tracer().host_now() - start_;
    if (hist_ != nullptr) {
      hist_->observe(duration);
    } else {
      obs_->metrics().histogram(stage_).observe(duration);
    }
    obs_->tracer().record(stage_, TraceClock::kHost, start_, duration,
                          std::move(metadata_));
  }

 private:
  Observability* obs_;
  const char* stage_;
  Histogram* hist_ = nullptr;
  double start_;
  std::string metadata_;
};

}  // namespace adaptviz::obs

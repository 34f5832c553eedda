// Per-experiment run context: the handle that replaced the last pieces of
// process-global mutable state (the obs install point, the log level).
//
// A RunContext bundles everything an experiment's deeply nested call sites
// need without threading a handle through every constructor: the
// observability bundle (or null), and the run's log level/sink overrides.
// It is installed *per thread* (a plain thread_local, no atomics), so N
// experiments running concurrently on N threads each see only their own
// context — metrics, traces and log lines from one run can never leak into
// another's.
//
// Propagation rules:
//  * AdaptiveFramework owns one context and installs it (ScopedRunContext)
//    on the constructing/running thread for the experiment's lifetime.
//  * ThreadPool forwards the submitting thread's context into every worker
//    lane of a fork-join region, and into submitted tasks, for exactly the
//    span of the borrowed work (util/thread_pool.hpp).
//  * Nothing else propagates: a fresh thread starts with no context and
//    every context-reading helper degenerates to its no-op/default path.
//
// This header sits below obs and util (it depends on neither), so both can
// read the context without a dependency cycle.
#pragma once

#include <string>

namespace adaptviz::obs {
class Observability;
}  // namespace adaptviz::obs

namespace adaptviz {

/// Log severity. Lives here (not util/logging.hpp) so the context can carry
/// a per-run level without depending on the util layer; logging.hpp
/// re-exports it and all call sites are unaffected.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Destination for formatted log lines. Implementations must be safe to
/// call from multiple threads (a run's daemons plus pool lanes).
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void write(LogLevel level, const char* component,
                     const char* message) = 0;
};

/// The per-run state bundle. Plain aggregate, non-owning: the installer
/// (AdaptiveFramework, a test) keeps the pointed-to objects alive for the
/// installation's span.
struct RunContext {
  /// Metrics registry + stage tracer for this run, or null (instrumentation
  /// helpers no-op).
  obs::Observability* observability = nullptr;

  /// When set, overrides the process-wide minimum log level for this run.
  bool has_log_level = false;
  LogLevel log_level = LogLevel::kWarn;

  /// When non-null, the run's log lines go here instead of stderr —
  /// concurrent runs stop interleaving on one terminal.
  LogSink* log_sink = nullptr;

  /// The run's label (the experiment's config name). Stderr log lines
  /// carry it, so K concurrent campaign runs — or N dispatch worker
  /// processes sharing the coordinator's stderr — stay attributable.
  /// Empty keeps the historical line format byte for byte.
  std::string run_label;

  void set_log_level(LogLevel level) {
    log_level = level;
    has_log_level = true;
  }
};

/// This thread's installed context, or null when none is active.
RunContext* current_run_context() noexcept;

/// Installs `context` on this thread for the scope and restores the
/// previous one on destruction. Scopes nest; install and restore must
/// happen on the same thread. Installing null is a valid way to shadow an
/// outer context (the shadowed span sees "nothing installed").
class ScopedRunContext {
 public:
  explicit ScopedRunContext(RunContext* context) noexcept;
  ~ScopedRunContext();
  ScopedRunContext(const ScopedRunContext&) = delete;
  ScopedRunContext& operator=(const ScopedRunContext&) = delete;

 private:
  RunContext* previous_;
};

}  // namespace adaptviz

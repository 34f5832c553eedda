// Application manager: the adaptive brain of the framework.
//
// "The application manager is the primary component that makes our framework
// adaptive to resource configuration changes. It invokes a decision
// algorithm periodically ... every 1.5 hours ... monitors the available disk
// space using the UNIX command df ... also uses the average observed
// bandwidth between the simulation and visualization sites."
//
// Here `df` is DiskModel::free_percent(); the bandwidth comes from passively
// observed frame transfers (BandwidthEstimator), with an explicit network
// probe only before the first frame has moved. On each invocation the
// manager assembles a DecisionInput, runs the configured algorithm, writes
// the shared ApplicationConfiguration (bumping its version) and notifies the
// job handler. A safety net independent of the algorithm sets CRITICAL when
// the disk is nearly full and clears it with hysteresis.
#pragma once

#include <functional>
#include <vector>

#include "core/app_config.hpp"
#include "core/decision.hpp"
#include "resources/disk.hpp"
#include "resources/event_queue.hpp"
#include "resources/network.hpp"
#include "transport/bandwidth_estimator.hpp"

namespace adaptviz {

/// Live application-state snapshot the framework supplies on each
/// invocation. The fields the decision algorithms consume (work units,
/// frame size, integration step, remaining time, resolution, link
/// degradation) live in the shared ResourceSnapshot base — the manager
/// forwards them into DecisionInput with one slice assignment.
struct ApplicationStatus : ResourceSnapshot {
  int max_usable_processors = 1;
  bool finished = false;
};

struct DecisionRecord {
  WallSeconds wall_time{};
  DecisionInput input;
  Decision decision;
};

class ApplicationManager {
 public:
  struct Options {
    WallSeconds period = WallSeconds::hours(1.5);
    DecisionBounds bounds{};
    /// Safety net thresholds (percent free) independent of the algorithm.
    double critical_set_percent = 5.0;
    double critical_clear_percent = 12.0;
    /// Payload for the fallback bandwidth probe.
    Bytes probe_size = Bytes::megabytes(10.0);
    /// Processor floor forwarded to the algorithms (machine min_cores).
    int min_processors = 1;
    /// When set, every configuration change is also persisted to this INI
    /// file (atomically) — the on-disk protocol of the paper's Section III.
    std::string config_file_path;
  };

  using StatusProvider = std::function<ApplicationStatus()>;
  using ConfigChangedFn = std::function<void()>;

  ApplicationManager(EventQueue& queue, DecisionAlgorithm& algorithm,
                     const PerformanceModel& perf, DiskModel& disk,
                     NetworkLink& link, BandwidthEstimator& estimator,
                     ApplicationConfiguration& shared_config,
                     StatusProvider status, ConfigChangedFn notify,
                     Options options);

  /// Performs the first invocation immediately and schedules the periodic
  /// loop.
  void start();
  void stop();

  /// One decision cycle (also callable directly, e.g. from tests).
  void invoke();

  /// Steering: replaces the output-interval bounds the decision algorithms
  /// work within (takes effect from the next invocation).
  void set_bounds(const DecisionBounds& bounds) { options_.bounds = bounds; }
  [[nodiscard]] const DecisionBounds& bounds() const {
    return options_.bounds;
  }

  /// Steering: hold / release the simulation. Applied immediately through
  /// the shared configuration (no restart; the process stalls in place).
  void set_paused(bool paused);

  /// Control plane: the aggregated observer proposals become the third
  /// decision input. A proposal with max_output_interval > 0 tightens the
  /// upper output-interval bound from the next invocation on; the digest
  /// itself rides into every DecisionInput for the record.
  void set_observer_digest(const ObserverDigest& digest) {
    observers_ = digest;
  }
  [[nodiscard]] const ObserverDigest& observer_digest() const {
    return observers_;
  }

  [[nodiscard]] const std::vector<DecisionRecord>& decisions() const {
    return decisions_;
  }

  /// Decision history plus the steering-mutable knobs (the bounds a
  /// kSetOutputBounds command rewrites and the aggregated observer
  /// digest). The periodic invocation event is queue state.
  struct State {
    bool running = false;
    DecisionBounds bounds{};
    ObserverDigest observers{};
    std::vector<DecisionRecord> decisions;
  };
  [[nodiscard]] State snapshot() const {
    return State{running_, options_.bounds, observers_, decisions_};
  }
  void restore(const State& s) {
    running_ = s.running;
    options_.bounds = s.bounds;
    observers_ = s.observers;
    decisions_ = s.decisions;
  }

 private:
  void schedule_next();
  [[nodiscard]] Bandwidth measure_bandwidth();

  EventQueue& queue_;
  DecisionAlgorithm& algorithm_;
  const PerformanceModel& perf_;
  DiskModel& disk_;
  NetworkLink& link_;
  BandwidthEstimator& estimator_;
  ApplicationConfiguration& config_;
  StatusProvider status_;
  ConfigChangedFn notify_;
  Options options_;

  bool running_ = false;
  ObserverDigest observers_{};
  std::vector<DecisionRecord> decisions_;
};

}  // namespace adaptviz

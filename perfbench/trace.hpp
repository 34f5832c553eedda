// Outside-in tracing for the benchmark harness.
//
// Nothing here reaches inside the program. A traced run drives
// AdaptiveFramework one event at a time through its public stepwise API,
// timing each event and recording what the weather, codec and decision
// layers were asked to do (a Script). replay() then performs exactly that
// work again through each module's public functions — CyclonePhysics,
// SwSolver, NestDomain, CycloneTracker, WeatherModel checkpoint/restore,
// FrameFieldCodec and DecisionAlgorithm — with a timer around every call,
// and checks that the replay reproduced the run bit for bit.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "explore/explorer.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One step of work the run asked of the weather/codec layers, in order.
struct ScriptItem {
  enum class Kind { kStep, kEncode, kStop, kStart };
  Kind kind = Kind::kStep;
  /// kStep: the nest existed when the step began.
  bool nest_active = false;
  /// kStop: the run's model as it was checkpointed.
  std::shared_ptr<const adaptviz::WeatherModel> model;
  /// kStart: the restarted model's resolution and state digest.
  double resolution_km = 0.0;
  std::uint64_t state_digest = 0;
};

struct Script {
  adaptviz::ExperimentConfig config;
  /// The model the run launched with, before its first step.
  std::shared_ptr<const adaptviz::WeatherModel> initial;
  std::vector<ScriptItem> items;
  std::vector<adaptviz::DecisionRecord> decisions;
  /// The fitted model every recorded DecisionInput::perf pointed to.
  std::shared_ptr<const adaptviz::PerformanceModel> perf;

  // The run's own counters, which the replay must reproduce.
  std::int64_t steps = 0;
  int restarts = 0;
  double codec_ratio = 1.0;
  std::uint64_t final_state_digest = 0;
};

/// Host-time accounting of one traced run of AdaptiveFramework.
struct DriveResult {
  double setup_s = 0.0;   // config -> first event (parse, ctor, start_run)
  double loop_s = 0.0;    // the event loop, recording included
  double finish_s = 0.0;  // finish_run()
  double write_s = 0.0;   // write_result()
  double wall_s = 0.0;    // all of the above
  std::vector<double> event_s;
  std::uint64_t events_executed = 0;  // EventQueue::executed()
  /// snapshot()/restore() round trips taken at decision boundaries.
  std::vector<double> snapshot_s, restore_s;
  adaptviz::ExperimentSummary summary;
  Script script;
};

/// Runs one experiment stepwise and writes its CSVs to `out_dir`. Every
/// decision boundary also takes a snapshot() and restores it in place,
/// which leaves the run bitwise unchanged.
DriveResult drive_traced(
    const std::function<adaptviz::ExperimentConfig()>& make_config,
    const std::string& out_dir);

/// Per-layer totals of a replay (summable across runs).
struct LayerTimes {
  double forcing_s = 0.0;
  std::int64_t forcing_calls = 0;
  double forcing_cells = 0.0;
  double dynamics_s = 0.0;
  std::int64_t dynamics_calls = 0;
  double dynamics_cells = 0.0;
  double dynamics_bytes = 0.0;  // computed from array sizes
  double boundary_s = 0.0;
  double feedback_s = 0.0;
  double recenter_s = 0.0;  // nest spawn/recenter checks and moves
  double tracker_s = 0.0;
  std::vector<double> step_s;  // one whole parent step each
  std::int64_t nest_substeps = 0;
  std::int64_t restarts = 0;
  double restart_s = 0.0;  // checkpoint() + restore()
  double codec_s = 0.0;    // encode_frame_fields() wall
  double encode_s = 0.0;   // as the codec reports it
  double decode_s = 0.0;
  std::int64_t codec_frames = 0;
  std::int64_t codec_fields = 0;
  double codec_raw_bytes = 0.0;
  double codec_encoded_bytes = 0.0;
  std::vector<double> decide_s;

  /// Everything replayed that the event loop also ran.
  [[nodiscard]] double loop_layers_s() const;
  void merge(const LayerTimes& other);
};

/// Replays `script`; every disagreement with the run is appended to
/// `mismatches`.
LayerTimes replay(const Script& script, std::vector<std::string>& mismatches);

/// Mirror of ScenarioExplorer's depth-first walk (snapshot mode), with
/// snapshot()/restore() timed and the simulated hours of every branch
/// counted. Its node/leaf/prune counts must equal the explorer's report.
struct WalkStats {
  int nodes = 0;
  int leaves = 0;
  int pruned = 0;
  double sim_h_stepped = 0.0;
  double wall_s = 0.0;
  std::vector<double> snapshot_s, restore_s;
};
WalkStats mirror_walk(const adaptviz::ExperimentConfig& config,
                      const adaptviz::ExploreSpec& spec);

}  // namespace perfbench

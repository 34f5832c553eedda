// AdaptiveFramework — the paper's Figure 2 wired together.
//
// Owns and connects every component: the ground-truth cluster + profiled
// performance model, the disk and WAN models, the weather simulation
// process, frame sender/receiver daemons, the remote visualization process,
// the application manager with one of the two decision algorithms, and the
// job handler — all on one discrete-event queue. `run()` executes an entire
// experiment (a 2.5-day Aila tracking campaign) and returns the telemetry
// the paper's figures are drawn from.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/adversary.hpp"
#include "core/application_manager.hpp"
#include "core/greedy_threshold.hpp"
#include "obs/obs.hpp"
#include "core/job_handler.hpp"
#include "core/lp_optimizer.hpp"
#include "core/static_algorithm.hpp"
#include "core/simulation_process.hpp"
#include "core/telemetry.hpp"
#include "serve/edge_tree.hpp"
#include "serve/registration.hpp"
#include "serve/session_manager.hpp"
#include "steering/control_plane.hpp"
#include "steering/steering.hpp"
#include "transport/receiver.hpp"
#include "transport/sender.hpp"
#include "vis/vis_process.hpp"
#include "weather/model.hpp"

namespace adaptviz {

enum class AlgorithmKind { kGreedyThreshold, kOptimization, kStatic };

const char* to_string(AlgorithmKind k);

/// Multi-client serving at the visualization site (src/serve): an empty
/// viewer list disables the subsystem and reproduces the paper's
/// single-scientist setup exactly.
struct ServeOptions {
  ViewerSessionManager::Options session{};
  std::vector<ViewerConfig> viewers;
  /// Edge-cache distribution tree below the visualization site ([tree]
  /// section): regional caches + leaf session managers fanning each
  /// visualized frame out to viewers_per_leaf × leaf_count modeled
  /// viewers. Empty tiers (the default) disable it. Independent of
  /// `viewers` — the full-fidelity single-site sessions and the modeled
  /// tree can run together or alone.
  TreeSpec tree{};

  [[nodiscard]] bool enabled() const { return !viewers.empty(); }
};

/// Transport failure injection and the sender's retry policy. The default
/// (rate 0) reproduces the seed's always-succeeds WAN exactly.
struct FaultOptions {
  /// Probability in [0, 1] that one transfer attempt aborts mid-flight.
  double transfer_failure_rate = 0.0;
  RetryPolicy retry{};
};

/// The run-side steering knobs. All fields default to "no steering" and
/// reproduce the seed bitwise. Every event reaches the run on its event
/// queue: policy commands and events drained from `control_plane` apply
/// `latency` after they arrive, replayed events at exactly their `wall`.
struct SteeringOptions {
  /// Scientist stand-in consulted at the visualization site per visualized
  /// frame; its commands travel back to the run. Mutually exclusive with
  /// `replay` (a replayed log already contains whatever a policy decided —
  /// running both would double-steer the run).
  SteeringPolicy policy;
  /// Command-channel latency (>= 0).
  WallSeconds latency{0.3};
  /// How often (virtual time) the run drains its inbox on `control_plane`.
  WallSeconds poll_period{60.0};
  /// Multi-run registration server. Non-owning; must outlive the run. The
  /// framework registers under config.name at construction, polls the
  /// inbox every `poll_period`, publishes per-frame observations, and
  /// deregisters when run() returns.
  RegistrationServer* control_plane = nullptr;
  /// Scripted/replayed events, applied at exactly their `wall` times
  /// (load_steering_log() reads a recorded steering_log.jsonl).
  std::vector<SteeringEvent> replay;
  /// Save the applied event stream here when run() returns; replaying the
  /// saved log reproduces this run bit for bit.
  std::string record_log_path;
};

struct ExperimentConfig {
  std::string name = "inter-department";
  SiteSpec site = inter_department_site();
  AlgorithmKind algorithm = AlgorithmKind::kOptimization;

  ModelConfig model{};
  /// Simulated window to cover (Aila: 22-May 18:00 + 60 h -> 25-May 06:00).
  SimSeconds sim_window = SimSeconds::hours(60.0);
  /// Wall-clock cutoff: a stalled greedy run never finishes on its own.
  WallSeconds max_wall = WallSeconds::hours(48.0);

  WallSeconds decision_period = WallSeconds::hours(1.5);
  WallSeconds sample_period = WallSeconds::minutes(10.0);
  DecisionBounds bounds{};
  GreedyThresholds greedy{};
  OptimizerConfig optimizer{};
  JobHandler::Options job{};
  VisualizationProcess::Options vis{};
  ApplicationManager::Options manager{};

  /// Lossless frame codec (`[codec]` section; off by default so every
  /// existing golden stands). When enabled the simulation site encodes each
  /// frame's real compute fields, frames carry encoded bytes through disk,
  /// WAN, and cache accounting, and the decision layer plans with the
  /// observed ratio.
  CodecOptions codec{};
  /// Visualization-site frame cache + viewer fan-out.
  ServeOptions serve{};
  /// Parallel render slots at the visualization site (future work:
  /// "parallelize the visualization process").
  int vis_workers = 1;
  /// Failure injection: scheduled WAN outage windows (sorted,
  /// non-overlapping). Transfers pause across them; the bandwidth
  /// estimator and the decision algorithms must ride them out.
  std::vector<LinkOutage> wan_outages;
  /// Failure injection: per-transfer abort probability + retry policy.
  FaultOptions faults{};
  /// Adversarial environment actions applied at decision boundaries
  /// ([adversary] section; see core/adversary.hpp). An explored branch
  /// replayed through this field reproduces the branch bit for bit.
  AdversaryPlan adversary;
  /// Worker pool for the model's storm-geometry rows and the codec's
  /// per-field lanes. Non-owning; must outlive the run. Null uses
  /// ThreadPool::shared(). Neither the model state nor the codec's bytes
  /// depend on it, and every ordering decision happens on the event loop,
  /// so results are bitwise identical for any pool size —
  /// tests/test_explore.cpp asserts it.
  ThreadPool* pool = nullptr;
  std::uint64_t seed = 42;

  /// Steering: in-run policy, registration server, scripted/replayed
  /// events.
  SteeringOptions steering{};

  /// Observability: when true the framework owns a metrics registry +
  /// stage tracer, installs them on its run context, and returns the
  /// snapshot in ExperimentResult. Off by default: instrumentation is a
  /// no-op and the run is bitwise identical either way (bench_observability
  /// asserts it).
  bool observability = false;

  /// Per-run logging overrides, threaded through the same run context as
  /// observability. An unset level inherits the process-wide
  /// set_log_level(); a null sink writes to stderr. The campaign runner
  /// sets these so K concurrent runs never fight over one global logger.
  /// The sink is non-owning and must outlive the run.
  struct RunLogOptions {
    bool has_level = false;
    LogLevel level = LogLevel::kWarn;
    LogSink* sink = nullptr;

    void set_level(LogLevel l) {
      level = l;
      has_level = true;
    }
  };
  RunLogOptions log{};
};

struct ExperimentSummary {
  bool completed = false;      // simulation covered the full window
  WallSeconds wall_elapsed{};  // when the run ended (drained or cutoff)
  /// Wall time at which the *simulation* finished (Fig 5's endpoint); equal
  /// to wall_elapsed unless transfers kept draining afterwards. Unset when
  /// the simulation never completed.
  WallSeconds sim_finished_wall{};
  SimSeconds sim_reached{};
  Bytes peak_disk_used{};
  double min_free_disk_percent = 100.0;
  WallSeconds total_stall_time{};
  std::int64_t frames_written = 0;
  std::int64_t frames_sent = 0;
  std::int64_t frames_visualized = 0;
  // Transport reliability (zero on a failure-free link).
  std::int64_t transfer_failures = 0;
  std::int64_t transfer_retries = 0;
  int restarts = 0;
  int decision_count = 0;

  // Serving subsystem (zero when no viewers are configured).
  int viewers = 0;
  std::int64_t frames_served = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_evictions = 0;
  std::int64_t rerenders = 0;
  Bytes peak_cache_bytes{};

  // Frame codec (identity values when [codec] is off).
  double codec_mean_ratio = 1.0;  // cumulative raw/encoded over the run
  Bytes codec_bytes_saved{};      // modeled bytes kept off disk and wire

  // Steering (zero when no steering/observers are configured).
  std::int64_t steering_events = 0;  // events applied on the run's stream
  std::int64_t steer_renders = 0;    // view-steer re-renders performed
  std::int64_t steer_dedup = 0;      // renders saved by (frame,view) dedup
  int observers_peak = 0;            // most sessions attached at once

  // Edge-cache distribution tree (zero when [tree] is absent).
  int tree_tiers = 0;
  int tree_leaves = 0;
  std::int64_t tree_viewers = 0;           // leaves × viewers_per_leaf
  std::int64_t tree_frames_delivered = 0;  // viewer frames (fanned out)
  Bytes tree_origin_wan_bytes{};           // tier-0 uplink traffic
  std::int64_t tree_fill_retries = 0;      // all tiers
  std::int64_t tree_degraded_events = 0;   // all tiers
};

/// One client's delivery series plus its terminal stats (CSV + figures).
struct ClientSeries {
  std::string name;
  ViewerMode mode{};
  ViewerStats stats{};
  std::vector<DeliveryRecord> records;
};

struct ExperimentResult {
  ExperimentConfig config;
  ExperimentSummary summary;
  std::vector<TelemetrySample> samples;
  std::vector<VisRecord> vis_records;
  std::vector<DecisionRecord> decisions;
  std::vector<TrackPoint> track;
  /// The applied kCommand events (event.wall is the delivery time;
  /// event.client names the sender, "" for in-run policies).
  std::vector<SteeringEvent> steering;
  std::vector<ClientSeries> clients;
  /// Populated when config.observability is set; empty otherwise.
  obs::MetricsSnapshot metrics;
  std::vector<obs::TraceEvent> trace;
};

/// The framework's own stepwise bookkeeping: what belongs to no single
/// component.
struct RunBookkeeping {
  std::vector<SteeringEvent> steering_events;     // every applied event
  std::map<std::string, KnobProposal> proposals;  // live, by client
  int observers_peak = 0;
  bool started = false;  // start_run() has run on this timeline
  bool sim_finish_seen = false;
  WallSeconds sim_finished_wall{0.0};
  std::size_t adversary_applied = 0;
};

/// Complete checkpoint of one experiment at an event boundary: every
/// stateful layer's State value composed with the pending event queue.
/// Copyable — the heavy weather-solver fields and codec history ride as
/// shared immutable copies — so the scenario explorer can hold one per
/// open tree node. Contract:
///
///  * capture only between events (AdaptiveFramework::snapshot() is only
///    callable from the stepwise driving loop, never from inside a
///    callback);
///  * restore only onto the SAME AdaptiveFramework instance the snapshot
///    was taken from: pending events hold closures over the framework's
///    long-lived components, which restore() rewinds in place.
struct ExperimentState {
  EventQueue::State queue;
  GroundTruthMachine::State machine;
  DiskModel::State disk;
  NetworkLink::State link;
  FrameCatalog::State catalog;
  BandwidthEstimator::State estimator;
  ApplicationConfiguration app_config{};
  SimulationProcess::State process;
  JobHandler::State job_handler;
  ApplicationManager::State manager;
  FrameSender::State sender;
  FrameReceiver::State receiver;
  VisualizationProcess::State vis;
  TelemetryRecorder::State telemetry;
  /// Absent when the serving subsystem had not been created yet (restore
  /// then tears a later-created manager back down).
  std::optional<ViewerSessionManager::State> serving;
  /// Present exactly when [tree] is configured (the tree is built with the
  /// framework).
  std::optional<EdgeTree::State> tree;
  RunBookkeeping run;
  /// Every instrument at capture time (empty when observability is off);
  /// restore() rewinds counters, gauges and histograms to it.
  obs::MetricsSnapshot metrics;
};

class AdaptiveFramework {
 public:
  explicit AdaptiveFramework(ExperimentConfig config);
  ~AdaptiveFramework();

  AdaptiveFramework(const AdaptiveFramework&) = delete;
  AdaptiveFramework& operator=(const AdaptiveFramework&) = delete;

  /// Runs the experiment to completion (simulation finished and all frames
  /// visualized) or to the wall cutoff. The framework's run context is
  /// (re-)installed on the calling thread for the duration, so run() may
  /// legally execute on a different thread than the constructor — e.g. as
  /// a campaign pool task.
  ExperimentResult run();

  // --- Stepwise driving (run() delegates to these) ---
  //
  // The explorer's interface: start, pump events one at a time, snapshot
  // or restore at any boundary, and build the result when done. Must
  // execute on the thread that constructed the framework (whose run
  // context is still installed); run() itself re-installs the context and
  // so stays safe to call from a campaign pool task.

  /// Launches the initial job, the manager, the sender and telemetry.
  /// Throws std::logic_error when called twice on the same timeline
  /// (restoring a pre-start snapshot re-arms it).
  void start_run();
  /// Executes one event. Returns false when the run is over: queue empty,
  /// wall cutoff reached, or simulation finished with the pipeline
  /// drained.
  bool step_once();
  /// Builds the result from the current state. The run must not be
  /// stepped further afterwards unless restore() rewinds it first.
  ExperimentResult finish_run();

  /// Whole-experiment checkpoint at the current event boundary. Throws
  /// std::logic_error with a steering.control_plane: a RegistrationServer
  /// is shared across runs, so its state is not this run's to rewind.
  [[nodiscard]] ExperimentState snapshot() const;
  /// Rewinds this instance to `s`. Only valid with a state captured from
  /// this same instance.
  void restore(const ExperimentState& s);

  /// Replaces the adversary plan mid-run (the explorer extends a branch
  /// right after a restore) and immediately applies any action already
  /// due at the current decision count. The already-applied prefix must
  /// be unchanged; throws std::invalid_argument otherwise.
  void set_adversary_plan(AdversaryPlan plan);
  /// Decisions the application manager has made so far (adversary actions
  /// key off this count).
  [[nodiscard]] int decisions_made() const;

  /// Component access for tests and custom drivers.
  [[nodiscard]] EventQueue& queue() { return queue_; }
  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  [[nodiscard]] const DiskModel& disk() const { return disk_; }
  [[nodiscard]] const SimulationProcess& process() const { return *process_; }
  [[nodiscard]] const VisualizationProcess& vis() const { return *vis_; }
  [[nodiscard]] const ApplicationManager& manager() const { return *manager_; }
  [[nodiscard]] const FrameSender& sender() const { return *sender_; }
  [[nodiscard]] const FrameReceiver& receiver() const { return *receiver_; }
  [[nodiscard]] const ApplicationConfiguration& configuration() const {
    return app_config_;
  }
  [[nodiscard]] const PerformanceModel& performance_model() const {
    return *perf_;
  }
  /// Null when no viewers are configured.
  [[nodiscard]] const ViewerSessionManager* serving() const {
    return serving_.get();
  }
  /// Null when no [tree] is configured.
  [[nodiscard]] const EdgeTree* tree() const { return tree_.get(); }
  /// Null unless config.observability is set.
  [[nodiscard]] obs::Observability* observability() { return obs_.get(); }

  /// The run's applied steering-event stream (what record_log_path saves).
  [[nodiscard]] const std::vector<SteeringEvent>& steering_events() const {
    return run_.steering_events;
  }

 private:
  [[nodiscard]] TelemetrySample sample_now();
  [[nodiscard]] ApplicationStatus status_now();
  [[nodiscard]] bool drained() const;
  void apply_steering(const SteeringCommand& command);
  void apply_event(const SteeringEvent& event);
  /// The one way a steering event reaches the run: validates it (throws
  /// std::invalid_argument, scheduling nothing) and applies it at `at`.
  void deliver(const SteeringEvent& event, WallSeconds at,
               const char* label);
  /// Drains the server inbox, delivering each event one latency from now,
  /// and schedules the next poll.
  void poll_inbox();
  void ensure_serving();
  void recompute_observer_digest();
  /// Applies every not-yet-applied adversary action whose decision index
  /// has passed. Both the stepwise loop and set_adversary_plan() run
  /// through here, so an explored branch and its plain replay mutate the
  /// environment at the same virtual instants.
  void apply_due_adversary_actions();

  ExperimentConfig config_;
  EventQueue queue_;

  GroundTruthMachine machine_;
  DiskModel disk_;
  NetworkLink link_;
  FrameCatalog catalog_;
  BandwidthEstimator estimator_;

  std::unique_ptr<PerformanceModel> perf_;
  ApplicationConfiguration app_config_;

  std::unique_ptr<DecisionAlgorithm> algorithm_;
  std::unique_ptr<VisualizationProcess> vis_;
  std::unique_ptr<ViewerSessionManager> serving_;
  std::unique_ptr<EdgeTree> tree_;
  std::unique_ptr<FrameReceiver> receiver_;
  std::unique_ptr<FrameSender> sender_;
  std::unique_ptr<SimulationProcess> process_;
  std::unique_ptr<JobHandler> job_handler_;
  std::unique_ptr<ApplicationManager> manager_;
  std::unique_ptr<TelemetryRecorder> telemetry_;
  RegistrationServer::RunId server_run_id_ = -1;
  RunBookkeeping run_;

  // The experiment's run context (obs bundle + log overrides). Declared
  // last and in this order: the scope uninstalls before the context and
  // bundle it points at are destroyed.
  std::unique_ptr<obs::Observability> obs_;
  RunContext ctx_;
  std::unique_ptr<ScopedRunContext> ctx_scope_;
};

/// Convenience wrapper: build, run, return.
ExperimentResult run_experiment(const ExperimentConfig& config);

}  // namespace adaptviz

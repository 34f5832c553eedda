#include "core/framework.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace adaptviz {

const char* to_string(AlgorithmKind k) {
  switch (k) {
    case AlgorithmKind::kGreedyThreshold:
      return "greedy-threshold";
    case AlgorithmKind::kOptimization:
      return "optimization";
    case AlgorithmKind::kStatic:
      return "non-adaptive";
  }
  return "?";
}

namespace {

std::unique_ptr<DecisionAlgorithm> make_algorithm(
    const ExperimentConfig& cfg) {
  switch (cfg.algorithm) {
    case AlgorithmKind::kGreedyThreshold:
      return std::make_unique<GreedyThresholdAlgorithm>(cfg.greedy);
    case AlgorithmKind::kOptimization:
      return std::make_unique<LpOptimizerAlgorithm>(cfg.optimizer);
    case AlgorithmKind::kStatic:
      return std::make_unique<StaticAlgorithm>();
  }
  throw std::invalid_argument("unknown algorithm kind");
}

/// Evenly strided downsample to at most `cap` elements, always keeping the
/// first and last (a series' endpoints carry the run's boundary state).
template <typename T>
void stride_thin(std::vector<T>& v, std::size_t cap) {
  if (cap == 0 || v.size() <= cap) return;
  if (cap == 1) {
    v.erase(v.begin(), v.end() - 1);
    return;
  }
  std::vector<T> out;
  out.reserve(cap);
  const std::size_t n = v.size();
  for (std::size_t k = 0; k < cap; ++k) {
    out.push_back(std::move(v[k * (n - 1) / (cap - 1)]));
  }
  v = std::move(out);
}

}  // namespace

AdaptiveFramework::AdaptiveFramework(ExperimentConfig config)
    : config_(std::move(config)),
      machine_(config_.site.machine, config_.seed),
      disk_(config_.site.disk_capacity, config_.site.io_bandwidth),
      link_(LinkSpec{.nominal = config_.site.wan_nominal,
                     .outages = config_.wan_outages,
                     .efficiency = config_.site.wan_efficiency,
                     .fluctuation_sigma = config_.site.wan_fluctuation_sigma,
                     .failure_probability =
                         config_.faults.transfer_failure_rate},
            config_.seed + 1) {
  if (config_.observability) {
    obs_ = std::make_unique<obs::Observability>(config_.obs);
    ctx_.observability = obs_.get();
  }
  ctx_.has_log_level = config_.log.has_level;
  ctx_.log_level = config_.log.level;
  ctx_.log_sink = config_.log.sink;
  ctx_.run_label = config_.name;
  if (ctx_.observability != nullptr || ctx_.has_log_level ||
      ctx_.log_sink != nullptr) {
    // Install before any component is built so construction-time activity
    // (profiling sweeps run through the pool) is captured too. A config
    // with nothing to install leaves the surrounding context visible.
    ctx_scope_ = std::make_unique<ScopedRunContext>(&ctx_);
  }

  // Profile the machine and fit the performance model — the framework's
  // decision algorithms only ever see this fitted curve, never the ground
  // truth.
  BenchmarkProfiler profiler;
  const ProfileData profile = profiler.profile(machine_, /*work_units=*/1.0);
  perf_ = std::make_unique<PerformanceModel>(profile,
                                             config_.site.machine.max_cores);

  // Initial configuration: the greedy strategy's natural starting point —
  // maximum processors, most frequent output. The optimizer overwrites it
  // on the manager's first invocation (at t = 0).
  app_config_.processors = config_.site.machine.max_cores;
  app_config_.output_interval = config_.bounds.min_output_interval;
  app_config_.resolution_km = config_.model.base_resolution_km;

  if (config_.steering.policy && !config_.steering.replay.empty()) {
    throw std::invalid_argument(
        "ExperimentConfig: a steering policy and a replay log would "
        "double-steer the run; configure one or the other");
  }
  if (config_.steering.poll_period.seconds() <= 0) {
    throw std::invalid_argument(
        "ExperimentConfig: steering.poll_period must be > 0");
  }
  if (config_.steering.latency.seconds() < 0) {
    throw std::invalid_argument(
        "ExperimentConfig: steering.latency must be >= 0");
  }
  validate(config_.adversary);

  algorithm_ = make_algorithm(config_);
  VisualizationProcess::Options vis_opts = config_.vis;
  {
    // Every visualized frame becomes a steering observation: the in-run
    // policy reacts to it, and a registration server publishes it to
    // attached monitoring clients.
    auto chained = std::move(vis_opts.on_frame);
    vis_opts.on_frame = [this, chained = std::move(chained)](
                            const Frame& f, const VisRecord& rec) {
      if (chained) chained(f, rec);
      SteeringObservation obs;
      obs.wall_time = rec.wall_time;
      obs.sim_time = rec.sim_time;
      obs.sequence = rec.sequence;
      obs.min_pressure_hpa = f.min_pressure_hpa;
      obs.resolution_km = f.resolution_km;
      obs.nest_active = f.nest_active;
      if (config_.steering.policy) {
        if (auto cmd = config_.steering.policy(obs)) {
          SteeringEvent e;
          e.command = std::move(*cmd);
          deliver(e, queue_.now() + config_.steering.latency,
                  "steering.deliver");
          ADAPTVIZ_LOG_INFO("steering", "[%s] %s queued (%s)",
                            hh_mm(queue_.now()).c_str(),
                            to_string(e.command.kind),
                            e.command.reason.c_str());
        }
      }
      if (config_.steering.control_plane != nullptr && server_run_id_ >= 0) {
        config_.steering.control_plane->observe(server_run_id_, obs);
      }
    };
  }
  vis_ = std::make_unique<VisualizationProcess>(queue_, vis_opts);
  if (config_.serve.enabled()) {
    // The frame cache + viewer fan-out behind the receiver. Re-renders for
    // catch-up clients reuse the visualization process's renderer on the
    // shared pool.
    ensure_serving();
    for (const ViewerConfig& v : config_.serve.viewers) {
      serving_->attach(v);
    }
    run_.observers_peak = serving_->attached_count();
  }
  if (config_.serve.tree.enabled()) {
    // Edge-cache distribution tree below the visualization site: every
    // frame the site visualizes becomes the authoritative copy the
    // regional caches pull through their own (fault-injectable) uplinks.
    tree_ = std::make_unique<EdgeTree>(queue_, config_.serve.tree,
                                       config_.seed + 5);
  }
  // Heavy image rendering runs on the shared pool (one lane per busy
  // render slot); progress records, the cache publish, and steering hooks
  // stay serial.
  receiver_ = std::make_unique<FrameReceiver>(
      queue_,
      [this](const Frame& f) {
        const WallSeconds cost = vis_->record(f);
        if (serving_) serving_->on_frame(f);
        if (tree_) tree_->publish(f);
        return cost;
      },
      config_.vis_workers,
      config_.pool != nullptr ? config_.pool : &ThreadPool::shared(),
      [this](const Frame& f) { vis_->render_frame(f); });
  FrameSender::Options sender_opts;
  sender_opts.retry = config_.faults.retry;
  sender_opts.seed = config_.seed + 4;
  sender_ = std::make_unique<FrameSender>(
      queue_, link_, catalog_, disk_, estimator_,
      [this](const Frame& f) { receiver_->on_frame_arrival(f); },
      sender_opts);

  SimulationProcess::Options sim_opts;
  sim_opts.end_time = config_.sim_window;
  sim_opts.keep_payloads = config_.keep_payloads;
  sim_opts.codec = config_.codec;
  sim_opts.pool = config_.pool;
  SimulationProcess::Callbacks sim_cbs;
  sim_cbs.on_resolution_signal = [this](double res) {
    job_handler_->on_resolution_signal(res);
  };
  process_ = std::make_unique<SimulationProcess>(
      queue_, machine_, disk_, catalog_, *sender_, app_config_, sim_opts,
      std::move(sim_cbs));

  ModelConfig model_cfg = config_.model;
  model_cfg.analysis.seed = config_.seed + 2;
  job_handler_ = std::make_unique<JobHandler>(
      queue_, *process_, app_config_, disk_, model_cfg,
      ResolutionLadder::table3(), config_.job);

  ApplicationManager::Options mgr_opts = config_.manager;
  mgr_opts.period = config_.decision_period;
  mgr_opts.bounds = config_.bounds;
  mgr_opts.min_processors = config_.site.machine.min_cores;
  manager_ = std::make_unique<ApplicationManager>(
      queue_, *algorithm_, *perf_, disk_, link_, estimator_, app_config_,
      [this] { return status_now(); },
      [this] { job_handler_->on_configuration_changed(); }, mgr_opts);

  telemetry_ = std::make_unique<TelemetryRecorder>(
      queue_, [this] { return sample_now(); }, config_.sample_period);

  for (const SteeringEvent& e : config_.steering.replay) {
    deliver(e, e.wall, "steering.replay");
  }
  if (config_.steering.control_plane != nullptr) {
    server_run_id_ =
        config_.steering.control_plane->register_run(config_.name);
    // First inbox pull at t=0 (pre-registration events with wall 0 apply
    // one latency in), then every poll_period.
    queue_.schedule_at(
        WallSeconds(0.0), [this] { poll_inbox(); }, "steering.poll");
  }
}

AdaptiveFramework::~AdaptiveFramework() {
  if (config_.steering.control_plane != nullptr && server_run_id_ >= 0) {
    config_.steering.control_plane->deregister_run(server_run_id_);
    server_run_id_ = -1;
  }
}

void AdaptiveFramework::deliver(const SteeringEvent& event, WallSeconds at,
                                const char* label) {
  validate(event);
  queue_.schedule_at(at, [this, event] { apply_event(event); }, label);
}

void AdaptiveFramework::poll_inbox() {
  if (server_run_id_ < 0) return;  // deregistered: the run is over
  // A drained event's wall has passed (wall <= now), so it applies one
  // channel latency from now.
  for (const SteeringEvent& e : config_.steering.control_plane->drain(
           server_run_id_, queue_.now())) {
    deliver(e, queue_.now() + config_.steering.latency, "steering.deliver");
  }
  queue_.schedule_after(
      config_.steering.poll_period, [this] { poll_inbox(); },
      "steering.poll");
}

void AdaptiveFramework::ensure_serving() {
  if (serving_) return;
  serving_ = std::make_unique<ViewerSessionManager>(
      queue_, config_.serve.session, config_.seed + 3,
      config_.pool != nullptr ? config_.pool : &ThreadPool::shared(),
      [this](const Frame& f) { vis_->render_frame(f); });
}

void AdaptiveFramework::recompute_observer_digest() {
  ObserverDigest d;
  d.attached = serving_ ? serving_->attached_count() : 0;
  for (const auto& [client, p] : run_.proposals) {
    if (p.max_output_interval.seconds() > 0) {
      d.has_proposal = true;
      d.max_output_interval =
          d.max_output_interval.seconds() > 0
              ? std::min(d.max_output_interval, p.max_output_interval)
              : p.max_output_interval;
    }
    if (p.resolution_floor_km > 0) {
      d.has_proposal = true;
      d.resolution_floor_km =
          std::max(d.resolution_floor_km, p.resolution_floor_km);
    }
  }
  manager_->set_observer_digest(d);
  // The strictest observer floor caps the resolution ladder like a
  // kSetResolutionFloor command would (sticky: withdrawing a proposal does
  // not un-floor a ladder that already honoured it).
  if (d.resolution_floor_km > 0) {
    job_handler_->set_resolution_floor(d.resolution_floor_km);
  }
}

void AdaptiveFramework::apply_event(const SteeringEvent& e) {
  SteeringEvent record = e;
  record.wall = queue_.now();
  run_.steering_events.push_back(std::move(record));
  switch (e.type) {
    case SteeringEvent::Type::kCommand:
      apply_steering(e.command);
      break;
    case SteeringEvent::Type::kView: {
      if (!serving_) {
        ADAPTVIZ_LOG_WARN("steering",
                          "view event from '%s' dropped: serving disabled",
                          e.client.c_str());
        break;
      }
      const std::optional<ClientId> id = serving_->find_client(e.client);
      if (!id.has_value()) {
        ADAPTVIZ_LOG_WARN("steering",
                          "view event from unknown client '%s' dropped",
                          e.client.c_str());
        break;
      }
      serving_->steer_view(*id, e.view);
      break;
    }
    case SteeringEvent::Type::kProposal:
      run_.proposals[e.client] = e.proposal;
      recompute_observer_digest();
      break;
    case SteeringEvent::Type::kAttach: {
      ensure_serving();
      if (const std::optional<ClientId> id = serving_->find_client(e.client);
          id.has_value()) {
        serving_->reattach(*id);
      } else {
        ViewerConfig v;
        v.name = e.client;
        v.downlink.nominal = Bandwidth::mbps(e.attach.downlink_mbps);
        v.mode = e.attach.mode == "catch-up" ? ViewerMode::kCatchUp
                                             : ViewerMode::kLiveTail;
        v.catchup_start = SimSeconds::hours(e.attach.catchup_start_hours);
        v.join_wall = queue_.now();
        serving_->attach(v);
      }
      run_.observers_peak =
          std::max(run_.observers_peak, serving_->attached_count());
      recompute_observer_digest();
      break;
    }
    case SteeringEvent::Type::kDetach: {
      if (serving_) {
        if (const std::optional<ClientId> id =
                serving_->find_client(e.client);
            id.has_value() && serving_->attached(*id)) {
          serving_->detach(*id);
        }
      }
      run_.proposals.erase(e.client);
      recompute_observer_digest();
      break;
    }
  }
}

void AdaptiveFramework::apply_steering(const SteeringCommand& c) {
  switch (c.kind) {
    case SteeringCommand::Kind::kSetOutputBounds:
      manager_->set_bounds(c.bounds);
      break;
    case SteeringCommand::Kind::kSetResolutionFloor:
      job_handler_->set_resolution_floor(c.resolution_floor_km);
      break;
    case SteeringCommand::Kind::kSetNestExtent:
      job_handler_->set_nest_extent(c.nest_extent_deg);
      break;
    case SteeringCommand::Kind::kPause:
      manager_->set_paused(true);
      if (c.auto_resume_after.seconds() > 0) {
        queue_.schedule_after(
            c.auto_resume_after, [this] { manager_->set_paused(false); },
            "steering.auto_resume");
      }
      break;
    case SteeringCommand::Kind::kResume:
      manager_->set_paused(false);
      break;
  }
}

ApplicationStatus AdaptiveFramework::status_now() {
  ApplicationStatus st;
  const WeatherModel* m = process_->model();
  if (m == nullptr) {
    st.resolution_km = config_.model.base_resolution_km;
    st.integration_step =
        SimSeconds(SwSolver::dt_for_resolution_km(st.resolution_km));
    st.remaining_sim_time = config_.sim_window;
    st.max_usable_processors = config_.site.machine.max_cores;
    return st;
  }
  st.work_units = m->work_units();
  st.frame_bytes = m->frame_bytes();
  if (config_.codec.enabled) {
    // The decision layer plans disk and WAN budgets with encoded bytes;
    // the cumulative observed ratio is the estimate for unseen frames.
    st.frame_bytes =
        st.frame_bytes * (1.0 / process_->codec_cumulative_ratio());
  }
  st.integration_step = SimSeconds(m->dt_seconds());
  st.remaining_sim_time =
      std::max(SimSeconds(0.0), config_.sim_window - m->sim_time());
  st.resolution_km = m->modeled_resolution_km();
  st.max_usable_processors =
      std::min(config_.site.machine.max_cores, m->max_usable_processors());
  st.finished = process_->finished();
  st.link_degraded = sender_->link_degraded();
  return st;
}

TelemetrySample AdaptiveFramework::sample_now() {
  TelemetrySample s;
  s.wall_time = queue_.now();
  s.sim_time = process_->sim_time();
  s.free_disk_percent = disk_.free_percent();
  s.processors = app_config_.processors;
  s.output_interval = app_config_.output_interval;
  s.stalled = process_->stalled();
  s.critical = app_config_.critical;
  s.paused = app_config_.paused;
  s.frames_written = process_->frames_written();
  s.frames_sent = sender_->frames_sent();
  s.frames_visualized = receiver_->frames_visualized();
  s.transfer_failures = sender_->transfer_failures();
  s.transfer_retries = sender_->transfer_retries();
  s.link_degraded = sender_->link_degraded();
  s.retry_backoff_seconds = sender_->current_backoff().seconds();
  if (serving_) {
    s.frames_served = serving_->frames_served();
    s.serve_hit_percent = serving_->cache().stats().hit_rate() * 100.0;
    s.cache_bytes = serving_->cache().bytes_cached();
  }
  if (const WeatherModel* m = process_->model()) {
    s.resolution_km = m->modeled_resolution_km();
    s.min_pressure_hpa = m->min_pressure_hpa();
  }
  s.codec_ratio = process_->codec_last_ratio();
  return s;
}

bool AdaptiveFramework::drained() const {
  return catalog_.empty() && !sender_->transfer_in_flight() &&
         receiver_->backlog() == 0 &&
         receiver_->frames_received() == receiver_->frames_visualized() &&
         (serving_ == nullptr || serving_->idle()) &&
         (tree_ == nullptr || tree_->idle());
}

ExperimentResult AdaptiveFramework::run() {
  // The constructor installed the context on the constructing thread;
  // re-install here so an experiment constructed on one thread and run on
  // another (a campaign pool task) still records into its own context.
  std::optional<ScopedRunContext> scope;
  if (ctx_scope_ != nullptr) scope.emplace(&ctx_);

  start_run();
  while (step_once()) {
  }
  return finish_run();
}

void AdaptiveFramework::start_run() {
  if (run_.started) {
    throw std::logic_error("AdaptiveFramework: start_run called twice");
  }
  run_.started = true;
  ADAPTVIZ_LOG_INFO("framework", "=== %s / %s ===", config_.name.c_str(),
                    to_string(config_.algorithm));
  job_handler_->launch_initial();
  manager_->start();  // makes decision 0 synchronously
  sender_->start();
  telemetry_->start();
  apply_due_adversary_actions();
}

bool AdaptiveFramework::step_once() {
  if (!queue_.step()) return false;
  apply_due_adversary_actions();
  if (process_->finished() && !run_.sim_finish_seen) {
    run_.sim_finish_seen = true;
    run_.sim_finished_wall = queue_.now();
  }
  if (queue_.now() >= config_.max_wall) return false;
  if (process_->finished() && drained()) return false;
  return true;
}

int AdaptiveFramework::decisions_made() const {
  return static_cast<int>(manager_->decisions().size());
}

void AdaptiveFramework::apply_due_adversary_actions() {
  const int decided = decisions_made();
  while (run_.adversary_applied < config_.adversary.size() &&
         config_.adversary[run_.adversary_applied].after_decision <
             decided) {
    const AdversaryAction& a = config_.adversary[run_.adversary_applied];
    ++run_.adversary_applied;
    switch (a.kind) {
      case AdversaryActionKind::kBandwidthDrop:
        link_.set_efficiency(link_.spec().efficiency * a.magnitude);
        break;
      case AdversaryActionKind::kFailureBurst:
        link_.set_failure_probability(a.magnitude);
        break;
      case AdversaryActionKind::kDiskShock:
        disk_.inject_external(
            Bytes(static_cast<std::int64_t>(disk_.capacity().as_double() *
                                            a.magnitude)));
        break;
    }
    ADAPTVIZ_LOG_WARN("adversary", "[%s] applied %s",
                      hh_mm(queue_.now()).c_str(), to_string(a).c_str());
  }
}

void AdaptiveFramework::set_adversary_plan(AdversaryPlan plan) {
  validate(plan);
  if (plan.size() < run_.adversary_applied) {
    throw std::invalid_argument(
        "set_adversary_plan: plan drops already-applied actions");
  }
  for (std::size_t i = 0; i < run_.adversary_applied; ++i) {
    if (!(plan[i] == config_.adversary[i])) {
      throw std::invalid_argument(
          "set_adversary_plan: already-applied prefix changed");
    }
  }
  config_.adversary = std::move(plan);
  if (run_.started) apply_due_adversary_actions();
}

ExperimentState AdaptiveFramework::snapshot() const {
  if (config_.steering.control_plane != nullptr) {
    throw std::logic_error(
        "AdaptiveFramework::snapshot: a registration server does not "
        "support snapshot/restore");
  }
  ExperimentState s;
  s.queue = queue_.snapshot();
  s.machine = machine_.snapshot();
  s.disk = disk_.snapshot();
  s.link = link_.snapshot();
  s.catalog = catalog_.snapshot();
  s.estimator = estimator_.snapshot();
  s.app_config = app_config_;
  s.process = process_->snapshot();
  s.job_handler = job_handler_->snapshot();
  s.manager = manager_->snapshot();
  s.sender = sender_->snapshot();
  s.receiver = receiver_->snapshot();
  s.vis = vis_->snapshot();
  s.telemetry = telemetry_->snapshot();
  if (serving_) s.serving = serving_->snapshot();
  if (tree_) s.tree = tree_->snapshot();
  s.run = run_;
  if (obs_) s.metrics = obs_->metrics().snapshot();
  return s;
}

void AdaptiveFramework::restore(const ExperimentState& s) {
  queue_.restore(s.queue);
  machine_.restore(s.machine);
  disk_.restore(s.disk);
  link_.restore(s.link);
  catalog_.restore(s.catalog);
  estimator_.restore(s.estimator);
  app_config_ = s.app_config;
  process_->restore(s.process);
  job_handler_->restore(s.job_handler);
  manager_->restore(s.manager);
  sender_->restore(s.sender);
  receiver_->restore(s.receiver);
  vis_->restore(s.vis);
  telemetry_->restore(s.telemetry);
  if (s.serving.has_value()) {
    ensure_serving();
    serving_->restore(*s.serving);
  } else {
    // The serving subsystem did not exist at capture time (it appears
    // on the first attach event); any manager created since rewinds away
    // with the events that would have referenced it.
    serving_.reset();
  }
  if (tree_) tree_->restore(*s.tree);
  run_ = s.run;
  if (obs_) obs_->metrics().restore(s.metrics);
}

ExperimentResult AdaptiveFramework::finish_run() {
  telemetry_->stop();
  manager_->stop();
  sender_->stop();

  ExperimentResult result;
  result.config = config_;
  result.samples = telemetry_->samples();
  result.samples.push_back(sample_now());
  result.vis_records = vis_->records();
  result.decisions = manager_->decisions();
  if (process_->model() != nullptr) {
    result.track = process_->model()->tracker().track();
  }
  for (const SteeringEvent& e : run_.steering_events) {
    if (e.type == SteeringEvent::Type::kCommand) result.steering.push_back(e);
  }
  if (serving_) {
    for (ClientId id{0}; id.value < serving_->viewer_count(); ++id.value) {
      const ViewerConfig& viewer = serving_->viewer(id);
      result.clients.push_back(ClientSeries{viewer.name, viewer.mode,
                                            serving_->stats(id),
                                            serving_->deliveries(id)});
    }
  }

  ExperimentSummary& sum = result.summary;
  sum.completed = process_->finished();
  sum.wall_elapsed = queue_.now();
  sum.sim_finished_wall =
      run_.sim_finish_seen ? run_.sim_finished_wall : queue_.now();
  sum.sim_reached = process_->sim_time();
  sum.peak_disk_used = disk_.peak_used();
  sum.total_stall_time = process_->total_stall_time();
  sum.frames_written = process_->frames_written();
  sum.frames_sent = sender_->frames_sent();
  sum.frames_visualized = receiver_->frames_visualized();
  sum.transfer_failures = sender_->transfer_failures();
  sum.transfer_retries = sender_->transfer_retries();
  sum.restarts = job_handler_->restarts();
  sum.decision_count = static_cast<int>(manager_->decisions().size());
  if (serving_) {
    const FrameCacheStats& cache = serving_->cache().stats();
    sum.viewers = serving_->viewer_count();
    sum.frames_served = serving_->frames_served();
    sum.cache_hits = cache.hits;
    sum.cache_misses = cache.misses;
    sum.cache_evictions = cache.evictions;
    sum.rerenders = serving_->rerenders();
    sum.peak_cache_bytes = cache.peak_bytes;
    sum.steer_renders = serving_->steer_renders();
    sum.steer_dedup = serving_->steer_dedup();
  }
  sum.steering_events =
      static_cast<std::int64_t>(run_.steering_events.size());
  sum.observers_peak = run_.observers_peak;
  if (tree_) {
    sum.tree_tiers = tree_->tier_count();
    sum.tree_leaves = tree_->leaf_count();
    sum.tree_viewers = tree_->modeled_viewers();
    sum.tree_frames_delivered = tree_->frames_delivered();
    sum.tree_origin_wan_bytes = tree_->origin_bytes_on_wan();
    for (int t = 0; t < tree_->tier_count(); ++t) {
      const EdgeTierStats ts = tree_->tier_stats(t);
      sum.tree_fill_retries += ts.fill_retries;
      sum.tree_degraded_events += ts.degraded_events;
    }
  }
  sum.codec_mean_ratio = process_->codec_cumulative_ratio();
  sum.codec_bytes_saved = process_->codec_bytes_saved();
  for (const TelemetrySample& s : result.samples) {
    sum.min_free_disk_percent =
        std::min(sum.min_free_disk_percent, s.free_disk_percent);
  }
  // Thin the recorded series only after every summary aggregate has been
  // computed from the full-resolution data.
  if (config_.max_series_points > 0) {
    stride_thin(result.samples, config_.max_series_points);
    stride_thin(result.vis_records, config_.max_series_points);
    stride_thin(result.track, config_.max_series_points);
    stride_thin(result.steering, config_.max_series_points);
    for (ClientSeries& c : result.clients) {
      stride_thin(c.records, config_.max_series_points);
    }
  }
  if (obs_) {
    result.metrics = obs_->metrics().snapshot();
    result.trace = obs_->tracer().events();
  }
  if (!config_.steering.record_log_path.empty()) {
    // The full (un-thinned) applied stream: replaying it reproduces this
    // run bit for bit.
    save_steering_log(config_.steering.record_log_path,
                      run_.steering_events);
  }
  if (config_.steering.control_plane != nullptr && server_run_id_ >= 0) {
    config_.steering.control_plane->deregister_run(server_run_id_);
    server_run_id_ = -1;
  }
  ADAPTVIZ_LOG_INFO(
      "framework",
      "done: completed=%d wall=%.1fh sim=%.1fh peak_disk=%s stall=%.1fh "
      "frames w/s/v=%lld/%lld/%lld restarts=%d",
      sum.completed ? 1 : 0, sum.wall_elapsed.as_hours(),
      sum.sim_reached.as_hours(), to_string(sum.peak_disk_used).c_str(),
      sum.total_stall_time.as_hours(),
      static_cast<long long>(sum.frames_written),
      static_cast<long long>(sum.frames_sent),
      static_cast<long long>(sum.frames_visualized), sum.restarts);
  return result;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  AdaptiveFramework fw(config);
  return fw.run();
}

}  // namespace adaptviz

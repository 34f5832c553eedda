#include "trace.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "core/scenario.hpp"
#include "weather/geography.hpp"

namespace perfbench {

using namespace adaptviz;

namespace {

/// Bytes one SwSolver::step moves per grid point, counted from the arrays
/// it touches (8-byte doubles, no cache reuse): the stage copy reads and
/// writes h,u,v (6); each of the three RK stages reads the stage state (3)
/// and writes three tendencies (3) in compute_tendency, then reads state
/// and tendencies (6) and writes three fields (3) in the update. Forcing
/// adds four read-only fields per stage.
constexpr double kDynamicsArraysPerPoint = 6.0 + 3.0 * (3.0 + 3.0 + 6.0 + 3.0);
constexpr double kForcingArraysPerPoint = 3.0 * 4.0;

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
    }
  }
  void value(double v) { bytes(&v, sizeof v); }
  void field(const Field2D& f) {
    bytes(f.data().data(), f.data().size() * sizeof(double));
  }
  void domain(const DomainState& d) {
    field(d.h);
    field(d.u);
    field(d.v);
  }
  [[nodiscard]] std::uint64_t get() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t state_digest(double sim_s, double res_km,
                           const DomainState& parent,
                           const std::optional<NestDomain>& nest,
                           const CycloneTracker& tracker,
                           const CyclonePhysics& physics) {
  Fnv f;
  f.value(sim_s);
  f.value(res_km);
  f.domain(parent);
  if (nest.has_value()) f.domain(nest->state());
  f.value(tracker.eye().lat);
  f.value(tracker.eye().lon);
  f.value(tracker.min_pressure_hpa());
  f.value(tracker.lowest_pressure_ever_hpa());
  f.value(static_cast<double>(tracker.track().size()));
  f.value(physics.deficit_hpa());
  f.value(physics.center().lat);
  f.value(physics.center().lon);
  return f.get();
}

std::uint64_t state_digest(const WeatherModel& m) {
  return state_digest(m.sim_time().seconds(), m.modeled_resolution_km(),
                      m.parent_state(), m.nest(), m.tracker(), m.physics());
}

template <typename Fn>
void timed(double& acc, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  acc += seconds_since(t0);
}

/// WeatherModel::step() rebuilt from the weather modules' public calls, so
/// each call can be timed on its own. Loaded from (and digest-compared
/// against) real WeatherModel instances at launch and at every restart.
class ReplayModel {
 public:
  explicit ReplayModel(const WeatherModel& m)
      : config_(m.config()),
        ladder_(m.ladder()),
        solver_(m.config().dynamics),
        physics_(m.physics()) {
    load(m);
  }

  void load(const WeatherModel& m) {
    res_km_ = m.modeled_resolution_km();
    sim_time_ = m.sim_time();
    parent_ = m.parent_state();
    nest_ = m.nest();
    tracker_ = m.tracker();
    physics_ = m.physics();
    parent_land_ = land_mask(parent_.grid);
    if (nest_.has_value()) nest_land_ = land_mask(nest_->grid());
  }

  [[nodiscard]] bool nest_active() const { return nest_.has_value(); }
  [[nodiscard]] std::uint64_t digest() const {
    return state_digest(sim_time_.seconds(), res_km_, parent_, nest_,
                        tracker_, physics_);
  }

  /// The fields SimulationProcess hands the codec, in its order.
  [[nodiscard]] std::vector<FieldView> codec_fields() const {
    std::vector<FieldView> out;
    auto add = [&](const DomainState& d) {
      out.push_back(FieldView{d.h.data().data(), d.h.nx(), d.h.ny()});
      out.push_back(FieldView{d.u.data().data(), d.u.nx(), d.u.ny()});
      out.push_back(FieldView{d.v.data().data(), d.v.nx(), d.v.ny()});
    };
    add(parent_);
    if (nest_.has_value()) add(nest_->state());
    return out;
  }

  void step(LayerTimes& t) {
    const auto t_step = Clock::now();
    const double dt = SwSolver::dt_for_resolution_km(res_km_);
    const bool storm_active = physics_.deficit_hpa() > 2.0;

    SwForcing forcing;
    forcing.steering_u = config_.analysis.steering.u(sim_time_);
    forcing.steering_v = config_.analysis.steering.v(sim_time_);
    if (storm_active) {
      force(parent_, parent_land_, parent_q_, parent_fu_, parent_fv_,
            parent_relax_, forcing, t);
    }
    dynamics(parent_, dt, forcing, t);

    if (nest_.has_value()) {
      SwForcing nf;
      nf.steering_u = forcing.steering_u;
      nf.steering_v = forcing.steering_v;
      const double ndt = dt / kNestRatio;
      for (int k = 0; k < kNestRatio; ++k) {
        timed(t.boundary_s, [&] { nest_->apply_boundary(parent_); });
        if (storm_active) {
          force(nest_->state(), nest_land_, nest_q_, nest_fu_, nest_fv_,
                nest_relax_, nf, t);
        }
        dynamics(nest_->state(), ndt, nf, t);
        ++t.nest_substeps;
      }
      timed(t.feedback_s, [&] { nest_->feedback(parent_); });
    }

    physics_.advance(dt, forcing.steering_u, forcing.steering_v,
                     tracker_.eye());
    sim_time_ += SimSeconds(dt);
    timed(t.tracker_s, [&] {
      tracker_.update(nest_.has_value() ? nest_->state() : parent_,
                      sim_time_);
    });
    timed(t.recenter_s, [&] { place_nest(); });
    t.step_s.push_back(seconds_since(t_step));
  }

 private:
  void force(const DomainState& state, const Field2D& land, Field2D& q,
             Field2D& fu, Field2D& fv, Field2D& relax, SwForcing& out,
             LayerTimes& t) const {
    timed(t.forcing_s,
          [&] { physics_.build_forcing(state, land, q, fu, fv, relax); });
    ++t.forcing_calls;
    t.forcing_cells += static_cast<double>(state.h.size());
    out.mass_tendency = &q;
    out.u_tendency = &fu;
    out.v_tendency = &fv;
    out.relaxation = &relax;
  }

  void dynamics(DomainState& state, double dt, const SwForcing& f,
                LayerTimes& t) const {
    timed(t.dynamics_s, [&] { solver_.step(state, dt, f); });
    const double points = static_cast<double>(state.h.size());
    ++t.dynamics_calls;
    t.dynamics_cells += points;
    t.dynamics_bytes +=
        points * sizeof(double) *
        (kDynamicsArraysPerPoint +
         (f.mass_tendency != nullptr ? kForcingArraysPerPoint : 0.0));
  }

  void place_nest() {
    if (!nest_.has_value()) {
      if (tracker_.min_pressure_hpa() < ladder_.spawn_pressure_hpa()) {
        nest_.emplace(parent_, tracker_.eye(), config_.nest_extent_deg);
        nest_land_ = land_mask(nest_->grid());
      }
      return;
    }
    if (nest_->needs_recenter(tracker_.eye())) {
      nest_->recenter(parent_, tracker_.eye());
      nest_land_ = land_mask(nest_->grid());
    }
  }

  ModelConfig config_;
  ResolutionLadder ladder_;
  SwSolver solver_;
  double res_km_ = 0.0;
  SimSeconds sim_time_{0.0};
  DomainState parent_;
  std::optional<NestDomain> nest_;
  Field2D parent_land_, nest_land_;
  CycloneTracker tracker_;
  CyclonePhysics physics_;
  Field2D parent_q_, parent_fu_, parent_fv_, parent_relax_;
  Field2D nest_q_, nest_fu_, nest_fv_, nest_relax_;
};

std::unique_ptr<DecisionAlgorithm> make_algorithm(const ExperimentConfig& c) {
  switch (c.algorithm) {
    case AlgorithmKind::kGreedyThreshold:
      return std::make_unique<GreedyThresholdAlgorithm>(c.greedy);
    case AlgorithmKind::kOptimization:
      return std::make_unique<LpOptimizerAlgorithm>(c.optimizer);
    case AlgorithmKind::kStatic:
      return std::make_unique<StaticAlgorithm>();
  }
  throw std::invalid_argument("unknown algorithm kind");
}

void replay_decisions(const Script& s, LayerTimes& t,
                      std::vector<std::string>& mismatches) {
  const std::unique_ptr<DecisionAlgorithm> algo = make_algorithm(s.config);
  for (std::size_t i = 0; i < s.decisions.size(); ++i) {
    const DecisionRecord& rec = s.decisions[i];
    DecisionInput in = rec.input;
    in.perf = s.perf.get();
    const auto t0 = Clock::now();
    const Decision d = algo->decide(in);
    t.decide_s.push_back(seconds_since(t0));
    // The manager's safety net may raise CRITICAL after the algorithm
    // decided; it can never clear one the algorithm set.
    const bool critical_ok =
        d.critical ? rec.decision.critical
                   : (!rec.decision.critical ||
                      in.free_disk_percent <
                          s.config.manager.critical_clear_percent);
    if (d.processors != rec.decision.processors ||
        d.output_interval.seconds() !=
            rec.decision.output_interval.seconds() ||
        d.note != rec.decision.note || !critical_ok) {
      mismatches.push_back("decision " + std::to_string(i) +
                           " differs from the recorded one");
    }
  }
}

}  // namespace

double LayerTimes::loop_layers_s() const {
  double s = restart_s + codec_s;
  for (double x : step_s) s += x;
  for (double x : decide_s) s += x;
  return s;
}

void LayerTimes::merge(const LayerTimes& o) {
  forcing_s += o.forcing_s;
  forcing_calls += o.forcing_calls;
  forcing_cells += o.forcing_cells;
  dynamics_s += o.dynamics_s;
  dynamics_calls += o.dynamics_calls;
  dynamics_cells += o.dynamics_cells;
  dynamics_bytes += o.dynamics_bytes;
  boundary_s += o.boundary_s;
  feedback_s += o.feedback_s;
  recenter_s += o.recenter_s;
  tracker_s += o.tracker_s;
  step_s.insert(step_s.end(), o.step_s.begin(), o.step_s.end());
  nest_substeps += o.nest_substeps;
  restarts += o.restarts;
  restart_s += o.restart_s;
  codec_s += o.codec_s;
  encode_s += o.encode_s;
  decode_s += o.decode_s;
  codec_frames += o.codec_frames;
  codec_fields += o.codec_fields;
  codec_raw_bytes += o.codec_raw_bytes;
  codec_encoded_bytes += o.codec_encoded_bytes;
  decide_s.insert(decide_s.end(), o.decide_s.begin(), o.decide_s.end());
}

DriveResult drive_traced(
    const std::function<ExperimentConfig()>& make_config,
    const std::string& out_dir) {
  DriveResult r;
  const auto t_all = Clock::now();
  AdaptiveFramework fw(make_config());
  fw.start_run();
  r.setup_s = seconds_since(t_all);

  // Recording counts toward loop_s and wall_s; the snapshot probes do not,
  // so the replayed layers can be set against them.
  double probe_s = 0.0;
  const auto t_loop = Clock::now();
  Script& s = r.script;
  s.config = fw.config();
  s.initial = std::make_shared<const WeatherModel>(*fw.process().model());
  s.perf = std::make_shared<const PerformanceModel>(fw.performance_model());
  const SimulationProcess& p = fw.process();
  std::size_t decisions_seen = fw.manager().decisions().size();
  for (bool more = true; more;) {
    const bool nest = p.model() != nullptr && p.model()->nest_active();
    const std::int64_t steps0 = p.steps_executed();
    const bool running0 = p.running();
    const Bytes saved0 = p.codec_bytes_saved();
    const double ratio0 = p.codec_cumulative_ratio();

    const auto t_event = Clock::now();
    more = fw.step_once();
    r.event_s.push_back(seconds_since(t_event));

    if (p.steps_executed() != steps0) {
      s.items.push_back({ScriptItem::Kind::kStep, nest, nullptr, 0.0, 0});
    }
    if (p.codec_bytes_saved() != saved0 ||
        p.codec_cumulative_ratio() != ratio0) {
      s.items.push_back({ScriptItem::Kind::kEncode, false, nullptr, 0.0, 0});
    }
    if (running0 && !p.running() && !p.finished()) {
      s.items.push_back({ScriptItem::Kind::kStop, false,
                         std::make_shared<const WeatherModel>(*p.model()),
                         0.0, 0});
    }
    if (!running0 && p.running()) {
      s.items.push_back({ScriptItem::Kind::kStart, false, nullptr,
                         p.model()->modeled_resolution_km(),
                         state_digest(*p.model())});
    }
    if (more && fw.manager().decisions().size() != decisions_seen) {
      decisions_seen = fw.manager().decisions().size();
      const auto t_snap = Clock::now();
      const ExperimentState state = fw.snapshot();
      r.snapshot_s.push_back(seconds_since(t_snap));
      const auto t_restore = Clock::now();
      fw.restore(state);
      r.restore_s.push_back(seconds_since(t_restore));
      probe_s += seconds_since(t_snap);
    }
  }
  s.steps = p.steps_executed();
  s.codec_ratio = p.codec_cumulative_ratio();
  s.final_state_digest = state_digest(*p.model());
  s.decisions = fw.manager().decisions();
  r.events_executed = fw.queue().executed();
  r.loop_s = seconds_since(t_loop) - probe_s;

  const auto t_finish = Clock::now();
  const ExperimentResult result = fw.finish_run();
  r.finish_s = seconds_since(t_finish);
  s.restarts = result.summary.restarts;
  r.summary = result.summary;

  const auto t_write = Clock::now();
  write_result(result, out_dir);
  r.write_s = seconds_since(t_write);
  r.wall_s = seconds_since(t_all) - probe_s;
  return r;
}

LayerTimes replay(const Script& s, std::vector<std::string>& mismatches) {
  LayerTimes t;
  auto mismatch = [&](const std::string& what) {
    mismatches.push_back(s.config.name + ": " + what);
  };

  const WeatherModel launched(s.initial->config(), s.initial->ladder());
  if (state_digest(launched) != state_digest(*s.initial)) {
    mismatch("launched model differs from the run's");
  }
  ReplayModel model(launched);
  std::optional<FrameFieldCodec> codec;
  if (s.config.codec.enabled) codec.emplace(s.config.codec);

  std::int64_t steps = 0;
  std::shared_ptr<const WeatherModel> stopped;
  for (const ScriptItem& item : s.items) {
    switch (item.kind) {
      case ScriptItem::Kind::kStep:
        if (model.nest_active() != item.nest_active) {
          mismatch("nest state differs before step " + std::to_string(steps));
        }
        model.step(t);
        ++steps;
        break;
      case ScriptItem::Kind::kEncode: {
        if (!codec.has_value()) {
          mismatch("frame encoded with the codec off");
          break;
        }
        const std::vector<FieldView> fields = model.codec_fields();
        const auto t0 = Clock::now();
        const CodecFrameReport rep = codec->encode_frame_fields(fields);
        t.codec_s += seconds_since(t0);
        t.encode_s += rep.encode_seconds;
        t.decode_s += rep.decode_seconds;
        ++t.codec_frames;
        t.codec_fields += rep.fields;
        t.codec_raw_bytes += static_cast<double>(rep.raw_bytes);
        t.codec_encoded_bytes += static_cast<double>(rep.encoded_bytes);
        break;
      }
      case ScriptItem::Kind::kStop:
        if (model.digest() != state_digest(*item.model)) {
          mismatch("state differs at the stop after step " +
                   std::to_string(steps));
        }
        stopped = item.model;
        break;
      case ScriptItem::Kind::kStart: {
        if (stopped == nullptr) {
          mismatch("restart without a stop");
          break;
        }
        const auto t0 = Clock::now();
        const NclFile ckpt = stopped->checkpoint();
        WeatherModel next = WeatherModel::restore(
            s.initial->config(), s.initial->ladder(), ckpt);
        if (next.modeled_resolution_km() != item.resolution_km) {
          next.set_modeled_resolution(item.resolution_km);
        }
        t.restart_s += seconds_since(t0);
        ++t.restarts;
        if (state_digest(next) != item.state_digest) {
          mismatch("restarted model differs after step " +
                   std::to_string(steps));
        }
        model.load(next);
        stopped.reset();
        break;
      }
    }
  }

  if (steps != s.steps) {
    mismatch("replayed " + std::to_string(steps) + " parent steps, run made " +
             std::to_string(s.steps));
  }
  if (t.restarts != s.restarts) {
    mismatch("replayed " + std::to_string(t.restarts) +
             " restarts, run made " + std::to_string(s.restarts));
  }
  if (codec.has_value() && codec->cumulative_ratio() != s.codec_ratio) {
    mismatch("codec ratio differs from the run's");
  }
  if (model.digest() != s.final_state_digest) {
    mismatch("final model state differs from the run's");
  }
  replay_decisions(s, t, mismatches);
  return t;
}

namespace {

/// ScenarioExplorer::Walk's control flow (explorer.cpp) minus the
/// invariant checks, which never steer the search.
class MirrorWalk {
 public:
  MirrorWalk(const ExperimentConfig& config, const ExploreSpec& spec)
      : config_(config), spec_(spec) {}

  WalkStats run() {
    const auto t0 = Clock::now();
    AdaptiveFramework fw(config_);
    fw.start_run();
    ++stats_.nodes;
    dfs(fw, {}, 0);
    stats_.wall_s = seconds_since(t0);
    return stats_;
  }

 private:
  bool step(AdaptiveFramework& fw) {
    const double before = fw.process().sim_time().as_hours();
    const bool more = fw.step_once();
    stats_.sim_h_stepped +=
        std::max(0.0, fw.process().sim_time().as_hours() - before);
    return more;
  }

  bool advance_to(AdaptiveFramework& fw, int target) {
    while (fw.decisions_made() < target) {
      if (!step(fw)) return false;
    }
    return true;
  }

  void dfs(AdaptiveFramework& fw, const AdversaryPlan& plan, int depth) {
    if (depth >= spec_.max_depth) {
      while (step(fw)) {
      }
      leaf(fw);
      return;
    }
    if (spec_.prune && have_incumbent_ &&
        fw.process().sim_time() >= incumbent_) {
      ++stats_.pruned;
      return;
    }
    const auto t_snap = Clock::now();
    const ExperimentState state = fw.snapshot();
    stats_.snapshot_s.push_back(seconds_since(t_snap));
    for (const auto& [none, action] : candidates(depth)) {
      if (stats_.leaves >= spec_.max_branches) break;
      AdversaryPlan next = plan;
      if (!none) next.push_back(action);
      const auto t_restore = Clock::now();
      fw.restore(state);
      stats_.restore_s.push_back(seconds_since(t_restore));
      if (!none) fw.set_adversary_plan(next);
      ++stats_.nodes;
      if (advance_to(fw, depth + 2)) {
        dfs(fw, next, depth + 1);
      } else {
        leaf(fw);
      }
    }
  }

  [[nodiscard]] std::vector<std::pair<bool, AdversaryAction>> candidates(
      int depth) const {
    std::vector<std::pair<bool, AdversaryAction>> out;
    if (spec_.include_none) out.push_back({true, {}});
    for (double m : spec_.bandwidth_drop_tiers) {
      out.push_back({false, {depth, AdversaryActionKind::kBandwidthDrop, m}});
    }
    for (double m : spec_.failure_burst_levels) {
      out.push_back({false, {depth, AdversaryActionKind::kFailureBurst, m}});
    }
    for (double m : spec_.disk_shock_fractions) {
      out.push_back({false, {depth, AdversaryActionKind::kDiskShock, m}});
    }
    return out;
  }

  void leaf(const AdaptiveFramework& fw) {
    ++stats_.leaves;
    const SimSeconds progress = fw.process().sim_time();
    if (!have_incumbent_ || progress < incumbent_) {
      have_incumbent_ = true;
      incumbent_ = progress;
    }
  }

  const ExperimentConfig& config_;
  const ExploreSpec& spec_;
  WalkStats stats_;
  bool have_incumbent_ = false;
  SimSeconds incumbent_{std::numeric_limits<double>::infinity()};
};

}  // namespace

WalkStats mirror_walk(const ExperimentConfig& config,
                      const ExploreSpec& spec) {
  if (!spec.use_snapshots) {
    throw std::invalid_argument(
        "mirror_walk: only the snapshot-mode search is mirrored");
  }
  return MirrorWalk(config, spec).run();
}

}  // namespace perfbench

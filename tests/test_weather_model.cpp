// WeatherModel facade tests: stepping, nest lifecycle, resolution ladder
// signalling, frame/checkpoint round trips, and the modeled-quantity
// formulas the framework consumes.
#include "weather/model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>

#include "obs/obs.hpp"
#include "runtime/run_context.hpp"
#include "util/thread_pool.hpp"
#include "weather/domain_io.hpp"

namespace adaptviz {
namespace {

ModelConfig fast_config() {
  ModelConfig cfg;
  cfg.compute_scale = 10.0;  // tiny compute grids: tests stay fast
  return cfg;
}

void run_hours(WeatherModel& m, double hours) {
  const SimSeconds end = m.sim_time() + SimSeconds::hours(hours);
  while (m.sim_time() < end) m.step();
}

TEST(WeatherModel, StepAdvancesByDtRule) {
  WeatherModel m(fast_config());
  EXPECT_DOUBLE_EQ(m.dt_seconds(), 144.0);  // 24 km * 6 s/km
  const SimSeconds dt = m.step();
  EXPECT_DOUBLE_EQ(dt.seconds(), 144.0);
  EXPECT_DOUBLE_EQ(m.sim_time().seconds(), 144.0);
}

TEST(WeatherModel, StartsAsWeakDepression) {
  WeatherModel m(fast_config());
  EXPECT_LT(m.min_pressure_hpa(), kEnvPressureHpa);
  EXPECT_GT(m.min_pressure_hpa(), 995.0);
  EXPECT_FALSE(m.nest_active());
  EXPECT_FALSE(m.resolution_change_pending());
  EXPECT_NEAR(m.eye().lat, 14.0, 1.5);
  EXPECT_NEAR(m.eye().lon, 88.5, 1.5);
}

TEST(WeatherModel, CycloneDeepensAndSpawnsNest) {
  WeatherModel m(fast_config());
  run_hours(m, 20.0);
  EXPECT_LT(m.min_pressure_hpa(), 995.0);
  EXPECT_TRUE(m.nest_active());
  EXPECT_TRUE(m.resolution_change_pending());
  EXPECT_LT(m.recommended_resolution_km(), 24.0);
}

TEST(WeatherModel, TrackMovesNorth) {
  WeatherModel m(fast_config());
  run_hours(m, 30.0);
  const auto& track = m.tracker().track();
  ASSERT_GE(track.size(), 2u);
  EXPECT_GT(track.back().eye.lat, track.front().eye.lat + 1.0);
}

TEST(WeatherModel, SetResolutionRegrids) {
  WeatherModel m(fast_config());
  run_hours(m, 16.0);
  ASSERT_TRUE(m.nest_active());
  const double p_before = m.min_pressure_hpa();
  m.set_modeled_resolution(12.0);
  EXPECT_DOUBLE_EQ(m.modeled_resolution_km(), 12.0);
  EXPECT_DOUBLE_EQ(m.dt_seconds(), 72.0);
  // Regridding must not destroy the storm.
  m.step();
  EXPECT_NEAR(m.min_pressure_hpa(), p_before, 5.0);
  EXPECT_THROW(m.set_modeled_resolution(-1.0), std::invalid_argument);
}

TEST(WeatherModel, WorkUnitsGrowWithResolutionAndNest) {
  WeatherModel m(fast_config());
  const double coarse_work = m.work_units();
  EXPECT_GT(coarse_work, 0.0);
  run_hours(m, 16.0);
  ASSERT_TRUE(m.nest_active());
  const double with_nest = m.work_units();
  EXPECT_GT(with_nest, coarse_work);
  m.set_modeled_resolution(12.0);
  // (24/12)^2 = 4x the parent points.
  EXPECT_GT(m.work_units(), 2.0 * with_nest);
}

TEST(WeatherModel, FrameBytesFormula) {
  ModelConfig cfg = fast_config();
  WeatherModel m(cfg);
  // points * vars * levels * bytes, parent only at start.
  const GridSpec parent(cfg.lon0, cfg.lat0, cfg.extent_lon_deg,
                        cfg.extent_lat_deg, cfg.base_resolution_km);
  const double expect = static_cast<double>(parent.point_count()) *
                        cfg.frame_variables * cfg.frame_levels *
                        cfg.frame_bytes_per_value;
  EXPECT_NEAR(m.frame_bytes().as_double(), expect, 1.0);
  run_hours(m, 16.0);
  ASSERT_TRUE(m.nest_active());
  EXPECT_GT(m.frame_bytes().as_double(), expect);
}

TEST(WeatherModel, MaxUsableProcessorsShrinksWithNest) {
  WeatherModel m(fast_config());
  const int before = m.max_usable_processors();
  EXPECT_GT(before, 90);  // huge parent: no practical limit
  run_hours(m, 16.0);
  ASSERT_TRUE(m.nest_active());
  EXPECT_LT(m.max_usable_processors(), before);
  EXPECT_GE(m.max_usable_processors(), 1);
}

TEST(WeatherModel, FrameCarriesDiagnostics) {
  WeatherModel m(fast_config());
  run_hours(m, 2.0);
  const NclFile f = m.make_frame();
  EXPECT_TRUE(has_domain(f, "parent"));
  EXPECT_FALSE(has_domain(f, "nest"));
  EXPECT_NEAR(attr_double(f, "sim_time_seconds"), m.sim_time().seconds(),
              1e-9);
  EXPECT_NEAR(attr_double(f, "min_pressure_hpa"), m.min_pressure_hpa(), 1e-9);
  EXPECT_DOUBLE_EQ(attr_double(f, "modeled_resolution_km"), 24.0);
  const DomainState parent = decode_domain(f, "parent");
  EXPECT_EQ(parent.grid, m.parent_state().grid);
}

TEST(WeatherModel, CheckpointRestoreRoundTrip) {
  ModelConfig cfg = fast_config();
  WeatherModel m(cfg);
  run_hours(m, 18.0);
  ASSERT_TRUE(m.nest_active());
  const NclFile ckpt = m.checkpoint();

  WeatherModel r = WeatherModel::restore(cfg, ResolutionLadder::table3(), ckpt);
  EXPECT_DOUBLE_EQ(r.sim_time().seconds(), m.sim_time().seconds());
  EXPECT_DOUBLE_EQ(r.modeled_resolution_km(), m.modeled_resolution_km());
  EXPECT_NEAR(r.min_pressure_hpa(), m.min_pressure_hpa(), 2.0);
  EXPECT_TRUE(r.nest_active());
  EXPECT_NEAR(r.physics().deficit_hpa(), m.physics().deficit_hpa(), 1e-9);
  EXPECT_NEAR(r.eye().lat, m.eye().lat, 0.5);

  // The restored model keeps evolving sanely.
  const double p0 = r.min_pressure_hpa();
  run_hours(r, 3.0);
  EXPECT_LT(r.min_pressure_hpa(), p0 + 2.0);
}

TEST(WeatherModel, RestoreAtNewResolution) {
  ModelConfig cfg = fast_config();
  WeatherModel m(cfg);
  run_hours(m, 18.0);
  const NclFile ckpt = m.checkpoint();

  WeatherModel r = WeatherModel::restore(cfg, ResolutionLadder::table3(), ckpt);
  r.set_modeled_resolution(15.0);
  EXPECT_DOUBLE_EQ(r.modeled_resolution_km(), 15.0);
  EXPECT_NEAR(r.min_pressure_hpa(), m.min_pressure_hpa(), 5.0);
  r.step();  // still integrates
  EXPECT_TRUE(std::isfinite(r.min_pressure_hpa()));
}

TEST(WeatherModel, ComputeScaleValidated) {
  ModelConfig cfg;
  cfg.compute_scale = 0.5;
  EXPECT_THROW(WeatherModel m(cfg), std::invalid_argument);
}

TEST(WeatherModel, DeterministicForFixedConfig) {
  WeatherModel a(fast_config());
  WeatherModel b(fast_config());
  for (int i = 0; i < 50; ++i) {
    a.step();
    b.step();
  }
  EXPECT_DOUBLE_EQ(a.min_pressure_hpa(), b.min_pressure_hpa());
  EXPECT_DOUBLE_EQ(a.eye().lat, b.eye().lat);
}

/// WeatherModel::step() rebuilt from the weather modules' public calls,
/// with build_forcing() on the parent and on every nest substep: the
/// reference for the model's one-geometry-per-parent-step reuse.
class ForcingReplay {
 public:
  explicit ForcingReplay(const WeatherModel& m)
      : config_(m.config()),
        ladder_(m.ladder()),
        solver_(m.config().dynamics),
        res_km_(m.modeled_resolution_km()),
        sim_time_(m.sim_time()),
        parent_(m.parent_state()),
        nest_(m.nest()),
        parent_land_(land_mask(parent_.grid)),
        tracker_(m.tracker()),
        physics_(m.physics()) {
    if (nest_.has_value()) nest_land_ = land_mask(nest_->grid());
  }

  void step() {
    const double dt = SwSolver::dt_for_resolution_km(res_km_);
    const bool storm_active = physics_.deficit_hpa() > 2.0;
    SwForcing forcing;
    forcing.steering_u = config_.analysis.steering.u(sim_time_);
    forcing.steering_v = config_.analysis.steering.v(sim_time_);
    if (storm_active) force(parent_, parent_land_, forcing);
    solver_.step(parent_, dt, forcing);
    if (nest_.has_value()) {
      SwForcing nf;
      nf.steering_u = forcing.steering_u;
      nf.steering_v = forcing.steering_v;
      for (int k = 0; k < kNestRatio; ++k) {
        nest_->apply_boundary(parent_);
        if (storm_active) force(nest_->state(), nest_land_, nf);
        solver_.step(nest_->state(), dt / kNestRatio, nf);
      }
      nest_->feedback(parent_);
    }
    physics_.advance(dt, forcing.steering_u, forcing.steering_v,
                     tracker_.eye());
    sim_time_ += SimSeconds(dt);
    tracker_.update(nest_.has_value() ? nest_->state() : parent_, sim_time_);
    if (!nest_.has_value()) {
      if (tracker_.min_pressure_hpa() < ladder_.spawn_pressure_hpa()) {
        nest_.emplace(parent_, tracker_.eye(), config_.nest_extent_deg);
        nest_land_ = land_mask(nest_->grid());
      }
    } else if (nest_->needs_recenter(tracker_.eye())) {
      nest_->recenter(parent_, tracker_.eye());
      nest_land_ = land_mask(nest_->grid());
    }
  }

  [[nodiscard]] SimSeconds sim_time() const { return sim_time_; }
  [[nodiscard]] const DomainState& parent() const { return parent_; }
  [[nodiscard]] const std::optional<NestDomain>& nest() const {
    return nest_;
  }
  [[nodiscard]] const CycloneTracker& tracker() const { return tracker_; }
  [[nodiscard]] const CyclonePhysics& physics() const { return physics_; }

 private:
  void force(const DomainState& state, const Field2D& land, SwForcing& f) {
    physics_.build_forcing(state, land, q_, fu_, fv_, relax_);
    f.mass_tendency = &q_;
    f.u_tendency = &fu_;
    f.v_tendency = &fv_;
    f.relaxation = &relax_;
  }

  ModelConfig config_;
  ResolutionLadder ladder_;
  SwSolver solver_;
  double res_km_;
  SimSeconds sim_time_;
  DomainState parent_;
  std::optional<NestDomain> nest_;
  Field2D parent_land_, nest_land_;
  CycloneTracker tracker_;
  CyclonePhysics physics_;
  Field2D q_, fu_, fv_, relax_;
};

bool same_bits(const DomainState& a, const DomainState& b) {
  const auto same = [](const Field2D& x, const Field2D& y) {
    return x.nx() == y.nx() && x.ny() == y.ny() &&
           std::memcmp(x.data().data(), y.data().data(),
                       x.size() * sizeof(double)) == 0;
  };
  return a.grid == b.grid && same(a.h, b.h) && same(a.u, b.u) &&
         same(a.v, b.v);
}

TEST(WeatherModel, ForcingGeometryReuseIsBitwiseExact) {
  // Through nest spawn, several recenters, a mid-run regrid and a
  // checkpoint restore, the model (geometry built on the pool's helpers
  // beside the serial work, the parent's one step ahead) stays bitwise
  // equal to a replay that rebuilds the whole forcing on the caller for
  // the parent and for every nest substep. The regrid and the restore
  // leave the model without a current parent geometry, so each takes the
  // synchronous rebuild. Stepped inline (no helper lanes) and on one and
  // three helpers, every run matches the same replay.
  const ModelConfig cfg = fast_config();
  constexpr int kRegridAt = 700;
  constexpr int kRestoreAt = 850;
  for (const int helpers : {0, 1, 3}) {
    SCOPED_TRACE("helpers " + std::to_string(helpers));
    ThreadPool pool(helpers);
    obs::Observability o;
    RunContext ctx;
    ctx.observability = &o;
    ScopedRunContext scope(&ctx);
    WeatherModel m(cfg);
    std::optional<ForcingReplay> replay(std::in_place, m);
    int spawned_at = -1;
    int recenters = 0;
    GridSpec nest_grid;  // the nest's grid after the last step, if placed
    bool placed = false;
    for (int step = 0; step < 1000; ++step) {
      if (step == kRegridAt) {
        m.set_modeled_resolution(12.0);
        replay.emplace(m);
        placed = false;
      }
      if (step == kRestoreAt) {
        m = WeatherModel::restore(cfg, m.ladder(), m.checkpoint());
        replay.emplace(m);
        placed = false;
      }
      m.step(&pool);
      replay->step();
      ASSERT_EQ(m.sim_time().seconds(), replay->sim_time().seconds());
      ASSERT_TRUE(same_bits(m.parent_state(), replay->parent())) << step;
      ASSERT_EQ(m.nest_active(), replay->nest().has_value()) << step;
      if (m.nest_active()) {
        ASSERT_TRUE(same_bits(m.nest()->state(), replay->nest()->state()))
            << step;
        if (spawned_at < 0) spawned_at = step;
        if (placed && !(nest_grid == m.nest()->grid())) ++recenters;
        nest_grid = m.nest()->grid();
        placed = true;
      }
      ASSERT_EQ(m.physics().deficit_hpa(), replay->physics().deficit_hpa());
      ASSERT_EQ(m.physics().center().lat, replay->physics().center().lat);
      ASSERT_EQ(m.physics().center().lon, replay->physics().center().lon);
      ASSERT_EQ(m.eye().lat, replay->tracker().eye().lat);
      ASSERT_EQ(m.eye().lon, replay->tracker().eye().lon);
    }
    EXPECT_GT(spawned_at, 0);
    EXPECT_LT(spawned_at, kRegridAt);
    EXPECT_GE(recenters, 2);
    // The first step, the regrid and the restore: each built its parent
    // geometry on the caller; every other geometry was built beside.
    const obs::MetricsSnapshot metrics = o.metrics().snapshot();
    EXPECT_EQ(metrics.counter_or("sim.forcing.rebuilds"), 3);
    const obs::Histogram::Snapshot* wait =
        metrics.histogram("sim.forcing.wait");
    ASSERT_NE(wait, nullptr);
    EXPECT_GT(wait->count, 1000);
  }
}

}  // namespace
}  // namespace adaptviz

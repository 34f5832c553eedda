#include "weather/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/thread_pool.hpp"
#include "weather/domain_io.hpp"

namespace adaptviz {

WeatherModel::WeatherModel(const ModelConfig& config,
                           const ResolutionLadder& ladder)
    : WeatherModel(config, ladder, /*defer_init=*/false) {}

WeatherModel::WeatherModel(const ModelConfig& config,
                           const ResolutionLadder& ladder, bool defer_init)
    : config_(config),
      ladder_(ladder),
      solver_(config.dynamics),
      analysis_(SyntheticAnalysis::generate(config.lon0, config.lat0,
                                            config.extent_lon_deg,
                                            config.extent_lat_deg,
                                            config.analysis)),
      modeled_res_km_(config.base_resolution_km),
      physics_(config.physics, config.analysis.initial_vortex.deficit_hpa,
               config.analysis.initial_vortex.center) {
  if (config.compute_scale < 1.0) {
    throw std::invalid_argument("ModelConfig: compute_scale must be >= 1");
  }
  if (!defer_init) init_from_analysis();
}

GridSpec WeatherModel::modeled_parent_grid() const {
  return GridSpec(config_.lon0, config_.lat0, config_.extent_lon_deg,
                  config_.extent_lat_deg, modeled_res_km_);
}

GridSpec WeatherModel::compute_parent_grid() const {
  return GridSpec(config_.lon0, config_.lat0, config_.extent_lon_deg,
                  config_.extent_lat_deg,
                  modeled_res_km_ * config_.compute_scale);
}

void WeatherModel::init_from_analysis() {
  parent_ = preprocess(analysis_, compute_parent_grid());
  parent_land_ = land_mask(parent_.grid);

  // Incremental vortex bogussing: the 1-degree analysis cannot carry a
  // 90-km-core depression at full strength, so (as operational systems do)
  // deposit the difference between the intended bogus and what survived
  // interpolation, with a core no sharper than the compute grid resolves.
  const HollandVortex intended = analysis_.config().initial_vortex;
  const GridSpec& g = parent_.grid;
  const double analyzed_min =
      parent_.h.sample(g.x_of_lon(intended.center.lon),
                       g.y_of_lat(intended.center.lat));
  const double wanted_min = -intended.deficit_hpa / kHpaPerMetre;
  if (wanted_min < analyzed_min) {
    HollandVortex increment = intended;
    increment.deficit_hpa = -(wanted_min - analyzed_min) * kHpaPerMetre;
    increment.r_max_km =
        std::max(intended.r_max_km, 2.2 * g.resolution_km());
    increment.deposit(parent_);
  }

  tracker_.update(parent_, sim_time_);
  maybe_spawn_or_move_nest();
}

void WeatherModel::rebuild_compute_grids(const DomainState* old_parent) {
  // Regrid parent from its previous self ("WPS needs input data at a finer
  // resolution" — here the restart interpolates the checkpointed state).
  const GridSpec target = compute_parent_grid();
  DomainState next(target);
  const DomainState& src = old_parent != nullptr ? *old_parent : parent_;
  for (std::size_t j = 0; j < target.ny(); ++j) {
    for (std::size_t i = 0; i < target.nx(); ++i) {
      const LatLon p = target.at(i, j);
      const GridSpec& sg = src.grid;
      const double x = sg.x_of_lon(p.lon);
      const double y = sg.y_of_lat(p.lat);
      next.h(i, j) = src.h.sample(x, y);
      next.u(i, j) = src.u.sample(x, y);
      next.v(i, j) = src.v.sample(x, y);
    }
  }
  parent_ = std::move(next);
  parent_land_ = land_mask(parent_.grid);

  if (nest_.has_value()) {
    nest_.emplace(parent_, tracker_.eye(), config_.nest_extent_deg);
    nest_land_ = land_mask(nest_->grid());
  }
}

double WeatherModel::recommended_resolution_km() const {
  return ladder_.resolution_for(tracker_.lowest_pressure_ever_hpa(),
                                config_.base_resolution_km);
}

bool WeatherModel::resolution_change_pending() const {
  return recommended_resolution_km() < modeled_res_km_ - 1e-9;
}

void WeatherModel::set_modeled_resolution(double res_km) {
  if (res_km <= 0) {
    throw std::invalid_argument("set_modeled_resolution: res must be > 0");
  }
  if (std::fabs(res_km - modeled_res_km_) < 1e-12) return;
  modeled_res_km_ = res_km;
  rebuild_compute_grids(nullptr);
}

void WeatherModel::maybe_spawn_or_move_nest() {
  const double spawn_p = ladder_.spawn_pressure_hpa();
  if (!nest_.has_value()) {
    if (tracker_.min_pressure_hpa() < spawn_p) {
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

SimSeconds WeatherModel::step(ThreadPool* pool) {
  static thread_local obs::HotHistogram geometry_hist("sim.forcing.geometry");
  static thread_local obs::HotHistogram wait_hist("sim.forcing.wait");
  static thread_local obs::HotCounter rebuilds("sim.forcing.rebuilds");
  static thread_local obs::HotHistogram apply_hist("sim.forcing.apply");
  static thread_local obs::HotHistogram boundary_hist("sim.nest.boundary");
  static thread_local obs::HotHistogram feedback_hist("sim.nest.feedback");
  ThreadPool& lanes = pool != nullptr ? *pool : ThreadPool::shared();
  // Computes `df`'s forcing of `state` and points `f` at it; the callers
  // time it as sim.forcing.apply.
  const auto apply = [&](const DomainState& state, DomainForcing& df,
                         SwForcing& f) {
    CyclonePhysics::apply_forcing(df.geometry, state, df.q, df.fu, df.fv);
    f.mass_tendency = &df.q;
    f.u_tendency = &df.fu;
    f.v_tendency = &df.fv;
    f.relaxation = &df.geometry.relaxation;
  };
  // Builds `physics`'s geometry for `grid` into `df` on the pool's helpers
  // while the caller runs `serial`; the caller's share of the build, and
  // its wait for the helpers, is the sim.forcing.wait span.
  const auto build_beside = [&](const CyclonePhysics& physics,
                                const GridSpec& grid, const Field2D& land,
                                DomainForcing& df, auto&& serial) {
    physics.begin_geometry(grid, land, df.geometry);
    std::optional<obs::ScopedTimer> wait;
    lanes.parallel_for_beside(
        0, grid.ny(), CyclonePhysics::kGeometryRowChunk,
        [&](std::size_t j_begin, std::size_t j_end) {
          physics.geometry_rows(land, df.geometry, j_begin, j_end);
        },
        [&] {
          serial();
          wait.emplace(wait_hist);
        });
  };

  // The storm forces the dynamics only while its deficit exceeds 2 hPa.
  const auto forcing_on = [](const CyclonePhysics& physics) {
    return physics.deficit_hpa() > 2.0;
  };
  const double dt = dt_seconds();
  const bool storm_active = forcing_on(physics_);

  SwForcing forcing;
  forcing.steering_u = analysis_.config().steering.u(sim_time_);
  forcing.steering_v = analysis_.config().steering.v(sim_time_);
  // The parent's geometry was normally built during the previous step
  // (below); build it here only when that one is missing or stale (first
  // step, regrid, restore).
  if (storm_active &&
      !physics_.geometry_current(parent_forcing_.geometry, parent_.grid)) {
    if (obs::Counter* c = rebuilds.resolve(obs::current())) c->add(1);
    obs::ScopedTimer span(geometry_hist);
    physics_.forcing_geometry(parent_.grid, parent_land_,
                              parent_forcing_.geometry, &lanes);
  }
  const auto step_parent = [&] {
    if (storm_active) {
      obs::ScopedTimer span(apply_hist);
      apply(parent_, parent_forcing_, forcing);
    }
    solver_.step(parent_, dt, forcing);
  };
  // The nest's geometry depends only on the storm, the nest grid and its
  // land mask, none of which the parent's step touches; one geometry
  // serves every substep.
  if (nest_.has_value() && storm_active) {
    build_beside(physics_, nest_->grid(), nest_land_, nest_forcing_,
                 step_parent);
  } else {
    step_parent();
  }

  // Everything after the parent's step: the nest's substeps and feedback,
  // the storm's advance, tracking, and the nest's spawn or move.
  const auto finish_step = [&] {
    if (nest_.has_value()) {
      SwForcing nf;
      nf.steering_u = forcing.steering_u;
      nf.steering_v = forcing.steering_v;
      const double ndt = dt / kNestRatio;
      // Back-to-back stages share clock reads; the solver times its own
      // steps.
      obs::LapTimer laps;
      // The parent does not change across the substeps: sample it once.
      nest_->sample_boundary(parent_);
      laps.lap(boundary_hist);
      for (int k = 0; k < kNestRatio; ++k) {
        nest_->blend_boundary();
        laps.lap(boundary_hist);
        if (storm_active) {
          apply(nest_->state(), nest_forcing_, nf);
          laps.lap(apply_hist);
        }
        solver_.step(nest_->state(), ndt, nf);
        laps.skip();
      }
      nest_->feedback(parent_);
      laps.lap(feedback_hist);
    }

    physics_.advance(dt, forcing.steering_u, forcing.steering_v,
                     tracker_.eye());
    sim_time_ += SimSeconds(dt);

    // Track on the finest available domain.
    tracker_.update(nest_.has_value() ? nest_->state() : parent_, sim_time_);
    maybe_spawn_or_move_nest();
  };
  // The parent's geometry is no longer read, so the next step's is built
  // into the same buffers meanwhile, from the storm as advance() will
  // leave it: same dt, steering and eye, none of which change before it.
  CyclonePhysics next = physics_;
  next.advance(dt, forcing.steering_u, forcing.steering_v, tracker_.eye());
  if (forcing_on(next)) {
    build_beside(next, parent_.grid, parent_land_, parent_forcing_,
                 finish_step);
  } else {
    finish_step();
  }
  return SimSeconds(dt);
}

double WeatherModel::work_units() const {
  const GridSpec parent = modeled_parent_grid();
  double updates = static_cast<double>(parent.point_count());
  if (nest_.has_value()) {
    const GridSpec nest(nest_->grid().lon0(), nest_->grid().lat0(),
                        nest_->grid().extent_lon(), nest_->grid().extent_lat(),
                        modeled_res_km_ / kNestRatio);
    updates += static_cast<double>(nest.point_count()) * kNestRatio;
  }
  return updates / 1e6;
}

Bytes WeatherModel::frame_bytes() const {
  const GridSpec parent = modeled_parent_grid();
  double points = static_cast<double>(parent.point_count());
  if (nest_.has_value()) {
    const GridSpec nest(nest_->grid().lon0(), nest_->grid().lat0(),
                        nest_->grid().extent_lon(), nest_->grid().extent_lat(),
                        modeled_res_km_ / kNestRatio);
    points += static_cast<double>(nest.point_count());
  }
  return Bytes(static_cast<std::int64_t>(points * config_.frame_variables *
                                         config_.frame_levels *
                                         config_.frame_bytes_per_value));
}

int WeatherModel::max_usable_processors() const {
  const GridSpec parent = modeled_parent_grid();
  int limit = static_cast<int>(parent.point_count() / 36);
  if (nest_.has_value()) {
    const GridSpec nest(nest_->grid().lon0(), nest_->grid().lat0(),
                        nest_->grid().extent_lon(), nest_->grid().extent_lat(),
                        modeled_res_km_ / kNestRatio);
    limit = std::min(limit, static_cast<int>(nest.point_count() / 81));
  }
  return std::max(1, limit);
}

NclFile WeatherModel::make_frame() const {
  NclFile f;
  encode_domain(f, "parent", parent_);
  if (nest_.has_value()) encode_domain(f, "nest", nest_->state());
  f.set_attribute("sim_time_seconds", sim_time_.seconds());
  f.set_attribute("modeled_resolution_km", modeled_res_km_);
  f.set_attribute("min_pressure_hpa", tracker_.min_pressure_hpa());
  f.set_attribute("max_wind_ms", tracker_.max_wind_ms());
  f.set_attribute("eye_lat", tracker_.eye().lat);
  f.set_attribute("eye_lon", tracker_.eye().lon);
  f.set_attribute("nest_active", static_cast<std::int64_t>(nest_.has_value()));
  return f;
}

NclFile WeatherModel::checkpoint() const {
  NclFile f = make_frame();
  // Track history rides along so the cyclone's path survives restarts.
  const auto& track = tracker_.track();
  const auto n = f.add_dimension("track_points", track.size());
  const char* names[] = {"track_time", "track_lat", "track_lon",
                         "track_pressure", "track_wind"};
  for (int field = 0; field < 5; ++field) {
    NclVariable v;
    v.name = names[field];
    v.dims = {n};
    v.data.reserve(track.size());
    for (const TrackPoint& p : track) {
      switch (field) {
        case 0:
          v.data.push_back(p.time.seconds());
          break;
        case 1:
          v.data.push_back(p.eye.lat);
          break;
        case 2:
          v.data.push_back(p.eye.lon);
          break;
        case 3:
          v.data.push_back(p.min_pressure_hpa);
          break;
        default:
          v.data.push_back(p.max_wind_ms);
      }
    }
    f.add_variable(std::move(v));
  }
  f.set_attribute("deficit_hpa", physics_.deficit_hpa());
  f.set_attribute("storm_center_lat", physics_.center().lat);
  f.set_attribute("storm_center_lon", physics_.center().lon);
  f.set_attribute("lowest_pressure_ever_hpa",
                  tracker_.lowest_pressure_ever_hpa());
  f.set_attribute("checkpoint", static_cast<std::int64_t>(1));
  return f;
}

WeatherModel WeatherModel::restore(const ModelConfig& config,
                                   const ResolutionLadder& ladder,
                                   const NclFile& checkpoint) {
  WeatherModel m(config, ladder, /*defer_init=*/true);
  m.modeled_res_km_ = attr_double(checkpoint, "modeled_resolution_km");
  m.sim_time_ = SimSeconds(attr_double(checkpoint, "sim_time_seconds"));
  m.parent_ = decode_domain(checkpoint, "parent");
  // The checkpoint may have been written at a different compute resolution
  // (that is the point: restart with a new configuration). Regrid.
  const DomainState from_ckpt = m.parent_;
  m.parent_ = DomainState(m.compute_parent_grid());
  m.rebuild_compute_grids(&from_ckpt);

  m.physics_.restore(attr_double(checkpoint, "deficit_hpa"),
                     LatLon{attr_double(checkpoint, "storm_center_lat"),
                            attr_double(checkpoint, "storm_center_lon")});
  m.tracker_.restore(
      LatLon{attr_double(checkpoint, "eye_lat"),
             attr_double(checkpoint, "eye_lon")},
      attr_double(checkpoint, "min_pressure_hpa"),
      attr_double(checkpoint, "lowest_pressure_ever_hpa"));
  if (checkpoint.has_variable("track_time")) {
    const auto& tt = checkpoint.variable("track_time").data;
    const auto& la = checkpoint.variable("track_lat").data;
    const auto& lo = checkpoint.variable("track_lon").data;
    const auto& pr = checkpoint.variable("track_pressure").data;
    const auto& wi = checkpoint.variable("track_wind").data;
    std::vector<TrackPoint> points;
    points.reserve(tt.size());
    for (std::size_t i = 0; i < tt.size(); ++i) {
      points.push_back(TrackPoint{SimSeconds(tt[i]), LatLon{la[i], lo[i]},
                                  pr[i], wi[i]});
    }
    m.tracker_.restore_track(std::move(points));
  }

  if (checkpoint.has_variable("nest_h")) {
    DomainState nest_state = decode_domain(checkpoint, "nest");
    // Rebuild the nest at the (possibly new) resolution around the eye,
    // then pull what we can from the checkpointed fine fields.
    m.nest_.emplace(m.parent_, m.tracker_.eye(), config.nest_extent_deg);
    NestDomain& nest = *m.nest_;
    DomainState target(nest.grid());
    for (std::size_t j = 0; j < target.grid.ny(); ++j) {
      for (std::size_t i = 0; i < target.grid.nx(); ++i) {
        const LatLon p = target.grid.at(i, j);
        const GridSpec& sg = nest_state.grid;
        const double x = sg.x_of_lon(p.lon);
        const double y = sg.y_of_lat(p.lat);
        if (x >= 0 && y >= 0 && x <= static_cast<double>(sg.nx() - 1) &&
            y <= static_cast<double>(sg.ny() - 1)) {
          target.h(i, j) = nest_state.h.sample(x, y);
          target.u(i, j) = nest_state.u.sample(x, y);
          target.v(i, j) = nest_state.v.sample(x, y);
        } else {
          const GridSpec& pg = m.parent_.grid;
          const double px = pg.x_of_lon(p.lon);
          const double py = pg.y_of_lat(p.lat);
          target.h(i, j) = m.parent_.h.sample(px, py);
          target.u(i, j) = m.parent_.u.sample(px, py);
          target.v(i, j) = m.parent_.v.sample(px, py);
        }
      }
    }
    nest.restore_state(std::move(target));
    m.nest_land_ = land_mask(nest.grid());
  }
  m.tracker_.update(m.nest_.has_value() ? m.nest_->state() : m.parent_,
                    m.sim_time_);
  return m;
}

}  // namespace adaptviz

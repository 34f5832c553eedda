#include "weather/physics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace adaptviz {

namespace {

/// The storm's forcing acts only where the Holland-zone weight exceeds this.
constexpr double kHollandZoneWeight = 1e-4;

/// Reshapes `f` to (nx, ny) unless it already has that shape.
void fit(Field2D& f, std::size_t nx, std::size_t ny) {
  if (f.nx() != nx || f.ny() != ny) f.resize(nx, ny);
}

}  // namespace

CyclonePhysics::CyclonePhysics(PhysicsConfig config, double initial_deficit_hpa,
                               LatLon initial_center)
    : config_(config), deficit_(initial_deficit_hpa), center_(initial_center) {
  if (initial_deficit_hpa <= 0 ||
      initial_deficit_hpa >= config.deficit_max_hpa) {
    throw std::invalid_argument("CyclonePhysics: bad initial deficit");
  }
}

void CyclonePhysics::advance(double dt_seconds, double steering_u,
                             double steering_v, LatLon diagnosed_eye) {
  const double dt_h = dt_seconds / 3600.0;

  // --- Motion: advect the centre with the steering current, nudged toward
  // --- the field-diagnosed eye (tau ~ 6 h) so dynamics-driven displacement
  // --- (e.g. beta drift resolved by the grid) feeds back.
  const double m_per_deg_lat = kKmPerDegree * 1000.0;
  const double coslat = std::cos(center_.lat * 3.14159265 / 180.0);
  center_.lat += steering_v * dt_seconds / m_per_deg_lat;
  center_.lon += steering_u * dt_seconds / (m_per_deg_lat * coslat);
  const double pull = dt_h / 6.0;
  if (distance_km(center_, diagnosed_eye) < 400.0) {
    center_.lat += pull * (diagnosed_eye.lat - center_.lat);
    center_.lon += pull * (diagnosed_eye.lon - center_.lon);
  }

  // --- Intensity ODE.
  const double land = land_fraction(center_);
  const double ocean = 1.0 - land;
  const double sst = sea_surface_temp(center_);
  const double s = std::clamp((sst - config_.sst_min_c) / 3.0, 0.0, 1.0);

  const double growth = config_.k_intensify_per_hour * s * ocean * deficit_ *
                        (1.0 - deficit_ / config_.deficit_max_hpa);
  const double decay = land * deficit_ / config_.land_decay_tau_hours;
  deficit_ += dt_h * (growth - decay);
  deficit_ = std::clamp(deficit_, 0.5, config_.deficit_max_hpa);
}

HollandVortex CyclonePhysics::target_vortex(double resolution_km) const {
  const double r_phys =
      std::max(config_.r_floor_km,
               config_.r_max0_km - config_.r_shrink_km_per_hpa * deficit_);
  const double r_resolvable = 2.2 * resolution_km;
  return HollandVortex{
      .center = center_,
      .deficit_hpa = deficit_,
      .r_max_km = std::max(r_phys, r_resolvable),
      .b = config_.holland_b,
  };
}

void CyclonePhysics::build_forcing(const DomainState& state,
                                   const Field2D& land,
                                   Field2D& mass_tendency,
                                   Field2D& u_tendency, Field2D& v_tendency,
                                   Field2D& relaxation) const {
  ForcingGeometry geometry;
  forcing_geometry(state.grid, land, geometry);
  apply_forcing(geometry, state, mass_tendency, u_tendency, v_tendency);
  relaxation = std::move(geometry.relaxation);
}

void CyclonePhysics::forcing_geometry(const GridSpec& g, const Field2D& land,
                                      ForcingGeometry& geo,
                                      ThreadPool* pool) const {
  begin_geometry(g, land, geo);
  ThreadPool& lanes = pool != nullptr ? *pool : ThreadPool::shared();
  lanes.parallel_for(0, g.ny(), lanes.worker_count(), kGeometryRowChunk,
                     [&](std::size_t j_begin, std::size_t j_end) {
                       geometry_rows(land, geo, j_begin, j_end);
                     });
}

void CyclonePhysics::begin_geometry(const GridSpec& g, const Field2D& land,
                                    ForcingGeometry& geo) const {
  const std::size_t nx = g.nx();
  const std::size_t ny = g.ny();
  if (land.nx() != nx || land.ny() != ny) {
    throw std::invalid_argument(
        "forcing_geometry: land mask shape mismatch");
  }
  for (Field2D* f : {&geo.weight, &geo.h_target, &geo.u_target, &geo.v_target,
                     &geo.relaxation}) {
    fit(*f, nx, ny);
  }
  geo.inv_tau = 1.0 / (config_.mass_relax_tau_hours * 3600.0);
  geo.grid = g;
  geo.deficit_hpa = deficit_;
  geo.center = center_;

  // East-west offset from the centre (km, before the cos(lat) scaling) of
  // each column; distance_km() and the tangent basis both start from it.
  geo.dlon_km.resize(nx);
  for (std::size_t i = 0; i < nx; ++i) {
    geo.dlon_km[i] = (g.lon_at(i) - center_.lon) * kKmPerDegree;
  }
}

void CyclonePhysics::geometry_rows(const Field2D& land, ForcingGeometry& geo,
                                   std::size_t j_begin,
                                   std::size_t j_end) const {
  const GridSpec& g = geo.grid;
  const std::size_t nx = g.nx();
  const HollandVortex target = target_vortex(g.resolution_km());
  const double inv_tau_fric = 1.0 / (config_.land_friction_tau_hours * 3600.0);
  const double inv_tau_nudge = 1.0 / (config_.nudge_tau_hours * 3600.0);
  const double storm_radius = 5.0 * target.r_max_km;  // nudge-free zone
  const double storm_sigma2 = 2.0 * storm_radius * storm_radius;
  const double sigma2 = 2.0 * 9.0 * target.r_max_km * target.r_max_km;
  const double fcor = coriolis(center_.lat);
  const double deg2rad = 3.14159265358979 / 180.0;
  const double* ADAPTVIZ_RESTRICT dlon_km = geo.dlon_km.data();

  for (std::size_t j = j_begin; j < j_end; ++j) {
    // Constant along the row. distance_km() and the tangent basis write
    // cos(mean lat) differently (*pi/180 vs *deg2rad), and the two can
    // round apart, so each keeps its own.
    const double lat = g.lat_at(j);
    const double dy = (lat - center_.lat) * kKmPerDegree;
    const double cos_dist =
        std::cos(0.5 * (lat + center_.lat) * 3.14159265358979 / 180.0);
    const double cos_tan = std::cos(0.5 * (lat + center_.lat) * deg2rad);
    const double* ADAPTVIZ_RESTRICT land_row = land.row(j);
    double* ADAPTVIZ_RESTRICT w_row = geo.weight.row(j);
    double* ADAPTVIZ_RESTRICT h_row = geo.h_target.row(j);
    double* ADAPTVIZ_RESTRICT u_row = geo.u_target.row(j);
    double* ADAPTVIZ_RESTRICT v_row = geo.v_target.row(j);
    double* ADAPTVIZ_RESTRICT relax_row = geo.relaxation.row(j);
    for (std::size_t i = 0; i < nx; ++i) {
      const double r = std::hypot(dlon_km[i] * cos_dist, dy);  // distance_km

      // Relaxation toward the balanced Holland target (height and winds
      // together), confined near the storm.
      const double w = std::exp(-(r * r) / sigma2);
      double h_target = 0.0;
      double ut = 0.0;
      double vt = 0.0;
      if (w > kHollandZoneWeight) {
        const HollandVortex::Profile prof = target.profile(r, fcor);
        h_target = prof.height_m;
        if (r > 1.0) {
          const double dx = dlon_km[i] * cos_tan;
          ut = prof.wind_ms * (-dy / r);
          vt = prof.wind_ms * (dx / r);
        }
      }
      w_row[i] = w;
      h_row[i] = h_target;
      u_row[i] = ut;
      v_row[i] = vt;

      // Land friction plus far-field analysis nudging.
      const double w_storm = std::exp(-(r * r) / storm_sigma2);
      relax_row[i] =
          land_row[i] * inv_tau_fric + (1.0 - w_storm) * inv_tau_nudge;
    }
  }
}

bool CyclonePhysics::geometry_current(const ForcingGeometry& geo,
                                      const GridSpec& grid) const {
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  return geo.grid == grid && same(geo.deficit_hpa, deficit_) &&
         same(geo.center.lat, center_.lat) && same(geo.center.lon, center_.lon);
}

void CyclonePhysics::apply_forcing(const ForcingGeometry& geo,
                                   const DomainState& state, Field2D& q,
                                   Field2D& fu, Field2D& fv) {
  const std::size_t nx = state.grid.nx();
  const std::size_t ny = state.grid.ny();
  if (geo.weight.nx() != nx || geo.weight.ny() != ny) {
    throw std::invalid_argument("apply_forcing: geometry shape mismatch");
  }
  fit(q, nx, ny);
  fit(fu, nx, ny);
  fit(fv, nx, ny);

  const double inv_tau = geo.inv_tau;
  for (std::size_t j = 0; j < ny; ++j) {
    const double* ADAPTVIZ_RESTRICT w_row = geo.weight.row(j);
    const double* ADAPTVIZ_RESTRICT ht = geo.h_target.row(j);
    const double* ADAPTVIZ_RESTRICT ut = geo.u_target.row(j);
    const double* ADAPTVIZ_RESTRICT vt = geo.v_target.row(j);
    const double* ADAPTVIZ_RESTRICT h = state.h.row(j);
    const double* ADAPTVIZ_RESTRICT u = state.u.row(j);
    const double* ADAPTVIZ_RESTRICT v = state.v.row(j);
    double* ADAPTVIZ_RESTRICT q_row = q.row(j);
    double* ADAPTVIZ_RESTRICT fu_row = fu.row(j);
    double* ADAPTVIZ_RESTRICT fv_row = fv.row(j);
    for (std::size_t i = 0; i < nx; ++i) {
      const double w = w_row[i];
      const bool in_zone = w > kHollandZoneWeight;
      q_row[i] = in_zone ? w * (ht[i] - h[i]) * inv_tau : 0.0;
      fu_row[i] = in_zone ? w * (ut[i] - u[i]) * inv_tau : 0.0;
      fv_row[i] = in_zone ? w * (vt[i] - v[i]) * inv_tau : 0.0;
    }
  }
}

}  // namespace adaptviz

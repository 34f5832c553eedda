// Cyclone physics: intensity evolution and forcing construction.
//
// A single shallow-water layer has no moist thermodynamics, so the latent
// heating that deepens a real tropical cyclone is parameterized the way
// operational statistical-dynamical models do it: a central-pressure-deficit
// ODE driven by sea-surface temperature while the eye is over ocean and by
// frictional decay after landfall, coupled back into the dynamics as a mass
// sink that relaxes the height field toward a Holland profile of the current
// target deficit. The storm's *motion* is left entirely to the dynamics
// (steering current + beta drift); only its *intensity* is parameterized.
//
// Deficit ODE (deficit d = p_env - p_center, hPa):
//   over ocean: dd/dt = k * s(SST) * d * (1 - d / d_max)     (logistic)
//   over land:  dd/dt = -d / tau_land
// with s(SST) ramping 0..1 over [sst_min, sst_min+3C]. Calibrated so the
// simulated Aila crosses 995 hPa (nest spawn) ~12 h in, completes the
// Table III ladder by ~28 h, and peaks near 970 hPa before landfall --
// matching the cyclone's real late-May-2009 timeline.
#pragma once

#include <cstddef>
#include <vector>

#include "weather/geography.hpp"
#include "weather/grid.hpp"
#include "weather/state.hpp"
#include "weather/vortex.hpp"

namespace adaptviz {

class ThreadPool;

struct PhysicsConfig {
  double k_intensify_per_hour = 0.075;
  double deficit_max_hpa = 48.0;
  double sst_min_c = 26.5;
  double land_decay_tau_hours = 10.0;
  /// Relaxation time of h toward the Holland target near the eye.
  double mass_relax_tau_hours = 0.75;
  /// Rayleigh friction time over land.
  double land_friction_tau_hours = 6.0;
  /// Far-field nudge toward the undisturbed state (analysis nudging).
  double nudge_tau_hours = 24.0;
  /// Physical radius of maximum wind: shrinks as the storm organizes,
  /// r = r0 - r_shrink * deficit, floored at r_floor.
  double r_max0_km = 95.0;
  double r_shrink_km_per_hpa = 1.2;
  double r_floor_km = 40.0;
  double holland_b = 1.5;
};

/// Per-point forcing terms that do not depend on the prognostic state.
struct ForcingGeometry {
  /// Holland-zone weight w; apply_forcing() forces only where w > 1e-4.
  Field2D weight;
  /// Balanced Holland target: height anomaly (m) and winds (m/s).
  Field2D h_target, u_target, v_target;
  /// Land friction plus far-field nudging (1/s), SwForcing::relaxation.
  Field2D relaxation;
  /// Rate (1/s) of the relaxation toward the target.
  double inv_tau = 0.0;
  /// Scratch: each column's east-west offset from the centre (km, before
  /// the cos(lat) scaling), kept so a rebuild does not allocate.
  std::vector<double> dlon_km;
  /// What the fields were built for: the grid, and the storm's deficit and
  /// centre (CyclonePhysics::geometry_current() compares them).
  GridSpec grid;
  double deficit_hpa = 0.0;
  LatLon center;
};

class CyclonePhysics {
 public:
  CyclonePhysics(PhysicsConfig config, double initial_deficit_hpa,
                 LatLon initial_center);

  /// Advances the intensity ODE by dt and moves the prognostic storm centre
  /// with the large-scale steering current, pulled gently toward the
  /// field-diagnosed eye so the parameterization stays coupled to the
  /// dynamics (the dynamics remain free to displace the storm; the forcing
  /// follows rather than pins it).
  void advance(double dt_seconds, double steering_u, double steering_v,
               LatLon diagnosed_eye);

  /// Prognostic centre the forcing is anchored to.
  [[nodiscard]] LatLon center() const { return center_; }

  [[nodiscard]] double deficit_hpa() const { return deficit_; }
  [[nodiscard]] double central_pressure_hpa() const {
    return kEnvPressureHpa - deficit_;
  }

  /// Target Holland vortex for the current intensity at the prognostic
  /// centre. The radius of maximum wind is widened to what `resolution_km`
  /// can resolve (an under-resolved eye would alias; coarse grids carry
  /// broader, weaker cores — the very reason the paper refines resolution as
  /// the storm intensifies).
  [[nodiscard]] HollandVortex target_vortex(double resolution_km) const;

  /// Fills per-point forcing fields for one domain: `mass_tendency` (m/s)
  /// and `u/v_tendency` (m/s^2) relaxing height *and* winds toward the
  /// balanced Holland target near the storm centre — at these scales (storm
  /// core well below the Rossby radius) a mass anomaly alone would radiate
  /// away as gravity waves, so the momentum field must be forced in balance
  /// with it — plus `relaxation` (1/s) combining land friction with
  /// far-field analysis nudging. `land` must be the domain's land_mask().
  /// Equivalent to forcing_geometry() followed by apply_forcing().
  void build_forcing(const DomainState& state, const Field2D& land,
                     Field2D& mass_tendency, Field2D& u_tendency,
                     Field2D& v_tendency, Field2D& relaxation) const;

  /// The state-independent half of build_forcing(): everything that depends
  /// only on the grid, its land mask, and this storm's centre and deficit.
  /// It stays valid until advance() or restore() moves the storm. Rows are
  /// shared out over `pool`'s lanes (null: ThreadPool::shared()); each cell
  /// writes only its own outputs, so the bits do not depend on the pool.
  void forcing_geometry(const GridSpec& grid, const Field2D& land,
                        ForcingGeometry& geometry,
                        ThreadPool* pool = nullptr) const;

  /// forcing_geometry() in two halves, for a caller that schedules the
  /// rows itself: begin_geometry() shapes `geometry` and records what it
  /// is built for, then geometry_rows() fills rows [j_begin, j_end) of
  /// it, in any order and on any lane.
  void begin_geometry(const GridSpec& grid, const Field2D& land,
                      ForcingGeometry& geometry) const;
  void geometry_rows(const Field2D& land, ForcingGeometry& geometry,
                     std::size_t j_begin, std::size_t j_end) const;

  /// Rows per claim when a geometry's rows are shared out over a pool.
  /// Rows through the Holland zone cost several times the rest, so lanes
  /// claim small chunks rather than one static band each.
  static constexpr std::size_t kGeometryRowChunk = 2;

  /// Whether `geometry` was built for `grid` and for this storm's deficit
  /// and centre, bit for bit: then it equals a fresh build.
  [[nodiscard]] bool geometry_current(const ForcingGeometry& geometry,
                                      const GridSpec& grid) const;

  /// The state-dependent half: relaxation tendencies of `state` (on the
  /// grid `geometry` was built for) toward the geometry's targets.
  static void apply_forcing(const ForcingGeometry& geometry,
                            const DomainState& state, Field2D& mass_tendency,
                            Field2D& u_tendency, Field2D& v_tendency);

  [[nodiscard]] const PhysicsConfig& config() const { return config_; }

  /// Directly sets the prognostic state (used by checkpoint restore).
  void restore(double deficit_hpa, LatLon center) {
    deficit_ = deficit_hpa;
    center_ = center;
  }

 private:
  PhysicsConfig config_;
  double deficit_;
  LatLon center_;
};

}  // namespace adaptviz

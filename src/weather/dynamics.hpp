// Nonlinear shallow-water dynamical core on a beta plane.
//
// Equations (A-grid, centered differences, WRF-style 3-stage Runge-Kutta):
//
//   du/dt = -(u+Us) u_x - (v+Vs) u_y + f v - g h_x + nu lap(u) - r u
//   dv/dt = -(u+Us) v_x - (v+Vs) v_y - f u - g h_y + nu lap(v) - r v
//   dh/dt = -d/dx((H+h)(u+Us)) - d/dy((H+h)(v+Vs)) + Q + nu lap(h) - r h
//
// (Us, Vs) is the uniform large-scale steering current (a Galilean ambient
// flow supplied by the synthetic analysis), Q the physics mass tendency
// (intensification / decay), r a per-point relaxation-to-rest coefficient
// (land friction, far-field nudging). nu scales as alpha*dx^2/dt so the
// damping of grid-scale noise is resolution-invariant; boundary points are
// held fixed with a sponge relaxing the outermost rows toward rest.
//
// With dt = 6*dx (WRF's time-step rule, dx in km, dt in s) the fastest
// gravity wave (sqrt(gH) ~ 63 m/s) gives a Courant number ~0.38 at any
// resolution, within RK3's stability region.
#pragma once

#include <vector>

#include "weather/state.hpp"

namespace adaptviz {

namespace sw {
struct KernelTable;  // weather/sw_kernels.hpp
}

struct SwForcing {
  double steering_u = 0.0;                 // m/s
  double steering_v = 0.0;                 // m/s
  const Field2D* mass_tendency = nullptr;  // dh/dt source (m/s), optional
  const Field2D* u_tendency = nullptr;     // du/dt source (m/s^2), optional
  const Field2D* v_tendency = nullptr;     // dv/dt source (m/s^2), optional
  const Field2D* relaxation = nullptr;     // r(x,y) in 1/s, optional
};

struct SwParams {
  double gravity = 9.81;
  double mean_depth = kMeanDepthM;
  /// Diffusion strength: nu = alpha * dx^2 / dt.
  double diffusion_alpha = 0.015;
  /// Lateral boundary sponge: width in points and relaxation time at the
  /// outermost interior row (weakening inward).
  int sponge_width = 5;
  double sponge_tau_seconds = 1200.0;
};

/// A solver owns its step scratch (RK3 stage state and kernel rows), so
/// distinct instances never alias — two solvers on one thread, or one per
/// thread, are safe. A single instance is NOT safe for concurrent step()
/// calls. A step runs serially on its caller: its regions last tens of
/// microseconds, too short to pay for a fork-join handoff (DESIGN.md §11).
class SwSolver {
 public:
  explicit SwSolver(SwParams params = {});

  /// Advances the state by one RK3 step of length dt (seconds), on the
  /// widest kernels this CPU runs (sw::kernels()).
  void step(DomainState& state, double dt_seconds,
            const SwForcing& forcing) const;
  /// The same step on the given kernel table; every table gives the same
  /// bits.
  void step(DomainState& state, double dt_seconds, const SwForcing& forcing,
            const sw::KernelTable& kernels) const;

  /// WRF's rule of thumb: seconds of time step per km of grid spacing.
  static double dt_for_resolution_km(double res_km) { return 6.0 * res_km; }

  [[nodiscard]] const SwParams& params() const { return params_; }

 private:
  // Step scratch of one grid: the Coriolis parameter of each row and the
  // kernels' rows (sw::row_scratch_size).
  struct Workspace {
    GridSpec grid;
    std::vector<double> fcor;
    std::vector<double> rows;
  };
  Workspace& workspace(const GridSpec& g) const;

  SwParams params_;
  // Scratch for the two grids stepped last (a model alternates its parent
  // and its nest), reused across steps so neither allocates nor refills;
  // `work_recent_` is the slot used last, and a new grid replaces the
  // other one. Per instance: a `static thread_local` here once let two
  // solvers on one thread alias the same fields.
  mutable Workspace work_[2];
  mutable int work_recent_ = 0;
  // RK3 stage state of the grid being stepped (h, u, v back to back). It
  // only grows: each stage writes it whole before the next reads it.
  mutable std::vector<double> stage_;
  std::vector<double> sponge_rates_;  // (1/tau)(1 - d/w)^2 for d < w
};

}  // namespace adaptviz

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

#include <optional>
#include <vector>

#include "weather/state.hpp"

namespace adaptviz {

struct SwForcing {
  double steering_u = 0.0;                 // m/s
  double steering_v = 0.0;                 // m/s
  const Field2D* mass_tendency = nullptr;  // dh/dt source (m/s), optional
  const Field2D* u_tendency = nullptr;     // du/dt source (m/s^2), optional
  const Field2D* v_tendency = nullptr;     // dv/dt source (m/s^2), optional
  const Field2D* relaxation = nullptr;     // r(x,y) in 1/s, optional
};

/// Which tendency implementation a solver runs. Both produce bitwise
/// identical fields — the regression tests step them side by side — so the
/// scalar loop doubles as the living correctness oracle for the fast path.
enum class SwKernel {
  /// Contiguous row kernels: branch-free interior stencil over raw
  /// ADAPTVIZ_RESTRICT spans, optional forcing/relaxation as hoisted row
  /// passes, sponge applied by precomputed boundary bands. The default.
  kRowKernel,
  /// The original per-point scalar loop with per-point branches. Kept as
  /// the baseline for bench_micro's kernel speedup case and as the bitwise
  /// oracle for the row path.
  kScalarReference,
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
  /// Tendency implementation; tests and bench_micro pin kScalarReference
  /// to compare against the vectorizable row kernels.
  SwKernel kernel = SwKernel::kRowKernel;
};

/// A solver owns its step scratch (RK3 stage state and tendency fields), so
/// distinct instances never alias — two solvers on one thread, or one per
/// thread, are safe. A single instance is NOT safe for concurrent step()
/// calls. A step runs serially on its caller: its regions last tens of
/// microseconds, too short to pay for a fork-join handoff (DESIGN.md §11).
class SwSolver {
 public:
  explicit SwSolver(SwParams params = {});

  /// Advances the state by one RK3 step of length dt (seconds).
  void step(DomainState& state, double dt_seconds,
            const SwForcing& forcing) const;

  /// WRF's rule of thumb: seconds of time step per km of grid spacing.
  static double dt_for_resolution_km(double res_km) { return 6.0 * res_km; }

  [[nodiscard]] const SwParams& params() const { return params_; }

 private:
  struct Tendency {
    Field2D dh, du, dv;
  };
  void compute_tendency(const DomainState& s, const SwForcing& f, double dt,
                        Tendency& out) const;
  // The Coriolis parameter of each row of `g`, from the cache.
  const std::vector<double>& coriolis_rows(const GridSpec& g) const;

  SwParams params_;
  // Step scratch, reused across steps to kill per-step allocation churn
  // (and explicitly per-instance: a `static thread_local` here once let two
  // solvers on one thread alias the same tendency fields).
  mutable Tendency tend_scratch_;
  mutable std::optional<DomainState> stage_scratch_;
  // Coriolis parameter per row, for the two grids stepped last: a model
  // alternates its parent and its nest. `coriolis_recent_` is the slot
  // used last; a new grid replaces the other one.
  struct CoriolisRows {
    GridSpec grid;
    std::vector<double> f;
  };
  mutable CoriolisRows coriolis_cache_[2];
  mutable int coriolis_recent_ = 0;
  std::vector<double> sponge_rates_;  // (1/tau)(1 - d/w)^2 for d < w
};

}  // namespace adaptviz

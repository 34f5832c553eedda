#include "weather/dynamics.hpp"

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "weather/sw_kernels.hpp"

// Bitwise determinism contract. A step is three calls of one RK3 stage
// kernel (weather/sw_kernels.inl), each a single sweep that evaluates the
// tendency of a row, forcing and sponge folded in, and updates the row
// above it. Every point evaluates the scalar reference's expression in the
// reference's order (tests/support/sw_reference.cpp), so every kernel
// table rounds like it: vector lanes run the same IEEE operations, and the
// weather library is built with -ffp-contract=off (see
// src/weather/CMakeLists.txt), so no FMA contraction can split the two
// even under -march=native.

namespace adaptviz {

SwSolver::SwSolver(SwParams params) : params_(params) {
  if (params_.mean_depth <= 0 || params_.gravity <= 0 ||
      params_.diffusion_alpha < 0 || params_.sponge_width < 0) {
    throw std::invalid_argument("SwSolver: bad parameters");
  }
  // Sponge weight table rw[d] = (1/tau) * (1 - d/w)^2 — the exact per-point
  // expression of the scalar reference, evaluated once per distance.
  const int w = params_.sponge_width;
  if (w > 0 && params_.sponge_tau_seconds > 0) {
    const double r0 = 1.0 / params_.sponge_tau_seconds;
    sponge_rates_.resize(static_cast<std::size_t>(w));
    for (int d = 0; d < w; ++d) {
      const double wgt = 1.0 - static_cast<double>(d) / static_cast<double>(w);
      sponge_rates_[static_cast<std::size_t>(d)] = r0 * wgt * wgt;
    }
  }
}

SwSolver::Workspace& SwSolver::workspace(const GridSpec& g) const {
  for (int k = 0; k < 2; ++k) {
    Workspace& w = work_[k];
    if (w.fcor.size() == g.ny() && w.grid == g) {
      work_recent_ = k;
      return w;
    }
  }
  work_recent_ = 1 - work_recent_;
  Workspace& w = work_[work_recent_];
  w.grid = g;
  // Coriolis per row (varies with latitude: the beta effect is what makes
  // cyclones drift poleward-westward even in quiescent environments).
  w.fcor.resize(g.ny());
  for (std::size_t j = 0; j < g.ny(); ++j) w.fcor[j] = coriolis(g.at(0, j).lat);
  w.rows.assign(sw::row_scratch_size(g.nx()), 0.0);
  return w;
}

void SwSolver::step(DomainState& state, double dt,
                    const SwForcing& forcing) const {
  step(state, dt, forcing, sw::kernels());
}

void SwSolver::step(DomainState& state, double dt, const SwForcing& f,
                    const sw::KernelTable& kernels) const {
  if (dt <= 0) throw std::invalid_argument("SwSolver::step: dt must be > 0");
  static thread_local obs::HotHistogram step_hist("sim.step");
  static thread_local obs::HotHistogram stage_hist("sim.tendency");
  static thread_local obs::HotCounter step_count("sim.steps");
  // The step's span and its stages share clock reads: each stage ends
  // where the next begins. The stages are histogram-only: three per step
  // would flood the trace ring.
  obs::LapTimer laps;
  if (obs::Counter* c = step_count.resolve(laps.bundle())) c->add(1);

  const GridSpec& g = state.grid;
  Workspace& w = workspace(g);
  const double dx = g.dx_m();
  const double nu = params_.diffusion_alpha * dx * dx / dt;
  const auto field = [](const Field2D* p) {
    return p != nullptr ? p->data().data() : nullptr;
  };
  sw::StageArgs args;
  args.nx = g.nx();
  args.ny = g.ny();
  args.q = field(f.mass_tendency);
  args.fu = field(f.u_tendency);
  args.fv = field(f.v_tendency);
  args.relax = field(f.relaxation);
  args.fcor = w.fcor.data();
  if (!sponge_rates_.empty()) {
    args.sponge_rates = sponge_rates_.data();
    args.sponge_width = sponge_rates_.size();
  }
  args.su = f.steering_u;
  args.sv = f.steering_v;
  args.inv2dx = 1.0 / (2.0 * dx);
  args.nu_invdx2 = nu / (dx * dx);
  args.grav = params_.gravity;
  args.hbar = params_.mean_depth;
  args.dx = dx;
  args.rows = w.rows.data();
  laps.skip();

  // WRF ARW RK3: phi* = phi + dt/3 F(phi); phi** = phi + dt/2 F(phi*);
  // phi^{n+1} = phi + dt F(phi**). The first stage reads the state and
  // writes the stage buffers, the second updates those in place, and the
  // last updates the state in place.
  const std::size_t n = g.point_count();
  if (stage_.size() < 3 * n) stage_.resize(3 * n);
  double* sh = stage_.data();
  double* su = sh + n;
  double* sv = sh + 2 * n;
  double* xh = state.h.data().data();
  double* xu = state.u.data().data();
  double* xv = state.v.data().data();
  args.base_h = xh;
  args.base_u = xu;
  args.base_v = xv;
  const double frac[3] = {dt / 3.0, dt / 2.0, dt};
  for (int k = 0; k < 3; ++k) {
    args.in_h = k == 0 ? xh : sh;
    args.in_u = k == 0 ? xu : su;
    args.in_v = k == 0 ? xv : sv;
    args.out_h = k == 2 ? xh : sh;
    args.out_u = k == 2 ? xu : su;
    args.out_v = k == 2 ? xv : sv;
    args.a = frac[k];
    kernels.stage(args);
    laps.lap(stage_hist);
  }
  laps.close_span("sim.step", step_hist);
}

}  // namespace adaptviz

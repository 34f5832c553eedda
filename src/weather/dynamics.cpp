#include "weather/dynamics.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"

// Bitwise determinism contract. Both tendency kernels (SwKernel) and both
// RK3 update kernels below evaluate the same per-point expression in the
// same order, so the fast paths round identically to the scalar reference:
// the only transformations applied are branch hoisting (moving `if (f.x)`
// out of the inner loop into separate row passes) and contiguous-span
// addressing — neither reassociates floating-point arithmetic. Vector lanes
// execute the same IEEE ops as scalar code, and the weather library is
// built with -ffp-contract=off (see src/weather/CMakeLists.txt) so no FMA
// contraction can split the two paths even under -march=native.

namespace adaptviz {
namespace {

// One interior row of the shallow-water tendency stencil, branch-free over
// raw spans: hm/hc/hp are rows j-1/j/j+1 of h (likewise u, v), odh/odu/odv
// the output row. Every expression matches the scalar reference bit for
// bit; only the addressing and branch placement differ. A free function
// with restrict parameters rather than a lambda body because that is the
// shape GCC's loop vectorizer handles without runtime alias versioning.
inline void stencil_interior_row(
    std::size_t nx, const double* ADAPTVIZ_RESTRICT hm,
    const double* ADAPTVIZ_RESTRICT hc, const double* ADAPTVIZ_RESTRICT hp,
    const double* ADAPTVIZ_RESTRICT um, const double* ADAPTVIZ_RESTRICT uc,
    const double* ADAPTVIZ_RESTRICT up, const double* ADAPTVIZ_RESTRICT vm,
    const double* ADAPTVIZ_RESTRICT vc, const double* ADAPTVIZ_RESTRICT vp,
    double* ADAPTVIZ_RESTRICT odh, double* ADAPTVIZ_RESTRICT odu,
    double* ADAPTVIZ_RESTRICT odv, double fcor, double su, double sv,
    double inv2dx, double nu_invdx2, double grav, double hbar, double dx) {
  for (std::size_t i = 1; i + 1 < nx; ++i) {
    const double ua = uc[i] + su;
    const double va = vc[i] + sv;

    const double h_x = (hc[i + 1] - hc[i - 1]) * inv2dx;
    const double h_y = (hp[i] - hm[i]) * inv2dx;
    const double u_x = (uc[i + 1] - uc[i - 1]) * inv2dx;
    const double u_y = (up[i] - um[i]) * inv2dx;
    const double v_x = (vc[i + 1] - vc[i - 1]) * inv2dx;
    const double v_y = (vp[i] - vm[i]) * inv2dx;

    const double lap_u =
        (uc[i + 1] + uc[i - 1] + up[i] + um[i] - 4.0 * uc[i]) * nu_invdx2;
    const double lap_v =
        (vc[i + 1] + vc[i - 1] + vp[i] + vm[i] - 4.0 * vc[i]) * nu_invdx2;
    const double lap_h =
        (hc[i + 1] + hc[i - 1] + hp[i] + hm[i] - 4.0 * hc[i]) * nu_invdx2;

    odu[i] = -ua * u_x - va * u_y + fcor * vc[i] - grav * h_x + lap_u;
    odv[i] = -ua * v_x - va * v_y - fcor * uc[i] - grav * h_y + lap_v;

    // Flux-form mass continuity: -div((H+h) * (u_total)).
    const double depth_e = hbar + 0.5 * (hc[i + 1] + hc[i]);
    const double depth_w = hbar + 0.5 * (hc[i - 1] + hc[i]);
    const double depth_n = hbar + 0.5 * (hp[i] + hc[i]);
    const double depth_s = hbar + 0.5 * (hm[i] + hc[i]);
    const double flux_e = depth_e * 0.5 * (uc[i + 1] + uc[i] + 2.0 * su);
    const double flux_w = depth_w * 0.5 * (uc[i - 1] + uc[i] + 2.0 * su);
    const double flux_n = depth_n * 0.5 * (vp[i] + vc[i] + 2.0 * sv);
    const double flux_s = depth_s * 0.5 * (vm[i] + vc[i] + 2.0 * sv);
    odh[i] = -((flux_e - flux_w) + (flux_n - flux_s)) / dx + lap_h;
  }
}

// RK3 stage update dst = src + a * tend over [0, n). All nine spans are
// pairwise disjoint (dst is a stage buffer distinct from the source state),
// so every pointer carries the no-alias promise.
inline void rk3_axpy(double* ADAPTVIZ_RESTRICT dh, double* ADAPTVIZ_RESTRICT du,
                     double* ADAPTVIZ_RESTRICT dv,
                     const double* ADAPTVIZ_RESTRICT h0,
                     const double* ADAPTVIZ_RESTRICT u0,
                     const double* ADAPTVIZ_RESTRICT v0,
                     const double* ADAPTVIZ_RESTRICT th,
                     const double* ADAPTVIZ_RESTRICT tu,
                     const double* ADAPTVIZ_RESTRICT tv, double a,
                     std::size_t n) {
  for (std::size_t idx = 0; idx < n; ++idx) {
    dh[idx] = h0[idx] + a * th[idx];
    du[idx] = u0[idx] + a * tu[idx];
    dv[idx] = v0[idx] + a * tv[idx];
  }
}

// Final RK3 stage: destination IS the source state, so the update runs in
// place (x += a*t rounds identically to x = x + a*t). Tendency spans stay
// restrict-qualified — they never alias the state.
inline void rk3_axpy_inplace(double* ADAPTVIZ_RESTRICT dh,
                             double* ADAPTVIZ_RESTRICT du,
                             double* ADAPTVIZ_RESTRICT dv,
                             const double* ADAPTVIZ_RESTRICT th,
                             const double* ADAPTVIZ_RESTRICT tu,
                             const double* ADAPTVIZ_RESTRICT tv, double a,
                             std::size_t n) {
  for (std::size_t idx = 0; idx < n; ++idx) {
    dh[idx] += a * th[idx];
    du[idx] += a * tu[idx];
    dv[idx] += a * tv[idx];
  }
}

}  // namespace

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

const std::vector<double>& SwSolver::coriolis_rows(const GridSpec& g) const {
  for (int k = 0; k < 2; ++k) {
    CoriolisRows& c = coriolis_cache_[k];
    if (c.f.size() == g.ny() && c.grid == g) {
      coriolis_recent_ = k;
      return c.f;
    }
  }
  coriolis_recent_ = 1 - coriolis_recent_;
  CoriolisRows& c = coriolis_cache_[coriolis_recent_];
  c.grid = g;
  c.f.resize(g.ny());
  for (std::size_t j = 0; j < g.ny(); ++j) c.f[j] = coriolis(g.at(0, j).lat);
  return c.f;
}

void SwSolver::compute_tendency(const DomainState& s, const SwForcing& f,
                                double dt, Tendency& out) const {
  const GridSpec& g = s.grid;
  const std::size_t nx = g.nx();
  const std::size_t ny = g.ny();
  const double dx = g.dx_m();
  const double inv2dx = 1.0 / (2.0 * dx);
  const double nu = params_.diffusion_alpha * dx * dx / dt;
  const double nu_invdx2 = nu / (dx * dx);
  const double grav = params_.gravity;
  const double hbar = params_.mean_depth;
  const double su = f.steering_u;
  const double sv = f.steering_v;

  // Zero-filled scratch, reusing allocations even when the solver
  // alternates between parent- and nest-sized grids.
  out.dh.resize(nx, ny);
  out.du.resize(nx, ny);
  out.dv.resize(nx, ny);

  // Coriolis per row (varies with latitude: the beta effect is what makes
  // cyclones drift poleward-westward even in quiescent environments).
  const std::vector<double>& frow = coriolis_rows(g);

  const int w = params_.sponge_width;
  const bool sponge_on = w > 0 && params_.sponge_tau_seconds > 0;
  const std::vector<double>& rw = sponge_rates_;

  // The original per-point loop, kept verbatim as the bitwise oracle and
  // bench baseline for the row kernels below.
  auto reference_rows = [&](std::size_t j_begin, std::size_t j_end) {
    for (std::size_t j = j_begin; j < j_end; ++j) {
      const double fcor = frow[j];
      for (std::size_t i = 1; i + 1 < nx; ++i) {
        const double ua = s.u(i, j) + f.steering_u;
        const double va = s.v(i, j) + f.steering_v;

        const double h_x = (s.h(i + 1, j) - s.h(i - 1, j)) * inv2dx;
        const double h_y = (s.h(i, j + 1) - s.h(i, j - 1)) * inv2dx;
        const double u_x = (s.u(i + 1, j) - s.u(i - 1, j)) * inv2dx;
        const double u_y = (s.u(i, j + 1) - s.u(i, j - 1)) * inv2dx;
        const double v_x = (s.v(i + 1, j) - s.v(i - 1, j)) * inv2dx;
        const double v_y = (s.v(i, j + 1) - s.v(i, j - 1)) * inv2dx;

        const double lap_u = (s.u(i + 1, j) + s.u(i - 1, j) + s.u(i, j + 1) +
                              s.u(i, j - 1) - 4.0 * s.u(i, j)) *
                             nu_invdx2;
        const double lap_v = (s.v(i + 1, j) + s.v(i - 1, j) + s.v(i, j + 1) +
                              s.v(i, j - 1) - 4.0 * s.v(i, j)) *
                             nu_invdx2;
        const double lap_h = (s.h(i + 1, j) + s.h(i - 1, j) + s.h(i, j + 1) +
                              s.h(i, j - 1) - 4.0 * s.h(i, j)) *
                             nu_invdx2;

        double du =
            -ua * u_x - va * u_y + fcor * s.v(i, j) - grav * h_x + lap_u;
        double dv =
            -ua * v_x - va * v_y - fcor * s.u(i, j) - grav * h_y + lap_v;

        // Flux-form mass continuity: -div((H+h) * (u_total)).
        const double depth_e = hbar + 0.5 * (s.h(i + 1, j) + s.h(i, j));
        const double depth_w = hbar + 0.5 * (s.h(i - 1, j) + s.h(i, j));
        const double depth_n = hbar + 0.5 * (s.h(i, j + 1) + s.h(i, j));
        const double depth_s = hbar + 0.5 * (s.h(i, j - 1) + s.h(i, j));
        const double flux_e =
            depth_e * 0.5 * (s.u(i + 1, j) + s.u(i, j) + 2.0 * f.steering_u);
        const double flux_w =
            depth_w * 0.5 * (s.u(i - 1, j) + s.u(i, j) + 2.0 * f.steering_u);
        const double flux_n =
            depth_n * 0.5 * (s.v(i, j + 1) + s.v(i, j) + 2.0 * f.steering_v);
        const double flux_s =
            depth_s * 0.5 * (s.v(i, j - 1) + s.v(i, j) + 2.0 * f.steering_v);
        double dh = -((flux_e - flux_w) + (flux_n - flux_s)) / dx + lap_h;

        if (f.mass_tendency != nullptr) dh += (*f.mass_tendency)(i, j);
        if (f.u_tendency != nullptr) du += (*f.u_tendency)(i, j);
        if (f.v_tendency != nullptr) dv += (*f.v_tendency)(i, j);
        if (f.relaxation != nullptr) {
          const double r = (*f.relaxation)(i, j);
          du -= r * s.u(i, j);
          dv -= r * s.v(i, j);
          dh -= r * s.h(i, j);
        }
        out.du(i, j) = du;
        out.dv(i, j) = dv;
        out.dh(i, j) = dh;
      }

      // Sponge: relax the outer rows toward rest, strongest at the boundary.
      if (sponge_on) {
        const double r0 = 1.0 / params_.sponge_tau_seconds;
        for (std::size_t i = 1; i + 1 < nx; ++i) {
          const std::size_t d =
              std::min(std::min(i, nx - 1 - i), std::min(j, ny - 1 - j));
          if (d >= static_cast<std::size_t>(w)) continue;
          const double wgt =
              1.0 - static_cast<double>(d) / static_cast<double>(w);
          const double r = r0 * wgt * wgt;
          out.du(i, j) -= r * s.u(i, j);
          out.dv(i, j) -= r * s.v(i, j);
          out.dh(i, j) -= r * s.h(i, j);
        }
      }
    }
  };  // reference_rows

  // Row-kernel path: per row, a branch-free interior stencil over raw
  // spans, then hoisted passes for whichever optional terms are active,
  // then the sponge as precomputed boundary bands.
  auto row_kernel_rows = [&](std::size_t j_begin, std::size_t j_end) {
    const std::size_t last = nx - 1;
    for (std::size_t j = j_begin; j < j_end; ++j) {
      const double fcor = frow[j];
      const double* hm = s.h.row(j - 1);
      const double* hc = s.h.row(j);
      const double* hp = s.h.row(j + 1);
      const double* um = s.u.row(j - 1);
      const double* uc = s.u.row(j);
      const double* up = s.u.row(j + 1);
      const double* vm = s.v.row(j - 1);
      const double* vc = s.v.row(j);
      const double* vp = s.v.row(j + 1);
      double* ADAPTVIZ_RESTRICT odh = out.dh.row(j);
      double* ADAPTVIZ_RESTRICT odu = out.du.row(j);
      double* ADAPTVIZ_RESTRICT odv = out.dv.row(j);

      stencil_interior_row(nx, hm, hc, hp, um, uc, up, vm, vc, vp, odh, odu,
                           odv, fcor, su, sv, inv2dx, nu_invdx2, grav, hbar,
                           dx);

      // Optional terms, one hoisted elementwise pass each, in the same
      // accumulation order the reference applies per point.
      if (f.mass_tendency != nullptr) {
        const double* q = f.mass_tendency->row(j);
        for (std::size_t i = 1; i < last; ++i) odh[i] += q[i];
      }
      if (f.u_tendency != nullptr) {
        const double* fu = f.u_tendency->row(j);
        for (std::size_t i = 1; i < last; ++i) odu[i] += fu[i];
      }
      if (f.v_tendency != nullptr) {
        const double* fv = f.v_tendency->row(j);
        for (std::size_t i = 1; i < last; ++i) odv[i] += fv[i];
      }
      if (f.relaxation != nullptr) {
        const double* r = f.relaxation->row(j);
        for (std::size_t i = 1; i < last; ++i) {
          odu[i] -= r[i] * uc[i];
          odv[i] -= r[i] * vc[i];
          odh[i] -= r[i] * hc[i];
        }
      }

      if (sponge_on) {
        const std::size_t W = static_cast<std::size_t>(w);
        const std::size_t jd = std::min(j, ny - 1 - j);
        const std::size_t b = std::min(jd, W);
        if (last >= 2 * W + 1) {
          // Wide row: the sponge decomposes into a left band where the
          // boundary distance is i, a constant-weight middle (only when
          // the row itself sits inside the sponge), and a mirrored right
          // band — no per-point distance test.
          for (std::size_t i = 1; i < b; ++i) {
            const double r = rw[i];
            odu[i] -= r * uc[i];
            odv[i] -= r * vc[i];
            odh[i] -= r * hc[i];
          }
          if (jd < W) {
            const double r = rw[jd];
            for (std::size_t i = b; i <= last - b; ++i) {
              odu[i] -= r * uc[i];
              odv[i] -= r * vc[i];
              odh[i] -= r * hc[i];
            }
          }
          for (std::size_t i = last - b + 1; i < last; ++i) {
            const double r = rw[last - i];
            odu[i] -= r * uc[i];
            odv[i] -= r * vc[i];
            odh[i] -= r * hc[i];
          }
        } else {
          // Narrow grid: the bands would overlap, fall back to the
          // per-point distance computation (same weights via the table).
          for (std::size_t i = 1; i < last; ++i) {
            const std::size_t d = std::min(std::min(i, last - i), jd);
            if (d >= W) continue;
            const double r = rw[d];
            odu[i] -= r * uc[i];
            odv[i] -= r * vc[i];
            odh[i] -= r * hc[i];
          }
        }
      }
    }
  };  // row_kernel_rows

  if (params_.kernel == SwKernel::kScalarReference) {
    reference_rows(1, ny - 1);
  } else {
    row_kernel_rows(1, ny - 1);
  }
}

void SwSolver::step(DomainState& state, double dt,
                    const SwForcing& forcing) const {
  if (dt <= 0) throw std::invalid_argument("SwSolver::step: dt must be > 0");
  static thread_local obs::HotHistogram step_hist("sim.step");
  static thread_local obs::HotHistogram tendency_hist("sim.tendency");
  static thread_local obs::HotHistogram update_hist("sim.update");
  static thread_local obs::HotCounter step_count("sim.steps");
  // The step's span and its stages share clock reads: each stage ends
  // where the next begins. The stages are histogram-only: three
  // tendencies per step would flood the trace ring.
  obs::LapTimer laps;
  if (obs::Counter* c = step_count.resolve(laps.bundle())) c->add(1);
  const std::size_t n = state.h.size();

  // WRF ARW RK3: phi* = phi + dt/3 F(phi); phi** = phi + dt/2 F(phi*);
  // phi^{n+1} = phi + dt F(phi**).
  Tendency& tend = tend_scratch_;
  // Reuse the stage buffers across steps: copy-assign lands in the already
  // allocated fields instead of allocating three grids per step.
  if (stage_scratch_) {
    *stage_scratch_ = state;
  } else {
    stage_scratch_.emplace(state);
  }
  DomainState& stage = *stage_scratch_;
  laps.skip();

  const double frac[3] = {dt / 3.0, dt / 2.0, dt};
  for (int k = 0; k < 3; ++k) {
    compute_tendency(stage, forcing, dt, tend);
    laps.lap(tendency_hist);
    const double a = frac[k];
    // The first two stages write into the disjoint `stage` buffers (full
    // no-alias kernel); the last stage updates `state` in place.
    const double* th = tend.dh.data().data();
    const double* tu = tend.du.data().data();
    const double* tv = tend.dv.data().data();
    if (k == 2) {
      double* dh = state.h.data().data();
      double* du = state.u.data().data();
      double* dv = state.v.data().data();
      rk3_axpy_inplace(dh, du, dv, th, tu, tv, a, n);
    } else {
      double* dh = stage.h.data().data();
      double* du = stage.u.data().data();
      double* dv = stage.v.data().data();
      const double* h0 = state.h.data().data();
      const double* u0 = state.u.data().data();
      const double* v0 = state.v.data().data();
      rk3_axpy(dh, du, dv, h0, u0, v0, th, tu, tv, a, n);
    }
    laps.lap(update_hist);
  }
  laps.close_span("sim.step", step_hist);
}

}  // namespace adaptviz

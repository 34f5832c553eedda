#include "sw_reference.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

namespace adaptviz::testing_support {

void ReferenceSolver::tendency(const DomainState& s, const SwForcing& f,
                               double dt) {
  const GridSpec& g = s.grid;
  const std::size_t nx = g.nx();
  const std::size_t ny = g.ny();
  const double dx = g.dx_m();
  const double inv2dx = 1.0 / (2.0 * dx);
  const double nu = params_.diffusion_alpha * dx * dx / dt;
  const double nu_invdx2 = nu / (dx * dx);
  const double grav = params_.gravity;
  const double hbar = params_.mean_depth;
  const int w = params_.sponge_width;
  const bool sponge_on = w > 0 && params_.sponge_tau_seconds > 0;

  dh_.resize(nx, ny);
  du_.resize(nx, ny);
  dv_.resize(nx, ny);

  for (std::size_t j = 1; j + 1 < ny; ++j) {
    const double fcor = coriolis(g.at(0, j).lat);
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

      double du = -ua * u_x - va * u_y + fcor * s.v(i, j) - grav * h_x + lap_u;
      double dv = -ua * v_x - va * v_y - fcor * s.u(i, j) - grav * h_y + lap_v;

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
      du_(i, j) = du;
      dv_(i, j) = dv;
      dh_(i, j) = dh;
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
        du_(i, j) -= r * s.u(i, j);
        dv_(i, j) -= r * s.v(i, j);
        dh_(i, j) -= r * s.h(i, j);
      }
    }
  }
}

void ReferenceSolver::step(DomainState& state, double dt,
                           const SwForcing& forcing) {
  if (dt <= 0) throw std::invalid_argument("ReferenceSolver: dt must be > 0");
  // WRF ARW RK3: phi* = phi + dt/3 F(phi); phi** = phi + dt/2 F(phi*);
  // phi^{n+1} = phi + dt F(phi**).
  stage_ = state;
  const std::size_t n = state.h.size();
  const double frac[3] = {dt / 3.0, dt / 2.0, dt};
  for (int k = 0; k < 3; ++k) {
    tendency(stage_, forcing, dt);
    const double a = frac[k];
    DomainState& out = k == 2 ? state : stage_;
    for (std::size_t idx = 0; idx < n; ++idx) {
      out.h.data()[idx] = state.h.data()[idx] + a * dh_.data()[idx];
      out.u.data()[idx] = state.u.data()[idx] + a * du_.data()[idx];
      out.v.data()[idx] = state.v.data()[idx] + a * dv_.data()[idx];
    }
  }
}

}  // namespace adaptviz::testing_support

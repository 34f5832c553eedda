#include "vis/streamlines.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace adaptviz {
namespace {

bool inside(const Field2D& f, double x, double y) {
  return x >= 0.0 && y >= 0.0 && x <= static_cast<double>(f.nx() - 1) &&
         y <= static_cast<double>(f.ny() - 1);
}

// One direction of the trace; dir = +1 downstream, -1 upstream.
void trace_direction(const Field2D& u, const Field2D& v, double x, double y,
                     double dir, const StreamlineOptions& opt,
                     Streamline& out) {
  for (int k = 0; k < opt.max_steps; ++k) {
    if (!inside(u, x, y)) break;
    const double u1 = u.sample(x, y);
    const double v1 = v.sample(x, y);
    const double s1 = std::hypot(u1, v1);
    if (s1 < opt.min_speed) break;
    // Midpoint (RK2): normalize so each step advances ~step_cells cells.
    const double hx = x + dir * opt.step_cells * 0.5 * u1 / s1;
    const double hy = y + dir * opt.step_cells * 0.5 * v1 / s1;
    if (!inside(u, hx, hy)) break;
    const double u2 = u.sample(hx, hy);
    const double v2 = v.sample(hx, hy);
    const double s2 = std::hypot(u2, v2);
    if (s2 < opt.min_speed) break;
    x += dir * opt.step_cells * u2 / s2;
    y += dir * opt.step_cells * v2 / s2;
    out.push_back({x, y});
  }
}

}  // namespace

Streamline trace_streamline(const Field2D& u, const Field2D& v,
                            double seed_x, double seed_y,
                            const StreamlineOptions& options) {
  if (u.nx() != v.nx() || u.ny() != v.ny()) {
    throw std::invalid_argument("trace_streamline: field shape mismatch");
  }
  if (options.step_cells <= 0 || options.max_steps < 1) {
    throw std::invalid_argument("trace_streamline: bad options");
  }
  if (!inside(u, seed_x, seed_y)) return {};

  Streamline upstream;
  trace_direction(u, v, seed_x, seed_y, -1.0, options, upstream);
  Streamline line;
  line.reserve(upstream.size() + 1 + static_cast<std::size_t>(options.max_steps));
  for (auto it = upstream.rbegin(); it != upstream.rend(); ++it) {
    line.push_back(*it);
  }
  line.push_back({seed_x, seed_y});
  trace_direction(u, v, seed_x, seed_y, +1.0, options, line);
  return line;
}

std::vector<Streamline> streamline_field(const Field2D& u, const Field2D& v,
                                         double seed_spacing_cells,
                                         std::size_t min_points,
                                         const StreamlineOptions& options) {
  if (seed_spacing_cells <= 0) {
    throw std::invalid_argument("streamline_field: bad seed spacing");
  }
  obs::ScopedSpan span("vis.streamlines");
  std::vector<Streamline> out;
  for (double y = seed_spacing_cells / 2; y < static_cast<double>(u.ny() - 1);
       y += seed_spacing_cells) {
    for (double x = seed_spacing_cells / 2;
         x < static_cast<double>(u.nx() - 1); x += seed_spacing_cells) {
      Streamline line = trace_streamline(u, v, x, y, options);
      if (line.size() >= min_points) out.push_back(std::move(line));
    }
  }
  return out;
}

}  // namespace adaptviz

#include "weather/nest.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numerics/interpolation.hpp"

namespace adaptviz {
namespace {

// Samples all three prognostic fields of `src` at a geographic point.
void sample_state(const DomainState& src, LatLon p, double& h, double& u,
                  double& v) {
  const GridSpec& g = src.grid;
  const double x = g.x_of_lon(p.lon);
  const double y = g.y_of_lat(p.lat);
  h = bicubic(src.h.data(), g.nx(), g.ny(), x, y);
  u = bilinear(src.u.data(), g.nx(), g.ny(), x, y);
  v = bilinear(src.v.data(), g.nx(), g.ny(), x, y);
}

// Calls fn(i, j, d) for each point of `g` within `w` points of an edge,
// in row-major order; d is the point's distance from the nearest edge.
template <typename Fn>
void for_each_band_point(const GridSpec& g, std::size_t w, Fn&& fn) {
  const std::size_t nx = g.nx();
  const std::size_t ny = g.ny();
  for (std::size_t j = 0; j < ny; ++j) {
    const std::size_t dj = std::min(j, ny - 1 - j);
    for (std::size_t i = 0; i < nx; ++i) {
      const std::size_t d = std::min(std::min(i, nx - 1 - i), dj);
      if (d >= w) {
        // Interior: skip the whole middle of the row.
        i = nx - w - 1;
        continue;
      }
      fn(i, j, d);
    }
  }
}

}  // namespace

GridSpec NestDomain::make_grid(const GridSpec& parent_grid, LatLon center,
                               double extent_deg, double resolution_km) {
  const double margin = 2.0 * parent_grid.resolution_km() / kKmPerDegree;
  const double half = extent_deg / 2.0;
  const double lon_min = parent_grid.lon0() + margin;
  const double lon_max =
      parent_grid.lon0() + parent_grid.extent_lon() - margin - extent_deg;
  const double lat_min = parent_grid.lat0() + margin;
  const double lat_max =
      parent_grid.lat0() + parent_grid.extent_lat() - margin - extent_deg;
  if (lon_max < lon_min || lat_max < lat_min) {
    throw std::invalid_argument("NestDomain: nest larger than parent");
  }
  const double lon0 = std::clamp(center.lon - half, lon_min, lon_max);
  const double lat0 = std::clamp(center.lat - half, lat_min, lat_max);
  return GridSpec(lon0, lat0, extent_deg, extent_deg, resolution_km);
}

NestDomain::NestDomain(const DomainState& parent, LatLon center,
                       double extent_deg)
    : state_(make_grid(parent.grid, center, extent_deg,
                       parent.grid.resolution_km() / kNestRatio)),
      extent_deg_(extent_deg) {
  fill_from(parent);
  plan_exchange(parent.grid);
}

LatLon NestDomain::center() const {
  const GridSpec& g = state_.grid;
  return LatLon{g.lat0() + g.extent_lat() / 2.0,
                g.lon0() + g.extent_lon() / 2.0};
}

void NestDomain::fill_from(const DomainState& src) {
  const GridSpec& g = state_.grid;
  for (std::size_t j = 0; j < g.ny(); ++j) {
    for (std::size_t i = 0; i < g.nx(); ++i) {
      sample_state(src, g.at(i, j), state_.h(i, j), state_.u(i, j),
                   state_.v(i, j));
    }
  }
}

void NestDomain::plan_exchange(const GridSpec& pg) {
  const GridSpec& ng = state_.grid;
  plan_.parent_grid = pg;

  // The boundary band samples the parent at the nest's own points.
  plan_.band_x.resize(ng.nx());
  for (std::size_t i = 0; i < ng.nx(); ++i) {
    plan_.band_x[i] = pg.x_of_lon(ng.lon_at(i));
  }
  plan_.band_y.resize(ng.ny());
  for (std::size_t j = 0; j < ng.ny(); ++j) {
    plan_.band_y[j] = pg.y_of_lat(ng.lat_at(j));
  }
  std::size_t band_points = 0;
  for_each_band_point(ng, kBoundaryWidth,
                      [&](std::size_t, std::size_t, std::size_t) {
                        ++band_points;
                      });
  band_h_.resize(band_points);
  band_u_.resize(band_points);
  band_v_.resize(band_points);

  // Feedback covers the parent points inside the nest's interior box, and
  // restricts a (ratio x ratio) block of nest samples around each.
  const double pad = static_cast<double>(kFeedbackExclude) *
                     ng.resolution_km() / kKmPerDegree;
  const double lon_lo = ng.lon0() + pad;
  const double lon_hi = ng.lon0() + ng.extent_lon() - pad;
  const double lat_lo = ng.lat0() + pad;
  const double lat_hi = ng.lat0() + ng.extent_lat() - pad;
  const double step = ng.resolution_km() / kKmPerDegree;
  plan_.cover_i.clear();
  plan_.cover_x.clear();
  for (std::size_t i = 1; i + 1 < pg.nx(); ++i) {
    const double lon = pg.lon_at(i);
    if (lon < lon_lo || lon > lon_hi) continue;
    plan_.cover_i.push_back(i);
    for (int ii = -1; ii <= 1; ++ii) {
      plan_.cover_x.push_back(
          ng.x_of_lon(lon + static_cast<double>(ii) * step));
    }
  }
  plan_.cover_j.clear();
  plan_.cover_y.clear();
  for (std::size_t j = 1; j + 1 < pg.ny(); ++j) {
    const double lat = pg.lat_at(j);
    if (lat < lat_lo || lat > lat_hi) continue;
    plan_.cover_j.push_back(j);
    for (int jj = -1; jj <= 1; ++jj) {
      plan_.cover_y.push_back(
          ng.y_of_lat(lat + static_cast<double>(jj) * step));
    }
  }
}

void NestDomain::check_parent(const GridSpec& parent_grid) const {
  if (!(parent_grid == plan_.parent_grid)) {
    throw std::invalid_argument(
        "NestDomain: parent is not on the grid the nest was placed in");
  }
}

void NestDomain::sample_boundary(const DomainState& parent) {
  check_parent(parent.grid);
  const GridSpec& pg = parent.grid;
  std::size_t k = 0;
  for_each_band_point(
      state_.grid, kBoundaryWidth,
      [&](std::size_t i, std::size_t j, std::size_t) {
        const double x = plan_.band_x[i];
        const double y = plan_.band_y[j];
        band_h_[k] = bicubic(parent.h.data(), pg.nx(), pg.ny(), x, y);
        band_u_[k] = bilinear(parent.u.data(), pg.nx(), pg.ny(), x, y);
        band_v_[k] = bilinear(parent.v.data(), pg.nx(), pg.ny(), x, y);
        ++k;
      });
}

void NestDomain::blend_boundary() {
  std::size_t k = 0;
  for_each_band_point(
      state_.grid, kBoundaryWidth,
      [&](std::size_t i, std::size_t j, std::size_t d) {
        const double f =
            static_cast<double>(d) / static_cast<double>(kBoundaryWidth);
        state_.h(i, j) = f * state_.h(i, j) + (1.0 - f) * band_h_[k];
        state_.u(i, j) = f * state_.u(i, j) + (1.0 - f) * band_u_[k];
        state_.v(i, j) = f * state_.v(i, j) + (1.0 - f) * band_v_[k];
        ++k;
      });
}

void NestDomain::apply_boundary(const DomainState& parent) {
  sample_boundary(parent);
  blend_boundary();
}

void NestDomain::feedback(DomainState& parent) const {
  check_parent(parent.grid);
  const std::vector<double>& xs = plan_.cover_x;
  const std::vector<double>& ys = plan_.cover_y;
  for (std::size_t jn = 0; jn < plan_.cover_j.size(); ++jn) {
    const std::size_t j = plan_.cover_j[jn];
    for (std::size_t in = 0; in < plan_.cover_i.size(); ++in) {
      const std::size_t i = plan_.cover_i[in];
      // Restriction: mean of a (ratio x ratio) block of nest samples around
      // the parent point — conservative-ish without bookkeeping exact cells.
      double h = 0.0;
      double u = 0.0;
      double v = 0.0;
      int count = 0;
      for (std::size_t jj = 0; jj < 3; ++jj) {
        const double y = ys[3 * jn + jj];
        for (std::size_t ii = 0; ii < 3; ++ii) {
          const double x = xs[3 * in + ii];
          h += state_.h.sample(x, y);
          u += state_.u.sample(x, y);
          v += state_.v.sample(x, y);
          ++count;
        }
      }
      parent.h(i, j) = h / count;
      parent.u(i, j) = u / count;
      parent.v(i, j) = v / count;
    }
  }
}

bool NestDomain::needs_recenter(LatLon eye, double threshold_deg) const {
  const LatLon c = center();
  return std::fabs(eye.lat - c.lat) > threshold_deg ||
         std::fabs(eye.lon - c.lon) > threshold_deg;
}

void NestDomain::recenter(const DomainState& parent, LatLon eye) {
  DomainState old = std::move(state_);
  state_ = DomainState(
      make_grid(parent.grid, eye, extent_deg_, old.grid.resolution_km()));
  const GridSpec& g = state_.grid;
  const GridSpec& og = old.grid;
  for (std::size_t j = 0; j < g.ny(); ++j) {
    for (std::size_t i = 0; i < g.nx(); ++i) {
      const LatLon p = g.at(i, j);
      // Prefer fine data where the old nest covered this point (away from
      // its boundary band), otherwise interpolate from the parent.
      const double margin = 3.0 * og.resolution_km() / kKmPerDegree;
      const bool in_old = p.lon > og.lon0() + margin &&
                          p.lon < og.lon0() + og.extent_lon() - margin &&
                          p.lat > og.lat0() + margin &&
                          p.lat < og.lat0() + og.extent_lat() - margin;
      sample_state(in_old ? old : parent, p, state_.h(i, j), state_.u(i, j),
                   state_.v(i, j));
    }
  }
  plan_exchange(parent.grid);
}

void NestDomain::restore_state(DomainState s) {
  state_ = std::move(s);
  plan_exchange(plan_.parent_grid);
}

}  // namespace adaptviz

#include "weather/vortex.hpp"

#include <algorithm>
#include <cmath>

namespace adaptviz {

double distance_km(LatLon a, LatLon b) {
  const double dy = (a.lat - b.lat) * kKmPerDegree;
  const double mean_lat = 0.5 * (a.lat + b.lat) * 3.14159265358979 / 180.0;
  const double dx = (a.lon - b.lon) * kKmPerDegree * std::cos(mean_lat);
  return std::hypot(dx, dy);
}

HollandVortex::Profile HollandVortex::profile(double r_km, double f) const {
  // Height: h(r) = -(deficit / kHpaPerMetre) * (1 - exp(-(Rm/r)^B)), full
  // deficit at the centre, zero far away.
  const double r = std::max(r_km, 1e-3);
  const double ratio_h = r_max_km / r;
  const double x_h = std::pow(ratio_h, b);
  const double e_h = std::exp(-x_h);
  const double height = -deficit_hpa * (1.0 - e_h) / kHpaPerMetre;

  // Wind: the gradient balance of the same profile, with dh/dr in metres:
  //   dh/dr = D * exp(-(Rm/r)^B) * B * Rm^B / r^(B+1)
  // with D = deficit / kHpaPerMetre.
  const double r_m = std::max(r_km, 1.0) * 1000.0;
  const double rm_m = r_max_km * 1000.0;
  const double ratio_v = rm_m / r_m;
  double x = x_h;
  double e = e_h;
  if (ratio_v != ratio_h) {
    x = std::pow(ratio_v, b);
    e = std::exp(-x);
  }
  const double d_m = deficit_hpa / kHpaPerMetre;
  const double dhdr = d_m * e * b * x / r_m;  // positive outward
  const double g = 9.81;
  const double fr2 = 0.5 * std::fabs(f) * r_m;
  return Profile{.height_m = height,
                 .wind_ms = -fr2 + std::sqrt(fr2 * fr2 + g * r_m * dhdr)};
}

void HollandVortex::deposit(DomainState& state) const {
  const GridSpec& grid = state.grid;
  for (std::size_t j = 0; j < grid.ny(); ++j) {
    for (std::size_t i = 0; i < grid.nx(); ++i) {
      const LatLon p = grid.at(i, j);
      const double r = distance_km(p, center);
      if (r > 12.0 * r_max_km) continue;  // negligible beyond
      const Profile prof = profile(r, coriolis(center.lat));
      state.h(i, j) += prof.height_m;
      if (r > 1.0) {
        // Unit tangential vector (counterclockwise = cyclonic, NH).
        const double mean_lat = 0.5 * (p.lat + center.lat) * 3.14159265 / 180.0;
        const double dx = (p.lon - center.lon) * kKmPerDegree *
                          std::cos(mean_lat);
        const double dy = (p.lat - center.lat) * kKmPerDegree;
        state.u(i, j) += prof.wind_ms * (-dy / r);
        state.v(i, j) += prof.wind_ms * (dx / r);
      }
    }
  }
}

}  // namespace adaptviz

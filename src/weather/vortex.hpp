// Holland (1980) analytic tropical-cyclone profile.
//
// Used twice: to insert the initial "bogus" depression into the synthetic
// analysis (standard practice when the global analysis under-resolves a
// storm), and as the target shape of the intensification forcing that deepens
// the simulated storm toward the intensity ODE's central pressure.
#pragma once

#include "weather/grid.hpp"
#include "weather/state.hpp"

namespace adaptviz {

struct HollandVortex {
  LatLon center;
  /// Central pressure deficit (hPa, positive = deeper storm).
  double deficit_hpa = 10.0;
  /// Radius of maximum wind (km).
  double r_max_km = 80.0;
  /// Holland shape parameter (1 < B < 2.5 for real storms).
  double b = 1.5;

  /// Height anomaly (m, negative inside the storm) and gradient-balanced
  /// tangential wind (m/s, cyclonic positive) at radius r (km).
  struct Profile {
    double height_m = 0.0;
    double wind_ms = 0.0;
  };

  /// Holland: the pressure anomaly is -deficit * (1 - exp(-(r_max/r)^B)),
  /// mapped to height by kHpaPerMetre; the wind solves v^2/r + f*v =
  /// g * dh/dr for Coriolis parameter f. Height and wind each evaluate
  /// (r_max/r)^B on their own radius floor and units, and share one
  /// pow/exp whenever the two ratios round alike.
  [[nodiscard]] Profile profile(double r_km, double f) const;

  /// Adds the vortex (height depression + balanced cyclonic winds) onto a
  /// domain state in place.
  void deposit(DomainState& state) const;
};

/// Great-circle-free planar distance (km) between two points on the model's
/// equirectangular projection.
double distance_km(LatLon a, LatLon b);

}  // namespace adaptviz

#include "weather/vortex.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace adaptviz {
namespace {

HollandVortex aila_like() {
  return HollandVortex{.center = LatLon{14.0, 88.5},
                       .deficit_hpa = 20.0,
                       .r_max_km = 80.0,
                       .b = 1.5};
}

TEST(Distance, PlanarKm) {
  EXPECT_NEAR(distance_km(LatLon{0, 0}, LatLon{0, 1}), kKmPerDegree, 1e-9);
  EXPECT_NEAR(distance_km(LatLon{10, 88}, LatLon{11, 88}), kKmPerDegree,
              1e-9);
  // Longitude shrinks with cos(lat).
  const double at60 = distance_km(LatLon{60, 0}, LatLon{60, 1});
  EXPECT_NEAR(at60, kKmPerDegree * 0.5, 0.5);
  EXPECT_DOUBLE_EQ(distance_km(LatLon{5, 5}, LatLon{5, 5}), 0.0);
}

TEST(Holland, PressureProfileShape) {
  const HollandVortex v = aila_like();
  const auto pressure = [&v](double r) {
    return v.profile(r, 0.0).height_m * kHpaPerMetre;
  };
  // Full deficit at the centre, ~0 far away, monotone in between.
  EXPECT_NEAR(pressure(0.1), -20.0, 0.01);
  EXPECT_GT(pressure(2000.0), -0.2);
  double prev = pressure(1.0);
  for (double r = 20.0; r <= 1000.0; r += 20.0) {
    const double cur = pressure(r);
    EXPECT_GE(cur, prev - 1e-12) << "not monotone at r=" << r;
    prev = cur;
  }
}

TEST(Holland, HeightMatchesPressureMapping) {
  // The height anomaly is the Holland pressure anomaly over kHpaPerMetre,
  // whether or not the height and wind radii share one pow/exp.
  const HollandVortex v = aila_like();
  for (const double r : {0.5, 1.0, 50.0, 333.3}) {
    const double p =
        -v.deficit_hpa * (1.0 - std::exp(-std::pow(v.r_max_km / r, v.b)));
    EXPECT_NEAR(v.profile(r, coriolis(14.0)).height_m, p / kHpaPerMetre,
                1e-12)
        << "r=" << r;
  }
}

TEST(Holland, BalancedWindPeaksNearRmax) {
  const HollandVortex v = aila_like();
  const double f = coriolis(14.0);
  double peak = 0.0;
  double peak_r = 0.0;
  for (double r = 5.0; r <= 600.0; r += 5.0) {
    const double w = v.profile(r, f).wind_ms;
    EXPECT_GE(w, 0.0);
    if (w > peak) {
      peak = w;
      peak_r = r;
    }
  }
  // A 20 hPa storm blows tropical-storm to cyclone-force winds at its core.
  EXPECT_GT(peak, 15.0);
  EXPECT_LT(peak, 70.0);
  EXPECT_NEAR(peak_r, v.r_max_km, 25.0);
  // Far field decays.
  EXPECT_LT(v.profile(600.0, f).wind_ms, 0.5 * peak);
}

TEST(Holland, DepositCreatesCyclonicLow) {
  GridSpec g(80.0, 5.0, 18.0, 18.0, 40.0);
  DomainState s(g);
  const HollandVortex v = aila_like();
  v.deposit(s);

  // Minimum pressure at the centre.
  double hmin = 1e300;
  std::size_t bi = 0, bj = 0;
  for (std::size_t j = 0; j < g.ny(); ++j)
    for (std::size_t i = 0; i < g.nx(); ++i)
      if (s.h(i, j) < hmin) {
        hmin = s.h(i, j);
        bi = i;
        bj = j;
      }
  const LatLon eye = g.at(bi, bj);
  EXPECT_LT(distance_km(eye, v.center), 1.5 * g.resolution_km());
  EXPECT_NEAR(hmin, -20.0 / kHpaPerMetre, 6.0);

  // Cyclonic (counterclockwise) circulation: east of the eye the wind blows
  // north (v > 0), west of it south (v < 0).
  const std::size_t east = bi + 3;
  const std::size_t west = bi - 3;
  EXPECT_GT(s.v(east, bj), 1.0);
  EXPECT_LT(s.v(west, bj), -1.0);
  // North of the eye the wind blows west (u < 0).
  EXPECT_LT(s.u(bi, bj + 3), -1.0);
}

TEST(Holland, DepositIsLocal) {
  GridSpec g(60.0, -10.0, 60.0, 50.0, 200.0);
  DomainState s(g);
  aila_like().deposit(s);
  // Far corner untouched.
  EXPECT_DOUBLE_EQ(s.h(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(s.u(g.nx() - 1, g.ny() - 1), 0.0);
}

TEST(Coriolis, SignAndMagnitude) {
  EXPECT_NEAR(coriolis(90.0), 1.458e-4, 1e-6);
  EXPECT_NEAR(coriolis(14.0), 3.53e-5, 1e-6);
  EXPECT_NEAR(coriolis(0.0), 0.0, 1e-12);
  EXPECT_LT(coriolis(-14.0), 0.0);
}

}  // namespace
}  // namespace adaptviz

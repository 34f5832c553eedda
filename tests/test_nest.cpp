#include "weather/nest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "numerics/interpolation.hpp"
#include "weather/model.hpp"
#include "weather/vortex.hpp"

namespace adaptviz {
namespace {

DomainState parent_with_vortex(LatLon center) {
  GridSpec g(60.0, -10.0, 60.0, 50.0, 120.0);
  DomainState s(g);
  HollandVortex v{.center = center,
                  .deficit_hpa = 18.0,
                  .r_max_km = 300.0,
                  .b = 1.4};
  v.deposit(s);
  return s;
}

TEST(Nest, CreatedAtOneThirdResolution) {
  const DomainState parent = parent_with_vortex({14.0, 88.5});
  NestDomain nest(parent, LatLon{14.0, 88.5}, 9.0);
  EXPECT_NEAR(nest.grid().resolution_km(),
              parent.grid.resolution_km() / kNestRatio, 1e-9);
  EXPECT_NEAR(nest.center().lat, 14.0, 0.3);
  EXPECT_NEAR(nest.center().lon, 88.5, 0.3);
  EXPECT_DOUBLE_EQ(nest.extent_deg(), 9.0);
}

TEST(Nest, InitializedFromParentFields) {
  const DomainState parent = parent_with_vortex({14.0, 88.5});
  NestDomain nest(parent, LatLon{14.0, 88.5}, 9.0);
  // The nest carries the vortex depression interpolated from the parent.
  EXPECT_LT(nest.state().h.min(), 0.5 * parent.h.min() /* deeper than half */);
  // A shared location agrees.
  const LatLon p{13.0, 87.0};
  const double pv = parent.h.sample(parent.grid.x_of_lon(p.lon),
                                    parent.grid.y_of_lat(p.lat));
  const double nv = nest.state().h.sample(nest.grid().x_of_lon(p.lon),
                                          nest.grid().y_of_lat(p.lat));
  EXPECT_NEAR(nv, pv, 3.0);
}

TEST(Nest, ClampedInsideParent) {
  const DomainState parent = parent_with_vortex({14.0, 88.5});
  // Requested centre near the parent's east edge: the nest must stay inside.
  NestDomain nest(parent, LatLon{14.0, 119.0}, 9.0);
  const GridSpec& g = nest.grid();
  EXPECT_LE(g.lon0() + g.extent_lon(), 120.0 + 1e-9);
  EXPECT_GE(g.lon0(), 60.0 - 1e-9);
}

TEST(Nest, TooLargeRejected) {
  const DomainState parent = parent_with_vortex({14.0, 88.5});
  EXPECT_THROW(NestDomain(parent, LatLon{14.0, 88.5}, 70.0),
               std::invalid_argument);
}

TEST(Nest, BoundaryBlendsTowardParent) {
  const DomainState parent = parent_with_vortex({14.0, 88.5});
  NestDomain nest(parent, LatLon{14.0, 88.5}, 9.0);
  // Perturb the nest interior wildly, then re-apply boundary: edges must
  // return to parent values while the deep interior keeps the perturbation.
  nest.state().h.fill(123.0);
  nest.apply_boundary(parent);
  const GridSpec& g = nest.grid();
  const double edge = nest.state().h(0, g.ny() / 2);
  const LatLon pe = g.at(0, g.ny() / 2);
  const double parent_val = parent.h.sample(parent.grid.x_of_lon(pe.lon),
                                            parent.grid.y_of_lat(pe.lat));
  EXPECT_NEAR(edge, parent_val, 1.0);
  EXPECT_NEAR(nest.state().h(g.nx() / 2, g.ny() / 2), 123.0, 1e-9);
}

TEST(Nest, FeedbackWritesInteriorOntoParent) {
  DomainState parent = parent_with_vortex({14.0, 88.5});
  NestDomain nest(parent, LatLon{14.0, 88.5}, 9.0);
  // Mark the nest with a constant; parent points inside the nest interior
  // must take (approximately) that value after feedback.
  nest.state().h.fill(-77.0);
  nest.feedback(parent);
  const GridSpec& pg = parent.grid;
  const std::size_t ci = static_cast<std::size_t>(pg.x_of_lon(88.5));
  const std::size_t cj = static_cast<std::size_t>(pg.y_of_lat(14.0));
  EXPECT_NEAR(parent.h(ci, cj), -77.0, 1.0);
  // Far outside the nest: untouched vortex field.
  EXPECT_NEAR(parent.h(2, 2), 0.0, 1.0);
}

TEST(Nest, RecenterFollowsEye) {
  DomainState parent = parent_with_vortex({14.0, 88.5});
  NestDomain nest(parent, LatLon{14.0, 88.5}, 9.0);
  EXPECT_FALSE(nest.needs_recenter(LatLon{14.5, 88.5}));
  EXPECT_TRUE(nest.needs_recenter(LatLon{16.0, 88.5}));
  nest.recenter(parent, LatLon{16.0, 88.5});
  EXPECT_NEAR(nest.center().lat, 16.0, 0.3);
  EXPECT_NEAR(nest.grid().resolution_km(),
              parent.grid.resolution_km() / kNestRatio, 1e-9);
}

TEST(Nest, RecenterKeepsFineDataInOverlap) {
  DomainState parent = parent_with_vortex({14.0, 88.5});
  NestDomain nest(parent, LatLon{14.0, 88.5}, 9.0);
  // Stamp fine-scale data the parent does not have.
  nest.state().h.fill(-55.0);
  nest.recenter(parent, LatLon{15.0, 88.5});  // overlaps the old footprint
  // A point well inside both footprints kept the fine value.
  const GridSpec& g = nest.grid();
  const double v = nest.state().h.sample(g.x_of_lon(88.5), g.y_of_lat(14.5));
  EXPECT_NEAR(v, -55.0, 1.0);
  // A point only in the new footprint came from the parent (~vortex field,
  // much shallower than -55).
  const double fresh =
      nest.state().h.sample(g.x_of_lon(88.5), g.y_of_lat(19.2));
  EXPECT_GT(fresh, -40.0);
}

// ---- Nest-exchange oracle ----
// The exchange as first written: every call re-samples the parent at each
// band point, and feedback derives every sample coordinate from the two
// grids. The bitwise reference for the per-placement plan and the
// once-per-parent-step sample.

void oracle_apply_boundary(DomainState& nest, const DomainState& parent,
                           int width) {
  const GridSpec& g = nest.grid;
  const GridSpec& pg = parent.grid;
  const std::size_t w = static_cast<std::size_t>(std::max(1, width));
  for (std::size_t j = 0; j < g.ny(); ++j) {
    for (std::size_t i = 0; i < g.nx(); ++i) {
      const std::size_t d = std::min(std::min(i, g.nx() - 1 - i),
                                     std::min(j, g.ny() - 1 - j));
      if (d >= w) {
        if (j >= w && j < g.ny() - w && i == w) {
          i = g.nx() - w - 1;
        }
        continue;
      }
      const LatLon p = g.at(i, j);
      const double x = pg.x_of_lon(p.lon);
      const double y = pg.y_of_lat(p.lat);
      const double h = bicubic(parent.h.data(), pg.nx(), pg.ny(), x, y);
      const double u = bilinear(parent.u.data(), pg.nx(), pg.ny(), x, y);
      const double v = bilinear(parent.v.data(), pg.nx(), pg.ny(), x, y);
      const double f = static_cast<double>(d) / static_cast<double>(w);
      nest.h(i, j) = f * nest.h(i, j) + (1.0 - f) * h;
      nest.u(i, j) = f * nest.u(i, j) + (1.0 - f) * u;
      nest.v(i, j) = f * nest.v(i, j) + (1.0 - f) * v;
    }
  }
}

void oracle_feedback(const DomainState& nest, DomainState& parent,
                     int exclude_width) {
  const GridSpec& ng = nest.grid;
  const GridSpec& pg = parent.grid;
  const double pad =
      static_cast<double>(exclude_width) * ng.resolution_km() / kKmPerDegree;
  const double lon_lo = ng.lon0() + pad;
  const double lon_hi = ng.lon0() + ng.extent_lon() - pad;
  const double lat_lo = ng.lat0() + pad;
  const double lat_hi = ng.lat0() + ng.extent_lat() - pad;
  for (std::size_t j = 1; j + 1 < pg.ny(); ++j) {
    for (std::size_t i = 1; i + 1 < pg.nx(); ++i) {
      const LatLon p = pg.at(i, j);
      if (p.lon < lon_lo || p.lon > lon_hi || p.lat < lat_lo ||
          p.lat > lat_hi) {
        continue;
      }
      double h = 0.0;
      double u = 0.0;
      double v = 0.0;
      const double step = ng.resolution_km() / kKmPerDegree;
      int count = 0;
      for (int jj = -1; jj <= 1; ++jj) {
        for (int ii = -1; ii <= 1; ++ii) {
          const double x =
              ng.x_of_lon(p.lon + static_cast<double>(ii) * step);
          const double y =
              ng.y_of_lat(p.lat + static_cast<double>(jj) * step);
          h += nest.h.sample(x, y);
          u += nest.u.sample(x, y);
          v += nest.v.sample(x, y);
          ++count;
        }
      }
      parent.h(i, j) = h / count;
      parent.u(i, j) = u / count;
      parent.v(i, j) = v / count;
    }
  }
}

bool same_bits(const DomainState& a, const DomainState& b) {
  const auto same = [](const Field2D& x, const Field2D& y) {
    return x.nx() == y.nx() && x.ny() == y.ny() &&
           std::memcmp(x.data().data(), y.data().data(),
                       x.size() * sizeof(double)) == 0;
  };
  return a.grid == b.grid && same(a.h, b.h) && same(a.u, b.u) &&
         same(a.v, b.v);
}

// Stands in for a nest substep between two blends: moves every value.
void perturb(DomainState& s, double by) {
  for (Field2D* f : {&s.h, &s.u, &s.v}) {
    for (double& x : f->data()) x = 0.5 * x + by;
  }
}

// One parent step's exchange on copies of `m`'s nest and parent: the plan
// (one sample, kNestRatio blends, one feedback) against the oracle (a
// full boundary exchange per substep, then feedback).
void expect_exchange_matches_oracle(const WeatherModel& m, int step) {
  ASSERT_TRUE(m.nest_active());
  NestDomain nest = *m.nest();
  DomainState parent = m.parent_state();
  DomainState oracle_nest = nest.state();
  DomainState oracle_parent = parent;
  nest.sample_boundary(parent);
  for (int k = 0; k < kNestRatio; ++k) {
    nest.blend_boundary();
    oracle_apply_boundary(oracle_nest, oracle_parent, 3);
    ASSERT_TRUE(same_bits(nest.state(), oracle_nest)) << step << " " << k;
    perturb(nest.state(), k);
    perturb(oracle_nest, k);
  }
  nest.feedback(parent);
  oracle_feedback(oracle_nest, oracle_parent, 4);
  ASSERT_TRUE(same_bits(parent, oracle_parent)) << step;
  nest.apply_boundary(parent);
  oracle_apply_boundary(oracle_nest, oracle_parent, 3);
  ASSERT_TRUE(same_bits(nest.state(), oracle_nest)) << step;
}

TEST(NestExchangeOracle, PlanMatchesPerSubstepLoopsThroughEveryPlacement) {
  // Spawn, recenters, a set_modeled_resolution regrid (a new parent grid
  // and a new nest) and a checkpoint restore (the nest rebuilt, then its
  // state replaced): after each step the exchange matches the oracle bit
  // for bit.
  ModelConfig cfg;
  cfg.compute_scale = 10.0;
  WeatherModel m(cfg);
  int checked = 0;
  int recenters = 0;
  GridSpec last_grid;  // the nest's grid at the last step checked
  const auto step_and_check = [&](int steps) {
    for (int s = 0; s < steps; ++s) {
      m.step();
      if (!m.nest_active()) continue;
      if (checked > 0 && !(last_grid == m.nest()->grid())) ++recenters;
      last_grid = m.nest()->grid();
      expect_exchange_matches_oracle(m, s);
      ++checked;
    }
  };
  step_and_check(1000);
  EXPECT_GT(checked, 0);
  EXPECT_GE(recenters, 2);

  m.set_modeled_resolution(12.0);
  expect_exchange_matches_oracle(m, -1);
  step_and_check(50);

  m = WeatherModel::restore(cfg, m.ladder(), m.checkpoint());
  expect_exchange_matches_oracle(m, -2);
  step_and_check(50);
}

TEST(Nest, ExchangeRejectsAParentOnAnotherGrid) {
  DomainState parent = parent_with_vortex({14.0, 88.5});
  NestDomain nest(parent, LatLon{14.0, 88.5}, 9.0);
  DomainState other(GridSpec(60.0, -10.0, 60.0, 50.0, 60.0));
  EXPECT_THROW(nest.sample_boundary(other), std::invalid_argument);
  EXPECT_THROW(nest.feedback(other), std::invalid_argument);
}

TEST(Nest, RestoreStateReplacesFields) {
  DomainState parent = parent_with_vortex({14.0, 88.5});
  NestDomain nest(parent, LatLon{14.0, 88.5}, 9.0);
  DomainState replacement(nest.grid());
  replacement.h.fill(3.25);
  nest.restore_state(std::move(replacement));
  EXPECT_DOUBLE_EQ(nest.state().h(1, 1), 3.25);
}

}  // namespace
}  // namespace adaptviz

#include "weather/physics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"
#include "weather/nest.hpp"

namespace adaptviz {
namespace {

constexpr LatLon kBay{14.0, 88.5};       // warm open ocean
constexpr LatLon kInland{23.0, 80.0};    // central India

TEST(IntensityOde, DeepensOverWarmOcean) {
  CyclonePhysics phys(PhysicsConfig{}, 9.0, kBay);
  const double d0 = phys.deficit_hpa();
  for (int i = 0; i < 12 * 60; ++i) {
    phys.advance(60.0, 0.0, 0.0, phys.center());  // 12 h, no motion
  }
  EXPECT_GT(phys.deficit_hpa(), d0 + 4.0);
  EXPECT_LT(phys.central_pressure_hpa(), kEnvPressureHpa - d0 - 4.0);
}

TEST(IntensityOde, SaturatesBelowDeficitMax) {
  PhysicsConfig cfg;
  CyclonePhysics phys(cfg, 9.0, kBay);
  for (int i = 0; i < 200 * 60; ++i) {
    phys.advance(60.0, 0.0, 0.0, phys.center());
  }
  EXPECT_LE(phys.deficit_hpa(), cfg.deficit_max_hpa + 1e-9);
  EXPECT_GT(phys.deficit_hpa(), 0.8 * cfg.deficit_max_hpa);
}

TEST(IntensityOde, AilaTimeline) {
  // Paper-aligned milestones: < 995 hPa (nest spawn) ~8-16 h in; the full
  // Table III ladder (986 hPa) complete by ~22-32 h.
  CyclonePhysics phys(PhysicsConfig{}, 9.0, kBay);
  double t_995 = -1.0;
  double t_986 = -1.0;
  for (int minute = 0; minute < 60 * 60; ++minute) {
    phys.advance(60.0, 0.0, 0.0, phys.center());
    const double p = phys.central_pressure_hpa();
    const double h = minute / 60.0;
    if (t_995 < 0 && p < 995.0) t_995 = h;
    if (t_986 < 0 && p < 986.0) t_986 = h;
  }
  EXPECT_GT(t_995, 4.0);
  EXPECT_LT(t_995, 18.0);
  EXPECT_GT(t_986, t_995);
  EXPECT_LT(t_986, 34.0);
}

TEST(IntensityOde, DecaysOverLand) {
  CyclonePhysics phys(PhysicsConfig{}, 30.0, kInland);
  const double d0 = phys.deficit_hpa();
  for (int i = 0; i < 6 * 60; ++i) {
    phys.advance(60.0, 0.0, 0.0, phys.center());  // 6 h over land
  }
  EXPECT_LT(phys.deficit_hpa(), 0.7 * d0);
}

TEST(Motion, CenterAdvectsWithSteering) {
  CyclonePhysics phys(PhysicsConfig{}, 9.0, kBay);
  // 5 m/s due north for 10 h = 180 km ~ 1.62 degrees.
  for (int i = 0; i < 10 * 60; ++i) {
    phys.advance(60.0, 0.0, 5.0, phys.center());
  }
  EXPECT_NEAR(phys.center().lat, kBay.lat + 1.62, 0.1);
  EXPECT_NEAR(phys.center().lon, kBay.lon, 0.05);
}

TEST(Motion, PullsTowardDiagnosedEye) {
  CyclonePhysics phys(PhysicsConfig{}, 9.0, kBay);
  const LatLon eye{14.5, 89.0};  // dynamics says the storm is NE of us
  for (int i = 0; i < 6 * 60; ++i) phys.advance(60.0, 0.0, 0.0, eye);
  EXPECT_GT(phys.center().lat, kBay.lat + 0.2);
  EXPECT_GT(phys.center().lon, kBay.lon + 0.2);
}

TEST(Motion, IgnoresFarAwayEye) {
  // A diagnosed minimum 1000+ km away is noise, not the storm.
  CyclonePhysics phys(PhysicsConfig{}, 9.0, kBay);
  const LatLon far{30.0, 70.0};
  for (int i = 0; i < 60; ++i) phys.advance(60.0, 0.0, 0.0, far);
  EXPECT_NEAR(phys.center().lat, kBay.lat, 0.01);
}

TEST(TargetVortex, ResolvableCore) {
  CyclonePhysics phys(PhysicsConfig{}, 20.0, kBay);
  const HollandVortex fine = phys.target_vortex(10.0);
  const HollandVortex coarse = phys.target_vortex(150.0);
  EXPECT_GE(coarse.r_max_km, 2.2 * 150.0);
  EXPECT_LT(fine.r_max_km, coarse.r_max_km);
  EXPECT_DOUBLE_EQ(fine.deficit_hpa, 20.0);
}

TEST(TargetVortex, CoreShrinksWithIntensity) {
  PhysicsConfig cfg;
  CyclonePhysics weak(cfg, 5.0, kBay);
  CyclonePhysics strong(cfg, 40.0, kBay);
  EXPECT_GT(weak.target_vortex(5.0).r_max_km,
            strong.target_vortex(5.0).r_max_km);
  EXPECT_GE(strong.target_vortex(5.0).r_max_km, cfg.r_floor_km);
}

TEST(Forcing, FieldsShapedAroundCenter) {
  CyclonePhysics phys(PhysicsConfig{}, 20.0, kBay);
  GridSpec g(80.0, 5.0, 18.0, 18.0, 100.0);
  DomainState s(g);  // at rest; the forcing should push it toward the target
  const Field2D land = land_mask(g);
  Field2D q, fu, fv, relax;
  phys.build_forcing(s, land, q, fu, fv, relax);

  // Mass sink strongest at the centre (h target most negative there).
  const std::size_t ci = static_cast<std::size_t>(g.x_of_lon(kBay.lon));
  const std::size_t cj = static_cast<std::size_t>(g.y_of_lat(kBay.lat));
  EXPECT_LT(q(ci, cj), 0.0);
  EXPECT_GT(std::fabs(q(ci, cj)), std::fabs(q(2, 2)));
  // Mass forcing decays far from the storm (corner ~1300 km out).
  EXPECT_LT(std::fabs(q(0, 0)), 0.2 * std::fabs(q(ci, cj)));
  // Wind forcing is cyclonic: east of centre, v-tendency positive.
  EXPECT_GT(fv(ci + 2, cj), 0.0);
  EXPECT_LT(fv(ci - 2, cj), 0.0);
  // Relaxation: strong over land, weak near the storm core.
  const std::size_t land_i = static_cast<std::size_t>(g.x_of_lon(80.5));
  const std::size_t land_j = static_cast<std::size_t>(g.y_of_lat(17.0));
  EXPECT_GT(relax(land_i, land_j), relax(ci, cj));
  EXPECT_LT(relax(ci, cj), 1.0 / (6.0 * 3600.0));
}

// ---- Oracle: the forcing loop as it stood before the geometry/apply split,
// ---- with the Holland height and wind formulas it called. The forcing must
// ---- match it bit for bit, signed zeros included.

double oracle_height_m(const HollandVortex& v, double r_km) {
  const double r = std::max(r_km, 1e-3);
  const double p =
      -v.deficit_hpa * (1.0 - std::exp(-std::pow(v.r_max_km / r, v.b)));
  return p / kHpaPerMetre;
}

double oracle_wind(const HollandVortex& v, double r_km, double f) {
  const double r_m = std::max(r_km, 1.0) * 1000.0;
  const double rm_m = v.r_max_km * 1000.0;
  const double d_m = v.deficit_hpa / kHpaPerMetre;
  const double x = std::pow(rm_m / r_m, v.b);
  const double dhdr = d_m * std::exp(-x) * v.b * x / r_m;
  const double g = 9.81;
  const double fr2 = 0.5 * std::fabs(f) * r_m;
  return -fr2 + std::sqrt(fr2 * fr2 + g * r_m * dhdr);
}

void oracle_forcing(const CyclonePhysics& phys, const DomainState& state,
                    const Field2D& land, Field2D& mass_tendency,
                    Field2D& u_tendency, Field2D& v_tendency,
                    Field2D& relaxation) {
  const GridSpec& g = state.grid;
  const PhysicsConfig& config = phys.config();
  const LatLon center = phys.center();
  mass_tendency = Field2D(g.nx(), g.ny());
  u_tendency = Field2D(g.nx(), g.ny());
  v_tendency = Field2D(g.nx(), g.ny());
  relaxation = Field2D(g.nx(), g.ny());

  const HollandVortex target = phys.target_vortex(g.resolution_km());
  const double inv_tau = 1.0 / (config.mass_relax_tau_hours * 3600.0);
  const double inv_tau_fric = 1.0 / (config.land_friction_tau_hours * 3600.0);
  const double inv_tau_nudge = 1.0 / (config.nudge_tau_hours * 3600.0);
  const double storm_radius = 5.0 * target.r_max_km;
  const double sigma2 = 2.0 * 9.0 * target.r_max_km * target.r_max_km;
  const double fcor = coriolis(center.lat);
  const double deg2rad = 3.14159265358979 / 180.0;

  for (std::size_t j = 0; j < g.ny(); ++j) {
    for (std::size_t i = 0; i < g.nx(); ++i) {
      const LatLon p = g.at(i, j);
      const double r = distance_km(p, center);
      const double w = std::exp(-(r * r) / sigma2);
      double q = 0.0;
      double fu = 0.0;
      double fv = 0.0;
      if (w > 1e-4) {
        const double h_target = oracle_height_m(target, r);
        q = w * (h_target - state.h(i, j)) * inv_tau;
        double ut = 0.0;
        double vt = 0.0;
        if (r > 1.0) {
          const double vt_mag = oracle_wind(target, r, fcor);
          const double coslat = std::cos(0.5 * (p.lat + center.lat) * deg2rad);
          const double dx = (p.lon - center.lon) * kKmPerDegree * coslat;
          const double dy = (p.lat - center.lat) * kKmPerDegree;
          ut = vt_mag * (-dy / r);
          vt = vt_mag * (dx / r);
        }
        fu = w * (ut - state.u(i, j)) * inv_tau;
        fv = w * (vt - state.v(i, j)) * inv_tau;
      }
      mass_tendency(i, j) = q;
      u_tendency(i, j) = fu;
      v_tendency(i, j) = fv;
      const double w_storm =
          std::exp(-(r * r) / (2.0 * storm_radius * storm_radius));
      relaxation(i, j) =
          land(i, j) * inv_tau_fric + (1.0 - w_storm) * inv_tau_nudge;
    }
  }
}

bool same_bits(const Field2D& a, const Field2D& b) {
  return a.nx() == b.nx() && a.ny() == b.ny() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

/// Three prognostic states on one grid: at rest (so the row through an
/// on-grid centre yields signed zeros), a vortex offset from the storm, and
/// deterministic noise of both signs.
std::vector<DomainState> oracle_states(const GridSpec& g, LatLon storm) {
  std::vector<DomainState> out(3, DomainState(g));
  HollandVortex v{.center = LatLon{storm.lat + 0.7, storm.lon - 0.9},
                  .deficit_hpa = 15.0,
                  .r_max_km = 3.0 * g.resolution_km(),
                  .b = 1.4};
  v.deposit(out[1]);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(x >> 11) / 9007199254740992.0 - 0.5;
  };
  for (std::size_t k = 0; k < g.point_count(); ++k) {
    out[2].h.data()[k] = 80.0 * next();
    out[2].u.data()[k] = 30.0 * next();
    out[2].v.data()[k] = 30.0 * next();
  }
  return out;
}

struct OracleTally {
  std::size_t cells = 0;
  std::size_t outside_zone = 0;
  std::size_t land = 0;
  std::size_t centre_on_point = 0;
};

/// Pools of 0, 1 and 3 helper lanes for the geometry's rows.
struct OraclePools {
  ThreadPool none{0};
  ThreadPool one{1};
  ThreadPool three{3};
};

/// Checks both forms of the forcing against the oracle on one grid: one
/// build_forcing() per state, and one geometry applied to all three states,
/// built once on each pool of `pools`.
void expect_matches_oracle(const CyclonePhysics& phys, const GridSpec& g,
                           OraclePools& pools, OracleTally& tally) {
  const Field2D land = land_mask(g);
  const std::vector<DomainState> states = oracle_states(g, phys.center());
  ThreadPool* const lanes[] = {&pools.none, &pools.one, &pools.three};
  std::vector<ForcingGeometry> geometries(std::size(lanes));
  for (std::size_t p = 0; p < std::size(lanes); ++p) {
    phys.forcing_geometry(g, land, geometries[p], lanes[p]);
  }
  const ForcingGeometry& geometry = geometries.front();
  for (std::size_t k = 0; k < states.size(); ++k) {
    SCOPED_TRACE("state " + std::to_string(k));
    Field2D q0, fu0, fv0, relax0;
    oracle_forcing(phys, states[k], land, q0, fu0, fv0, relax0);
    Field2D q, fu, fv, relax;
    phys.build_forcing(states[k], land, q, fu, fv, relax);
    EXPECT_TRUE(same_bits(q, q0));
    EXPECT_TRUE(same_bits(fu, fu0));
    EXPECT_TRUE(same_bits(fv, fv0));
    EXPECT_TRUE(same_bits(relax, relax0));

    for (std::size_t p = 0; p < geometries.size(); ++p) {
      SCOPED_TRACE("pool " + std::to_string(lanes[p]->worker_count() - 1));
      CyclonePhysics::apply_forcing(geometries[p], states[k], q, fu, fv);
      EXPECT_TRUE(same_bits(q, q0));
      EXPECT_TRUE(same_bits(fu, fu0));
      EXPECT_TRUE(same_bits(fv, fv0));
      EXPECT_TRUE(same_bits(geometries[p].relaxation, relax0));
      EXPECT_TRUE(same_bits(geometries[p].weight, geometry.weight));
      EXPECT_TRUE(same_bits(geometries[p].h_target, geometry.h_target));
      EXPECT_TRUE(same_bits(geometries[p].u_target, geometry.u_target));
      EXPECT_TRUE(same_bits(geometries[p].v_target, geometry.v_target));
    }
  }
  for (std::size_t j = 0; j < g.ny(); ++j) {
    for (std::size_t i = 0; i < g.nx(); ++i) {
      ++tally.cells;
      if (geometry.weight(i, j) <= 1e-4) ++tally.outside_zone;
      if (land(i, j) > 0.0) ++tally.land;
      if (distance_km(g.at(i, j), phys.center()) <= 1.0) {
        ++tally.centre_on_point;
      }
    }
  }
}

TEST(ForcingOracle, EveryLadderRungParentAndNest) {
  // Storm centres: open ocean, the nearest parent grid point to it (r = 0
  // at a cell), and near the south-west corner of the parent domain.
  // Deficits bracket the storm-active floor (2 hPa) and deficit_max.
  OraclePools pools;
  OracleTally tally;
  for (const double scale : {8.0, 20.0}) {
    for (const double res_km : {24.0, 21.0, 18.0, 15.0, 12.0, 10.0}) {
      const GridSpec parent_grid(60.0, -10.0, 60.0, 50.0, res_km * scale);
      const double ri = std::round(parent_grid.x_of_lon(88.5));
      const double rj = std::round(parent_grid.y_of_lat(14.0));
      const LatLon on_point = parent_grid.at(static_cast<std::size_t>(ri),
                                             static_cast<std::size_t>(rj));
      for (const LatLon centre : {LatLon{14.3, 88.7}, on_point,
                                  LatLon{-8.6, 61.9}}) {
        const DomainState parent(parent_grid);
        const NestDomain nest(parent, centre, 9.0);
        const GridSpec& nest_grid = nest.grid();
        const LatLon nest_point = nest_grid.at(nest_grid.nx() / 2,
                                               nest_grid.ny() / 2);
        for (const double deficit : {2.01, 47.9}) {
          SCOPED_TRACE("scale " + std::to_string(scale) + " res " +
                       std::to_string(res_km) + " centre " +
                       std::to_string(centre.lat) + "," +
                       std::to_string(centre.lon) + " deficit " +
                       std::to_string(deficit));
          expect_matches_oracle(CyclonePhysics(PhysicsConfig{}, deficit,
                                               centre),
                                parent_grid, pools, tally);
          expect_matches_oracle(CyclonePhysics(PhysicsConfig{}, deficit,
                                               centre),
                                nest_grid, pools, tally);
          expect_matches_oracle(CyclonePhysics(PhysicsConfig{}, deficit,
                                               nest_point),
                                nest_grid, pools, tally);
        }
      }
    }
  }
  // The cases reach every branch the forcing has.
  EXPECT_GT(tally.outside_zone, 0u);
  EXPECT_LT(tally.outside_zone, tally.cells);
  EXPECT_GT(tally.land, 0u);
  EXPECT_GT(tally.centre_on_point, 0u);
}

TEST(ForcingOracle, SizesEachOutputOnItsOwn) {
  // A sized mass tendency next to empty or wrongly shaped wind and
  // relaxation fields: every output is reshaped, none is written past.
  CyclonePhysics phys(PhysicsConfig{}, 20.0, kBay);
  GridSpec g(80.0, 5.0, 18.0, 18.0, 100.0);
  DomainState s(g);
  const Field2D land = land_mask(g);
  Field2D q0, fu0, fv0, relax0;
  oracle_forcing(phys, s, land, q0, fu0, fv0, relax0);

  Field2D q(g.nx(), g.ny());
  Field2D fu;
  Field2D fv(3, 2);
  Field2D relax;
  phys.build_forcing(s, land, q, fu, fv, relax);
  EXPECT_TRUE(same_bits(q, q0));
  EXPECT_TRUE(same_bits(fu, fu0));
  EXPECT_TRUE(same_bits(fv, fv0));
  EXPECT_TRUE(same_bits(relax, relax0));

  ForcingGeometry geometry;
  geometry.weight = Field2D(g.nx(), g.ny());
  geometry.u_target = Field2D(1, 1);
  phys.forcing_geometry(g, land, geometry);
  Field2D q1;
  Field2D fu1(g.nx(), g.ny());
  Field2D fv1(1, g.ny());
  CyclonePhysics::apply_forcing(geometry, s, q1, fu1, fv1);
  EXPECT_TRUE(same_bits(q1, q0));
  EXPECT_TRUE(same_bits(fu1, fu0));
  EXPECT_TRUE(same_bits(fv1, fv0));
  EXPECT_TRUE(same_bits(geometry.relaxation, relax0));
}

TEST(ForcingOracle, ApplyRejectsGeometryOfAnotherGrid) {
  CyclonePhysics phys(PhysicsConfig{}, 20.0, kBay);
  GridSpec g(80.0, 5.0, 18.0, 18.0, 100.0);
  ForcingGeometry geometry;
  phys.forcing_geometry(g, land_mask(g), geometry);
  DomainState other(GridSpec(80.0, 5.0, 10.0, 10.0, 100.0));
  Field2D q, fu, fv;
  EXPECT_THROW(CyclonePhysics::apply_forcing(geometry, other, q, fu, fv),
               std::invalid_argument);
}

TEST(Forcing, ShapeMismatchRejected) {
  CyclonePhysics phys(PhysicsConfig{}, 20.0, kBay);
  GridSpec g(80.0, 5.0, 10.0, 10.0, 100.0);
  DomainState s(g);
  Field2D land(2, 2);
  Field2D q, fu, fv, relax;
  EXPECT_THROW(phys.build_forcing(s, land, q, fu, fv, relax),
               std::invalid_argument);
}

TEST(Physics, ConstructorValidates) {
  EXPECT_THROW(CyclonePhysics(PhysicsConfig{}, 0.0, kBay),
               std::invalid_argument);
  EXPECT_THROW(CyclonePhysics(PhysicsConfig{}, 1000.0, kBay),
               std::invalid_argument);
}

TEST(Physics, RestoreSetsState) {
  CyclonePhysics phys(PhysicsConfig{}, 9.0, kBay);
  phys.restore(25.0, LatLon{18.0, 88.0});
  EXPECT_DOUBLE_EQ(phys.deficit_hpa(), 25.0);
  EXPECT_DOUBLE_EQ(phys.center().lat, 18.0);
}

}  // namespace
}  // namespace adaptviz

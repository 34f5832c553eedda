#include "weather/dynamics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "sw_reference.hpp"
#include "util/thread_pool.hpp"
#include "weather/sw_kernels.hpp"
#include "weather/vortex.hpp"

namespace adaptviz {
namespace {

using testing_support::ReferenceSolver;

// A mid-ocean test grid: 20x20 degrees at 100 km spacing around the Bay.
GridSpec test_grid(double res_km = 100.0) {
  return GridSpec(75.0, 4.0, 20.0, 20.0, res_km);
}

TEST(Dynamics, RestStateStaysAtRest) {
  SwSolver solver;
  DomainState s(test_grid());
  const double dt = SwSolver::dt_for_resolution_km(100.0);
  for (int k = 0; k < 20; ++k) solver.step(s, dt, SwForcing{});
  EXPECT_NEAR(s.h.min(), 0.0, 1e-12);
  EXPECT_NEAR(s.h.max(), 0.0, 1e-12);
  EXPECT_NEAR(s.u.max(), 0.0, 1e-12);
}

TEST(Dynamics, DtRule) {
  EXPECT_DOUBLE_EQ(SwSolver::dt_for_resolution_km(24.0), 144.0);
  EXPECT_DOUBLE_EQ(SwSolver::dt_for_resolution_km(10.0), 60.0);
}

TEST(Dynamics, GravityWavesPropagateAtSqrtGh) {
  SwSolver solver(SwParams{.diffusion_alpha = 0.0, .sponge_width = 0});
  DomainState s(test_grid());
  const GridSpec& g = s.grid;
  // A small axisymmetric bump in the middle.
  const std::size_t ci = g.nx() / 2;
  const std::size_t cj = g.ny() / 2;
  for (std::size_t j = 0; j < g.ny(); ++j) {
    for (std::size_t i = 0; i < g.nx(); ++i) {
      const double dx = (static_cast<double>(i) - ci) * g.dx_m();
      const double dy = (static_cast<double>(j) - cj) * g.dx_m();
      s.h(i, j) = 1.0 * std::exp(-(dx * dx + dy * dy) / (2 * 3e5 * 3e5));
    }
  }
  const double dt = SwSolver::dt_for_resolution_km(100.0);
  const double t_total = 20 * dt;
  for (int k = 0; k < 20; ++k) solver.step(s, dt, SwForcing{});

  // The wavefront (radius of the strongest ring) should sit near
  // c*t with c = sqrt(g*H) ~ 62.6 m/s.
  const double c = std::sqrt(9.81 * kMeanDepthM);
  const double expected_r = c * t_total;
  // Find the radius of max |h| along the +x axis.
  double best = 0.0;
  double best_r = 0.0;
  for (std::size_t i = ci + 2; i < g.nx(); ++i) {
    const double r = (static_cast<double>(i) - ci) * g.dx_m();
    if (std::fabs(s.h(i, cj)) > best) {
      best = std::fabs(s.h(i, cj));
      best_r = r;
    }
  }
  EXPECT_NEAR(best_r, expected_r, 2.5 * g.dx_m());
}

TEST(Dynamics, BalancedVortexPersists) {
  // A gradient-balanced vortex should survive many steps with little decay
  // of its pressure minimum (inertia-gravity adjustment is small).
  SwSolver solver;
  DomainState s(test_grid(60.0));
  HollandVortex v{.center = LatLon{14.0, 85.0},
                  .deficit_hpa = 15.0,
                  .r_max_km = 180.0,
                  .b = 1.4};
  v.deposit(s);
  const double h0 = s.h.min();
  const double dt = SwSolver::dt_for_resolution_km(60.0);
  for (int k = 0; k < 60; ++k) solver.step(s, dt, SwForcing{});  // ~6 hours
  EXPECT_LT(s.h.min(), 0.45 * h0);  // at most ~55% filled
  EXPECT_TRUE(std::isfinite(s.h.min()));
}

TEST(Dynamics, SteeringAdvectsAnomaly) {
  SwSolver solver;
  DomainState s(test_grid(60.0));
  HollandVortex v{.center = LatLon{12.0, 85.0},
                  .deficit_hpa = 12.0,
                  .r_max_km = 180.0,
                  .b = 1.4};
  v.deposit(s);
  SwForcing f;
  f.steering_v = 5.0;  // due north at 5 m/s
  const double dt = SwSolver::dt_for_resolution_km(60.0);
  const int steps = 100;  // ~10 hours
  for (int k = 0; k < steps; ++k) solver.step(s, dt, f);

  // Eye should have moved north by roughly steering * time (beta drift
  // perturbs it some).
  const GridSpec& g = s.grid;
  double hmin = 1e300;
  std::size_t bi = 0, bj = 0;
  for (std::size_t j = 0; j < g.ny(); ++j)
    for (std::size_t i = 0; i < g.nx(); ++i)
      if (s.h(i, j) < hmin) {
        hmin = s.h(i, j);
        bi = i;
        bj = j;
      }
  const double moved_north_km =
      (g.at(bi, bj).lat - 12.0) * kKmPerDegree;
  const double expected_km = 5.0 * steps * dt / 1000.0;
  EXPECT_NEAR(moved_north_km, expected_km, 160.0);
  (void)bi;
}

TEST(Dynamics, RelaxationDampsWinds) {
  SwSolver solver(SwParams{.sponge_width = 0});
  DomainState s(test_grid());
  s.u.fill(10.0);
  Field2D relax(s.grid.nx(), s.grid.ny(), 1.0 / 3600.0);  // 1-hour decay
  SwForcing f;
  f.relaxation = &relax;
  const double dt = SwSolver::dt_for_resolution_km(100.0);
  double t = 0.0;
  for (int k = 0; k < 30; ++k) {
    solver.step(s, dt, f);
    t += dt;
  }
  // Interior wind decays roughly exponentially.
  const double expected = 10.0 * std::exp(-t / 3600.0);
  EXPECT_NEAR(s.u(s.grid.nx() / 2, s.grid.ny() / 2), expected,
              0.35 * expected);
}

TEST(Dynamics, MassTendencyInjectsMass) {
  // Diffusion off: a single-point injection would otherwise be smeared
  // within the very first step.
  SwSolver solver(SwParams{.diffusion_alpha = 0.0, .sponge_width = 0});
  DomainState s(test_grid());
  Field2D q(s.grid.nx(), s.grid.ny(), 0.0);
  q(s.grid.nx() / 2, s.grid.ny() / 2) = -0.001;  // sink: -1 mm/s
  SwForcing f;
  f.mass_tendency = &q;
  const double dt = SwSolver::dt_for_resolution_km(100.0);
  solver.step(s, dt, f);
  // RK3 couples the injected anomaly back through the dynamics within the
  // step, so the result is first-order close to q*dt, not exact.
  EXPECT_NEAR(s.h(s.grid.nx() / 2, s.grid.ny() / 2), -0.001 * dt,
              0.03 * 0.001 * dt);  // ~2% is intra-step gravity-wave adjustment
}

TEST(Dynamics, StableOverLongIntegration) {
  // CFL soak: a strong vortex, 48 simulated hours, no NaN/blowup.
  SwSolver solver;
  DomainState s(test_grid(100.0));
  HollandVortex v{.center = LatLon{14.0, 85.0},
                  .deficit_hpa = 30.0,
                  .r_max_km = 250.0,
                  .b = 1.5};
  v.deposit(s);
  const double dt = SwSolver::dt_for_resolution_km(100.0);
  const int steps = static_cast<int>(48.0 * 3600.0 / dt);
  for (int k = 0; k < steps; ++k) solver.step(s, dt, SwForcing{});
  EXPECT_TRUE(std::isfinite(s.h.min()));
  EXPECT_TRUE(std::isfinite(s.u.max()));
  EXPECT_LT(std::fabs(s.h.min()), 500.0);
  EXPECT_LT(s.wind_speed().max(), 150.0);
}

TEST(Dynamics, TwoSolversOnOneThreadDontAliasScratch) {
  // Regression for the old `static thread_local` step scratch: two solvers
  // on one thread, alternating between different grids, must produce the
  // same fields as each solver stepping its state alone.
  auto vortex_state = [](double res_km) {
    DomainState s(test_grid(res_km));
    HollandVortex v{.center = LatLon{14.0, 85.0},
                    .deficit_hpa = 18.0,
                    .r_max_km = 220.0,
                    .b = 1.4};
    v.deposit(s);
    return s;
  };
  DomainState ref_a = vortex_state(80.0);
  DomainState ref_b = vortex_state(100.0);
  DomainState mix_a = vortex_state(80.0);
  DomainState mix_b = vortex_state(100.0);
  const double dt_a = SwSolver::dt_for_resolution_km(80.0);
  const double dt_b = SwSolver::dt_for_resolution_km(100.0);

  SwSolver alone_a, alone_b, inter_a, inter_b;
  for (int k = 0; k < 6; ++k) alone_a.step(ref_a, dt_a, SwForcing{});
  for (int k = 0; k < 6; ++k) alone_b.step(ref_b, dt_b, SwForcing{});
  for (int k = 0; k < 6; ++k) {
    inter_a.step(mix_a, dt_a, SwForcing{});
    inter_b.step(mix_b, dt_b, SwForcing{});
  }
  EXPECT_EQ(ref_a.h, mix_a.h);
  EXPECT_EQ(ref_a.u, mix_a.u);
  EXPECT_EQ(ref_b.h, mix_b.h);
  EXPECT_EQ(ref_b.v, mix_b.v);
}

// ---- Kernel refactor regression ----
//
// The row-kernel rewrite of compute_tendency must be a pure layout
// transformation: same bits as the scalar loop it replaced, for every
// forcing combination and however many solvers step at once. Digests below
// were generated from the pre-refactor scalar build (plain -O2, no FMA
// contraction — which src/weather/CMakeLists.txt pins off for every build).

std::uint64_t fnv1a_bytes(std::uint64_t h, const void* p, std::size_t n) {
  const unsigned char* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t state_digest(const DomainState& s) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a_bytes(h, s.h.data().data(), s.h.size() * sizeof(double));
  h = fnv1a_bytes(h, s.u.data().data(), s.u.size() * sizeof(double));
  h = fnv1a_bytes(h, s.v.data().data(), s.v.size() * sizeof(double));
  return h;
}

// A forcing configuration that exercises every optional term at once:
// steering, mass/u/v tendencies, patchy relaxation, plus the default
// sponge. Fields live as members so SwForcing pointers stay valid.
struct FullForcingFixture {
  explicit FullForcingFixture(const GridSpec& g)
      : q(g.nx(), g.ny(), 0.0),
        fu(g.nx(), g.ny(), 0.0),
        fv(g.nx(), g.ny(), 0.0),
        relax(g.nx(), g.ny(), 0.0) {
    for (std::size_t j = 0; j < g.ny(); ++j) {
      for (std::size_t i = 0; i < g.nx(); ++i) {
        const double x = static_cast<double>(i);
        const double y = static_cast<double>(j);
        q(i, j) = 1e-5 * ((i + j) % 7) - 2e-5;
        fu(i, j) = 1e-6 * (x - y);
        fv(i, j) = -5e-7 * (x + 0.5 * y);
        relax(i, j) = (i % 5 == 0) ? 1.0 / 7200.0 : 0.0;
      }
    }
    forcing.steering_u = 2.5;
    forcing.steering_v = -1.5;
    forcing.mass_tendency = &q;
    forcing.u_tendency = &fu;
    forcing.v_tendency = &fv;
    forcing.relaxation = &relax;
  }
  Field2D q, fu, fv, relax;
  SwForcing forcing;
};

DomainState golden_vortex_state() {
  DomainState s(test_grid(80.0));
  HollandVortex v{.center = LatLon{14.0, 85.0},
                  .deficit_hpa = 20.0,
                  .r_max_km = 250.0,
                  .b = 1.5};
  v.deposit(s);
  return s;
}

constexpr std::uint64_t kGoldenInitial = 0x6ae55865ea0ed769ull;
constexpr std::uint64_t kGoldenForcedStep1 = 0xf2f9451fbe3bbc79ull;
constexpr std::uint64_t kGoldenForcedStep10 = 0xc2be132e2571fba1ull;
constexpr std::uint64_t kGoldenPlainStep10 = 0x9f948b9511f94191ull;

// Digests of one golden run: the forced state after steps 1 and 10, and
// the unforced state after step 10.
struct GoldenRun {
  std::uint64_t initial = 0;
  std::uint64_t forced_step1 = 0;
  std::uint64_t forced_step10 = 0;
  std::uint64_t plain_step10 = 0;
};

// Digests the golden run, with `step(state, dt, forcing)` one RK3 step of
// the implementation under test.
template <typename Step>
GoldenRun run_golden(Step&& step) {
  DomainState s = golden_vortex_state();
  FullForcingFixture fix(s.grid);
  const double dt = SwSolver::dt_for_resolution_km(80.0);
  GoldenRun run;
  run.initial = state_digest(s);
  step(s, dt, fix.forcing);
  run.forced_step1 = state_digest(s);
  for (int k = 2; k <= 10; ++k) step(s, dt, fix.forcing);
  run.forced_step10 = state_digest(s);

  DomainState plain = golden_vortex_state();
  for (int k = 0; k < 10; ++k) step(plain, dt, SwForcing{});
  run.plain_step10 = state_digest(plain);
  return run;
}

// The parameter is a worker count: that many independent solvers step at
// once, one per pool index, so any state shared between solvers or kept
// per thread would show as a digest off the goldens.
class KernelRegression : public testing::TestWithParam<int> {
 protected:
  // Runs `one_run` once per worker, all at once; each call makes its own
  // solver.
  std::vector<GoldenRun> run_concurrently(
      const std::function<GoldenRun()>& one_run) const {
    const int workers = GetParam();
    const auto n = static_cast<std::size_t>(workers);
    std::vector<GoldenRun> runs(n);
    ThreadPool pool(workers - 1);
    pool.parallel_for(0, n, workers, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t w = lo; w < hi; ++w) runs[w] = one_run();
    });
    return runs;
  }
};

TEST_P(KernelRegression, RowKernelMatchesPreRefactorGoldens) {
  const std::vector<GoldenRun> runs = run_concurrently([] {
    SwSolver solver;
    return run_golden([&](auto&&... a) { solver.step(a...); });
  });
  for (std::size_t w = 0; w < runs.size(); ++w) {
    EXPECT_EQ(runs[w].initial, kGoldenInitial) << "solver " << w;
    EXPECT_EQ(runs[w].forced_step1, kGoldenForcedStep1) << "solver " << w;
    EXPECT_EQ(runs[w].forced_step10, kGoldenForcedStep10) << "solver " << w;
    EXPECT_EQ(runs[w].plain_step10, kGoldenPlainStep10) << "solver " << w;
  }
}

TEST_P(KernelRegression, ScalarReferenceMatchesPreRefactorGoldens) {
  const std::vector<GoldenRun> runs = run_concurrently([] {
    ReferenceSolver ref;
    return run_golden([&](auto&&... a) { ref.step(a...); });
  });
  for (std::size_t w = 0; w < runs.size(); ++w) {
    EXPECT_EQ(runs[w].forced_step10, kGoldenForcedStep10) << "solver " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, KernelRegression,
                         testing::Values(1, 2, 8));

// Live oracle: the solver and the scalar reference stepped side by side
// stay bitwise equal on a grid narrow enough that every column of a row
// lies within the sponge of a side edge.
TEST(KernelRegression, RowKernelBitwiseEqualsReferenceOnNarrowGrid) {
  // 6x6 points at 400 km: narrower than 2*sponge_width+2.
  GridSpec narrow(75.0, 4.0, 20.0, 20.0, 400.0);
  ASSERT_LT(narrow.nx(), 2 * static_cast<std::size_t>(SwParams{}.sponge_width) + 2);

  SwSolver row_solver;
  ReferenceSolver ref_solver;
  auto seed_state = [&] {
    DomainState s(narrow);
    for (std::size_t j = 0; j < narrow.ny(); ++j)
      for (std::size_t i = 0; i < narrow.nx(); ++i) {
        s.h(i, j) = 0.3 * static_cast<double>((i * 7 + j * 3) % 5) - 0.5;
        s.u(i, j) = 0.1 * static_cast<double>(i) - 0.2 * static_cast<double>(j);
        s.v(i, j) = 0.05 * static_cast<double>((i + 2 * j) % 4);
      }
    return s;
  };
  DomainState a = seed_state();
  DomainState b = seed_state();
  FullForcingFixture fix(narrow);
  const double dt = SwSolver::dt_for_resolution_km(400.0);
  for (int k = 0; k < 5; ++k) {
    row_solver.step(a, dt, fix.forcing);
    ref_solver.step(b, dt, fix.forcing);
  }
  EXPECT_EQ(a.h, b.h);
  EXPECT_EQ(a.u, b.u);
  EXPECT_EQ(a.v, b.v);
}

// ---- ISA dispatch: each kernel table against the scalar reference ----

bool same_bytes(const Field2D& a, const Field2D& b) {
  return a.nx() == b.nx() && a.ny() == b.ny() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

// A vortex-free but busy state with signed zeros sprinkled in, so a kernel
// that adds a zero term the reference skips (-0.0 + 0.0 = +0.0) shows.
DomainState busy_state(const GridSpec& g) {
  DomainState s(g);
  for (std::size_t j = 0; j < g.ny(); ++j) {
    for (std::size_t i = 0; i < g.nx(); ++i) {
      const double x = static_cast<double>(i);
      const double y = static_cast<double>(j);
      const bool neg_zero = (i * 3 + j * 5) % 11 == 0;
      s.h(i, j) = neg_zero ? -0.0 : 2.0 * std::sin(0.7 * x) * std::cos(0.4 * y);
      s.u(i, j) = neg_zero ? -0.0 : 0.8 * std::cos(0.3 * x + 0.2 * y);
      s.v(i, j) = (i + j) % 7 == 0 ? -0.0 : -0.6 * std::sin(0.5 * y - 0.1 * x);
    }
  }
  return s;
}

// The table named by the test parameter, or null when this CPU cannot run
// it.
const sw::KernelTable* table_named(const std::string& name) {
  if (name == "baseline") return &sw::baseline_kernels();
  return sw::x86_64_v3_kernels();
}

class KernelDispatch : public testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    table_ = table_named(GetParam());
    if (table_ == nullptr) GTEST_SKIP() << "this CPU lacks x86-64-v3";
  }
  const sw::KernelTable* table_ = nullptr;
};

// Every subset of {q, fu, fv, relaxation}, with the sponge on and off, on
// a wide grid (sponge bands plus a middle span) and on the narrow 6x6
// grid: the kernels and the reference agree in every byte.
TEST_P(KernelDispatch, EveryForcingSubsetMatchesReference) {
  const GridSpec grids[] = {test_grid(80.0),
                            GridSpec(75.0, 4.0, 20.0, 20.0, 400.0)};
  const SwParams sponges[] = {SwParams{}, SwParams{.sponge_width = 0}};
  for (const GridSpec& g : grids) {
    const double dt = SwSolver::dt_for_resolution_km(g.resolution_km());
    FullForcingFixture fix(g);
    for (const SwParams& params : sponges) {
      for (int mask = 0; mask < 16; ++mask) {
        SwForcing f;
        f.steering_u = fix.forcing.steering_u;
        f.steering_v = fix.forcing.steering_v;
        if (mask & 1) f.mass_tendency = &fix.q;
        if (mask & 2) f.u_tendency = &fix.fu;
        if (mask & 4) f.v_tendency = &fix.fv;
        if (mask & 8) f.relaxation = &fix.relax;
        SwSolver solver(params);
        ReferenceSolver ref(params);
        DomainState a = busy_state(g);
        DomainState b = busy_state(g);
        for (int k = 0; k < 3; ++k) {
          solver.step(a, dt, f, *table_);
          ref.step(b, dt, f);
        }
        const std::string where = "grid " + std::to_string(g.nx()) + "x" +
                                  std::to_string(g.ny()) + " sponge " +
                                  std::to_string(params.sponge_width) +
                                  " forcing mask " + std::to_string(mask);
        EXPECT_TRUE(same_bytes(a.h, b.h)) << where;
        EXPECT_TRUE(same_bytes(a.u, b.u)) << where;
        EXPECT_TRUE(same_bytes(a.v, b.v)) << where;
      }
    }
  }
}

TEST_P(KernelDispatch, MatchesPreRefactorGoldens) {
  SwSolver solver;
  const GoldenRun run =
      run_golden([&](auto&&... a) { solver.step(a..., *table_); });
  EXPECT_EQ(run.forced_step1, kGoldenForcedStep1);
  EXPECT_EQ(run.forced_step10, kGoldenForcedStep10);
  EXPECT_EQ(run.plain_step10, kGoldenPlainStep10);
}

INSTANTIATE_TEST_SUITE_P(Tables, KernelDispatch,
                         testing::Values("baseline", "x86_64_v3"),
                         [](const testing::TestParamInfo<std::string>& p) {
                           return p.param;
                         });

TEST(KernelDispatch, ActiveTableIsTheWidestThisCpuRuns) {
  const sw::KernelTable* v3 = sw::x86_64_v3_kernels();
  EXPECT_EQ(&sw::kernels(), v3 != nullptr ? v3 : &sw::baseline_kernels());
}

// One solver alternating a parent-shaped and a nest-shaped grid, with the
// nest moving once (same shape, new grid), matches a fresh solver per
// domain bit for bit: the stage buffers are written whole before they are
// read, and the kernel rows' zero row and edge columns stay zero.
TEST(Dynamics, OneSolverAlternatingGridsMatchesFreshSolvers) {
  const GridSpec parent_grid = test_grid(80.0);
  const GridSpec nest_grid(82.0, 10.0, 4.0, 4.0, 40.0);
  const GridSpec moved_nest(83.0, 11.0, 4.0, 4.0, 40.0);
  ASSERT_EQ(moved_nest.nx(), nest_grid.nx());
  ASSERT_EQ(moved_nest.ny(), nest_grid.ny());
  const double dt = SwSolver::dt_for_resolution_km(80.0);
  const double ndt = SwSolver::dt_for_resolution_km(40.0);

  FullForcingFixture parent_fix(parent_grid);
  FullForcingFixture nest_fix(nest_grid);
  SwSolver shared, alone_parent, alone_nest;
  DomainState p_shared = busy_state(parent_grid);
  DomainState p_alone = busy_state(parent_grid);
  DomainState n_shared = busy_state(nest_grid);
  DomainState n_alone = busy_state(nest_grid);
  for (int k = 0; k < 8; ++k) {
    if (k == 4) {
      // The nest moves: its values carry over onto the moved grid.
      n_shared.grid = moved_nest;
      n_alone.grid = moved_nest;
    }
    const SwForcing& pf = k % 2 == 0 ? parent_fix.forcing : SwForcing{};
    shared.step(p_shared, dt, pf);
    alone_parent.step(p_alone, dt, pf);
    for (int sub = 0; sub < 3; ++sub) {
      shared.step(n_shared, ndt, nest_fix.forcing);
      alone_nest.step(n_alone, ndt, nest_fix.forcing);
    }
  }
  EXPECT_TRUE(same_bytes(p_shared.h, p_alone.h));
  EXPECT_TRUE(same_bytes(p_shared.u, p_alone.u));
  EXPECT_TRUE(same_bytes(p_shared.v, p_alone.v));
  EXPECT_TRUE(same_bytes(n_shared.h, n_alone.h));
  EXPECT_TRUE(same_bytes(n_shared.u, n_alone.u));
  EXPECT_TRUE(same_bytes(n_shared.v, n_alone.v));
}

TEST(Dynamics, Validation) {
  EXPECT_THROW(SwSolver(SwParams{.mean_depth = -1.0}), std::invalid_argument);
  SwSolver solver;
  DomainState s(test_grid());
  EXPECT_THROW(solver.step(s, 0.0, SwForcing{}), std::invalid_argument);
}

}  // namespace
}  // namespace adaptviz

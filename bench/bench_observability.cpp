// Observability overhead + transparency bench (src/obs).
//
// Two guarantees the instrumentation layer makes, asserted here (exit 1
// on violation):
//
//  1. Transparency — running an experiment with the metrics registry and
//     stage tracer installed produces *bitwise identical* simulation
//     output (telemetry series, visualization records, track, summary) to
//     running with observability off. Instrumentation never touches
//     simulation state, RNG streams or the event queue; an FNV-1a digest
//     over the raw bytes proves it.
//
//  2. Cost — the wall-time overhead of full instrumentation on the Fig 5
//     scenario stays under 2%. Runs alternate off/on and the minimum of
//     N runs per mode is compared (the min is the robust statistic for
//     CPU-bound work; means absorb scheduler noise).
//
// `--quick` shrinks the scenario so the same checks run as a ctest smoke.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_report.hpp"
#include "experiment_common.hpp"
#include "obs/export.hpp"
#include "util/thread_pool.hpp"

using namespace adaptviz;
using namespace adaptviz::bench;

namespace {

// FNV-1a over raw bytes: digests must capture exact bit patterns.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void f64(double v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
};

std::uint64_t digest_result(const ExperimentResult& r) {
  Digest d;
  for (const TelemetrySample& s : r.samples) {
    d.f64(s.wall_time.seconds());
    d.f64(s.sim_time.seconds());
    d.f64(s.free_disk_percent);
    d.i64(s.processors);
    d.f64(s.output_interval.seconds());
    d.f64(s.resolution_km);
    d.f64(s.min_pressure_hpa);
    d.i64((s.stalled ? 1 : 0) | (s.critical ? 2 : 0) | (s.paused ? 4 : 0));
    d.i64(s.frames_written);
    d.i64(s.frames_sent);
    d.i64(s.frames_visualized);
    d.i64(s.transfer_failures);
    d.i64(s.transfer_retries);
  }
  for (const VisRecord& v : r.vis_records) {
    d.f64(v.wall_time.seconds());
    d.f64(v.sim_time.seconds());
    d.i64(v.sequence);
    d.i64(v.size.count());
  }
  for (const TrackPoint& p : r.track) {
    d.f64(p.time.seconds());
    d.f64(p.eye.lat);
    d.f64(p.eye.lon);
    d.f64(p.min_pressure_hpa);
  }
  d.f64(r.summary.wall_elapsed.seconds());
  d.f64(r.summary.sim_reached.seconds());
  d.i64(r.summary.frames_written);
  d.i64(r.summary.restarts);
  return d.h;
}

ExperimentConfig scenario(bool quick) {
  ExperimentConfig cfg;
  if (!quick) {
    // The Fig 5 scenario: full Aila window on the inter-department site.
    cfg = standard_config("inter-department", inter_department_site(),
                          AlgorithmKind::kOptimization);
  } else {
    cfg.name = "obs-smoke";
    cfg.site = inter_department_site();
    cfg.algorithm = AlgorithmKind::kOptimization;
    cfg.sim_window = SimSeconds::hours(24.0);
    cfg.max_wall = WallSeconds::hours(48.0);
    cfg.model.compute_scale = 8.0;
    cfg.seed = 42;
  }
  return cfg;
}

double run_once(const ExperimentConfig& cfg, bool with_obs,
                std::uint64_t* digest_out,
                ExperimentResult* keep = nullptr) {
  ExperimentConfig run_cfg = cfg;
  run_cfg.observability = with_obs;
  const auto t0 = std::chrono::steady_clock::now();
  ExperimentResult r = run_experiment(run_cfg);
  const auto t1 = std::chrono::steady_clock::now();
  if (digest_out != nullptr) *digest_out = digest_result(r);
  if (keep != nullptr) *keep = std::move(r);
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const benchio::BenchArgs args = benchio::parse_bench_args(argc, argv);
  const bool quick = args.quick;
  const std::string json_path =
      args.json_path.empty() ? "BENCH_observability.json" : args.json_path;
  // One helper lane on an explicit pool puts the pool's fork-join
  // instrumentation (the storm geometry's regions) on the measured path;
  // results are bitwise identical for any lane count.
  ThreadPool pool(1);
  ExperimentConfig cfg = scenario(quick);
  cfg.pool = &pool;
  const int kRuns = quick ? 5 : 3;

  // Warm the pool and every code path before timing anything.
  std::uint64_t digest_off = 0;
  std::uint64_t digest_on = 0;
  run_once(cfg, /*with_obs=*/false, nullptr);

  // Alternate off/on so drift (thermal, cache residency) hits both modes
  // equally; keep the minimum per mode.
  double min_off = 1e100;
  double min_on = 1e100;
  ExperimentResult instrumented;
  for (int i = 0; i < kRuns; ++i) {
    min_off = std::min(min_off, run_once(cfg, false, &digest_off));
    min_on = std::min(min_on, run_once(cfg, true, &digest_on, &instrumented));
  }

  // The <2% contract is measured on the full Fig 5 scenario, where each
  // run is seconds long and the min-of-N statistic is stable. The ctest
  // smoke runs a sub-second scenario, where timer/scheduler noise alone
  // can exceed 2%; it keeps the machinery honest with a looser gate (the
  // transparency check stays exact in both modes).
  const double budget_pct = quick ? 10.0 : 2.0;
  const double overhead_pct = 100.0 * (min_on - min_off) / min_off;
  std::printf("observability overhead (%s): off=%.3fs on=%.3fs -> %+.2f%%\n",
              quick ? "smoke scenario" : "fig5 scenario", min_off, min_on,
              overhead_pct);
  std::printf("digest off=%016llx on=%016llx\n",
              static_cast<unsigned long long>(digest_off),
              static_cast<unsigned long long>(digest_on));

  const auto& m = instrumented.metrics;
  std::printf(
      "captured: sim.steps=%lld pool.regions=%lld transport.attempts=%lld "
      "manager.decisions=%lld trace_events=%zu\n",
      static_cast<long long>(m.counter_or("sim.steps")),
      static_cast<long long>(m.counter_or("pool.regions")),
      static_cast<long long>(m.counter_or("transport.attempts")),
      static_cast<long long>(m.counter_or("manager.decisions")),
      instrumented.trace.size());

  CsvTable table({"scenario", "runs_per_mode", "min_off_s", "min_on_s",
                  "overhead_percent", "digest_match"});
  table.add_row({std::string(quick ? "smoke" : "fig5"),
                 static_cast<long>(kRuns), min_off, min_on, overhead_pct,
                 static_cast<long>(digest_off == digest_on)});
  save_csv(table, "observability_overhead");

  benchio::BenchReport report;
  const std::string cell = quick ? "smoke" : "fig5";
  report.add("observability", cell, "min_off_s", min_off, "s");
  report.add("observability", cell, "min_on_s", min_on, "s");
  report.add("observability", cell, "overhead_percent", overhead_pct, "%");
  report.add("observability", cell, "digest_match",
             digest_off == digest_on ? 1.0 : 0.0, "flag");
  report.add("observability", cell, "trace_events",
             static_cast<double>(instrumented.trace.size()), "count");
  report.save(json_path);
  std::printf("bench rows written to %s\n", json_path.c_str());

  bool ok = true;
  if (digest_off != digest_on) {
    std::fprintf(stderr,
                 "FAIL: simulation output changed with metrics on "
                 "(instrumentation must be invisible)\n");
    ok = false;
  }
  if (overhead_pct >= budget_pct) {
    std::fprintf(stderr, "FAIL: overhead %.2f%% >= %.0f%% budget\n",
                 overhead_pct, budget_pct);
    ok = false;
  }
  // With the codec off every fork-join region is a storm-geometry build:
  // one per synchronous build, one per geometry built beside the serial
  // work (each closes with one sim.forcing.wait span).
  const auto histogram_count = [&m](const char* name) {
    const obs::Histogram::Snapshot* h = m.histogram(name);
    return h != nullptr ? h->count : std::int64_t{0};
  };
  const std::int64_t geometry_regions =
      histogram_count("sim.forcing.geometry") +
      histogram_count("sim.forcing.wait");
  if (m.counter_or("sim.steps") <= 0 || geometry_regions <= 0 ||
      m.counter_or("pool.regions") != geometry_regions ||
      m.counter_or("manager.decisions") <= 0 || instrumented.trace.empty()) {
    std::fprintf(stderr,
                 "FAIL: instrumented run captured no metrics/trace\n");
    ok = false;
  }
  return ok ? 0 : 1;
}

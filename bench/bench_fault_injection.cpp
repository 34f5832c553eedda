// Fault-injection bench for the reliable transport layer (src/transport).
//
// Part 1 — failure-rate sweep: the inter-department Aila run with the WAN
// aborting 0/5/15/30 percent of transfer attempts mid-flight. For every
// rate it reports attempts, failures, retries, wall time and the decision
// algorithm's final smoothed bandwidth estimate, and *fails* (exit 1)
// unless (a) the run completes, (b) every frame written is visualized
// exactly once (zero loss, no duplicates), (c) failures occurred iff the
// rate is non-zero, and (d) the bandwidth EMA stays within noise of the
// failure-free baseline — failed attempts must not poison the estimate.
//
// Part 2 — determinism: a synthetic flaky sender→receiver rig (30% abort
// rate, exponential backoff, heavy pool-side render work in the delivery
// callback) replayed on thread pools of 1/4/8 lanes; the digest over the
// delivery series must be bitwise identical because every retry/backoff
// decision happens in virtual time on the event loop. A fixed-seed full
// experiment at 15% failure rate is also run twice and digest-compared.
//
// --quick shrinks the sweep to {0, 0.30} and skips the fixed-seed double
// run (the ctest smoke); --json=PATH overrides the
// BENCH_fault_injection.json report location.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "experiment_common.hpp"
#include "transport/sender.hpp"
#include "util/logging.hpp"
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

ExperimentConfig fault_config(double rate) {
  ExperimentConfig cfg;
  cfg.name = "fault-injection";
  cfg.site = inter_department_site();
  cfg.algorithm = AlgorithmKind::kOptimization;
  cfg.sim_window = SimSeconds::hours(60.0);
  cfg.max_wall = WallSeconds::hours(96.0);
  cfg.model.compute_scale = 8.0;
  cfg.seed = 42;
  cfg.faults.transfer_failure_rate = rate;
  cfg.faults.retry.initial_backoff = WallSeconds(5.0);
  cfg.faults.retry.max_backoff = WallSeconds(120.0);
  return cfg;
}

/// Every frame written must be visualized exactly once (unique sequences).
bool exactly_once(const ExperimentResult& r) {
  std::set<std::int64_t> seen;
  for (const VisRecord& v : r.vis_records) {
    if (!seen.insert(v.sequence).second) return false;  // duplicate
  }
  return static_cast<std::int64_t>(seen.size()) == r.summary.frames_written;
}

std::uint64_t digest_result(const ExperimentResult& r) {
  Digest d;
  for (const VisRecord& v : r.vis_records) {
    d.f64(v.wall_time.seconds());
    d.f64(v.sim_time.seconds());
    d.i64(v.sequence);
    d.i64(v.size.count());
  }
  d.i64(r.summary.transfer_failures);
  d.i64(r.summary.transfer_retries);
  d.i64(r.summary.frames_sent);
  return d.h;
}

struct RigResult {
  std::uint64_t digest = 0;
  std::int64_t delivered = 0;
  std::int64_t failures = 0;
  bool drained = false;
};

/// Synthetic rig: 60 frames pushed on a 60 s cadence over a fluctuating
/// link that aborts 30% of attempts; the delivery callback runs a real
/// parallel render kernel on the pool. All retry/backoff decisions live on
/// the event loop, so the delivery series must not depend on pool width.
RigResult run_determinism_rig(int pool_workers) {
  EventQueue queue;
  ThreadPool pool(pool_workers);
  std::atomic<std::int64_t> render_work{0};

  DiskModel disk(Bytes::gigabytes(64), Bandwidth::megabytes_per_second(200));
  LinkSpec spec;
  spec.nominal = Bandwidth::mbps(400.0);
  spec.fluctuation_sigma = 0.15;
  spec.latency = WallSeconds(0.05);
  spec.failure_probability = 0.3;
  NetworkLink link(spec, /*seed=*/17);
  FrameCatalog catalog;
  BandwidthEstimator estimator(0.3);

  RigResult out;
  Digest d;
  FrameSender::Options opts;
  opts.retry.initial_backoff = WallSeconds(2.0);
  opts.retry.max_backoff = WallSeconds(30.0);
  opts.seed = 11;
  FrameSender sender(
      queue, link, catalog, disk, estimator,
      [&](const Frame& f) {
        // Heavy side-effect work whose result never feeds virtual time.
        pool.parallel_for(
            0, 4096, pool.worker_count(), /*chunk=*/256,
            [&](std::size_t b, std::size_t e) {
              std::int64_t acc = 0;
              for (std::size_t i = b; i < e; ++i) {
                acc += (f.sequence * 131 +
                        static_cast<std::int64_t>(i)) % 101;
              }
              render_work.fetch_add(acc, std::memory_order_relaxed);
            });
        d.i64(f.sequence);
        d.f64(queue.now().seconds());
        d.i64(f.size.count());
        ++out.delivered;
      },
      opts);
  sender.start();
  for (int i = 0; i < 60; ++i) {
    queue.schedule_at(WallSeconds(60.0 * i), [&, i] {
      Frame f;
      f.sequence = i;
      f.sim_time = SimSeconds(600.0 * i);
      f.size = Bytes::megabytes(40.0 + 9.0 * (i % 5));
      (void)disk.allocate(f.size);
      catalog.push(f);
      sender.kick();
    });
  }
  // run_until, not run_all: the sender's poll loop re-arms itself forever.
  queue.run_until(WallSeconds::hours(12.0));
  sender.stop();
  out.digest = d.h;
  out.failures = sender.transfer_failures();
  out.drained = catalog.empty() && disk.used() == Bytes(0);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  const benchio::BenchArgs args = benchio::parse_bench_args(argc, argv);
  const std::string json_path =
      args.json_path.empty() ? "BENCH_fault_injection.json" : args.json_path;
  benchio::BenchReport report;
  bool ok = true;

  std::printf("== failure-rate sweep (inter-department, optimization) ==\n");
  CsvTable table({"failure_rate", "frames_written", "frames_visualized",
                  "transfer_failures", "transfer_retries", "ema_mbps",
                  "wall_hours", "completed", "exactly_once"});
  double baseline_ema = 0.0;
  const std::vector<double> rates =
      args.quick ? std::vector<double>{0.0, 0.30}
                 : std::vector<double>{0.0, 0.05, 0.15, 0.30};
  for (const double rate : rates) {
    const ExperimentResult r = run_experiment(fault_config(rate));
    const ExperimentSummary& s = r.summary;
    const double ema =
        r.decisions.empty()
            ? 0.0
            : r.decisions.back().input.observed_bandwidth.megabits_per_sec();
    if (rate == 0.0) baseline_ema = ema;
    const bool once = exactly_once(r);
    const bool zero_loss = s.frames_visualized == s.frames_written &&
                           s.frames_sent == s.frames_written;
    const bool faults_seen = rate > 0.0 ? s.transfer_failures > 0
                                        : s.transfer_failures == 0;
    // Failed attempts must not poison the estimator: the EMA tracks the
    // same fluctuating link the baseline saw, so it stays within noise.
    const bool ema_sane =
        baseline_ema > 0.0 &&
        ema > 0.6 * baseline_ema && ema < 1.4 * baseline_ema;
    const bool cell_ok =
        s.completed && once && zero_loss && faults_seen && ema_sane;
    ok = ok && cell_ok;
    std::printf("  rate %4.0f%%: %4lld frames, %4lld failures, %4lld "
                "retries, EMA %5.1f Mbps, wall %5.1f h %s\n", rate * 100.0,
                static_cast<long long>(s.frames_written),
                static_cast<long long>(s.transfer_failures),
                static_cast<long long>(s.transfer_retries),
                ema, s.wall_elapsed.as_hours(),
                cell_ok ? "(exactly-once)" : "** INVARIANT VIOLATED **");
    table.add_row({rate, s.frames_written, s.frames_visualized,
                   s.transfer_failures, s.transfer_retries, ema,
                   s.wall_elapsed.as_hours(), static_cast<long>(s.completed),
                   static_cast<long>(once)});
    const std::string cell =
        "rate" + std::to_string(static_cast<int>(rate * 100.0));
    report.add("fault_injection", cell, "transfer_failures",
               static_cast<double>(s.transfer_failures), "count");
    report.add("fault_injection", cell, "transfer_retries",
               static_cast<double>(s.transfer_retries), "count");
    report.add("fault_injection", cell, "ema_mbps", ema, "Mbps");
    report.add("fault_injection", cell, "wall_hours",
               s.wall_elapsed.as_hours(), "h");
    report.add("fault_injection", cell, "exactly_once", once ? 1.0 : 0.0,
               "flag");
  }
  save_csv(table, "fault_injection");

  std::printf("\n== determinism across thread-pool worker counts ==\n");
  const RigResult base = run_determinism_rig(0);
  ok = ok && base.delivered == 60 && base.failures > 0 && base.drained;
  std::printf("  serial: %lld delivered, %lld failures, %s, digest %016llx\n",
              static_cast<long long>(base.delivered),
              static_cast<long long>(base.failures),
              base.drained ? "drained" : "** NOT DRAINED **",
              static_cast<unsigned long long>(base.digest));
  for (const int workers : {3, 7}) {
    const RigResult r = run_determinism_rig(workers);
    const bool same = r.digest == base.digest && r.delivered == 60;
    ok = ok && same && r.drained;
    std::printf("  pool %d lanes vs serial: digest %016llx %s\n", workers + 1,
                static_cast<unsigned long long>(r.digest),
                same ? "== identical" : "** DIVERGED **");
  }

  if (!args.quick) {
    std::printf("\n== determinism of the full experiment (fixed seed, 15%% "
                "failure rate) ==\n");
    const ExperimentConfig cfg = fault_config(0.15);
    const std::uint64_t run1 = digest_result(run_experiment(cfg));
    const std::uint64_t run2 = digest_result(run_experiment(cfg));
    ok = ok && run1 == run2;
    std::printf("  run1 %016llx / run2 %016llx %s\n",
                static_cast<unsigned long long>(run1),
                static_cast<unsigned long long>(run2),
                run1 == run2 ? "== identical" : "** DIVERGED **");
  }

  report.save(json_path);
  std::printf("wrote %s (%zu rows)\n", json_path.c_str(),
              report.rows().size());
  std::printf("\n%s\n", ok ? "fault injection: all invariants held"
                           : "fault injection: INVARIANT VIOLATIONS");
  return ok ? 0 : 1;
}

// adaptviz_run — scenario-driven experiment runner.
//
//   $ adaptviz_run scenarios/inter_department_opt.ini [output_dir]
//
// Loads an INI scenario (see src/core/scenario.hpp for the schema), runs
// the full adaptive framework, prints the summary, and writes the result
// series (samples / visualization / decisions / track CSVs + summary INI)
// into the output directory (default: results/). Scenarios with a [serve]
// section additionally emit <name>_clients.csv — one delivery row per
// frame per viewer client — and print the serving summary.
//
// --metrics-out <path> switches the observability layer on (regardless of
// the scenario's [obs] section) and dumps the metrics registry + stage
// trace as one JSON document to <path> after the run. Two gauges give the
// host cost of the whole process up to that point: `process.wall_s`
// (elapsed seconds) and `process.cpu_s` (user+sys seconds over all
// threads, so pool helpers that poll count too).
//
// --steer-replay <path> loads a recorded/scripted steering_log.jsonl in
// place of the scenario's [steering] replay_log; the framework applies
// each event at exactly its logged wall time. --steer-record <path> saves
// the run's applied steering stream. Recording a steered run
// and replaying the saved log reproduces it bit for bit — the CI
// steering-smoke step asserts exactly that with cmp(1).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "core/scenario.hpp"
#include "obs/export.hpp"
#include "tool_args.hpp"
#include "util/logging.hpp"

using namespace adaptviz;

namespace {

// Adds the process's elapsed wall seconds since `start` and its user+sys
// CPU seconds to `m`, keeping the gauges in name order.
void add_process_times(obs::MetricsSnapshot& m,
                       std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  m.gauges.push_back({"process.cpu_s",
                      seconds(usage.ru_utime) + seconds(usage.ru_stime)});
  m.gauges.push_back({"process.wall_s", wall.count()});
  std::sort(m.gauges.begin(), m.gauges.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  const auto args = tools::ArgSpec("<scenario.ini> [output_dir] [--verbose] "
                                   "[--metrics-out <path>] "
                                   "[--steer-record <path>] "
                                   "[--steer-replay <path>]")
                        .value("--metrics-out")
                        .value("--steer-record")
                        .value("--steer-replay")
                        .parse(argc, argv);
  if (!args) return 2;
  const std::string& scenario_path = args->input;
  const std::string& out_dir = args->out_dir;
  const std::string metrics_out = args->value_or("--metrics-out");
  const std::string steer_record = args->value_or("--steer-record");
  const std::string steer_replay = args->value_or("--steer-replay");
  set_log_level(args->verbose ? LogLevel::kInfo : LogLevel::kWarn);

  try {
    ExperimentConfig cfg = load_scenario(scenario_path);
    if (!metrics_out.empty()) cfg.observability = true;
    if (!steer_record.empty()) cfg.steering.record_log_path = steer_record;
    if (!steer_replay.empty()) {
      cfg.steering.replay = load_steering_log(steer_replay);
    }
    std::printf("scenario '%s': %s on %s (%d cores, %s disk, %s WAN)\n",
                cfg.name.c_str(), to_string(cfg.algorithm),
                cfg.site.machine.name.c_str(), cfg.site.machine.max_cores,
                to_string(cfg.site.disk_capacity).c_str(),
                to_string(cfg.site.wan_nominal).c_str());

    const ExperimentResult result = run_experiment(cfg);
    write_result(result, out_dir);

    const ExperimentSummary& s = result.summary;
    std::printf(
        "%s: completed=%s sim=%.1fh wall=%.1fh min-free=%.1f%% "
        "stall=%.1fh frames w/s/v=%lld/%lld/%lld restarts=%d\n",
        cfg.name.c_str(), s.completed ? "yes" : "NO",
        s.sim_reached.as_hours(), s.sim_finished_wall.as_hours(),
        s.min_free_disk_percent, s.total_stall_time.as_hours(),
        static_cast<long long>(s.frames_written),
        static_cast<long long>(s.frames_sent),
        static_cast<long long>(s.frames_visualized), s.restarts);
    if (s.viewers > 0) {
      std::printf(
          "serve: %d clients, %lld deliveries, cache hits/misses=%lld/%lld "
          "(%.1f%% hit), evictions=%lld, rerenders=%lld, peak cache %s\n",
          s.viewers, static_cast<long long>(s.frames_served),
          static_cast<long long>(s.cache_hits),
          static_cast<long long>(s.cache_misses),
          s.cache_hits + s.cache_misses == 0
              ? 100.0
              : 100.0 * static_cast<double>(s.cache_hits) /
                    static_cast<double>(s.cache_hits + s.cache_misses),
          static_cast<long long>(s.cache_evictions),
          static_cast<long long>(s.rerenders),
          to_string(s.peak_cache_bytes).c_str());
      std::printf("per-client deliveries written to %s/%s_clients.csv\n",
                  out_dir.c_str(), cfg.name.c_str());
    }
    if (s.steering_events > 0) {
      std::printf(
          "steering: %lld events applied, %lld steer re-renders "
          "(%lld deduped), peak observers=%d%s%s\n",
          static_cast<long long>(s.steering_events),
          static_cast<long long>(s.steer_renders),
          static_cast<long long>(s.steer_dedup), s.observers_peak,
          steer_record.empty() ? "" : ", log recorded to ",
          steer_record.c_str());
    }
    if (s.tree_tiers > 0) {
      std::printf(
          "tree: %d tiers, %d leaves, %lld modeled viewers, "
          "%lld viewer frames, origin WAN %s, retries=%lld, "
          "degraded_events=%lld\n",
          s.tree_tiers, s.tree_leaves,
          static_cast<long long>(s.tree_viewers),
          static_cast<long long>(s.tree_frames_delivered),
          to_string(s.tree_origin_wan_bytes).c_str(),
          static_cast<long long>(s.tree_fill_retries),
          static_cast<long long>(s.tree_degraded_events));
    }
    if (!result.samples.empty()) {
      // Final-state line rendered off the declarative telemetry schema.
      std::printf("final: %s\n",
                  telemetry_summary(result.samples.back(),
                                    CalendarEpoch::aila_start())
                      .c_str());
    }
    if (!metrics_out.empty()) {
      obs::MetricsSnapshot metrics = result.metrics;
      add_process_times(metrics, start);
      obs::save_json(metrics_out, metrics, result.trace);
      std::printf("metrics written to %s\n", metrics_out.c_str());
    }
    std::printf("results written to %s/%s_*.csv\n", out_dir.c_str(),
                cfg.name.c_str());
    return s.completed ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

// adaptviz_sweep — campaign-driven multi-experiment runner.
//
//   $ adaptviz_sweep scenarios/paper_suite.ini [output_dir] [--jobs N]
//   $ adaptviz_sweep scenarios/paper_suite.ini [output_dir] --workers N
//
// Loads a campaign file — a normal INI scenario plus a [campaign] section
// declaring override axes (see src/campaign/campaign.hpp for the schema) —
// expands the cross-product grid, and executes the runs on one campaign
// loop in either of two modes, with bitwise-identical results:
//
//  * in-process (default, or --jobs N): N pool lanes run the cells.
//  * distributed (--workers N, or `[campaign] workers`): N lanes each
//    hand their cell to one of N `adaptviz_sweep --worker` child
//    processes (campaign/dispatch.hpp), with crash re-dispatch and
//    resume-from-manifest; --no-resume forces a fresh start.
//
// --jobs and --workers take whole numbers (a positive and a non-negative
// count); anything else exits 2 naming the option.
//
// Each run streams its usual result CSVs into the output directory as it
// finishes (default: results/), and the campaign ends by writing an
// aggregated campaign_summary.csv with one row per run.
//
// Exit codes: 0 — every run executed without failure (runs that legally
// did not finish their simulated window still count as executed); 1 — at
// least one run is recorded as failed (a failed-run summary is printed);
// 2 — the sweep itself could not run (bad usage, unreadable campaign,
// coordinator-level dispatch failure).
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "campaign/campaign.hpp"
#include "campaign/dispatch.hpp"
#include "tool_args.hpp"
#include "util/logging.hpp"

using namespace adaptviz;

namespace {

void print_progress(const CampaignProgress& p) {
  const CampaignRunRecord& r = *p.record;
  if (r.failed) {
    std::printf("[%zu/%zu] %s: FAILED (%s)\n", p.finished, p.total,
                r.label.c_str(), r.error.c_str());
  } else {
    std::printf(
        "[%zu/%zu] %s: completed=%s sim=%.1fh wall=%.1fh "
        "min-free=%.1f%% frames w/s/v=%lld/%lld/%lld\n",
        p.finished, p.total, r.label.c_str(),
        r.summary.completed ? "yes" : "NO", r.summary.sim_reached.as_hours(),
        r.summary.sim_finished_wall.as_hours(),
        r.summary.min_free_disk_percent,
        static_cast<long long>(r.summary.frames_written),
        static_cast<long long>(r.summary.frames_sent),
        static_cast<long long>(r.summary.frames_visualized));
  }
  std::fflush(stdout);
}

/// Prints the per-run failure report and returns the process exit code:
/// 1 when any run failed, 0 otherwise.
int report_and_exit_code(const std::string& name,
                         const std::vector<CampaignRunRecord>& records,
                         const std::string& out_dir) {
  std::size_t completed = 0;
  std::vector<const CampaignRunRecord*> failures;
  for (const CampaignRunRecord& r : records) {
    if (r.failed) {
      failures.push_back(&r);
    } else if (r.summary.completed) {
      ++completed;
    }
  }
  const std::size_t did_not_finish =
      records.size() - completed - failures.size();
  std::printf("campaign '%s': %zu/%zu completed, %zu did not finish, "
              "%zu failed\n",
              name.c_str(), completed, records.size(), did_not_finish,
              failures.size());
  std::printf("summary written to %s/campaign_summary.csv\n", out_dir.c_str());
  if (failures.empty()) return 0;
  std::printf("failed runs:\n");
  for (const CampaignRunRecord* r : failures) {
    std::printf("  %s: %s\n", r->label.c_str(), r->error.c_str());
  }
  std::fflush(stdout);
  return 1;
}

int worker_main(int argc, char** argv) {
  // The coordinator appends these after --worker.
  const auto args = tools::ArgSpec("<campaign.ini> [output_dir] "
                                   "[--no-per-run-csvs] [--verbose] "
                                   "[--crash-next-task]")
                        .flag("--no-per-run-csvs")
                        .flag("--crash-next-task")
                        .parse(argc - 1, argv + 1);
  if (!args) return 2;
  WorkerOptions options;
  options.campaign_path = args->input;
  options.output_dir = args->out_dir;
  options.write_per_run_csvs = !args->has("--no-per-run-csvs");
  // Same mapping as the in-process runner's --verbose.
  options.run_log_level = args->verbose ? LogLevel::kWarn : LogLevel::kError;
  options.crash_next_task = args->has("--crash-next-task");
  return run_dispatch_worker(options, std::cin, std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--worker") {
    return worker_main(argc, argv);
  }

  // --crash-inject-worker / --max-task-attempts are undocumented test
  // hooks (integration tests drive the dispatch failure ladder through
  // the real binary), so the usage line omits them.
  const auto args = tools::ArgSpec("<campaign.ini> [output_dir] [--jobs N] "
                                   "[--workers N] [--no-resume] [--verbose]")
                        .flag("--no-resume")
                        .value("--jobs")
                        .value("--workers")
                        .value("--crash-inject-worker")
                        .value("--max-task-attempts")
                        .parse(argc, argv);
  if (!args) return 2;
  const std::string& campaign_path = args->input;
  const std::string& out_dir = args->out_dir;
  const bool resume = !args->has("--no-resume");
  const bool verbose = args->verbose;
  // 0 = defer to the campaign file's `concurrency`; -1 = defer to its
  // `workers`.
  const auto jobs = args->int_value("--jobs", 0, 1, "positive count");
  const auto workers =
      args->int_value("--workers", -1, 0, "non-negative count");
  const auto max_task_attempts =
      args->int_value("--max-task-attempts",
                      DispatchOptions{}.max_task_attempts, 1,
                      "positive count");
  const auto crash_inject_worker = args->int_value(
      "--crash-inject-worker", -1, 0, "non-negative worker index");
  if (!jobs || !workers || !max_task_attempts || !crash_inject_worker) {
    return 2;
  }
  set_log_level(verbose ? LogLevel::kInfo : LogLevel::kWarn);
  const LogLevel run_log_level = verbose ? LogLevel::kWarn : LogLevel::kError;

  try {
    const CampaignSpec spec = load_campaign(campaign_path);
    const std::vector<CampaignRun> runs = spec.expand();
    const int worker_count = *workers >= 0 ? *workers : spec.workers;

    if (worker_count > 0) {
      std::printf("campaign '%s': %zu runs across %d workers -> %s/\n",
                  spec.name.c_str(), runs.size(), worker_count,
                  out_dir.c_str());
      DispatchOptions options;
      options.workers = worker_count;
      options.output_dir = out_dir;
      options.resume = resume;
      options.run_log_level = run_log_level;
      options.crash_inject_worker = *crash_inject_worker;
      options.max_task_attempts = *max_task_attempts;
      options.on_progress = print_progress;
      CampaignDispatcher dispatcher({argv[0]}, std::move(options));
      const DispatchResult result = dispatcher.run(campaign_path);
      if (result.resumed > 0) {
        std::printf("resumed: %zu runs already complete, %zu executed\n",
                    result.resumed, result.executed);
      }
      return report_and_exit_code(spec.name, result.records, out_dir);
    }

    const int k = *jobs > 0 ? *jobs : std::max(1, spec.concurrency);
    std::printf("campaign '%s': %zu runs, %d in flight -> %s/\n",
                spec.name.c_str(), runs.size(), k, out_dir.c_str());

    CampaignOptions options;
    options.concurrency = k;
    options.output_dir = out_dir;
    options.run_log_level = run_log_level;
    options.on_progress = print_progress;

    CampaignRunner runner(std::move(options));
    const std::vector<CampaignRunRecord> records = runner.run(runs);
    return report_and_exit_code(spec.name, records, out_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

// Distributed campaign dispatch: coordinator / worker-process split.
//
// The paper's evaluation grid was executed by hand; the CampaignRunner
// made it one process; this layer shards it across N worker *processes* —
// the coordinator/worker topology production multi-site simulators use —
// while keeping the one invariant that makes the whole exercise
// trustworthy: the merged campaign_summary.csv is byte-identical to the
// single-process runner's output, crash or no crash, resume or no resume.
//
// Topology and protocol (line-delimited, over pipes):
//
//   coordinator                       worker (adaptviz_sweep --worker)
//   -----------                       --------------------------------
//                                <--  HELLO v1 grid=<N>      (expanded
//                                     the same campaign INI; N guards
//                                     against grid drift)
//   TASK <index>                 -->
//                                <--  ROW <manifest entry>   (exact
//                                     round-trip codec, manifest.hpp)
//   TASK <index> ...             -->
//   EXIT                         -->  (worker exits 0)
//
// Execution: the coordinator runs the campaign on CampaignRunner's loop
// (run_campaign_cells, campaign.hpp) with one lane per worker process. A
// lane borrows an idle worker (or spawns one), writes TASK and blocks on
// the ROW. Workers inherit the coordinator's stderr — per-run log lines
// carry the run label (runtime/run_context.hpp), so N interleaved workers
// stay attributable. Workers write per-run CSVs themselves (shared
// filesystem), into a temp dir renamed into place file by file, so a
// worker killed mid-write can never leave a truncated CSV under a real
// result name.
//
// Crash tolerance, in sequence on the lane: a worker that dies (or emits
// a protocol error) is reaped; the lane takes a replacement worker from a
// bounded respawn budget, sleeps the transport retry ladder's backoff
// (transport/retry.hpp) and sends the task again. A task that keeps
// killing workers becomes a terminal failed row after
// `max_task_attempts`, and a lane that may not spawn a replacement fails
// its cell, so the summary always has exactly grid-size rows. Each cell
// belongs to one lane and each TASK gets one ROW, so every row is
// counted exactly once.
//
// Resume: every completed row is upserted into
// <output_dir>/campaign_manifest.json (atomic temp+rename). A restarted
// coordinator re-loads it and skips runs whose entry matches the current
// campaign (name, grid size, label) AND whose stamped output files are
// intact (exact size + trailing newline); failed rows and torn outputs
// re-execute.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/manifest.hpp"
#include "obs/metrics.hpp"
#include "transport/retry.hpp"

namespace adaptviz {

/// The inherited CampaignOutputOptions say where the campaign reports:
/// `output_dir` also receives campaign_manifest.json and
/// dispatch_metrics.json, workers run their cells at kWarn (`--verbose`)
/// when `run_log_level` is below kError and at kError otherwise, and
/// `on_progress` skips resumed runs.
struct DispatchOptions : CampaignOutputOptions {
  /// Worker processes to run. <= 0 falls back to the campaign's
  /// `[campaign] workers` value, then to 1.
  int workers = 0;
  /// Load campaign_manifest.json and skip intact completed runs.
  bool resume = true;

  /// Dispatch attempts per task before it becomes a terminal failed row
  /// ("worker crashed ...").
  int max_task_attempts = 3;
  /// Replacement workers the coordinator may spawn after crashes, total.
  int worker_respawn_budget = 8;
  /// Backoff ladder before re-dispatching a crashed worker's task: the
  /// transport retry policy (initial * multiplier^n, capped, jittered).
  RetryPolicy retry{WallSeconds(0.5), 2.0, WallSeconds(30.0), 0.2, 5};
  /// Seed for the backoff jitter; cell i draws from its own stream
  /// seeded `seed + i`.
  std::uint64_t seed = 0xd15a;

  /// Test hook: the Nth initially-spawned worker (0-based) is started
  /// with --crash-next-task and exits hard on its first TASK.
  /// Replacements never inherit the flag. -1 disables.
  int crash_inject_worker = -1;
};

struct DispatchResult {
  /// One record per expanded grid cell, grid order — same shape the
  /// in-process CampaignRunner returns.
  std::vector<CampaignRunRecord> records;
  /// Runs skipped because the manifest showed them complete and intact.
  std::size_t resumed = 0;
  /// Tasks actually executed (or terminally failed) this invocation.
  std::size_t executed = 0;
  /// dispatch.* counters and the task-latency histogram.
  obs::MetricsSnapshot metrics;
};

class CampaignDispatcher {
 public:
  /// `worker_command` is the argv prefix for spawning one worker, e.g.
  /// {"/path/to/adaptviz_sweep"}; the dispatcher appends the --worker
  /// protocol arguments itself.
  CampaignDispatcher(std::vector<std::string> worker_command,
                     DispatchOptions options = {});

  /// Coordinates the full campaign in `campaign_path` across worker
  /// processes. Throws std::runtime_error on coordinator-level failures
  /// (a worker could not be spawned, a worker expanded a different grid);
  /// per-run failures land in the records, never throw.
  DispatchResult run(const std::string& campaign_path);

 private:
  std::vector<std::string> worker_command_;
  DispatchOptions options_;
};

struct WorkerOptions {
  std::string campaign_path;
  std::string output_dir = "results";
  bool write_per_run_csvs = true;
  LogLevel run_log_level = LogLevel::kError;
  /// Test hook (see DispatchOptions::crash_inject_worker).
  bool crash_next_task = false;
};

/// The worker side of the protocol: expands the campaign, says HELLO,
/// executes TASK lines from `in` and answers ROW lines on `out` until
/// EXIT/EOF. Returns a process exit code (0 on a clean EXIT). Wired to
/// stdin/stdout by `adaptviz_sweep --worker`.
int run_dispatch_worker(const WorkerOptions& options, std::istream& in,
                        std::ostream& out);

}  // namespace adaptviz

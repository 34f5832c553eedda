// Distributed dispatch tests: the record/manifest wire codec round-trips
// exactly, and the coordinator/worker split over real processes produces
// a campaign_summary.csv bitwise-identical to the in-process
// CampaignRunner — through worker crashes (re-dispatch), coordinator
// restarts (resume-from-manifest), and truncated per-run CSVs.
//
// The worker binary is the real tool: ADAPTVIZ_SWEEP_BIN is the built
// adaptviz_sweep, ADAPTVIZ_SCENARIO_DIR the source scenarios/ directory.
#include "campaign/dispatch.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/manifest.hpp"

namespace adaptviz {
namespace {

namespace fs = std::filesystem;

std::string smoke_ini() {
  return std::string(ADAPTVIZ_SCENARIO_DIR) + "/sweep_smoke.ini";
}

std::vector<std::string> worker_command() {
  return {ADAPTVIZ_SWEEP_BIN};
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Fresh scratch dir per test, removed up front so reruns start clean.
fs::path scratch_dir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / "adaptviz_dispatch_tests" /
                       name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The reference output: the in-process CampaignRunner on the same
/// campaign. Computed once per test that needs it (sub-second runs).
std::string in_process_summary(const fs::path& dir) {
  CampaignOptions options;
  options.output_dir = dir.string();
  CampaignRunner runner(options);
  runner.run(load_campaign(smoke_ini()));
  return slurp(dir / "campaign_summary.csv");
}

CampaignRunRecord nasty_record() {
  CampaignRunRecord r;
  r.label = "cells with spaces, commas & 100%";
  r.site = "intra country\n(second line)";
  r.algorithm = static_cast<AlgorithmKind>(42);  // invalid enums survive
  r.seed = 0xFFFFFFFFFFFFFFFFull;
  r.disk_gb = 0.1;  // not exactly representable: hexfloat must round-trip
  r.failure_rate = 1.0 / 3.0;
  r.codec_enabled = true;
  r.failed = true;
  r.error = "worker crashed (3 attempts) \"quoted\"";
  r.summary.completed = true;
  r.summary.wall_elapsed = WallSeconds(118085.7301234567);
  r.summary.sim_reached = SimSeconds(86400.0000001);
  r.summary.peak_disk_used = Bytes(29999999999);
  r.summary.min_free_disk_percent = 0.23456789012345678;
  r.summary.frames_written = 276;
  r.summary.transfer_retries = 12;
  r.summary.codec_mean_ratio = 2.0 / 7.0;
  r.summary.tree_origin_wan_bytes = Bytes(1234567890123);
  return r;
}

// ---- codec ----

TEST(DispatchCodec, RunRecordRoundTripsExactly) {
  const CampaignRunRecord a = nasty_record();
  const CampaignRunRecord b = decode_run_record(encode_run_record(a));

  EXPECT_EQ(b.label, a.label);
  EXPECT_EQ(b.site, a.site);
  EXPECT_EQ(b.algorithm, a.algorithm);
  EXPECT_EQ(b.seed, a.seed);
  EXPECT_EQ(b.disk_gb, a.disk_gb);  // exact, not near: hexfloat transport
  EXPECT_EQ(b.failure_rate, a.failure_rate);
  EXPECT_EQ(b.codec_enabled, a.codec_enabled);
  EXPECT_EQ(b.failed, a.failed);
  EXPECT_EQ(b.error, a.error);
  EXPECT_EQ(b.summary.completed, a.summary.completed);
  EXPECT_EQ(b.summary.wall_elapsed.seconds(), a.summary.wall_elapsed.seconds());
  EXPECT_EQ(b.summary.sim_reached.seconds(), a.summary.sim_reached.seconds());
  EXPECT_EQ(b.summary.peak_disk_used.count(), a.summary.peak_disk_used.count());
  EXPECT_EQ(b.summary.min_free_disk_percent, a.summary.min_free_disk_percent);
  EXPECT_EQ(b.summary.frames_written, a.summary.frames_written);
  EXPECT_EQ(b.summary.transfer_retries, a.summary.transfer_retries);
  EXPECT_EQ(b.summary.codec_mean_ratio, a.summary.codec_mean_ratio);
  EXPECT_EQ(b.summary.tree_origin_wan_bytes.count(),
            a.summary.tree_origin_wan_bytes.count());

  // The summary CSV row — the artifact the byte-identity guarantee is
  // stated on — must be identical through the codec.
  EXPECT_EQ(campaign_summary_row(a), campaign_summary_row(b));
  // The encoded line is pipe-protocol safe.
  EXPECT_EQ(encode_run_record(a).find('\n'), std::string::npos);
}

TEST(DispatchCodec, ManifestEntryCarriesIndexAndFileStamps) {
  ManifestEntry entry;
  entry.index = 17;
  entry.record = nasty_record();
  entry.files = {{"run one_samples.csv", 48211}, {"run one_summary.ini", 512}};

  const ManifestEntry back = decode_manifest_entry(encode_manifest_entry(entry));
  EXPECT_EQ(back.index, 17u);
  ASSERT_EQ(back.files.size(), 2u);
  EXPECT_EQ(back.files[0].path, "run one_samples.csv");
  EXPECT_EQ(back.files[0].bytes, 48211);
  EXPECT_EQ(back.files[1].path, "run one_summary.ini");
  EXPECT_EQ(back.files[1].bytes, 512);
  EXPECT_EQ(campaign_summary_row(back.record),
            campaign_summary_row(entry.record));
}

TEST(DispatchCodec, MalformedLinesThrow) {
  EXPECT_THROW(decode_run_record("label=x bogus_key=1"), std::runtime_error);
  EXPECT_THROW(decode_run_record("label=%ZZ"), std::runtime_error);
  EXPECT_THROW(decode_run_record("seed=notanumber"), std::runtime_error);
  EXPECT_THROW(decode_manifest_entry("files= label=x"), std::runtime_error);
}

// ---- manifest document ----

TEST(CampaignManifest, JsonRoundTripsAndLoadNeverThrows) {
  CampaignManifest m;
  m.campaign = "sweep \"smoke\"";
  m.grid = 4;
  ManifestEntry entry;
  entry.index = 2;
  entry.record = nasty_record();
  entry.files = {{"a_samples.csv", 123}};
  m.upsert(entry);

  const CampaignManifest back = CampaignManifest::from_json(m.to_json());
  EXPECT_EQ(back.campaign, m.campaign);
  EXPECT_EQ(back.grid, 4u);
  ASSERT_EQ(back.entries.count(2), 1u);
  const ManifestEntry& e = back.entries.at(2);
  ASSERT_EQ(e.files.size(), 1u);
  EXPECT_EQ(e.files[0].path, "a_samples.csv");
  EXPECT_EQ(e.files[0].bytes, 123);
  EXPECT_EQ(campaign_summary_row(e.record),
            campaign_summary_row(entry.record));

  const fs::path dir = scratch_dir("manifest_load");
  EXPECT_FALSE(CampaignManifest::load((dir / "absent.json").string())
                   .has_value());
  std::ofstream(dir / "torn.json") << "{\"version\": 1, \"campaign";
  EXPECT_FALSE(CampaignManifest::load((dir / "torn.json").string())
                   .has_value());

  m.save((dir / "m.json").string());
  const auto loaded = CampaignManifest::load((dir / "m.json").string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->entries.size(), 1u);
}

// A key given twice is ambiguous, not "first value wins": from_json
// throws and load() falls back to a fresh start.
TEST(CampaignManifest, DuplicateKeysAreRejected) {
  const std::string text =
      "{\"version\": 1, \"campaign\": \"smoke\", \"grid\": 4, "
      "\"grid\": 2, \"runs\": []}";
  EXPECT_THROW(CampaignManifest::from_json(text), std::runtime_error);

  const fs::path dir = scratch_dir("manifest_duplicate_key");
  std::ofstream(dir / "dup.json") << text;
  EXPECT_FALSE(CampaignManifest::load((dir / "dup.json").string())
                   .has_value());
}

TEST(CampaignManifest, OutputIntactRejectsTruncationAndResizing) {
  const fs::path dir = scratch_dir("intact");
  std::ofstream(dir / "r_samples.csv", std::ios::binary) << "h1,h2\n1,2\n";

  ManifestEntry entry;
  entry.files = {{"r_samples.csv", 10}};
  EXPECT_TRUE(entry_output_intact(entry, dir.string()));

  entry.files[0].bytes = 9;  // size mismatch
  EXPECT_FALSE(entry_output_intact(entry, dir.string()));

  // Mid-row truncation with a colliding stamp: the trailing-newline
  // marker catches what the byte count alone would miss.
  std::ofstream(dir / "r_samples.csv", std::ios::binary) << "h1,h2\n1,2,";
  entry.files[0].bytes = 10;
  EXPECT_FALSE(entry_output_intact(entry, dir.string()));

  entry.files[0].path = "gone.csv";
  EXPECT_FALSE(entry_output_intact(entry, dir.string()));
}

// ---- worker protocol (in-process, no fork) ----

TEST(DispatchWorker, SpeaksHelloRowExit) {
  const fs::path dir = scratch_dir("worker_proto");
  WorkerOptions options;
  options.campaign_path = smoke_ini();
  options.output_dir = dir.string();

  std::istringstream in("TASK 2\nEXIT\n");
  std::ostringstream out;
  EXPECT_EQ(run_dispatch_worker(options, in, out), 0);

  std::istringstream lines(out.str());
  std::string hello, row;
  ASSERT_TRUE(std::getline(lines, hello));
  ASSERT_TRUE(std::getline(lines, row));
  EXPECT_EQ(hello, "HELLO v1 grid=4");
  ASSERT_EQ(row.rfind("ROW ", 0), 0u);

  const ManifestEntry entry = decode_manifest_entry(row.substr(4));
  EXPECT_EQ(entry.index, 2u);
  EXPECT_FALSE(entry.record.failed);
  EXPECT_FALSE(entry.files.empty());
  // The worker stamped exactly the files it renamed into place, and each
  // passes the integrity check it will be held to on resume.
  EXPECT_TRUE(entry_output_intact(entry, dir.string()));
  // No scratch dir left behind.
  for (const auto& e : fs::directory_iterator(dir)) {
    EXPECT_NE(e.path().filename().string().rfind(".tmp-", 0), 0u);
  }
}

TEST(DispatchWorker, RejectsBadCommandsWithErr) {
  const fs::path dir = scratch_dir("worker_err");
  WorkerOptions options;
  options.campaign_path = smoke_ini();
  options.output_dir = dir.string();

  std::istringstream in("TASK 99\n");
  std::ostringstream out;
  EXPECT_EQ(run_dispatch_worker(options, in, out), 2);
  EXPECT_NE(out.str().find("ERR "), std::string::npos);
}

// ---- coordinator integration (real worker processes) ----

TEST(DispatchIntegration, TwoWorkersMatchInProcessRunnerBitwise) {
  const fs::path ref = scratch_dir("ref_inproc");
  const fs::path dist = scratch_dir("dist_clean");
  const std::string expected = in_process_summary(ref);

  DispatchOptions options;
  options.workers = 2;
  options.output_dir = dist.string();
  CampaignDispatcher dispatcher(worker_command(), options);
  const DispatchResult result = dispatcher.run(smoke_ini());

  ASSERT_EQ(result.records.size(), 4u);
  EXPECT_EQ(result.executed, 4u);
  EXPECT_EQ(result.resumed, 0u);
  for (const CampaignRunRecord& r : result.records) {
    EXPECT_FALSE(r.failed) << r.label << ": " << r.error;
  }
  EXPECT_EQ(slurp(dist / "campaign_summary.csv"), expected);

  // Per-run CSVs are the same bytes the in-process runner wrote.
  for (const auto& e : fs::directory_iterator(ref)) {
    const std::string name = e.path().filename().string();
    if (name == "campaign_summary.csv") continue;
    EXPECT_EQ(slurp(dist / name), slurp(e.path())) << name;
  }

  EXPECT_EQ(result.metrics.counter_or("dispatch.tasks_completed", 0), 4);
  EXPECT_EQ(result.metrics.counter_or("dispatch.worker_failures", 0), 0);
  EXPECT_EQ(result.metrics.counter_or("dispatch.duplicate_rows", 0), 0);
  EXPECT_GE(result.metrics.counter_or("dispatch.workers_spawned", 0), 2);
  EXPECT_TRUE(fs::exists(dist / "campaign_manifest.json"));
  EXPECT_TRUE(fs::exists(dist / "dispatch_metrics.json"));
}

TEST(DispatchIntegration, KilledWorkerIsRedispatchedAndSummaryIdentical) {
  const fs::path ref = scratch_dir("ref_crash");
  const fs::path dist = scratch_dir("dist_crash");
  const std::string expected = in_process_summary(ref);

  DispatchOptions options;
  options.workers = 2;
  options.output_dir = dist.string();
  options.crash_inject_worker = 0;  // first worker dies on its first TASK
  options.retry.initial_backoff = WallSeconds(0.05);
  CampaignDispatcher dispatcher(worker_command(), options);
  const DispatchResult result = dispatcher.run(smoke_ini());

  for (const CampaignRunRecord& r : result.records) {
    EXPECT_FALSE(r.failed) << r.label << ": " << r.error;
  }
  EXPECT_EQ(slurp(dist / "campaign_summary.csv"), expected);
  EXPECT_GE(result.metrics.counter_or("dispatch.worker_failures", 0), 1);
  EXPECT_GE(result.metrics.counter_or("dispatch.tasks_redispatched", 0), 1);
  // The crashed task completed exactly once despite the re-dispatch.
  EXPECT_EQ(result.metrics.counter_or("dispatch.tasks_completed", 0), 4);
}

TEST(DispatchIntegration, CrashEveryAttemptYieldsTerminalFailedRow) {
  const fs::path dist = scratch_dir("dist_fail");

  DispatchOptions options;
  options.workers = 1;
  options.output_dir = dist.string();
  options.crash_inject_worker = 0;
  options.max_task_attempts = 1;     // first crash is terminal
  options.worker_respawn_budget = 2;
  options.retry.initial_backoff = WallSeconds(0.05);
  CampaignDispatcher dispatcher(worker_command(), options);
  const DispatchResult result = dispatcher.run(smoke_ini());

  ASSERT_EQ(result.records.size(), 4u);  // rows == grid, failure included
  std::size_t failed = 0;
  for (const CampaignRunRecord& r : result.records) failed += r.failed ? 1 : 0;
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(result.metrics.counter_or("dispatch.tasks_failed", 0), 1);
  EXPECT_NE(result.records[0].error.find("worker crashed"),
            std::string::npos);
}

TEST(DispatchIntegration, ResumeReexecutesOnlyMissingRuns) {
  const fs::path dist = scratch_dir("dist_resume");

  DispatchOptions options;
  options.workers = 2;
  options.output_dir = dist.string();
  CampaignDispatcher dispatcher(worker_command(), options);
  const DispatchResult first = dispatcher.run(smoke_ini());
  ASSERT_EQ(first.executed, 4u);
  const std::string summary = slurp(dist / "campaign_summary.csv");

  // Simulate a coordinator that died after two runs: drop two manifest
  // entries, keep the outputs on disk.
  const std::string manifest_path =
      (dist / CampaignManifest::filename()).string();
  auto manifest = CampaignManifest::load(manifest_path);
  ASSERT_TRUE(manifest.has_value());
  manifest->entries.erase(1);
  manifest->entries.erase(3);
  manifest->save(manifest_path);

  const DispatchResult second = dispatcher.run(smoke_ini());
  EXPECT_EQ(second.resumed, 2u);
  EXPECT_EQ(second.executed, 2u);  // only the dropped runs re-ran
  EXPECT_EQ(second.metrics.counter_or("dispatch.tasks_dispatched", 0), 2);
  EXPECT_EQ(slurp(dist / "campaign_summary.csv"), summary);
}

TEST(DispatchIntegration, ResumeReexecutesTruncatedPerRunCsv) {
  const fs::path dist = scratch_dir("dist_truncate");

  DispatchOptions options;
  options.workers = 2;
  options.output_dir = dist.string();
  CampaignDispatcher dispatcher(worker_command(), options);
  const DispatchResult first = dispatcher.run(smoke_ini());
  ASSERT_EQ(first.executed, 4u);
  const std::string summary = slurp(dist / "campaign_summary.csv");

  // Crash-style damage: one run's samples CSV cut off mid-row (no
  // trailing newline), another's reduced to its header. The manifest
  // still lists both runs as complete.
  const std::string label = first.records[2].label;
  const fs::path samples = dist / (label + "_samples.csv");
  const std::string intact_bytes = slurp(samples);
  std::ofstream(samples, std::ios::binary | std::ios::trunc)
      << intact_bytes.substr(0, intact_bytes.size() / 2);

  const DispatchResult second = dispatcher.run(smoke_ini());
  EXPECT_EQ(second.resumed, 3u);
  EXPECT_EQ(second.executed, 1u);
  EXPECT_EQ(slurp(samples), intact_bytes);  // re-run restored the bytes
  EXPECT_EQ(slurp(dist / "campaign_summary.csv"), summary);
}

// ---- coordinator protocol failures (scripted fake workers) ----

/// A worker command running `script` under /bin/sh; the coordinator's
/// --worker arguments land in $1.. and are ignored.
std::vector<std::string> fake_worker(const std::string& script) {
  return {"/bin/sh", "-c", script, "fake-worker"};
}

TEST(DispatchCoordinator, HelloWithADifferentGridAbortsTheRun) {
  DispatchOptions options;
  options.workers = 1;
  options.output_dir = scratch_dir("coord_drift").string();
  CampaignDispatcher dispatcher(
      fake_worker("echo 'HELLO v1 grid=99'; read line"), options);
  try {
    (void)dispatcher.run(smoke_ini());
    ADD_FAILURE() << "grid drift did not abort the run";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different grid"),
              std::string::npos)
        << e.what();
  }
}

TEST(DispatchCoordinator, ErrOrUnknownReplyIsAWorkerFailure) {
  for (const std::string reply : {"ERR cannot run", "BOGUS reply"}) {
    DispatchOptions options;
    options.workers = 1;
    options.output_dir = scratch_dir("coord_bad_reply").string();
    options.max_task_attempts = 1;
    CampaignDispatcher dispatcher(
        fake_worker("echo 'HELLO v1 grid=4'; read line; echo '" + reply +
                    "'; read line"),
        options);
    const DispatchResult result = dispatcher.run(smoke_ini());

    ASSERT_EQ(result.records.size(), 4u) << reply;
    for (const CampaignRunRecord& r : result.records) {
      EXPECT_TRUE(r.failed) << reply;
      EXPECT_NE(r.error.find("worker crashed (1 attempts)"),
                std::string::npos)
          << reply << ": " << r.error;
    }
    EXPECT_EQ(result.metrics.counter_or("dispatch.worker_failures", 0), 4)
        << reply;
    EXPECT_EQ(result.metrics.counter_or("dispatch.tasks_failed", 0), 4)
        << reply;
  }
}

TEST(DispatchCoordinator, ExhaustedRespawnBudgetFailsEveryOpenCell) {
  DispatchOptions options;
  options.workers = 2;
  options.output_dir = scratch_dir("coord_budget").string();
  options.worker_respawn_budget = 0;
  options.retry.initial_backoff = WallSeconds(0.05);
  CampaignDispatcher dispatcher(
      fake_worker("echo 'HELLO v1 grid=4'; read line; exit 3"), options);
  const DispatchResult result = dispatcher.run(smoke_ini());

  ASSERT_EQ(result.records.size(), 4u);  // rows == grid, all failures
  for (const CampaignRunRecord& r : result.records) {
    EXPECT_TRUE(r.failed) << r.label;
    EXPECT_NE(r.error.find("worker respawn budget exhausted"),
              std::string::npos)
        << r.label << ": " << r.error;
  }
  EXPECT_EQ(result.metrics.counter_or("dispatch.tasks_failed", 0), 4);
  const std::string summary =
      slurp(fs::path(options.output_dir) / "campaign_summary.csv");
  EXPECT_EQ(std::count(summary.begin(), summary.end(), '\n'), 5);
}

// ---- sweep CLI exit codes ----

int run_cli(const std::string& args, const fs::path& log) {
  const std::string cmd = std::string(ADAPTVIZ_SWEEP_BIN) + " " + args +
                          " > " + log.string() + " 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(SweepCli, ExitCodeReflectsFailedRunsNotJustIncompleteOnes) {
  const fs::path clean = scratch_dir("cli_clean");
  const fs::path log = clean / "cli.log";
  EXPECT_EQ(run_cli(smoke_ini() + " " + clean.string() + " --workers 2", log),
            0);

  // One injected crash with a one-attempt cap: the run becomes a failed
  // row, the binary must exit 1 and name the run.
  const fs::path crash = scratch_dir("cli_crash");
  const fs::path crash_log = crash / "cli.log";
  EXPECT_EQ(run_cli(smoke_ini() + " " + crash.string() +
                        " --workers 1 --crash-inject-worker 0"
                        " --max-task-attempts 1",
                    crash_log),
            1);
  const std::string output = slurp(crash_log);
  EXPECT_NE(output.find("failed runs:"), std::string::npos);
  EXPECT_NE(output.find("worker crashed"), std::string::npos);

  EXPECT_EQ(run_cli("/nonexistent.ini", log), 2);  // fatal, not per-run
}

// A count that is not a whole number in range is a usage error naming the
// option, never a silent fallback (in-process mode, one job, ...).
TEST(SweepCli, MalformedCountsExitTwoNamingTheOption) {
  const fs::path dir = scratch_dir("cli_bad_counts");
  const fs::path log = dir / "cli.log";
  const std::pair<std::string, std::string> cases[] = {
      {"--workers abc", "--workers needs a non-negative count"},
      {"--jobs 1x", "--jobs needs a positive count"},
      {"--jobs 0", "--jobs needs a positive count"},
      {"--max-task-attempts 0", "--max-task-attempts needs a positive count"},
      {"--crash-inject-worker first", "--crash-inject-worker needs a"},
  };
  for (const auto& [args, message] : cases) {
    EXPECT_EQ(run_cli(smoke_ini() + " " + (dir / "out").string() + " " + args,
                      log),
              2)
        << args;
    EXPECT_NE(slurp(log).find(message), std::string::npos)
        << args << ": " << slurp(log);
  }
  EXPECT_FALSE(fs::exists(dir / "out" / "campaign_summary.csv"));
}

}  // namespace
}  // namespace adaptviz

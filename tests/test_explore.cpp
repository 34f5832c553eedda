// Scenario-explorer and checkpoint/restore tests.
//
// Three properties anchor the whole PR:
//
//  * the explorer finds the seeded greedy-stall violation in
//    scenarios/explore_smoke.ini and reports the exact adversary plan;
//  * an explored branch replayed as a plain `[adversary]` run — or as a
//    stepwise run that set_adversary_plan()s mid-flight — produces
//    byte-identical result CSVs (the explorer's futures are real runs);
//  * snapshot at a decision boundary + restore + resume is byte-identical
//    to the uninterrupted run, for every render-pool size (0 = inline on
//    the event loop, 2, 5) — ordering never depends on worker count.
#include "explore/explorer.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "core/scenario.hpp"
#include "serve/registration.hpp"
#include "util/thread_pool.hpp"

namespace adaptviz {
namespace {

namespace fs = std::filesystem;

std::string scenario_path() {
  return std::string(ADAPTVIZ_SCENARIO_DIR) + "/explore_smoke.ini";
}

/// The in-tree smoke scenario: greedy heuristic, small disk, clean
/// baseline; a 0.9 disk shock at any boundary stalls it.
ExperimentConfig smoke_config() { return load_scenario(scenario_path()); }

/// Whole-directory fingerprint: every file's bytes keyed by filename.
std::map<std::string, std::string> dir_contents(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    std::ifstream in(e.path(), std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    out[e.path().filename().string()] = body.str();
  }
  return out;
}

/// Writes both results and asserts every emitted file is byte-identical.
void expect_results_identical(const ExperimentResult& a,
                              const ExperimentResult& b,
                              const std::string& tag) {
  const std::string dir_a = (fs::temp_directory_path() /
                             ("explore_" + tag + "_a")).string();
  const std::string dir_b = (fs::temp_directory_path() /
                             ("explore_" + tag + "_b")).string();
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
  write_result(a, dir_a);
  write_result(b, dir_b);
  const auto files_a = dir_contents(dir_a);
  const auto files_b = dir_contents(dir_b);
  ASSERT_FALSE(files_a.empty());
  ASSERT_EQ(files_a.size(), files_b.size());
  for (const auto& [name, bytes] : files_a) {
    ASSERT_TRUE(files_b.count(name)) << name;
    // EXPECT_TRUE, not EXPECT_EQ: a failure names the file instead of
    // dumping two multi-hundred-line CSVs into the log.
    EXPECT_TRUE(bytes == files_b.at(name)) << tag << ": " << name
                                           << " differs";
  }
  // The aggregated campaign row is built off the summary alone — pin it
  // too (campaign_summary.csv rows survive a restore-resume).
  CampaignRunRecord ra;
  CampaignRunRecord rb;
  ra.label = rb.label = tag;
  ra.summary = a.summary;
  rb.summary = b.summary;
  EXPECT_EQ(campaign_summary_row(ra), campaign_summary_row(rb));
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
}

/// Steps fw until `target` decisions have been made; fails the test if
/// the run ends first.
void advance_to_decisions(AdaptiveFramework& fw, int target) {
  while (fw.decisions_made() < target) {
    ASSERT_TRUE(fw.step_once()) << "run ended before decision " << target;
  }
}

/// A reduced spec that keeps the tests quick: the adversary only gets the
/// disk shock, two boundaries deep.
ExploreSpec quick_spec() {
  ExploreSpec spec;
  spec.max_depth = 2;
  spec.max_branches = 16;
  spec.disk_shock_fractions = {0.9};
  return spec;
}

TEST(ExploreSpecIni, ParsesAllKeysAndDefaults) {
  const IniDocument doc = IniDocument::parse(
      "[explore]\n"
      "max_depth = 2\n"
      "max_branches = 9\n"
      "bandwidth_drop_tiers = 0.25 0.5\n"
      "failure_burst_levels = 0.3\n"
      "disk_shock_fractions = 0.9\n"
      "include_none = false\n"
      "prune = false\n");
  const ExploreSpec spec = explore_spec_from_ini(doc);
  EXPECT_EQ(spec.max_depth, 2);
  EXPECT_EQ(spec.max_branches, 9);
  EXPECT_EQ(spec.bandwidth_drop_tiers, (std::vector<double>{0.25, 0.5}));
  EXPECT_EQ(spec.failure_burst_levels, (std::vector<double>{0.3}));
  EXPECT_EQ(spec.disk_shock_fractions, (std::vector<double>{0.9}));
  EXPECT_FALSE(spec.include_none);
  EXPECT_FALSE(spec.prune);
  EXPECT_TRUE(spec.use_snapshots);

  const ExploreSpec defaults =
      explore_spec_from_ini(IniDocument::parse("[experiment]\nname = x\n"));
  EXPECT_EQ(defaults.max_depth, 3);
  EXPECT_EQ(defaults.max_branches, 64);
  EXPECT_TRUE(defaults.include_none);
}

TEST(ExploreSpecIni, RejectsBadValues) {
  EXPECT_THROW(explore_spec_from_ini(IniDocument::parse(
                   "[explore]\nmax_depth = 0\n")),
               std::invalid_argument);
  EXPECT_THROW(explore_spec_from_ini(IniDocument::parse(
                   "[explore]\ndisk_shock_fractions = 1.5\n")),
               std::invalid_argument);
  EXPECT_THROW(explore_spec_from_ini(IniDocument::parse(
                   "[explore]\nbandwidth_drop_tiers = nope\n")),
               std::runtime_error);
  EXPECT_THROW(explore_spec_from_ini(IniDocument::parse(
                   "[explore]\nbandwidth_drop_tiers = 0.5 nan\n")),
               std::runtime_error);
  EXPECT_THROW(explore_spec_from_ini(IniDocument::parse(
                   "[explore]\nfailure_burst_levels = inf\n")),
               std::runtime_error);
}

TEST(AdversaryPlan, RoundTripsThroughText) {
  const AdversaryPlan plan = {
      {0, AdversaryActionKind::kBandwidthDrop, 0.25},
      {2, AdversaryActionKind::kFailureBurst, 0.3},
      {2, AdversaryActionKind::kDiskShock, 0.9},
  };
  EXPECT_EQ(adversary_plan_from(to_string(plan)), plan);
  EXPECT_EQ(to_string(AdversaryPlan{}), "");
  EXPECT_THROW(adversary_plan_from("1:meteor-strike=1.0"),
               std::runtime_error);
  EXPECT_THROW(validate(AdversaryPlan{{-1,
                                       AdversaryActionKind::kDiskShock,
                                       0.5}}),
               std::invalid_argument);
}

TEST(Explorer, FindsSeededGreedyStallWithExactPlan) {
  ScenarioExplorer explorer(smoke_config(), quick_spec());
  const ExploreReport report = explorer.explore();

  // The clean baseline survives the window...
  EXPECT_GE(report.baseline_progress.as_hours(), 24.0 - 1e-9);
  // ...and the search finds the seeded stall, with a worse worst case.
  ASSERT_FALSE(report.violations.empty());
  EXPECT_LT(report.worst_progress.seconds(),
            report.baseline_progress.seconds());
  bool found_stall = false;
  for (const Violation& v : report.violations) {
    if (v.invariant != "greedy-stall") continue;
    found_stall = true;
    ASSERT_FALSE(v.plan.empty());
    EXPECT_EQ(v.plan.back().kind, AdversaryActionKind::kDiskShock);
  }
  EXPECT_TRUE(found_stall);
  // The report names a replayable worst plan.
  EXPECT_FALSE(report.worst_plan.empty());
  EXPECT_EQ(adversary_plan_from(to_string(report.worst_plan)),
            report.worst_plan);
}

TEST(Explorer, ReportIsDeterministic) {
  ScenarioExplorer a(smoke_config(), quick_spec());
  ScenarioExplorer b(smoke_config(), quick_spec());
  EXPECT_EQ(to_string(a.explore()), to_string(b.explore()));
}

TEST(Explorer, SnapshotAndNaiveModesAgreeExactly) {
  ExploreSpec naive = quick_spec();
  naive.use_snapshots = false;
  ScenarioExplorer fast(smoke_config(), quick_spec());
  ScenarioExplorer slow(smoke_config(), naive);
  const ExploreReport a = fast.explore();
  const ExploreReport b = slow.explore();
  EXPECT_EQ(to_string(a), to_string(b));
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.leaves_evaluated, b.leaves_evaluated);
  EXPECT_EQ(a.pruned, b.pruned);
}

TEST(Explorer, PruningOnlyEverSkipsSubtrees) {
  ExploreSpec no_prune = quick_spec();
  no_prune.prune = false;
  ScenarioExplorer pruned(smoke_config(), quick_spec());
  ScenarioExplorer full(smoke_config(), no_prune);
  const ExploreReport a = pruned.explore();
  const ExploreReport b = full.explore();
  // The bound is safe: the worst case is identical, only work differs.
  EXPECT_EQ(a.worst_progress.seconds(), b.worst_progress.seconds());
  EXPECT_EQ(to_string(a.worst_plan), to_string(b.worst_plan));
  EXPECT_EQ(b.pruned, 0);
  EXPECT_LE(a.nodes_explored, b.nodes_explored);
}

TEST(Explorer, RejectsConfiguredAdversaryAndUnsnapshotableSubsystems) {
  ExperimentConfig cfg = smoke_config();
  cfg.adversary = {{1, AdversaryActionKind::kDiskShock, 0.5}};
  EXPECT_THROW(ScenarioExplorer(cfg, quick_spec()), std::invalid_argument);

  // A registration server is shared across runs, so a snapshot cannot
  // rewind it.
  RegistrationServer server;
  ExperimentConfig external = smoke_config();
  external.steering.control_plane = &server;
  EXPECT_THROW(ScenarioExplorer(external, quick_spec()), std::logic_error);
}

// The bitwise-replay anchor: the worst plan the explorer found, replayed
// through a plain config-driven run AND through a stepwise run that
// injects the plan mid-flight (exactly what the explorer does), produces
// byte-identical CSVs.
TEST(Explorer, WorstPlanReplaysBitwise) {
  ScenarioExplorer explorer(smoke_config(), quick_spec());
  const ExploreReport report = explorer.explore();
  ASSERT_FALSE(report.worst_plan.empty());
  const AdversaryPlan plan = report.worst_plan;
  const int first_boundary = plan.front().after_decision;

  // Plain replay: the plan rides in on the config.
  ExperimentConfig cfg_plain = smoke_config();
  cfg_plain.adversary = plan;
  const ExperimentResult plain = run_experiment(cfg_plain);

  // The explored branch's final progress is reproduced exactly.
  EXPECT_EQ(plain.summary.sim_reached.seconds(),
            report.worst_progress.seconds());

  // Stepwise replay: start clean, inject the plan at the first boundary
  // the way the explorer does, run to completion.
  AdaptiveFramework fw(smoke_config());
  fw.start_run();
  advance_to_decisions(fw, first_boundary + 1);
  fw.set_adversary_plan(plan);
  while (fw.step_once()) {
  }
  const ExperimentResult stepwise = fw.finish_run();

  expect_results_identical(plain, stepwise, "replay");
}

/// smoke_config() plus two viewer sessions, so a snapshot/restore also
/// covers the serving layer (cache, per-client downlinks, delivery
/// records) and the per-client CSV digests get compared.
ExperimentConfig serving_config(ThreadPool* pool) {
  ExperimentConfig cfg = smoke_config();
  cfg.pool = pool;
  ViewerConfig live;
  live.name = "live";
  ViewerConfig catchup;
  catchup.name = "catchup";
  catchup.mode = ViewerMode::kCatchUp;
  catchup.join_wall = WallSeconds::hours(2.0);
  cfg.serve.viewers = {live, catchup};
  return cfg;
}

// Satellite: restore at a decision boundary + resume reproduces the
// uninterrupted run byte for byte — telemetry, delivered-frame digests,
// campaign summary rows — across render-pool sizes 0 (inline), 2, 5.
TEST(SnapshotRestore, ResumeIsBitwiseIdenticalAcrossPoolSizes) {
  std::map<int, ExperimentResult> uninterrupted;
  for (const int workers : {0, 2, 5}) {
    ThreadPool pool(workers);

    // Reference: straight through.
    {
      AdaptiveFramework fw(serving_config(&pool));
      fw.start_run();
      while (fw.step_once()) {
      }
      uninterrupted.emplace(workers, fw.finish_run());
    }

    // Interrupted: snapshot at boundary 1 (the last one before the smoke
    // window completes), keep running to the end, then rewind to the
    // snapshot and resume — the second finish must match.
    {
      AdaptiveFramework fw(serving_config(&pool));
      fw.start_run();
      advance_to_decisions(fw, 2);  // boundary 1
      const ExperimentState checkpoint = fw.snapshot();
      while (fw.step_once()) {
      }
      fw.restore(checkpoint);
      while (fw.step_once()) {
      }
      const ExperimentResult resumed = fw.finish_run();
      expect_results_identical(uninterrupted.at(workers), resumed,
                               "resume_p" + std::to_string(workers));
    }
  }
  // Pool size must never leak into results: 0 vs 2 vs 5 agree bitwise.
  expect_results_identical(uninterrupted.at(0), uninterrupted.at(2),
                           "pool_0v2");
  expect_results_identical(uninterrupted.at(0), uninterrupted.at(5),
                           "pool_0v5");
}

/// Runs `cfg` straight through, then again with a snapshot taken at the
/// first event boundary where `take` holds: run to the end, restore,
/// resume. The resumed result must match the uninterrupted one, and so
/// must `fingerprint` of the two frameworks when given.
void expect_resume_exact(
    const ExperimentConfig& cfg,
    const std::function<bool(AdaptiveFramework&)>& take,
    const std::string& tag,
    const std::function<std::uint64_t(const AdaptiveFramework&)>&
        fingerprint = nullptr) {
  AdaptiveFramework straight(cfg);
  const ExperimentResult reference = straight.run();

  AdaptiveFramework fw(cfg);
  fw.start_run();
  while (!take(fw)) {
    ASSERT_TRUE(fw.step_once()) << tag << ": run ended before the snapshot";
  }
  const ExperimentState checkpoint = fw.snapshot();
  while (fw.step_once()) {
  }
  fw.restore(checkpoint);
  while (fw.step_once()) {
  }
  expect_results_identical(reference, fw.finish_run(), tag);
  if (fingerprint) {
    EXPECT_EQ(fingerprint(straight), fingerprint(fw)) << tag;
  }
}

// A snapshot taken while a failed transfer waits out its backoff: the
// sender's retry ladder, jitter stream and requeued frame all rewind.
TEST(SnapshotRestore, ResumeDuringRetryBackoffIsExact) {
  ExperimentConfig cfg =
      load_scenario(std::string(ADAPTVIZ_SCENARIO_DIR) + "/flaky_wan.ini");
  cfg.sim_window = SimSeconds::hours(12.0);
  expect_resume_exact(
      cfg, [](AdaptiveFramework& fw) { return fw.sender().retry_pending(); },
      "retry");
}

// A snapshot taken while a regional cache waits out a fill-retry backoff:
// every node's cache, uplink, retry ladder and waiters, the leaf cursors
// and the origin index all rewind with the pending tree events.
TEST(SnapshotRestore, ResumeWithEdgeTreeIsExact) {
  ExperimentConfig cfg =
      load_scenario(std::string(ADAPTVIZ_SCENARIO_DIR) + "/edge_tree.ini");
  cfg.sim_window = SimSeconds::hours(12.0);
  expect_resume_exact(
      cfg,
      [](AdaptiveFramework& fw) {
        const EdgeTierStats t0 = fw.tree()->tier_stats(0);
        return t0.fill_failures > t0.fill_retries;  // a retry is pending
      },
      "tree",
      [](const AdaptiveFramework& fw) {
        return fw.tree()->delivery_digest(/*include_wall_times=*/true);
      });
}

// A snapshot taken between two applied steering events of the checked-in
// session, with viewers attached: serving and steering bookkeeping
// rewind.
TEST(SnapshotRestore, ResumeBetweenSteeringEventsIsExact) {
  ExperimentConfig cfg = load_scenario(std::string(ADAPTVIZ_SCENARIO_DIR) +
                                       "/steered_session.ini");
  cfg.steering.replay = load_steering_log(
      std::string(ADAPTVIZ_SCENARIO_DIR) + "/steering_session.jsonl");
  expect_resume_exact(
      cfg,
      [](AdaptiveFramework& fw) {
        return fw.steering_events().size() == 3 && fw.serving() != nullptr &&
               fw.serving()->attached_count() > 0;
      },
      "steered");
}

// A snapshot taken between two weather steps of a storm with a nest, on
// a pool with helpers: the parent geometry the last step built ahead
// rides in the snapshot, and the resumed steps use it.
TEST(SnapshotRestore, ResumeBetweenWeatherStepsIsExact) {
  ThreadPool pool(3);
  ExperimentConfig cfg = smoke_config();
  cfg.pool = &pool;
  expect_resume_exact(
      cfg,
      [](AdaptiveFramework& fw) {
        const WeatherModel* m = fw.process().model();
        return m != nullptr && m->nest_active() &&
               m->physics().deficit_hpa() > 2.0;
      },
      "weather");
}

// A pre-start snapshot restores the framework to "never started":
// resuming from it replays the whole run.
TEST(SnapshotRestore, RestoreBeforeStartReplaysWholeRun) {
  ExperimentConfig cfg = smoke_config();
  const ExperimentResult reference = run_experiment(cfg);

  AdaptiveFramework fw(smoke_config());
  const ExperimentState fresh = fw.snapshot();
  fw.start_run();
  advance_to_decisions(fw, 2);
  fw.restore(fresh);
  fw.start_run();
  while (fw.step_once()) {
  }
  expect_results_identical(reference, fw.finish_run(), "prestart");
}

}  // namespace
}  // namespace adaptviz

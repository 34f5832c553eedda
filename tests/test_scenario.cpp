#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "campaign/campaign.hpp"
#include "explore/explorer.hpp"

namespace adaptviz {
namespace {

IniDocument minimal() {
  return IniDocument::parse(
      "[experiment]\n"
      "name = t\n"
      "algorithm = optimization\n"
      "[site]\n"
      "preset = intra-country\n");
}

TEST(Scenario, PresetAndDefaults) {
  const ExperimentConfig cfg = scenario_from_ini(minimal());
  EXPECT_EQ(cfg.name, "t");
  EXPECT_EQ(cfg.algorithm, AlgorithmKind::kOptimization);
  EXPECT_EQ(cfg.site.machine.name, "gg-blr");
  EXPECT_DOUBLE_EQ(cfg.sim_window.as_hours(), 60.0);  // default window
}

TEST(Scenario, OverridesApply) {
  const ExperimentConfig cfg = scenario_from_ini(IniDocument::parse(
      "[experiment]\n"
      "name = custom\n"
      "algorithm = greedy-threshold\n"
      "sim_window_hours = 12\n"
      "max_wall_hours = 20\n"
      "decision_period_hours = 0.5\n"
      "compute_scale = 12\n"
      "seed = 99\n"
      "vis_workers = 3\n"
      "[site]\n"
      "preset = cross-continent\n"
      "max_cores = 40\n"
      "disk_gb = 64\n"
      "wan_mbps = 1.5\n"
      "wan_efficiency = 0.5\n"
      "io_mbps = 80\n"
      "[bounds]\n"
      "min_output_interval_min = 5\n"
      "max_output_interval_min = 30\n"
      "[model]\n"
      "base_resolution_km = 30\n"
      "nest_extent_deg = 12\n"));
  EXPECT_EQ(cfg.algorithm, AlgorithmKind::kGreedyThreshold);
  EXPECT_DOUBLE_EQ(cfg.sim_window.as_hours(), 12.0);
  EXPECT_DOUBLE_EQ(cfg.max_wall.as_hours(), 20.0);
  EXPECT_DOUBLE_EQ(cfg.decision_period.as_hours(), 0.5);
  EXPECT_DOUBLE_EQ(cfg.model.compute_scale, 12.0);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.vis_workers, 3);
  EXPECT_EQ(cfg.site.machine.max_cores, 40);
  EXPECT_EQ(cfg.site.disk_capacity, Bytes::gigabytes(64));
  EXPECT_DOUBLE_EQ(cfg.site.wan_nominal.megabits_per_sec(), 1.5);
  EXPECT_DOUBLE_EQ(cfg.site.wan_efficiency, 0.5);
  EXPECT_DOUBLE_EQ(cfg.bounds.min_output_interval.as_minutes(), 5.0);
  EXPECT_DOUBLE_EQ(cfg.bounds.max_output_interval.as_minutes(), 30.0);
  EXPECT_DOUBLE_EQ(cfg.model.base_resolution_km, 30.0);
  EXPECT_DOUBLE_EQ(cfg.model.nest_extent_deg, 12.0);
}

TEST(Scenario, DomainAndFilesKeys) {
  const std::string dir = testing::TempDir();
  const ExperimentConfig cfg = scenario_from_ini(IniDocument::parse(
      "[site]\npreset = inter-department\n"
      "[model]\nlon0 = 50\nlat0 = -20\nextent_lon_deg = 80\n"
      "extent_lat_deg = 70\nbase_resolution_km = 36\n"
      "[files]\nconfig_file = " + dir + "/app.ini\n"
      "checkpoint_dir = " + dir + "\n"));
  EXPECT_DOUBLE_EQ(cfg.model.lon0, 50.0);
  EXPECT_DOUBLE_EQ(cfg.model.lat0, -20.0);
  EXPECT_DOUBLE_EQ(cfg.model.extent_lon_deg, 80.0);
  EXPECT_DOUBLE_EQ(cfg.model.extent_lat_deg, 70.0);
  EXPECT_DOUBLE_EQ(cfg.model.base_resolution_km, 36.0);
  EXPECT_EQ(cfg.manager.config_file_path, dir + "/app.ini");
  EXPECT_EQ(cfg.job.checkpoint_dir, dir);
}

TEST(Scenario, OutageWindows) {
  const ExperimentConfig cfg = scenario_from_ini(IniDocument::parse(
      "[site]\npreset = intra-country\n"
      "[outages]\nwindows = 6-10, 14-16.5\n"));
  ASSERT_EQ(cfg.wan_outages.size(), 2u);
  EXPECT_DOUBLE_EQ(cfg.wan_outages[0].start.as_hours(), 6.0);
  EXPECT_DOUBLE_EQ(cfg.wan_outages[0].end.as_hours(), 10.0);
  EXPECT_DOUBLE_EQ(cfg.wan_outages[1].end.as_hours(), 16.5);
}

TEST(Scenario, FaultsSection) {
  const ExperimentConfig cfg = scenario_from_ini(IniDocument::parse(
      "[faults]\n"
      "transfer_failure_rate = 0.15\n"
      "retry_initial_seconds = 3\n"
      "retry_multiplier = 1.5\n"
      "retry_cap_seconds = 120\n"
      "retry_jitter = 0.1\n"
      "degrade_after = 4\n"));
  EXPECT_DOUBLE_EQ(cfg.faults.transfer_failure_rate, 0.15);
  EXPECT_DOUBLE_EQ(cfg.faults.retry.initial_backoff.seconds(), 3.0);
  EXPECT_DOUBLE_EQ(cfg.faults.retry.multiplier, 1.5);
  EXPECT_DOUBLE_EQ(cfg.faults.retry.max_backoff.seconds(), 120.0);
  EXPECT_DOUBLE_EQ(cfg.faults.retry.jitter, 0.1);
  EXPECT_EQ(cfg.faults.retry.degrade_after, 4);
}

TEST(Scenario, FaultsDefaultToFailureFree) {
  const ExperimentConfig cfg = scenario_from_ini(IniDocument::parse(""));
  EXPECT_DOUBLE_EQ(cfg.faults.transfer_failure_rate, 0.0);
  EXPECT_DOUBLE_EQ(cfg.faults.retry.multiplier, 2.0);
  EXPECT_EQ(cfg.faults.retry.degrade_after, 5);
}

TEST(Scenario, CodecSectionParsesAndDefaultsOff) {
  EXPECT_FALSE(scenario_from_ini(minimal()).codec.enabled);

  const ExperimentConfig cfg = scenario_from_ini(IniDocument::parse(
      "[codec]\n"
      "enabled = true\n"
      "precision = float64\n"));
  EXPECT_TRUE(cfg.codec.enabled);
  EXPECT_EQ(cfg.codec.precision, CodecPrecision::kFloat64);

  // A bare [codec] section turns the codec on with the safe defaults.
  const ExperimentConfig bare =
      scenario_from_ini(IniDocument::parse("[codec]\nenabled = true\n"));
  EXPECT_TRUE(bare.codec.enabled);
  EXPECT_EQ(bare.codec.precision, CodecPrecision::kFloat32);

  EXPECT_THROW(scenario_from_ini(IniDocument::parse(
                   "[codec]\nprecision = float16\n")),
               std::runtime_error);
}

TEST(Scenario, MaxSeriesPoints) {
  EXPECT_EQ(scenario_from_ini(minimal()).max_series_points, 0u);
  const ExperimentConfig cfg = scenario_from_ini(IniDocument::parse(
      "[experiment]\nmax_series_points = 500\n"));
  EXPECT_EQ(cfg.max_series_points, 500u);
  EXPECT_THROW(scenario_from_ini(IniDocument::parse(
                   "[experiment]\nmax_series_points = -1\n")),
               std::runtime_error);
}

TEST(Scenario, Validation) {
  EXPECT_THROW(scenario_from_ini(IniDocument::parse(
                   "[site]\npreset = mars-base\n")),
               std::runtime_error);
  EXPECT_THROW(scenario_from_ini(IniDocument::parse(
                   "[experiment]\nalgorithm = magic\n")),
               std::runtime_error);
  EXPECT_THROW(scenario_from_ini(IniDocument::parse(
                   "[experiment]\ncompute_scale = 0.1\n")),
               std::runtime_error);
  EXPECT_THROW(scenario_from_ini(IniDocument::parse(
                   "[outages]\nwindows = 6..8\n")),
               std::runtime_error);
  EXPECT_THROW(scenario_from_ini(IniDocument::parse(
                   "[outages]\nwindows = 6h-8\n")),
               std::runtime_error);
  EXPECT_THROW(scenario_from_ini(IniDocument::parse(
                   "[faults]\ntransfer_failure_rate = 1.2\n")),
               std::runtime_error);
  EXPECT_THROW(scenario_from_ini(IniDocument::parse(
                   "[faults]\ntransfer_failure_rate = -0.1\n")),
               std::runtime_error);
  EXPECT_THROW(scenario_from_ini(IniDocument::parse(
                   "[faults]\nretry_jitter = 1\n")),
               std::runtime_error);
  EXPECT_THROW(scenario_from_ini(IniDocument::parse(
                   "[faults]\nretry_multiplier = 0.5\n")),
               std::runtime_error);
  EXPECT_THROW(scenario_from_ini(IniDocument::parse(
                   "[faults]\ndegrade_after = 0\n")),
               std::runtime_error);
  // NaN passes every range check, so non-finite numbers are rejected at
  // the INI boundary with the key named.
  const char* non_finite[] = {
      "[faults]\nretry_multiplier = nan\n",
      "[experiment]\ndecision_period_hours = nan\n",
      "[experiment]\nsim_window_hours = inf\n",
      "[serve]\ncache_gb = nan\n",
  };
  for (const char* ini : non_finite) {
    try {
      (void)scenario_from_ini(IniDocument::parse(ini));
      ADD_FAILURE() << "accepted: " << ini;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("not a finite number"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioServe, SectionParsesIntoSessionOptions) {
  const ExperimentConfig cfg = scenario_from_ini(IniDocument::parse(
      "[serve]\n"
      "viewers = 4\n"
      "viewer_downlink_mbps = 250\n"
      "catchup_fraction = 0.5\n"
      "catchup_start_hours = 1\n"
      "catchup_join_wall_hours = 2\n"
      "cache_gb = 2\n"
      "cache_frames = 64\n"
      "cache_policy = stride-thin\n"
      "rerender_workers = 3\n"
      "rerender_fixed_seconds = 1.5\n"
      "rerender_seconds_per_gb = 4\n"));
  ASSERT_EQ(cfg.serve.viewers.size(), 4u);
  EXPECT_TRUE(cfg.serve.enabled());
  // round(0.5 * 4) = 2 catch-up viewers, then live tails.
  EXPECT_EQ(cfg.serve.viewers[0].mode, ViewerMode::kCatchUp);
  EXPECT_EQ(cfg.serve.viewers[1].mode, ViewerMode::kCatchUp);
  EXPECT_EQ(cfg.serve.viewers[2].mode, ViewerMode::kLiveTail);
  EXPECT_DOUBLE_EQ(
      cfg.serve.viewers[0].downlink.nominal.megabits_per_sec(), 250.0);
  EXPECT_DOUBLE_EQ(cfg.serve.viewers[0].catchup_start.as_hours(), 1.0);
  EXPECT_EQ(cfg.serve.session.cache.capacity, Bytes::gigabytes(2.0));
  EXPECT_EQ(cfg.serve.session.cache.max_frames, 64u);
  EXPECT_EQ(cfg.serve.session.cache.policy, EvictionPolicy::kStrideThinning);
  EXPECT_EQ(cfg.serve.session.rerender_workers, 3);
  EXPECT_DOUBLE_EQ(cfg.serve.session.rerender_fixed_seconds, 1.5);
  EXPECT_DOUBLE_EQ(cfg.serve.session.rerender_seconds_per_gb, 4.0);

  // No [serve] section: the subsystem stays off, like the seed.
  EXPECT_FALSE(scenario_from_ini(minimal()).serve.enabled());
}

TEST(ScenarioServe, RejectsNonsensicalValues) {
  // Each entry is a config the author plainly mistyped; all must be
  // rejected at parse time instead of silently clamped.
  const char* bad[] = {
      "[serve]\nviewers = -1\n",
      "[serve]\nviewer_downlink_mbps = 0\n",
      "[serve]\nviewer_downlink_mbps = -10\n",
      "[serve]\ncatchup_fraction = 1.5\n",
      "[serve]\ncatchup_fraction = -0.1\n",
      "[serve]\ncatchup_start_hours = -1\n",
      "[serve]\ncatchup_join_wall_hours = -2\n",
      "[serve]\ncache_gb = 0\n",
      "[serve]\ncache_frames = -3\n",
      "[serve]\ncache_policy = banana\n",
      "[serve]\nrerender_workers = 0\n",
      "[serve]\nrerender_fixed_seconds = -1\n",
      "[serve]\nrerender_seconds_per_gb = -0.5\n",
  };
  for (const char* ini : bad) {
    EXPECT_THROW(scenario_from_ini(IniDocument::parse(ini)),
                 std::runtime_error)
        << ini;
  }
}

TEST(ScenarioTree, SectionParsesWithPerTierLists) {
  const ExperimentConfig cfg = scenario_from_ini(IniDocument::parse(
      "[tree]\n"
      "fan_out = 2, 8\n"
      "viewers_per_leaf = 500\n"
      "uplink_mbps = 1000, 200\n"
      "uplink_latency_ms = 40, 5\n"
      "uplink_efficiency = 0.9\n"   // scalar broadcasts to both tiers
      "cache_gb = 8, 2\n"
      "cache_frames = 0, 32\n"
      "codec_ratio = 4\n"
      "failure_rate = 0.1, 0\n"
      "cache_policy = stride-thin\n"
      "retry_initial_seconds = 5\n"
      "retry_multiplier = 2\n"
      "retry_cap_seconds = 120\n"
      "retry_jitter = 0.2\n"
      "degrade_after = 3\n"
      "join_stagger_seconds = 7\n"));
  const TreeSpec& tree = cfg.serve.tree;
  EXPECT_TRUE(tree.enabled());
  ASSERT_EQ(tree.tiers.size(), 2u);
  EXPECT_EQ(tree.tiers[0].fan_out, 2);
  EXPECT_EQ(tree.tiers[1].fan_out, 8);
  EXPECT_DOUBLE_EQ(tree.tiers[0].uplink.nominal.megabits_per_sec(), 1000.0);
  EXPECT_DOUBLE_EQ(tree.tiers[1].uplink.nominal.megabits_per_sec(), 200.0);
  EXPECT_DOUBLE_EQ(tree.tiers[0].uplink.latency.seconds(), 0.040);
  EXPECT_DOUBLE_EQ(tree.tiers[1].uplink.latency.seconds(), 0.005);
  EXPECT_DOUBLE_EQ(tree.tiers[0].uplink.efficiency, 0.9);
  EXPECT_DOUBLE_EQ(tree.tiers[1].uplink.efficiency, 0.9);
  EXPECT_DOUBLE_EQ(tree.tiers[0].uplink.failure_probability, 0.1);
  EXPECT_DOUBLE_EQ(tree.tiers[1].uplink.failure_probability, 0.0);
  EXPECT_EQ(tree.tiers[0].cache.capacity, Bytes::gigabytes(8.0));
  EXPECT_EQ(tree.tiers[1].cache.capacity, Bytes::gigabytes(2.0));
  EXPECT_EQ(tree.tiers[0].cache.max_frames, 0u);
  EXPECT_EQ(tree.tiers[1].cache.max_frames, 32u);
  EXPECT_EQ(tree.tiers[0].cache.policy, EvictionPolicy::kStrideThinning);
  EXPECT_DOUBLE_EQ(tree.tiers[0].codec_ratio, 4.0);
  EXPECT_DOUBLE_EQ(tree.tiers[1].codec_ratio, 4.0);
  EXPECT_EQ(tree.viewers_per_leaf, 500);
  EXPECT_DOUBLE_EQ(tree.retry.initial_backoff.seconds(), 5.0);
  EXPECT_DOUBLE_EQ(tree.retry.multiplier, 2.0);
  EXPECT_DOUBLE_EQ(tree.retry.max_backoff.seconds(), 120.0);
  EXPECT_DOUBLE_EQ(tree.retry.jitter, 0.2);
  EXPECT_EQ(tree.retry.degrade_after, 3);
  EXPECT_DOUBLE_EQ(tree.leaf_join_stagger.seconds(), 7.0);

  // No [tree] section: disabled spec, not an error.
  EXPECT_FALSE(scenario_from_ini(minimal()).serve.tree.enabled());
}

TEST(ScenarioTree, RejectsNonsensicalValues) {
  const char* bad[] = {
      "[tree]\n",                                 // fan_out is required
      "[tree]\nfan_out = 0\n",
      "[tree]\nfan_out = 2.5\n",
      "[tree]\nfan_out = -4\n",
      "[tree]\nfan_out = 2\nuplink_mbps = 1, 2, 3\n",  // length mismatch
      "[tree]\nfan_out = 2\nuplink_mbps = 0\n",
      "[tree]\nfan_out = 2\nuplink_latency_ms = -1\n",
      "[tree]\nfan_out = 2\nuplink_efficiency = 1.5\n",
      "[tree]\nfan_out = 2\nuplink_efficiency = 0\n",
      "[tree]\nfan_out = 2\ncache_gb = 0\n",
      "[tree]\nfan_out = 2\ncache_frames = -1\n",
      "[tree]\nfan_out = 2\ncodec_ratio = 0.5\n",
      "[tree]\nfan_out = 2\nfailure_rate = 1.5\n",
      "[tree]\nfan_out = 2\nfailure_rate = -0.1\n",
      "[tree]\nfan_out = 2\ncache_policy = mru\n",
      "[tree]\nfan_out = 2\nviewers_per_leaf = 0\n",
      "[tree]\nfan_out = 2\nretry_initial_seconds = 0\n",
      "[tree]\nfan_out = 2\nretry_multiplier = 0.5\n",
      "[tree]\nfan_out = 2\nretry_initial_seconds = 60\n"
      "retry_cap_seconds = 5\n",                  // cap below initial
      "[tree]\nfan_out = 2\nretry_jitter = 1\n",
      "[tree]\nfan_out = 2\ndegrade_after = 0\n",
      "[tree]\nfan_out = 2\njoin_stagger_seconds = -1\n",
      "[tree]\nfan_out = 2\nfailure_rate = nan\n",
      "[tree]\nfan_out = 2\nuplink_mbps = inf\n",
      "[tree]\nfan_out = nan\n",
      "[tree]\nfan_out = 2\nretry_multiplier = nan\n",
  };
  for (const char* ini : bad) {
    EXPECT_THROW(scenario_from_ini(IniDocument::parse(ini)),
                 std::runtime_error)
        << ini;
  }
}

TEST(Scenario, ShippedScenarioFilesParse) {
  // The scenarios/ directory must stay loadable by every reader.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(__FILE__).parent_path().parent_path() /
                       "scenarios";
  ASSERT_TRUE(fs::exists(dir));
  int count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".ini") continue;
    const std::string path = entry.path().string();
    EXPECT_NO_THROW((void)load_scenario(path)) << path;
    EXPECT_NO_THROW((void)explore_spec_from_ini(IniDocument::load(path)))
        << path;
    if (is_campaign_ini(IniDocument::load(path))) {
      EXPECT_NO_THROW((void)load_campaign(path)) << path;
    }
    ++count;
  }
  EXPECT_GE(count, 3);
}

// [steering] replay_log is read while the scenario loads: a good log
// lands in steering.replay, and a missing or malformed one fails the load
// with the key named.
TEST(ScenarioSteering, ReplayLogIsReadAtLoad) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "adaptviz_replay_log";
  fs::create_directories(dir);
  const auto scenario_with = [&dir](const std::string& log) {
    const std::string path = (dir / "scenario.ini").string();
    std::ofstream(path) << "[steering]\nreplay_log = " << log << "\n";
    return path;
  };

  const fs::path shipped = fs::path(__FILE__).parent_path().parent_path() /
                           "scenarios" / "steering_session.jsonl";
  const ExperimentConfig cfg =
      load_scenario(scenario_with(shipped.string()));
  EXPECT_EQ(cfg.steering.replay.size(),
            load_steering_log(shipped.string()).size());
  EXPECT_FALSE(cfg.steering.replay.empty());

  const std::string malformed = (dir / "malformed.jsonl").string();
  std::ofstream(malformed) << "{\"wall\":\"soon\",\"type\":\"detach\"}\n";
  for (const std::string& log :
       {(dir / "missing.jsonl").string(), malformed}) {
    try {
      (void)load_scenario(scenario_with(log));
      ADD_FAILURE() << "accepted: " << log;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("[steering] replay_log"),
                std::string::npos)
          << e.what();
    }
  }
  fs::remove_all(dir);
}

TEST(Scenario, WriteResultProducesArtifacts) {
  ExperimentConfig cfg = scenario_from_ini(minimal());
  cfg.name = "unit";
  cfg.sim_window = SimSeconds::hours(4.0);
  cfg.max_wall = WallSeconds::hours(10.0);
  cfg.model.compute_scale = 12.0;
  const ExperimentResult result = run_experiment(cfg);

  const std::string dir = testing::TempDir() + "/adaptviz_scenario_out";
  write_result(result, dir);
  for (const char* suffix :
       {"_samples.csv", "_visualization.csv", "_decisions.csv",
        "_track.csv", "_summary.ini"}) {
    EXPECT_TRUE(std::filesystem::exists(dir + "/unit" + suffix)) << suffix;
  }
  const IniDocument summary = IniDocument::load(dir + "/unit_summary.ini");
  EXPECT_EQ(summary.get_bool("summary", "completed"), true);
  std::filesystem::remove_all(dir);
}

TEST(ScenarioOutage, FrameworkRidesThroughBlackout) {
  // An outage long enough to back frames up at the simulation site: the
  // run must survive it and still drain afterwards.
  ExperimentConfig cfg = scenario_from_ini(minimal());
  cfg.name = "outage";
  cfg.sim_window = SimSeconds::hours(20.0);
  cfg.max_wall = WallSeconds::hours(40.0);
  cfg.model.compute_scale = 12.0;
  cfg.wan_outages = {{WallSeconds::hours(1.0), WallSeconds::hours(4.0)}};
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_TRUE(r.summary.completed);
  // No frame was visualized during the blackout.
  for (const VisRecord& v : r.vis_records) {
    EXPECT_FALSE(v.wall_time.as_hours() > 1.05 &&
                 v.wall_time.as_hours() < 4.0)
        << "frame arrived during outage at " << v.wall_time.as_hours();
  }
  // Everything written eventually reached the scientist.
  EXPECT_EQ(r.summary.frames_visualized, r.summary.frames_written);
}

TEST(ScenarioFaults, FrameworkDeliversEverythingOverFlakyWan) {
  // Transfer failures + retries end to end: every frame written is still
  // visualized exactly once and the run completes.
  ExperimentConfig cfg = scenario_from_ini(minimal());
  cfg.name = "flaky";
  cfg.sim_window = SimSeconds::hours(12.0);
  cfg.max_wall = WallSeconds::hours(40.0);
  cfg.model.compute_scale = 12.0;
  cfg.faults.transfer_failure_rate = 0.25;
  cfg.faults.retry.initial_backoff = WallSeconds(5.0);
  cfg.faults.retry.max_backoff = WallSeconds(120.0);
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_TRUE(r.summary.completed);
  EXPECT_GT(r.summary.transfer_failures, 0);
  EXPECT_EQ(r.summary.transfer_retries, r.summary.transfer_failures);
  EXPECT_EQ(r.summary.frames_visualized, r.summary.frames_written);
  EXPECT_EQ(r.summary.frames_sent, r.summary.frames_written);
  // Exactly-once: the visualization sequence numbers never repeat.
  std::set<std::int64_t> seen;
  for (const VisRecord& v : r.vis_records) {
    EXPECT_TRUE(seen.insert(v.sequence).second)
        << "frame " << v.sequence << " delivered twice";
  }
}

TEST(ScenarioObs, DefaultsOffAndSectionEnables) {
  EXPECT_FALSE(scenario_from_ini(minimal()).observability);

  const ExperimentConfig cfg = scenario_from_ini(IniDocument::parse(
      "[experiment]\nname = t\n[site]\npreset = intra-country\n"
      "[obs]\nenabled = true\ntrace_capacity = 1024\n"));
  EXPECT_TRUE(cfg.observability);
  EXPECT_EQ(cfg.obs.trace_capacity, 1024u);

  // A bare [obs] section means "on" with defaults.
  EXPECT_TRUE(scenario_from_ini(
                  IniDocument::parse("[experiment]\nname = t\n[site]\n"
                                     "preset = intra-country\n[obs]\n"))
                  .observability);

  EXPECT_THROW(scenario_from_ini(IniDocument::parse(
                   "[experiment]\nname = t\n[site]\npreset = intra-country\n"
                   "[obs]\ntrace_capacity = 0\n")),
               std::runtime_error);
}

}  // namespace
}  // namespace adaptviz

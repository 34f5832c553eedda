// Campaign engine tests: grid expansion, the [campaign] INI schema, and
// the load-bearing guarantee — every run in a concurrent campaign is
// bitwise identical to the same configuration run alone, because per-run
// contexts keep observability, logging and results disjoint.
#include "campaign/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "runtime/run_context.hpp"
#include "util/calendar.hpp"

namespace adaptviz {
namespace {

// The test_framework.cpp mini fixture: a compact resource-constrained
// site whose full experiment runs in well under a second.
ExperimentConfig mini_config(AlgorithmKind algorithm) {
  ExperimentConfig cfg;
  cfg.name = "mini";
  cfg.algorithm = algorithm;
  cfg.site.machine = MachineSpec{.name = "mini",
                                 .max_cores = 32,
                                 .min_cores = 4,
                                 .serial_seconds = 1.0,
                                 .work_seconds = 4000.0,
                                 .comm_seconds = 0.3,
                                 .noise_sigma = 0.02};
  cfg.site.disk_capacity = Bytes::gigabytes(30);
  cfg.site.io_bandwidth = Bandwidth::megabytes_per_second(150);
  cfg.site.wan_nominal = Bandwidth::mbps(8);
  cfg.site.wan_efficiency = 0.5;
  cfg.site.wan_fluctuation_sigma = 0.1;
  cfg.model.compute_scale = 12.0;
  cfg.sim_window = SimSeconds::hours(24.0);
  cfg.max_wall = WallSeconds::hours(40.0);
  cfg.sample_period = WallSeconds::minutes(15.0);
  cfg.seed = 7;
  return cfg;
}

// Exact-byte views of a result: the identity guarantee is stated on the
// serialized artifacts, not on approximate summaries.
std::string telemetry_csv(const ExperimentResult& r) {
  CsvTable table(telemetry_columns());
  for (const TelemetrySample& s : r.samples) {
    table.add_row(telemetry_row(s, CalendarEpoch::aila_start()));
  }
  return table.str();
}

std::string decision_series(const ExperimentResult& r) {
  std::string out;
  for (const DecisionRecord& d : r.decisions) {
    out += std::to_string(d.wall_time.seconds()) + "," +
           std::to_string(d.decision.processors) + "," +
           std::to_string(d.decision.output_interval.seconds()) + "," +
           (d.decision.critical ? "1" : "0") + "\n";
  }
  return out;
}

TEST(CampaignSpec, EmptyAxesExpandToSingleBaseRun) {
  CampaignSpec spec;
  spec.base = mini_config(AlgorithmKind::kGreedyThreshold);
  const std::vector<CampaignRun> runs = spec.expand();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].label, "mini");
  EXPECT_EQ(runs[0].config.name, "mini");
  EXPECT_EQ(runs[0].config.algorithm, AlgorithmKind::kGreedyThreshold);
  EXPECT_EQ(runs[0].config.seed, 7u);
  EXPECT_TRUE(runs[0].site.empty());
}

TEST(CampaignSpec, CrossProductCoversEveryCellInGridOrder) {
  CampaignSpec spec;
  spec.base = mini_config(AlgorithmKind::kOptimization);
  spec.sites = {{"a", inter_department_site()}, {"b", intra_country_site()}};
  spec.algorithms = {AlgorithmKind::kGreedyThreshold,
                     AlgorithmKind::kOptimization};
  spec.seeds = {1, 2};
  const std::vector<CampaignRun> runs = spec.expand();
  ASSERT_EQ(runs.size(), 8u);
  // Rightmost axis varies fastest: sites x algorithms x seeds.
  EXPECT_EQ(runs[0].label, "a-greedy-threshold-s1");
  EXPECT_EQ(runs[1].label, "a-greedy-threshold-s2");
  EXPECT_EQ(runs[2].label, "a-optimization-s1");
  EXPECT_EQ(runs[7].label, "b-optimization-s2");
  EXPECT_EQ(runs[7].site, "b");
  EXPECT_EQ(runs[7].config.algorithm, AlgorithmKind::kOptimization);
  EXPECT_EQ(runs[7].config.seed, 2u);
  // The label doubles as config.name, so per-run CSVs cannot collide.
  for (const CampaignRun& run : runs) {
    EXPECT_EQ(run.config.name, run.label);
  }
}

TEST(CampaignSpec, OverrideAxesRewriteTheBaseConfig) {
  CampaignSpec spec;
  spec.base = mini_config(AlgorithmKind::kOptimization);
  spec.disk_caps = {Bytes::gigabytes(10), Bytes::gigabytes(20)};
  spec.failure_rates = {0.0, 0.25};
  const std::vector<CampaignRun> runs = spec.expand();
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_DOUBLE_EQ(runs[0].config.site.disk_capacity.gb(), 10.0);
  EXPECT_DOUBLE_EQ(runs[0].config.faults.transfer_failure_rate, 0.0);
  EXPECT_DOUBLE_EQ(runs[3].config.site.disk_capacity.gb(), 20.0);
  EXPECT_DOUBLE_EQ(runs[3].config.faults.transfer_failure_rate, 0.25);
  EXPECT_EQ(runs[0].label, "d10-f0");
  EXPECT_EQ(runs[3].label, "d20-f0.25");
  // Inherited axes keep the base values.
  EXPECT_EQ(runs[3].config.algorithm, AlgorithmKind::kOptimization);
  EXPECT_EQ(runs[3].config.seed, 7u);
}

TEST(CampaignSpec, DecisionPeriodAndVisWorkerAxesExpandTheGrid) {
  CampaignSpec spec;
  spec.base = mini_config(AlgorithmKind::kOptimization);
  spec.algorithms = {AlgorithmKind::kGreedyThreshold,
                     AlgorithmKind::kOptimization};
  spec.decision_periods = {WallSeconds::hours(0.5), WallSeconds::hours(1.5)};
  spec.vis_workers = {1, 4};
  const std::vector<CampaignRun> runs = spec.expand();
  // 2 algorithms x 2 periods x 2 worker counts; workers vary fastest.
  ASSERT_EQ(runs.size(), 8u);
  EXPECT_EQ(runs[0].label, "greedy-threshold-p0.5-w1");
  EXPECT_EQ(runs[1].label, "greedy-threshold-p0.5-w4");
  EXPECT_EQ(runs[2].label, "greedy-threshold-p1.5-w1");
  EXPECT_EQ(runs[7].label, "optimization-p1.5-w4");
  EXPECT_DOUBLE_EQ(runs[0].config.decision_period.as_hours(), 0.5);
  EXPECT_EQ(runs[0].config.vis_workers, 1);
  EXPECT_DOUBLE_EQ(runs[7].config.decision_period.as_hours(), 1.5);
  EXPECT_EQ(runs[7].config.vis_workers, 4);
  // Undeclared axes inherit base values in every cell.
  for (const CampaignRun& run : runs) {
    EXPECT_EQ(run.config.seed, spec.base.seed);
    EXPECT_DOUBLE_EQ(run.config.site.disk_capacity.gb(),
                     spec.base.site.disk_capacity.gb());
  }
}

TEST(CampaignSpec, CodecAxisTogglesTheFrameCodec) {
  CampaignSpec spec;
  spec.base = mini_config(AlgorithmKind::kOptimization);
  spec.seeds = {1, 2};
  spec.codecs = {false, true};
  const std::vector<CampaignRun> runs = spec.expand();
  // seeds x codecs, codec varying fastest (it sits right of the fault
  // axis and left of the decision-period axis).
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].label, "s1-raw");
  EXPECT_EQ(runs[1].label, "s1-codec");
  EXPECT_EQ(runs[2].label, "s2-raw");
  EXPECT_EQ(runs[3].label, "s2-codec");
  EXPECT_FALSE(runs[0].config.codec.enabled);
  EXPECT_TRUE(runs[1].config.codec.enabled);
  EXPECT_FALSE(runs[2].config.codec.enabled);
  EXPECT_TRUE(runs[3].config.codec.enabled);

  // An empty codec axis inherits the base setting and names no cell.
  CampaignSpec plain;
  plain.base = mini_config(AlgorithmKind::kOptimization);
  plain.base.codec.enabled = true;
  const std::vector<CampaignRun> inherited = plain.expand();
  ASSERT_EQ(inherited.size(), 1u);
  EXPECT_TRUE(inherited[0].config.codec.enabled);
  EXPECT_EQ(inherited[0].label.find("codec"), std::string::npos);
}

TEST(CampaignIni, CodecAxisParsesAndRejectsUnknownStates) {
  const CampaignSpec spec = campaign_from_ini(IniDocument::parse(
      "[campaign]\n"
      "name = c\n"
      "seeds = 1, 2\n"
      "codec = off, on\n"));
  ASSERT_EQ(spec.codecs.size(), 2u);
  EXPECT_FALSE(spec.codecs[0]);
  EXPECT_TRUE(spec.codecs[1]);
  EXPECT_EQ(spec.expand().size(), 4u);

  EXPECT_THROW((void)campaign_from_ini(IniDocument::parse(
                   "[campaign]\ncodec = maybe\n")),
               std::runtime_error);
}

TEST(Campaign, SummarySchemaCarriesCodecColumns) {
  const std::vector<std::string> columns = campaign_summary_columns();
  const auto has = [&columns](const char* name) {
    return std::find(columns.begin(), columns.end(), name) != columns.end();
  };
  EXPECT_TRUE(has("codec"));
  EXPECT_TRUE(has("codec_mean_ratio"));
  EXPECT_TRUE(has("codec_saved_gb"));
}

TEST(CampaignSpec, BaseValuesFlowWhenPeriodAndWorkerAxesAreEmpty) {
  CampaignSpec spec;
  spec.base = mini_config(AlgorithmKind::kOptimization);
  spec.base.decision_period = WallSeconds::hours(2.0);
  spec.base.vis_workers = 3;
  spec.seeds = {1, 2};
  const std::vector<CampaignRun> runs = spec.expand();
  ASSERT_EQ(runs.size(), 2u);
  for (const CampaignRun& run : runs) {
    EXPECT_DOUBLE_EQ(run.config.decision_period.as_hours(), 2.0);
    EXPECT_EQ(run.config.vis_workers, 3);
    // The label names only the declared axis.
    EXPECT_EQ(run.label.find('p'), std::string::npos);
    EXPECT_EQ(run.label.find('w'), std::string::npos);
  }
}

TEST(CampaignSpec, DuplicateAxisEntriesStillGetUniqueLabels) {
  CampaignSpec spec;
  spec.base = mini_config(AlgorithmKind::kOptimization);
  spec.seeds = {7, 7};
  const std::vector<CampaignRun> runs = spec.expand();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_NE(runs[0].label, runs[1].label);
  EXPECT_NE(runs[0].config.name, runs[1].config.name);
}

TEST(CampaignIni, ParsesAxesAndBaseScenario) {
  const IniDocument doc = IniDocument::parse(
      "[campaign]\n"
      "name = suite\n"
      "sites = inter-department, cross-continent\n"
      "algorithms = greedy-threshold, optimization\n"
      "seeds = 1, 2\n"
      "disk_gb = 50\n"
      "failure_rates = 0.1\n"
      "decision_period_hours = 0.75, 1.5\n"
      "vis_workers = 1, 2\n"
      "concurrency = 3\n"
      "[experiment]\n"
      "name = base\n"
      "sim_window_hours = 12\n"
      "seed = 9\n");
  ASSERT_TRUE(is_campaign_ini(doc));
  const CampaignSpec spec = campaign_from_ini(doc);
  EXPECT_EQ(spec.name, "suite");
  ASSERT_EQ(spec.sites.size(), 2u);
  EXPECT_EQ(spec.sites[0].first, "inter-department");
  EXPECT_EQ(spec.sites[1].first, "cross-continent");
  ASSERT_EQ(spec.algorithms.size(), 2u);
  EXPECT_EQ(spec.algorithms[0], AlgorithmKind::kGreedyThreshold);
  ASSERT_EQ(spec.seeds.size(), 2u);
  EXPECT_EQ(spec.seeds[1], 2u);
  ASSERT_EQ(spec.disk_caps.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.disk_caps[0].gb(), 50.0);
  ASSERT_EQ(spec.failure_rates.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.failure_rates[0], 0.1);
  ASSERT_EQ(spec.decision_periods.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.decision_periods[0].as_hours(), 0.75);
  ASSERT_EQ(spec.vis_workers.size(), 2u);
  EXPECT_EQ(spec.vis_workers[1], 2);
  EXPECT_EQ(spec.concurrency, 3);
  // Base scenario comes from the ordinary sections, untouched.
  EXPECT_EQ(spec.base.name, "base");
  EXPECT_DOUBLE_EQ(spec.base.sim_window.as_hours(), 12.0);
  EXPECT_EQ(spec.base.seed, 9u);
  // 2 sites x 2 algorithms x 2 seeds x 1 disk x 1 rate x 2 periods x
  // 2 worker counts.
  EXPECT_EQ(spec.expand().size(), 32u);
}

TEST(CampaignIni, RejectsMalformedDocuments) {
  EXPECT_FALSE(is_campaign_ini(IniDocument::parse("[experiment]\nseed=1\n")));
  EXPECT_THROW(
      (void)campaign_from_ini(IniDocument::parse("[experiment]\nseed=1\n")),
      std::runtime_error);
  EXPECT_THROW((void)campaign_from_ini(IniDocument::parse(
                   "[campaign]\ndecision_period_hours = 0\n")),
               std::runtime_error);
  EXPECT_THROW((void)campaign_from_ini(IniDocument::parse(
                   "[campaign]\nvis_workers = 1.5\n")),
               std::runtime_error);
  EXPECT_THROW((void)campaign_from_ini(IniDocument::parse(
                   "[campaign]\nsites = atlantis\n")),
               std::runtime_error);
  EXPECT_THROW((void)campaign_from_ini(IniDocument::parse(
                   "[campaign]\nalgorithms = quantum\n")),
               std::runtime_error);
  EXPECT_THROW((void)campaign_from_ini(
                   IniDocument::parse("[campaign]\nseeds = -3\n")),
               std::runtime_error);
  EXPECT_THROW((void)campaign_from_ini(
                   IniDocument::parse("[campaign]\ndisk_gb = 0\n")),
               std::runtime_error);
  // List items are whole numbers or nothing: a unit suffix is not
  // silently dropped, and NaN does not slip past the range checks.
  EXPECT_THROW((void)campaign_from_ini(
                   IniDocument::parse("[campaign]\ndisk_gb = 50GB\n")),
               std::runtime_error);
  EXPECT_THROW((void)campaign_from_ini(
                   IniDocument::parse("[campaign]\ndisk_gb = nan\n")),
               std::runtime_error);
  EXPECT_THROW((void)campaign_from_ini(IniDocument::parse(
                   "[campaign]\nfailure_rates = 0.1x\n")),
               std::runtime_error);
  EXPECT_THROW((void)campaign_from_ini(IniDocument::parse(
                   "[campaign]\nfailure_rates = 1.5\n")),
               std::runtime_error);
  EXPECT_THROW((void)campaign_from_ini(
                   IniDocument::parse("[campaign]\nconcurrency = 0\n")),
               std::runtime_error);
}

// Satellite regression guard: the framework itself is deterministic —
// two back-to-back runs of one config yield byte-identical series. The
// campaign guarantee below builds on this.
TEST(Campaign, RepeatedRunsAreByteIdentical) {
  const ExperimentConfig cfg = mini_config(AlgorithmKind::kOptimization);
  const ExperimentResult first = run_experiment(cfg);
  const ExperimentResult second = run_experiment(cfg);
  ASSERT_FALSE(first.samples.empty());
  EXPECT_EQ(telemetry_csv(first), telemetry_csv(second));
  EXPECT_EQ(decision_series(first), decision_series(second));
}

// The load-bearing guarantee: a K=4 campaign's per-run telemetry and
// decision series are bitwise identical to the K=1 sequential baseline
// AND to a direct run_experiment() of the same config on this thread.
TEST(Campaign, ConcurrentRunsAreBitwiseIdenticalToSequential) {
  CampaignSpec spec;
  spec.base = mini_config(AlgorithmKind::kOptimization);
  spec.algorithms = {AlgorithmKind::kGreedyThreshold,
                     AlgorithmKind::kOptimization};
  spec.seeds = {7, 8, 9, 10};
  const std::vector<CampaignRun> runs = spec.expand();
  ASSERT_EQ(runs.size(), 8u);

  auto sweep = [&runs](int k) {
    CampaignOptions options;
    options.concurrency = k;
    options.write_per_run_csvs = false;
    options.write_summary_csv = false;
    std::vector<std::string> series(runs.size());
    const auto records =
        CampaignRunner(std::move(options))
            .run(runs, [&series](std::size_t i, const CampaignRun&,
                                 const ExperimentResult& r) {
              series[i] = telemetry_csv(r) + "|" + decision_series(r);
            });
    for (const CampaignRunRecord& rec : records) {
      EXPECT_FALSE(rec.failed) << rec.label << ": " << rec.error;
    }
    return series;
  };

  const std::vector<std::string> sequential = sweep(1);
  const std::vector<std::string> concurrent = sweep(4);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ASSERT_FALSE(sequential[i].empty());
    EXPECT_EQ(sequential[i], concurrent[i]) << runs[i].label;
    const std::string direct =
        [&] {
          ExperimentConfig cfg = runs[i].config;
          cfg.log.set_level(LogLevel::kError);  // quiet, like the campaign
          const ExperimentResult r = run_experiment(cfg);
          return telemetry_csv(r) + "|" + decision_series(r);
        }();
    EXPECT_EQ(direct, concurrent[i]) << runs[i].label;
  }
}

// Per-run contexts keep concurrent observability disjoint: each result's
// metrics snapshot matches its own summary, not a merged global registry.
TEST(Campaign, ConcurrentRunsKeepDisjointMetrics) {
  CampaignSpec spec;
  spec.base = mini_config(AlgorithmKind::kOptimization);
  spec.base.observability = true;
  spec.algorithms = {AlgorithmKind::kGreedyThreshold,
                     AlgorithmKind::kOptimization};
  const std::vector<CampaignRun> runs = spec.expand();
  ASSERT_EQ(runs.size(), 2u);

  CampaignOptions options;
  options.concurrency = 2;
  options.write_per_run_csvs = false;
  options.write_summary_csv = false;
  std::vector<ExperimentResult> results(runs.size());
  CampaignRunner(std::move(options))
      .run(runs, [&results](std::size_t i, const CampaignRun&,
                            const ExperimentResult& r) { results[i] = r; });

  for (std::size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    ASSERT_FALSE(r.metrics.empty()) << runs[i].label;
    // Counters belong to THIS run: they reconcile with its own summary.
    EXPECT_EQ(r.metrics.counter_or("transport.frames_sent"),
              r.summary.frames_sent)
        << runs[i].label;
    EXPECT_EQ(r.metrics.counter_or("receiver.frames_visualized"),
              r.summary.frames_visualized)
        << runs[i].label;
  }
  // The two algorithms behave differently; a shared registry would have
  // produced merged (equal) counters.
  EXPECT_NE(results[0].metrics.counter_or("transport.frames_sent"),
            results[1].metrics.counter_or("transport.frames_sent"));
}

// Without a context installed, the caller's thread stays context-free
// before, during (sink runs on worker threads) and after a campaign, and
// the obs helpers stay no-ops.
TEST(Campaign, CallerThreadKeepsNoContext) {
  EXPECT_EQ(current_run_context(), nullptr);
  CampaignSpec spec;
  spec.base = mini_config(AlgorithmKind::kOptimization);
  spec.seeds = {7, 8};
  CampaignOptions options;
  options.concurrency = 2;
  options.write_per_run_csvs = false;
  options.write_summary_csv = false;
  CampaignRunner(std::move(options)).run(spec);
  EXPECT_EQ(current_run_context(), nullptr);
  EXPECT_EQ(obs::current(), nullptr);
  // No-op helpers are safe with no context installed.
  obs::count("campaign.test_counter");
  obs::gauge_set("campaign.test_gauge", 1.0);
  EXPECT_EQ(obs::current(), nullptr);
}

// A run that throws is recorded as failed; the rest of the campaign
// completes and keeps its results.
TEST(Campaign, FailedRunIsRecordedAndCampaignContinues) {
  CampaignSpec spec;
  spec.base = mini_config(AlgorithmKind::kOptimization);
  spec.seeds = {7, 8};
  CampaignOptions options;
  options.concurrency = 1;
  options.write_per_run_csvs = false;
  options.write_summary_csv = false;
  const auto records =
      CampaignRunner(std::move(options))
          .run(spec.expand(), [](std::size_t i, const CampaignRun&,
                                 const ExperimentResult&) {
            if (i == 0) throw std::runtime_error("sink exploded");
          });
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].failed);
  EXPECT_EQ(records[0].error, "sink exploded");
  EXPECT_FALSE(records[1].failed);
  EXPECT_TRUE(records[1].summary.completed);
}

// A config that fails validation at framework-construction time (before
// run_experiment does any work) must still produce its failed summary
// row — every expanded label yields exactly one row, no silent drops.
TEST(Campaign, InvalidCellStillEmitsItsRow) {
  CampaignSpec spec;
  spec.base = mini_config(AlgorithmKind::kOptimization);
  spec.algorithms = {AlgorithmKind::kGreedyThreshold,
                     static_cast<AlgorithmKind>(42)};
  spec.seeds = {7, 8};
  const std::vector<CampaignRun> runs = spec.expand();
  ASSERT_EQ(runs.size(), 4u);  // the invalid cell survives expansion

  CampaignOptions options;
  options.concurrency = 2;
  options.write_per_run_csvs = false;
  options.write_summary_csv = false;
  const auto records = CampaignRunner(std::move(options)).run(runs);

  ASSERT_EQ(records.size(), runs.size());  // rows == expand().size()
  std::size_t failed = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].label, runs[i].label);
    if (records[i].failed) {
      ++failed;
      EXPECT_EQ(records[i].error, "unknown algorithm kind");
    }
  }
  EXPECT_EQ(failed, 2u);  // both seeds of the invalid algorithm

  // The summary row for an invalid cell must serialize, not throw
  // (to_string on the enum would): the whole CSV depends on it.
  ASSERT_TRUE(records[2].failed);
  const auto row = campaign_summary_row(records[2]);
  EXPECT_EQ(row.size(), campaign_summary_schema().size());
}

TEST(CampaignIni, WorkersKeyParsesAndRejectsNegative) {
  const CampaignSpec spec = campaign_from_ini(IniDocument::parse(
      "[campaign]\n"
      "name = c\n"
      "seeds = 1, 2\n"
      "workers = 3\n"));
  EXPECT_EQ(spec.workers, 3);
  EXPECT_EQ(campaign_from_ini(IniDocument::parse("[campaign]\nname = c\n"))
                .workers,
            0);
  EXPECT_THROW((void)campaign_from_ini(IniDocument::parse(
                   "[campaign]\nworkers = -1\n")),
               std::runtime_error);
}

// Progress callbacks arrive once per run with a monotone finished count.
TEST(Campaign, ProgressReportsEveryRun) {
  CampaignSpec spec;
  spec.base = mini_config(AlgorithmKind::kOptimization);
  spec.seeds = {7, 8, 9};
  CampaignOptions options;
  options.concurrency = 2;
  options.write_per_run_csvs = false;
  options.write_summary_csv = false;
  std::vector<std::size_t> finished;
  options.on_progress = [&finished](const CampaignProgress& p) {
    EXPECT_EQ(p.total, 3u);
    ASSERT_NE(p.record, nullptr);
    finished.push_back(p.finished);
  };
  CampaignRunner(std::move(options)).run(spec);
  ASSERT_EQ(finished.size(), 3u);
  for (std::size_t i = 0; i < finished.size(); ++i) {
    EXPECT_EQ(finished[i], i + 1);
  }
}

// The declarative schema is the single source of truth for the summary
// CSV: header order and row contents both derive from it.
TEST(Campaign, SummarySchemaDrivesCsvRows) {
  const auto& schema = campaign_summary_schema();
  const std::vector<std::string> columns = campaign_summary_columns();
  ASSERT_EQ(columns.size(), schema.size());
  EXPECT_EQ(columns.front(), "label");
  CampaignRunRecord record;
  record.label = "x";
  record.seed = 5;
  record.summary.frames_written = 12;
  const auto row = campaign_summary_row(record);
  ASSERT_EQ(row.size(), schema.size());
  EXPECT_EQ(std::get<std::string>(row[0]), "x");
}

}  // namespace
}  // namespace adaptviz

// AdaptiveFramework integration tests: full experiments on a small virtual
// site, checking the paper's qualitative orderings end to end.
#include "core/framework.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/thread_pool.hpp"

namespace adaptviz {
namespace {

// A compact site that is genuinely resource-constrained: small disk, thin
// WAN, quick machine — the whole greedy/optimizer contrast shows within a
// 24-hour simulated window.
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
  cfg.site.wan_nominal = Bandwidth::mbps(8);  // 1 MB/s nominal
  cfg.site.wan_efficiency = 0.5;
  cfg.site.wan_fluctuation_sigma = 0.1;
  cfg.model.compute_scale = 12.0;
  cfg.sim_window = SimSeconds::hours(24.0);
  cfg.max_wall = WallSeconds::hours(40.0);
  cfg.sample_period = WallSeconds::minutes(15.0);
  cfg.seed = 7;
  return cfg;
}

TEST(Framework, OptimizationCompletesTheWindow) {
  const ExperimentResult r =
      run_experiment(mini_config(AlgorithmKind::kOptimization));
  EXPECT_TRUE(r.summary.completed);
  EXPECT_GE(r.summary.sim_reached.as_hours(), 24.0);
  EXPECT_GT(r.summary.frames_written, 10);
  EXPECT_GT(r.summary.min_free_disk_percent, 10.0);
  EXPECT_EQ(r.summary.frames_visualized, r.summary.frames_written);
}

TEST(Framework, TelemetryIsMonotoneAndConsistent) {
  const ExperimentResult r =
      run_experiment(mini_config(AlgorithmKind::kOptimization));
  ASSERT_GT(r.samples.size(), 5u);
  for (std::size_t i = 1; i < r.samples.size(); ++i) {
    const auto& prev = r.samples[i - 1];
    const auto& cur = r.samples[i];
    EXPECT_GE(cur.wall_time.seconds(), prev.wall_time.seconds());
    EXPECT_GE(cur.sim_time.seconds(), prev.sim_time.seconds() - 1e-6);
    EXPECT_GE(cur.frames_written, prev.frames_written);
    EXPECT_GE(cur.frames_sent, prev.frames_sent);
    EXPECT_GE(cur.frames_visualized, prev.frames_visualized);
    // Conservation: what is visualized cannot exceed what was sent, which
    // cannot exceed what was written.
    EXPECT_LE(cur.frames_visualized, cur.frames_sent);
    EXPECT_LE(cur.frames_sent, cur.frames_written);
    EXPECT_GE(cur.free_disk_percent, 0.0);
    EXPECT_LE(cur.free_disk_percent, 100.0);
  }
}

TEST(Framework, VisualizationProgressIsOrdered) {
  const ExperimentResult r =
      run_experiment(mini_config(AlgorithmKind::kOptimization));
  ASSERT_GT(r.vis_records.size(), 5u);
  for (std::size_t i = 1; i < r.vis_records.size(); ++i) {
    EXPECT_GT(r.vis_records[i].wall_time.seconds(),
              r.vis_records[i - 1].wall_time.seconds());
    EXPECT_GT(r.vis_records[i].sim_time.seconds(),
              r.vis_records[i - 1].sim_time.seconds());
    EXPECT_EQ(r.vis_records[i].sequence, r.vis_records[i - 1].sequence + 1);
  }
}

TEST(Framework, DecisionsHappenOnSchedule) {
  const ExperimentResult r =
      run_experiment(mini_config(AlgorithmKind::kOptimization));
  ASSERT_GE(r.decisions.size(), 3u);
  EXPECT_NEAR(r.decisions[0].wall_time.seconds(), 0.0, 1.0);
  for (std::size_t i = 1; i < r.decisions.size(); ++i) {
    EXPECT_NEAR(r.decisions[i].wall_time.seconds() -
                    r.decisions[i - 1].wall_time.seconds(),
                5400.0, 5.0);
  }
}

TEST(Framework, GreedyVersusOptimizationOrderings) {
  // The paper's headline: on a constrained site the optimizer keeps more
  // free disk and loses less time.
  ExperimentConfig greedy_cfg = mini_config(AlgorithmKind::kGreedyThreshold);
  ExperimentConfig opt_cfg = mini_config(AlgorithmKind::kOptimization);
  const ExperimentResult greedy = run_experiment(greedy_cfg);
  const ExperimentResult opt = run_experiment(opt_cfg);

  EXPECT_TRUE(opt.summary.completed);
  EXPECT_GT(opt.summary.min_free_disk_percent,
            greedy.summary.min_free_disk_percent);
  EXPECT_LE(opt.summary.peak_disk_used.count(),
            greedy.summary.peak_disk_used.count());
  // Greedy reacts (more adaptation churn), the optimizer stays steady.
  const auto oi_spread = [](const ExperimentResult& r) {
    double lo = 1e18;
    double hi = -1e18;
    for (const auto& s : r.samples) {
      lo = std::min(lo, s.output_interval.seconds());
      hi = std::max(hi, s.output_interval.seconds());
    }
    return hi - lo;
  };
  EXPECT_GE(oi_spread(greedy), oi_spread(opt));
}

TEST(Framework, ResolutionLadderEngagesDuringRun) {
  const ExperimentResult r =
      run_experiment(mini_config(AlgorithmKind::kOptimization));
  double first_res = r.samples.front().resolution_km;
  double last_res = 1e9;
  for (const auto& s : r.samples) last_res = s.resolution_km;
  EXPECT_DOUBLE_EQ(first_res, 24.0);
  EXPECT_LT(last_res, 24.0);  // the storm deepened past 995 hPa
  EXPECT_GE(r.summary.restarts, 1);
}

TEST(Framework, TrackIsRecorded) {
  const ExperimentResult r =
      run_experiment(mini_config(AlgorithmKind::kOptimization));
  ASSERT_GT(r.track.size(), 10u);
  EXPECT_GT(r.track.back().eye.lat, r.track.front().eye.lat);
  EXPECT_LT(r.track.back().min_pressure_hpa,
            r.track.front().min_pressure_hpa);
}

TEST(Framework, DeterministicForFixedSeed) {
  const ExperimentResult a =
      run_experiment(mini_config(AlgorithmKind::kOptimization));
  const ExperimentResult b =
      run_experiment(mini_config(AlgorithmKind::kOptimization));
  EXPECT_EQ(a.summary.frames_written, b.summary.frames_written);
  EXPECT_DOUBLE_EQ(a.summary.wall_elapsed.seconds(),
                   b.summary.wall_elapsed.seconds());
  EXPECT_DOUBLE_EQ(a.summary.min_free_disk_percent,
                   b.summary.min_free_disk_percent);
}

TEST(Framework, WallCutoffIsHonoured) {
  ExperimentConfig cfg = mini_config(AlgorithmKind::kGreedyThreshold);
  cfg.max_wall = WallSeconds::hours(2.0);  // far too short to finish
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_FALSE(r.summary.completed);
  EXPECT_LE(r.summary.wall_elapsed.as_hours(), 2.2);
}

TEST(Framework, AlgorithmKindNames) {
  EXPECT_STREQ(to_string(AlgorithmKind::kGreedyThreshold),
               "greedy-threshold");
  EXPECT_STREQ(to_string(AlgorithmKind::kOptimization), "optimization");
  EXPECT_STREQ(to_string(AlgorithmKind::kStatic), "non-adaptive");
}

TEST(Framework, NonAdaptiveBaselineStallsFirst) {
  // Paper: "a non-adaptive solution would result in stalling of the
  // simulation much earlier than in the greedy algorithm."
  auto first_stall = [](const ExperimentResult& r) {
    for (const auto& s : r.samples) {
      if (s.stalled) return s.wall_time.as_hours();
    }
    return 1e9;
  };
  const ExperimentResult fixed =
      run_experiment(mini_config(AlgorithmKind::kStatic));
  const ExperimentResult greedy =
      run_experiment(mini_config(AlgorithmKind::kGreedyThreshold));
  EXPECT_LT(first_stall(fixed), 1e9);  // it does stall
  EXPECT_LE(first_stall(fixed), first_stall(greedy));
  // And it simulates no more than greedy manages.
  EXPECT_LE(fixed.summary.sim_reached.seconds(),
            greedy.summary.sim_reached.seconds() + 3600.0);
}

TEST(Framework, ObservabilityCapturesThePipeline) {
  // One helper lane so the pool's fork-join path is exercised (results
  // are bitwise identical for any lane count).
  ThreadPool pool(1);
  ExperimentConfig cfg = mini_config(AlgorithmKind::kOptimization);
  cfg.observability = true;
  cfg.pool = &pool;
  const ExperimentResult r = run_experiment(cfg);
  ASSERT_FALSE(r.metrics.empty());

  // Instrumented stages agree with the framework's own accounting.
  EXPECT_EQ(r.metrics.counter_or("transport.frames_sent"),
            r.summary.frames_sent);
  EXPECT_EQ(r.metrics.counter_or("receiver.frames_visualized"),
            r.summary.frames_visualized);
  EXPECT_EQ(r.metrics.counter_or("manager.decisions"),
            static_cast<std::int64_t>(r.summary.decision_count));
  EXPECT_GT(r.metrics.counter_or("sim.steps"), 0);
  const obs::Histogram::Snapshot* step = r.metrics.histogram("sim.step");
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->count, r.metrics.counter_or("sim.steps"));
  EXPECT_GT(step->sum, 0.0);

  // Weather-step attribution: kNestRatio boundary exchanges per feedback,
  // and one nest geometry serves all of a parent step's nest substeps.
  const obs::Histogram::Snapshot* boundary =
      r.metrics.histogram("sim.nest.boundary");
  const obs::Histogram::Snapshot* feedback =
      r.metrics.histogram("sim.nest.feedback");
  const obs::Histogram::Snapshot* geometry =
      r.metrics.histogram("sim.forcing.geometry");
  const obs::Histogram::Snapshot* apply =
      r.metrics.histogram("sim.forcing.apply");
  ASSERT_NE(boundary, nullptr);
  ASSERT_NE(feedback, nullptr);
  ASSERT_NE(geometry, nullptr);
  ASSERT_NE(apply, nullptr);
  EXPECT_GT(feedback->count, 0);
  EXPECT_EQ(boundary->count, 3 * feedback->count);
  EXPECT_LT(geometry->count, apply->count);
  EXPECT_GT(geometry->sum, 0.0);
  EXPECT_GT(apply->sum, 0.0);
  // With the codec off, every fork-join region is a storm-geometry build.
  EXPECT_EQ(r.metrics.counter_or("pool.regions"), geometry->count);

  // The trace retains events from both clock domains, and every manager
  // decision is on it (the ring is far larger than the decision count).
  EXPECT_FALSE(r.trace.empty());
  std::int64_t decisions_traced = 0;
  for (const obs::TraceEvent& e : r.trace) {
    if (e.stage == "manager.decision") {
      ++decisions_traced;
      EXPECT_EQ(e.clock, obs::TraceClock::kSim);
      EXPECT_NE(e.metadata.find("algo="), std::string::npos);
      EXPECT_NE(e.metadata.find("procs="), std::string::npos);
      EXPECT_NE(e.metadata.find("deliberation="), std::string::npos);
    }
  }
  EXPECT_EQ(decisions_traced, r.summary.decision_count);

  // Nothing leaks: the install point is empty again after run_experiment.
  EXPECT_EQ(obs::current(), nullptr);
}

TEST(Framework, HelpersShareRegionsOnAnExplicitPool) {
  // The run's pool reaches the model: the storm geometry's rows are shared
  // with its helpers, whose bands count in the run's own metrics.
  ThreadPool pool(3);
  ExperimentConfig cfg = mini_config(AlgorithmKind::kOptimization);
  cfg.observability = true;
  cfg.pool = &pool;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_GT(r.metrics.counter_or("pool.regions"), 0);
  EXPECT_GT(r.metrics.counter_or("pool.helper_bands"), 0);
}

// ---- Frame codec end to end ----

TEST(FrameworkCodec, OffByDefaultReportsIdentityRatios) {
  const ExperimentResult r =
      run_experiment(mini_config(AlgorithmKind::kOptimization));
  EXPECT_DOUBLE_EQ(r.summary.codec_mean_ratio, 1.0);
  EXPECT_EQ(r.summary.codec_bytes_saved.count(), 0);
  for (const TelemetrySample& s : r.samples) {
    EXPECT_DOUBLE_EQ(s.codec_ratio, 1.0);
  }
}

TEST(FrameworkCodec, EncodedBytesFlowThroughTheWholePipeline) {
  ExperimentConfig cfg = mini_config(AlgorithmKind::kOptimization);
  cfg.codec.enabled = true;  // every frame of this run is proven lossless
                             // as it encodes
  cfg.observability = true;
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_TRUE(r.summary.completed);
  EXPECT_EQ(r.summary.frames_visualized, r.summary.frames_written);
  EXPECT_GT(r.summary.codec_mean_ratio, 1.2);
  EXPECT_GT(r.summary.codec_bytes_saved.count(), 0);
  EXPECT_GT(r.samples.back().codec_ratio, 1.0);

  // The obs counters and the summary agree on the byte ledger.
  EXPECT_EQ(r.metrics.counter_or("codec.frames"), r.summary.frames_written);
  const std::int64_t raw = r.metrics.counter_or("codec.bytes_raw");
  const std::int64_t enc = r.metrics.counter_or("codec.bytes_encoded");
  EXPECT_GT(raw, enc);
  EXPECT_EQ(r.metrics.counter_or("codec.bytes_saved"), raw - enc);
  EXPECT_EQ(r.summary.codec_bytes_saved.count(), raw - enc);
  const obs::Histogram::Snapshot* enc_ms = r.metrics.histogram("codec.encode_ms");
  const obs::Histogram::Snapshot* dec_ms = r.metrics.histogram("codec.decode_ms");
  const obs::Histogram::Snapshot* frame_ms = r.metrics.histogram("codec.frame_ms");
  ASSERT_NE(enc_ms, nullptr);
  ASSERT_NE(dec_ms, nullptr);
  ASSERT_NE(frame_ms, nullptr);
  EXPECT_EQ(enc_ms->count, r.summary.frames_written);
  EXPECT_EQ(dec_ms->count, r.summary.frames_written);
  EXPECT_EQ(frame_ms->count, r.summary.frames_written);
}

TEST(FrameworkCodec, EncodedRunMovesFewerBytesThanRawRun) {
  // Same experiment with and without the codec: what actually crosses the
  // WAN (the vis-record sizes) must shrink by the measured ratio.
  const ExperimentResult raw =
      run_experiment(mini_config(AlgorithmKind::kOptimization));
  ExperimentConfig cfg = mini_config(AlgorithmKind::kOptimization);
  cfg.codec.enabled = true;
  const ExperimentResult enc = run_experiment(cfg);
  const auto wire_bytes = [](const ExperimentResult& r) {
    std::int64_t total = 0;
    for (const VisRecord& v : r.vis_records) total += v.size.count();
    return total;
  };
  ASSERT_GT(enc.vis_records.size(), 5u);
  const double raw_per_frame =
      static_cast<double>(wire_bytes(raw)) /
      static_cast<double>(raw.vis_records.size());
  const double enc_per_frame =
      static_cast<double>(wire_bytes(enc)) /
      static_cast<double>(enc.vis_records.size());
  EXPECT_LT(enc_per_frame, raw_per_frame / 1.2);
}

TEST(FrameworkCodec, ExactlyOnceDeliveryOnEncodedBytesOverFlakyWan) {
  // [codec] + [faults] together: retries and exactly-once delivery must
  // hold when transfer planning runs on encoded byte counts.
  ExperimentConfig cfg = mini_config(AlgorithmKind::kOptimization);
  cfg.codec.enabled = true;
  cfg.sim_window = SimSeconds::hours(12.0);
  cfg.faults.transfer_failure_rate = 0.25;
  cfg.faults.retry.initial_backoff = WallSeconds(5.0);
  cfg.faults.retry.max_backoff = WallSeconds(120.0);
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_TRUE(r.summary.completed);
  EXPECT_GT(r.summary.transfer_failures, 0);
  EXPECT_EQ(r.summary.transfer_retries, r.summary.transfer_failures);
  EXPECT_EQ(r.summary.frames_sent, r.summary.frames_written);
  EXPECT_EQ(r.summary.frames_visualized, r.summary.frames_written);
  std::set<std::int64_t> seen;
  for (const VisRecord& v : r.vis_records) {
    EXPECT_TRUE(seen.insert(v.sequence).second)
        << "frame " << v.sequence << " delivered twice";
  }
  EXPECT_GT(r.summary.codec_mean_ratio, 1.0);
}

TEST(Framework, RenderSlotsAndRerendersLiveInVirtualTimeOnly) {
  // A render-bound visualization site: four render slots at an hour a
  // frame back the receiver up, and catch-up viewers joining late force
  // re-renders on two slots. Every slot is a virtual-time cost, so with
  // the codec off the pool sees storm-geometry builds and nothing else.
  ThreadPool pool(1);
  ExperimentConfig cfg = mini_config(AlgorithmKind::kOptimization);
  cfg.observability = true;
  cfg.pool = &pool;
  cfg.vis_workers = 4;
  cfg.vis.fixed_seconds = 3600.0;
  cfg.serve.session.cache.max_frames = 4;
  cfg.serve.session.rerender_workers = 2;
  cfg.serve.viewers = make_viewer_fleet(
      8, Bandwidth::mbps(40.0), /*catchup_fraction=*/0.5, SimSeconds(0.0),
      /*catchup_join=*/WallSeconds::hours(12.0));
  const ExperimentResult r = run_experiment(cfg);

  EXPECT_GT(r.metrics.gauge_or("receiver.peak_backlog"), 1.0);
  EXPECT_GT(r.summary.rerenders, 1);
  EXPECT_EQ(r.summary.frames_visualized, r.summary.frames_sent);
  const obs::Histogram::Snapshot* geometry =
      r.metrics.histogram("sim.forcing.geometry");
  ASSERT_NE(geometry, nullptr);
  EXPECT_EQ(r.metrics.counter_or("pool.regions"), geometry->count);
}

TEST(Framework, ObservabilityOffLeavesResultEmpty) {
  const ExperimentResult r =
      run_experiment(mini_config(AlgorithmKind::kOptimization));
  EXPECT_TRUE(r.metrics.empty());
  EXPECT_TRUE(r.trace.empty());
}

}  // namespace
}  // namespace adaptviz

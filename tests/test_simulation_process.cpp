#include "core/simulation_process.hpp"

#include <gtest/gtest.h>

namespace adaptviz {
namespace {

// Full simulation-side rig: machine + disk + catalog + sender with an
// attached link, plus a shared configuration the tests mutate.
struct Rig {
  EventQueue queue;
  GroundTruthMachine machine{MachineSpec{.name = "t",
                                         .max_cores = 64,
                                         .min_cores = 4,
                                         .serial_seconds = 1.0,
                                         .work_seconds = 30000.0,
                                         .comm_seconds = 0.0,
                                         .noise_sigma = 0.0},
                             1};
  DiskModel disk{Bytes::gigabytes(50), Bandwidth::megabytes_per_second(500)};
  NetworkLink link{LinkSpec{.nominal = Bandwidth::megabytes_per_second(5),
                            .latency = WallSeconds(0.0)},
                   2};
  FrameCatalog catalog;
  BandwidthEstimator estimator{0.3};
  ApplicationConfiguration config;
  int delivered = 0;
  int resolution_signals = 0;
  double last_signal_res = 0.0;
  bool finished_cb = false;

  std::unique_ptr<FrameSender> sender;
  std::unique_ptr<SimulationProcess> process;

  explicit Rig(SimSeconds end = SimSeconds::hours(4.0)) {
    config.processors = 64;
    config.output_interval = SimSeconds::minutes(12.0);
    config.resolution_km = 24.0;
    sender = std::make_unique<FrameSender>(
        queue, link, catalog, disk, estimator,
        [this](const Frame&) { ++delivered; }, FrameSender::Options{});
    SimulationProcess::Options opts;
    opts.end_time = end;
    opts.stall_poll = WallSeconds::minutes(5.0);
    SimulationProcess::Callbacks cbs;
    cbs.on_resolution_signal = [this](double r) {
      ++resolution_signals;
      last_signal_res = r;
    };
    cbs.on_finished = [this] { finished_cb = true; };
    process = std::make_unique<SimulationProcess>(
        queue, machine, disk, catalog, *sender, config, opts, std::move(cbs));
  }

  std::unique_ptr<WeatherModel> make_model() {
    ModelConfig cfg;
    cfg.compute_scale = 12.0;
    return std::make_unique<WeatherModel>(cfg);
  }
};

TEST(SimProcess, RunsToCompletion) {
  Rig rig(SimSeconds::hours(2.0));
  rig.process->start(rig.make_model());
  rig.sender->start();
  rig.queue.run_until(WallSeconds::hours(12.0));
  EXPECT_TRUE(rig.process->finished());
  EXPECT_TRUE(rig.finished_cb);
  EXPECT_GE(rig.process->sim_time().as_hours(), 2.0);
  // 2 h at a 12-min interval: ~10 frames.
  EXPECT_NEAR(static_cast<double>(rig.process->frames_written()), 10.0, 2.0);
  EXPECT_EQ(rig.process->total_stall_time().seconds(), 0.0);
}

TEST(SimProcess, StepCostMatchesMachine) {
  Rig rig(SimSeconds::hours(1.0));
  rig.process->start(rig.make_model());
  // First step completes exactly at the machine's step time for 64 cores.
  const double work = rig.process->model()->work_units();
  const double expected =
      rig.machine.expected_step_time(64, work).seconds();
  // Run a single event (the step completion).
  rig.queue.step();
  EXPECT_NEAR(rig.queue.now().seconds(), expected, 1e-9);
  EXPECT_EQ(rig.process->steps_executed(), 1);
}

TEST(SimProcess, FramesLandInCatalogAndShip) {
  Rig rig(SimSeconds::hours(1.0));
  rig.process->start(rig.make_model());
  rig.sender->start();
  rig.queue.run_until(WallSeconds::hours(6.0));
  EXPECT_GE(rig.process->frames_written(), 4);
  EXPECT_EQ(rig.delivered, rig.process->frames_written());
  // Everything shipped frees the disk.
  EXPECT_EQ(rig.disk.used(), Bytes(0));
}

TEST(SimProcess, CriticalFlagStallsAndResumes) {
  Rig rig(SimSeconds::hours(3.0));
  rig.config.critical = true;  // critical before start
  rig.process->start(rig.make_model());
  rig.queue.run_until(WallSeconds::hours(1.0));
  EXPECT_TRUE(rig.process->stalled());
  EXPECT_EQ(rig.process->steps_executed(), 0);
  EXPECT_GT(rig.process->total_stall_time().as_hours(), 0.9);

  rig.config.critical = false;
  rig.queue.run_until(WallSeconds::hours(8.0));
  EXPECT_FALSE(rig.process->stalled());
  EXPECT_TRUE(rig.process->finished());
  EXPECT_GT(rig.process->steps_executed(), 0);
}

TEST(SimProcess, DiskFullStallsUntilSpaceFrees) {
  Rig rig(SimSeconds::hours(2.0));
  // Fill the disk almost completely; no sender -> nothing drains.
  ASSERT_TRUE(rig.disk.allocate(Bytes::gigabytes(49.9)));
  rig.process->start(rig.make_model());
  rig.queue.run_until(WallSeconds::hours(2.0));
  EXPECT_TRUE(rig.process->stalled());
  const auto written_before = rig.process->frames_written();
  // Free space; the stalled process resumes on its next poll.
  rig.disk.release(Bytes::gigabytes(30));
  rig.queue.run_until(WallSeconds::hours(8.0));
  EXPECT_TRUE(rig.process->finished());
  EXPECT_GT(rig.process->frames_written(), written_before);
}

TEST(SimProcess, StopDeliversCheckpoint) {
  Rig rig(SimSeconds::hours(10.0));
  rig.process->start(rig.make_model());
  rig.queue.run_until(WallSeconds::minutes(30.0));
  ASSERT_TRUE(rig.process->running());

  bool stopped = false;
  rig.process->request_stop([&](NclFile ckpt) {
    stopped = true;
    EXPECT_TRUE(ckpt.has_variable("parent_h"));
  });
  rig.queue.run_until(WallSeconds::hours(1.0));
  EXPECT_TRUE(stopped);
  EXPECT_FALSE(rig.process->running());
  // No further progress after the stop.
  const auto steps = rig.process->steps_executed();
  rig.queue.run_until(WallSeconds::hours(2.0));
  EXPECT_EQ(rig.process->steps_executed(), steps);
}

TEST(SimProcess, StopDuringStallIsHonoured) {
  Rig rig(SimSeconds::hours(3.0));
  rig.config.critical = true;
  rig.process->start(rig.make_model());
  rig.queue.run_until(WallSeconds::minutes(20.0));
  ASSERT_TRUE(rig.process->stalled());
  bool stopped = false;
  rig.process->request_stop([&](NclFile) { stopped = true; });
  rig.queue.run_until(WallSeconds::hours(1.0));
  EXPECT_TRUE(stopped);
}

TEST(SimProcess, RestartContinuesFromCheckpoint) {
  Rig rig(SimSeconds::hours(3.0));
  rig.process->start(rig.make_model());
  rig.queue.run_until(WallSeconds::minutes(40.0));
  const SimSeconds t_before = rig.process->sim_time();
  ASSERT_GT(t_before.seconds(), 0.0);

  NclFile saved;
  rig.process->request_stop([&](NclFile ckpt) { saved = std::move(ckpt); });
  rig.queue.run_until(WallSeconds::minutes(50.0));

  // Restart with fewer processors.
  rig.config.processors = 16;
  auto model = std::make_unique<WeatherModel>(WeatherModel::restore(
      ModelConfig{.compute_scale = 12.0}, ResolutionLadder::table3(), saved));
  rig.process->start(std::move(model));
  EXPECT_GE(rig.process->sim_time().seconds(), t_before.seconds() - 1.0);
  rig.queue.run_until(WallSeconds::hours(24.0));
  EXPECT_TRUE(rig.process->finished());
}

TEST(SimProcess, SignalsResolutionOnceDeepEnough) {
  // Long window so the storm crosses 995 hPa (~12-14 h in).
  Rig rig(SimSeconds::hours(20.0));
  rig.process->start(rig.make_model());
  rig.queue.run_until(WallSeconds::hours(24.0));
  EXPECT_GE(rig.resolution_signals, 1);
  EXPECT_LT(rig.last_signal_res, 24.0);
  // The signal does not stop the run by itself.
  EXPECT_TRUE(rig.process->finished() || rig.process->running());
}

TEST(SimProcess, Validation) {
  Rig rig;
  EXPECT_THROW(rig.process->start(nullptr), std::invalid_argument);
  rig.process->start(rig.make_model());
  EXPECT_THROW(rig.process->start(rig.make_model()), std::logic_error);
  EXPECT_THROW(rig.process->request_stop(nullptr), std::invalid_argument);
  rig.process->request_stop([](NclFile) {});
  EXPECT_THROW(rig.process->request_stop([](NclFile) {}), std::logic_error);
}

}  // namespace
}  // namespace adaptviz

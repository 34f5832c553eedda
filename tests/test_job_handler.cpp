#include "core/job_handler.hpp"

#include <gtest/gtest.h>

#include <filesystem>

namespace adaptviz {
namespace {

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
  DiskModel disk{Bytes::gigabytes(100), Bandwidth::megabytes_per_second(500)};
  NetworkLink link{LinkSpec{.nominal = Bandwidth::megabytes_per_second(5),
                            .latency = WallSeconds(0.0)},
                   2};
  FrameCatalog catalog;
  BandwidthEstimator estimator{0.3};
  ApplicationConfiguration config;

  std::unique_ptr<FrameSender> sender;
  std::unique_ptr<SimulationProcess> process;
  std::unique_ptr<JobHandler> handler;

  explicit Rig(SimSeconds end = SimSeconds::hours(48.0)) {
    config.processors = 64;
    config.output_interval = SimSeconds::minutes(12.0);
    sender = std::make_unique<FrameSender>(queue, link, catalog, disk,
                                           estimator, [](const Frame&) {},
                                           FrameSender::Options{});
    SimulationProcess::Options opts;
    opts.end_time = end;
    SimulationProcess::Callbacks cbs;
    cbs.on_resolution_signal = [this](double r) {
      handler->on_resolution_signal(r);
    };
    process = std::make_unique<SimulationProcess>(
        queue, machine, disk, catalog, *sender, config, opts, std::move(cbs));
    ModelConfig mcfg;
    mcfg.compute_scale = 12.0;
    JobHandler::Options jopts;
    jopts.restart_overhead = WallSeconds(90.0);
    handler = std::make_unique<JobHandler>(queue, *process, config, disk,
                                           mcfg, ResolutionLadder::table3(),
                                           jopts);
  }
};

TEST(JobHandler, LaunchStartsSimulation) {
  Rig rig;
  rig.handler->launch_initial();
  EXPECT_TRUE(rig.process->running());
  EXPECT_DOUBLE_EQ(rig.config.resolution_km, 24.0);
  rig.queue.run_until(WallSeconds::minutes(5.0));
  EXPECT_GT(rig.process->steps_executed(), 0);
}

TEST(JobHandler, NotificationsBeforeLaunchIgnored) {
  Rig rig;
  rig.config.processors = 16;
  ++rig.config.version;
  rig.handler->on_configuration_changed();  // must not crash or restart
  rig.handler->on_resolution_signal(21.0);
  EXPECT_EQ(rig.handler->restarts(), 0);
  EXPECT_FALSE(rig.handler->restart_in_progress());
}

TEST(JobHandler, RestartsOnProcessorChange) {
  Rig rig;
  rig.handler->launch_initial();
  rig.queue.run_until(WallSeconds::minutes(10.0));
  const auto t0 = rig.process->sim_time();

  rig.config.processors = 16;
  ++rig.config.version;
  rig.handler->on_configuration_changed();
  EXPECT_TRUE(rig.handler->restart_in_progress());
  rig.queue.run_until(WallSeconds::minutes(30.0));
  EXPECT_EQ(rig.handler->restarts(), 1);
  EXPECT_FALSE(rig.handler->restart_in_progress());
  EXPECT_TRUE(rig.process->running());
  // Simulation continued from the checkpoint, not from zero.
  EXPECT_GE(rig.process->sim_time().seconds(), t0.seconds());
}

TEST(JobHandler, RestartChargesOverhead) {
  Rig rig;
  rig.handler->launch_initial();
  rig.queue.run_until(WallSeconds::minutes(10.0));
  const double t_request = rig.queue.now().seconds();
  rig.config.processors = 8;
  ++rig.config.version;
  rig.handler->on_configuration_changed();
  // Drain until the restart lands.
  while (rig.handler->restart_in_progress() && rig.queue.step()) {
  }
  // At least the fixed overhead passed (plus checkpoint I/O and the step in
  // flight).
  EXPECT_GE(rig.queue.now().seconds(), t_request + 90.0);
}

TEST(JobHandler, CriticalOnlyChangeDoesNotRestart) {
  Rig rig;
  rig.handler->launch_initial();
  rig.queue.run_until(WallSeconds::minutes(5.0));
  rig.config.critical = true;
  ++rig.config.version;
  rig.handler->on_configuration_changed();
  EXPECT_FALSE(rig.handler->restart_in_progress());
  EXPECT_EQ(rig.handler->restarts(), 0);
  rig.queue.run_until(WallSeconds::minutes(20.0));
  EXPECT_TRUE(rig.process->stalled());  // the flag took effect in place
}

TEST(JobHandler, ResolutionSignalUpdatesConfigAndRestarts) {
  Rig rig;
  rig.handler->launch_initial();
  rig.queue.run_until(WallSeconds::minutes(10.0));
  const long v0 = rig.config.version;
  rig.handler->on_resolution_signal(21.0);
  EXPECT_DOUBLE_EQ(rig.config.resolution_km, 21.0);
  EXPECT_GT(rig.config.version, v0);
  rig.queue.run_until(WallSeconds::hours(1.0));
  EXPECT_EQ(rig.handler->restarts(), 1);
  // The relaunched model runs at the new modeled resolution.
  ASSERT_NE(rig.process->model(), nullptr);
  EXPECT_DOUBLE_EQ(rig.process->model()->modeled_resolution_km(), 21.0);
}

TEST(JobHandler, IgnoresSignalsWhileRestarting) {
  Rig rig;
  rig.handler->launch_initial();
  rig.queue.run_until(WallSeconds::minutes(10.0));
  rig.handler->on_resolution_signal(21.0);
  ASSERT_TRUE(rig.handler->restart_in_progress());
  rig.handler->on_resolution_signal(18.0);  // swallowed
  rig.handler->on_configuration_changed();  // swallowed
  rig.queue.run_until(WallSeconds::hours(1.0));
  EXPECT_EQ(rig.handler->restarts(), 1);
  EXPECT_DOUBLE_EQ(rig.config.resolution_km, 21.0);
}

TEST(JobHandler, FileBasedCheckpointRoundTrip) {
  namespace fs = std::filesystem;
  const std::string dir = testing::TempDir() + "/adaptviz_ckpt_test";
  fs::create_directories(dir);

  Rig rig;
  // Rebuild the handler with a checkpoint directory.
  JobHandler::Options jopts;
  jopts.restart_overhead = WallSeconds(30.0);
  jopts.checkpoint_dir = dir;
  ModelConfig mcfg;
  mcfg.compute_scale = 12.0;
  rig.handler = std::make_unique<JobHandler>(rig.queue, *rig.process,
                                             rig.config, rig.disk, mcfg,
                                             ResolutionLadder::table3(),
                                             jopts);
  rig.handler->launch_initial();
  rig.queue.run_until(WallSeconds::minutes(10.0));
  const SimSeconds t0 = rig.process->sim_time();

  rig.config.processors = 16;
  ++rig.config.version;
  rig.handler->on_configuration_changed();
  rig.queue.run_until(WallSeconds::minutes(40.0));

  EXPECT_EQ(rig.handler->restarts(), 1);
  EXPECT_TRUE(fs::exists(dir + "/checkpoint_0.ncl"));
  // The restored run continued from the file, not from scratch.
  EXPECT_GE(rig.process->sim_time().seconds(), t0.seconds());
  // The persisted checkpoint is a valid, loadable NCL file.
  const NclFile ckpt = NclFile::load(dir + "/checkpoint_0.ncl");
  EXPECT_TRUE(ckpt.has_variable("parent_h"));
  fs::remove_all(dir);
}

TEST(JobHandler, FullLadderThroughRealSignals) {
  // End-to-end: let the storm deepen and verify the handler walks the
  // resolution ladder via real model signals.
  Rig rig(SimSeconds::hours(24.0));
  rig.handler->launch_initial();
  rig.sender->start();
  rig.queue.run_until(WallSeconds::hours(10.0));
  EXPECT_GE(rig.handler->restarts(), 1);
  ASSERT_NE(rig.process->model(), nullptr);
  EXPECT_LT(rig.process->model()->modeled_resolution_km(), 24.0);
}

}  // namespace
}  // namespace adaptviz

// Registration server: one serve process fronting N live runs — mailbox
// mechanics, pre-registration buffering, and the end-to-end wiring through
// the framework and the campaign runner.
#include "serve/registration.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/framework.hpp"

namespace adaptviz {
namespace {

SteeringEvent command_event(WallSeconds wall, SteeringCommand::Kind kind,
                            double value = 0.0) {
  SteeringEvent e;
  e.wall = wall;
  e.type = SteeringEvent::Type::kCommand;
  e.command.kind = kind;
  if (kind == SteeringCommand::Kind::kSetResolutionFloor) {
    e.command.resolution_floor_km = value;
  }
  return e;
}

TEST(Registration, RegisterSteerDrainLifecycle) {
  RegistrationServer server;
  EXPECT_THROW(server.register_run(""), std::invalid_argument);
  const RegistrationServer::RunId a = server.register_run("run-a");
  EXPECT_THROW(server.register_run("run-a"), std::invalid_argument);
  EXPECT_EQ(server.active_runs(), 1);
  EXPECT_EQ(server.total_registered(), 1);

  // The inbox is FIFO and wall-gated: an event scheduled for later holds
  // everything behind it (in-order delivery, like the channel).
  server.steer(a, command_event(WallSeconds(100.0),
                                SteeringCommand::Kind::kPause));
  server.steer(a,
               command_event(WallSeconds(0.0), SteeringCommand::Kind::kResume));
  EXPECT_TRUE(server.drain(a, WallSeconds(50.0)).empty());
  const auto due = server.drain(a, WallSeconds(100.0));
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].command.kind, SteeringCommand::Kind::kPause);
  EXPECT_EQ(due[1].command.kind, SteeringCommand::Kind::kResume);
  EXPECT_TRUE(server.drain(a, WallSeconds(1e9)).empty());

  // Malformed events are rejected at the server boundary.
  SteeringEvent bad;
  bad.type = SteeringEvent::Type::kView;
  bad.view.zoom = -2.0;
  EXPECT_THROW(server.steer(a, bad), std::invalid_argument);
  EXPECT_THROW(server.steer(RegistrationServer::RunId{99},
                            command_event(WallSeconds(0.0),
                                          SteeringCommand::Kind::kPause)),
               std::invalid_argument);

  // Deregistration is idempotent and frees the label for reuse; steering
  // a finished run is an error, not a silent drop.
  server.deregister_run(a);
  server.deregister_run(a);
  EXPECT_EQ(server.active_runs(), 0);
  EXPECT_THROW(server.steer(a, command_event(WallSeconds(0.0),
                                             SteeringCommand::Kind::kPause)),
               std::invalid_argument);
  const RegistrationServer::RunId a2 = server.register_run("run-a");
  EXPECT_NE(a2, a);
  EXPECT_EQ(server.total_registered(), 2);
  EXPECT_EQ(server.peak_active_runs(), 1);
}

TEST(Registration, PreRegistrationEventsWaitForTheRun) {
  RegistrationServer server;
  // Script events for a run that has not started yet — both spellings.
  server.steer("late-run", command_event(WallSeconds(5.0),
                                         SteeringCommand::Kind::kPause));
  server.attach("late-run", "watcher", ObserverSpec{});
  EXPECT_EQ(server.active_runs(), 0);

  const RegistrationServer::RunId run = server.register_run("late-run");
  const auto events = server.drain(run, WallSeconds(10.0));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, SteeringEvent::Type::kCommand);
  EXPECT_EQ(events[1].type, SteeringEvent::Type::kAttach);
  EXPECT_EQ(events[1].client, "watcher");

  // A second registration of the same label starts with a clean inbox.
  server.deregister_run(run);
  const RegistrationServer::RunId again = server.register_run("late-run");
  EXPECT_TRUE(server.drain(again, WallSeconds(1e9)).empty());
}

TEST(Registration, AttachDetachAndObservationsAreTracked) {
  RegistrationServer server;
  const RegistrationServer::RunId run = server.register_run("run");
  server.attach("run", "scientist", ObserverSpec{});
  {
    const auto runs = server.runs();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].label, "run");
    EXPECT_TRUE(runs[0].active);
    EXPECT_EQ(runs[0].observers, 1);
    EXPECT_EQ(runs[0].inbox, 1u);  // the attach event awaits its drain
  }
  server.detach("run", "scientist");
  EXPECT_EQ(server.runs()[0].observers, 0);
  EXPECT_EQ(server.runs()[0].inbox, 2u);

  SteeringObservation obs;
  for (int i = 0; i < 100; ++i) {
    obs.sequence = i;
    obs.min_pressure_hpa = 1000.0 - i;
    server.observe(run, obs);
  }
  const auto runs = server.runs();
  EXPECT_EQ(runs[0].observations, 100);
  EXPECT_EQ(runs[0].last_observation.sequence, 99);
  EXPECT_DOUBLE_EQ(runs[0].last_observation.min_pressure_hpa, 901.0);

  server.publish_campaign(CampaignView{.name = "sweep", .finished = 1,
                                       .total = 4});
  EXPECT_EQ(server.campaign().name, "sweep");
  EXPECT_EQ(server.campaign().total, 4u);
}

// --- End-to-end through the framework ---

ExperimentConfig live_config(const std::string& name) {
  ExperimentConfig cfg;
  cfg.name = name;
  cfg.site.machine = MachineSpec{.name = "mini",
                                 .max_cores = 32,
                                 .min_cores = 4,
                                 .serial_seconds = 1.0,
                                 .work_seconds = 4000.0,
                                 .comm_seconds = 0.3,
                                 .noise_sigma = 0.0};
  cfg.site.disk_capacity = Bytes::gigabytes(120);
  cfg.site.io_bandwidth = Bandwidth::megabytes_per_second(150);
  cfg.site.wan_nominal = Bandwidth::mbps(40);
  cfg.site.wan_efficiency = 0.5;
  cfg.model.compute_scale = 12.0;
  cfg.sim_window = SimSeconds::hours(24.0);
  cfg.max_wall = WallSeconds::hours(40.0);
  cfg.seed = 3;
  cfg.log.set_level(LogLevel::kError);
  return cfg;
}

// The acceptance scenario: one server fronts two concurrently registered
// runs; scripted observers steer each by label, before and during the run.
TEST(Registration, OneServerFrontsTwoLiveRuns) {
  RegistrationServer server;

  // Scripted before either run exists: a resolution floor for alpha, an
  // observer session (attach at start, detach mid-run) for beta.
  server.steer("alpha",
               command_event(WallSeconds(0.0),
                             SteeringCommand::Kind::kSetResolutionFloor,
                             18.0));
  server.attach("beta", "watcher", ObserverSpec{.downlink_mbps = 50.0});
  server.detach("beta", "watcher");  // scripted for wall 0: joins, leaves
  {
    SteeringEvent att;
    att.wall = WallSeconds::hours(1.0);
    att.client = "watcher";
    att.type = SteeringEvent::Type::kAttach;
    att.attach = ObserverSpec{.downlink_mbps = 50.0};
    server.steer("beta", att);  // ...and comes back an hour in
  }

  ExperimentConfig alpha_cfg = live_config("alpha");
  alpha_cfg.steering.control_plane = &server;
  ExperimentConfig beta_cfg = live_config("beta");
  beta_cfg.steering.control_plane = &server;

  AdaptiveFramework alpha(alpha_cfg);
  AdaptiveFramework beta(beta_cfg);
  EXPECT_EQ(server.active_runs(), 2);
  EXPECT_EQ(server.peak_active_runs(), 2);

  const ExperimentResult ra = alpha.run();
  const ExperimentResult rb = beta.run();
  EXPECT_EQ(server.active_runs(), 0);

  // Alpha: the scripted floor reached the decision algorithms.
  EXPECT_TRUE(ra.summary.completed);
  EXPECT_EQ(ra.summary.steering_events, 1);
  double finest = 1e9;
  for (const auto& s : ra.samples) finest = std::min(finest, s.resolution_km);
  EXPECT_GE(finest, 18.0 - 1e-9);

  // Beta: attach/detach/re-attach all applied; the watcher saw frames.
  EXPECT_TRUE(rb.summary.completed);
  EXPECT_EQ(rb.summary.steering_events, 3);
  EXPECT_EQ(rb.summary.observers_peak, 1);
  ASSERT_EQ(rb.clients.size(), 1u);
  EXPECT_EQ(rb.clients[0].name, "watcher");
  EXPECT_GT(rb.clients[0].stats.frames_delivered, 0);

  // The runs published their observations to the server as they went.
  for (const RunView& view : server.runs()) {
    EXPECT_FALSE(view.active);
    EXPECT_GT(view.observations, 0);
  }
}

// The campaign runner wires every cell to the shared server and publishes
// sweep progress through it.
TEST(Registration, CampaignRunsRegisterAndPublishProgress) {
  RegistrationServer server;

  CampaignSpec spec;
  spec.name = "steered-sweep";
  spec.base = live_config("base");
  spec.seeds = {7, 8};
  const std::vector<CampaignRun> runs = spec.expand();
  ASSERT_EQ(runs.size(), 2u);

  // Script a steering session for every cell before the sweep starts.
  for (const CampaignRun& cell : runs) {
    server.attach(cell.label, "observer", ObserverSpec{});
    server.steer(cell.label,
                 command_event(WallSeconds::hours(1.0),
                               SteeringCommand::Kind::kSetResolutionFloor,
                               18.0));
    server.detach(cell.label, "observer");  // delivered at drain time
  }

  CampaignOptions options;
  options.concurrency = 2;
  options.write_per_run_csvs = false;
  options.write_summary_csv = false;
  options.registration = &server;
  const std::vector<CampaignRunRecord> records =
      CampaignRunner(options).run(spec);

  ASSERT_EQ(records.size(), 2u);
  for (const CampaignRunRecord& rec : records) {
    EXPECT_FALSE(rec.failed) << rec.label << ": " << rec.error;
    EXPECT_TRUE(rec.summary.completed) << rec.label;
    EXPECT_EQ(rec.summary.steering_events, 3) << rec.label;
    EXPECT_EQ(rec.summary.observers_peak, 1) << rec.label;
  }

  EXPECT_EQ(server.active_runs(), 0);
  EXPECT_EQ(server.total_registered(), 2);
  EXPECT_GE(server.peak_active_runs(), 1);
  EXPECT_EQ(server.campaign().name, "steered-sweep");
  EXPECT_EQ(server.campaign().finished, 2u);
  EXPECT_EQ(server.campaign().total, 2u);
  EXPECT_FALSE(server.campaign().last_failed);
}

}  // namespace
}  // namespace adaptviz

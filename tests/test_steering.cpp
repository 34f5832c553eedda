// Computational steering: channel semantics, the unified control plane
// (event codec, record/replay determinism) and end-to-end behaviour
// through the full framework.
#include "steering/steering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "core/telemetry.hpp"
#include "steering/control_plane.hpp"
#include "util/calendar.hpp"
#include "util/csv.hpp"

namespace adaptviz {
namespace {

// --- Commands through LocalControlPlane::send_command ---

TEST(ControlPlaneCommands, DeliverAfterLatencyInOrder) {
  EventQueue queue;
  std::vector<std::pair<double, SteeringCommand::Kind>> got;
  LocalControlPlane plane(queue, WallSeconds(2.0),
                          [&got, &queue](const SteeringEvent& e) {
                            EXPECT_EQ(e.type, SteeringEvent::Type::kCommand);
                            got.push_back({queue.now().seconds(),
                                           e.command.kind});
                          });
  plane.send_command(SteeringCommand{.kind = SteeringCommand::Kind::kPause});
  queue.run_until(WallSeconds(1.0));
  plane.send_command(SteeringCommand{.kind = SteeringCommand::Kind::kResume});
  queue.run_until(WallSeconds(10.0));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_DOUBLE_EQ(got[0].first, 2.0);
  EXPECT_EQ(got[0].second, SteeringCommand::Kind::kPause);
  EXPECT_DOUBLE_EQ(got[1].first, 3.0);
  EXPECT_EQ(got[1].second, SteeringCommand::Kind::kResume);
  EXPECT_EQ(plane.events_sent(), 2);
  EXPECT_EQ(plane.events_applied(), 2);
}

TEST(ControlPlaneCommands, ConstructorRejectsNullApplyAndNegativeLatency) {
  EventQueue queue;
  EXPECT_THROW(LocalControlPlane(queue, WallSeconds(1.0), nullptr),
               std::invalid_argument);
  EXPECT_THROW(
      LocalControlPlane(queue, WallSeconds(-1.0), [](const SteeringEvent&) {}),
      std::invalid_argument);
}

// Malformed commands are rejected at send time — they never reach the
// queue, the log, or the decision algorithms.
TEST(ControlPlaneCommands, MalformedCommandsRejectedAtSendTime) {
  EventQueue queue;
  int delivered = 0;
  LocalControlPlane plane(queue, WallSeconds(1.0),
                          [&delivered](const SteeringEvent&) { ++delivered; });

  SteeringCommand inverted;
  inverted.kind = SteeringCommand::Kind::kSetOutputBounds;
  inverted.bounds.min_output_interval = SimSeconds::minutes(25.0);
  inverted.bounds.max_output_interval = SimSeconds::minutes(3.0);
  EXPECT_THROW(plane.send_command(inverted), std::invalid_argument);

  SteeringCommand nonpositive;
  nonpositive.kind = SteeringCommand::Kind::kSetOutputBounds;
  nonpositive.bounds.min_output_interval = SimSeconds(0.0);
  nonpositive.bounds.max_output_interval = SimSeconds::minutes(3.0);
  EXPECT_THROW(plane.send_command(nonpositive), std::invalid_argument);

  SteeringCommand floor;
  floor.kind = SteeringCommand::Kind::kSetResolutionFloor;
  floor.resolution_floor_km = -1.0;
  EXPECT_THROW(plane.send_command(floor), std::invalid_argument);

  SteeringCommand extent;
  extent.kind = SteeringCommand::Kind::kSetNestExtent;
  extent.nest_extent_deg = -9.0;
  EXPECT_THROW(plane.send_command(extent), std::invalid_argument);

  SteeringCommand pause;
  pause.kind = SteeringCommand::Kind::kPause;
  pause.auto_resume_after = WallSeconds(-5.0);
  EXPECT_THROW(plane.send_command(pause), std::invalid_argument);

  EXPECT_THROW(
      plane.send_command(
          SteeringCommand{.kind = SteeringCommand::Kind::kResume},
          WallSeconds(-1.0)),
      std::invalid_argument);

  // Nothing was queued by the rejected sends.
  queue.run_all();
  EXPECT_EQ(plane.events_sent(), 0);
  EXPECT_EQ(delivered, 0);
}

// --- Control-plane event stream: validation and the JSONL codec ---

TEST(ControlPlaneEvents, PayloadValidationMatchesType) {
  SteeringEvent e;
  e.wall = WallSeconds(-1.0);
  EXPECT_THROW(validate(e), std::invalid_argument);
  e.wall = WallSeconds(0.0);
  EXPECT_NO_THROW(validate(e));  // default pause command is fine

  SteeringEvent view;
  view.type = SteeringEvent::Type::kView;
  view.view.zoom = 0.0;
  EXPECT_THROW(validate(view), std::invalid_argument);
  view.view.zoom = 2.0;
  view.view.center_lat = 91.0;
  EXPECT_THROW(validate(view), std::invalid_argument);
  view.view.center_lat = 21.0;
  view.view.center_lon = -181.0;
  EXPECT_THROW(validate(view), std::invalid_argument);
  view.view.center_lon = 89.0;
  view.view.field.clear();
  EXPECT_THROW(validate(view), std::invalid_argument);
  view.view.field = "pressure";
  EXPECT_NO_THROW(validate(view));

  SteeringEvent proposal;
  proposal.type = SteeringEvent::Type::kProposal;
  proposal.proposal.resolution_floor_km = -3.0;
  EXPECT_THROW(validate(proposal), std::invalid_argument);
  proposal.proposal.resolution_floor_km = 12.0;
  proposal.proposal.max_output_interval = SimSeconds(-1.0);
  EXPECT_THROW(validate(proposal), std::invalid_argument);

  SteeringEvent attach;
  attach.type = SteeringEvent::Type::kAttach;
  attach.attach.mode = "push";
  EXPECT_THROW(validate(attach), std::invalid_argument);
  attach.attach.mode = "catch-up";
  attach.attach.downlink_mbps = 0.0;
  EXPECT_THROW(validate(attach), std::invalid_argument);
  attach.attach.downlink_mbps = 56.0;
  EXPECT_THROW(validate(attach), std::invalid_argument);  // no client name
  attach.client = "scientist";
  EXPECT_NO_THROW(validate(attach));

  SteeringEvent detach;
  detach.type = SteeringEvent::Type::kDetach;
  EXPECT_THROW(validate(detach), std::invalid_argument);  // no client name
  detach.client = "scientist";
  EXPECT_NO_THROW(validate(detach));
}

TEST(ControlPlaneEvents, TypeNamesRoundTrip) {
  for (const auto type :
       {SteeringEvent::Type::kCommand, SteeringEvent::Type::kView,
        SteeringEvent::Type::kProposal, SteeringEvent::Type::kAttach,
        SteeringEvent::Type::kDetach}) {
    EXPECT_EQ(steering_event_type_from(to_string(type)), type);
  }
  EXPECT_THROW(steering_event_type_from("telemetry"), std::runtime_error);
}

// The codec round-trips exactly: hexfloat doubles survive bit for bit and
// percent-encoded strings survive arbitrary bytes.
TEST(ControlPlaneCodec, JsonlRoundTripIsExact) {
  std::vector<SteeringEvent> events;

  SteeringEvent cmd;
  cmd.wall = WallSeconds(0.1);  // not exactly representable: hexfloat must
  cmd.client = "viewer 007, \"the\nsteerer\"";
  cmd.type = SteeringEvent::Type::kCommand;
  cmd.command.kind = SteeringCommand::Kind::kSetOutputBounds;
  cmd.command.bounds.min_output_interval = SimSeconds(180.0 + 1e-9);
  cmd.command.bounds.max_output_interval = SimSeconds(1500.0);
  cmd.command.reason = "storm near landfall: 100%/~{}[]";
  events.push_back(cmd);

  SteeringEvent view;
  view.wall = WallSeconds(7200.0);
  view.client = "scientist";
  view.type = SteeringEvent::Type::kView;
  view.view = ViewCommand{.field = "wind-speed",
                          .colormap = "viridis",
                          .zoom = 2.5,
                          .center_lat = 21.625,
                          .center_lon = 89.0 + 1.0 / 3.0};
  events.push_back(view);

  SteeringEvent proposal;
  proposal.wall = WallSeconds(4.9406564584124654e-324);  // denormal min
  proposal.type = SteeringEvent::Type::kProposal;
  proposal.proposal.max_output_interval = SimSeconds(360.0);
  proposal.proposal.resolution_floor_km = 12.000000000000002;
  proposal.proposal.reason = "budget";
  events.push_back(proposal);

  SteeringEvent attach;
  attach.wall = WallSeconds(1.0e17);
  attach.client = "straggler";
  attach.type = SteeringEvent::Type::kAttach;
  attach.attach = ObserverSpec{.mode = "catch-up",
                               .downlink_mbps = 0.056,
                               .catchup_start_hours = 1.0 / 7.0};
  events.push_back(attach);

  SteeringEvent detach;
  detach.wall = WallSeconds(86400.0);
  detach.client = "straggler";
  detach.type = SteeringEvent::Type::kDetach;
  events.push_back(detach);

  for (const SteeringEvent& e : events) {
    const std::string line = to_jsonl(e);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const SteeringEvent back = steering_event_from_jsonl(line);
    EXPECT_EQ(back.wall.seconds(), e.wall.seconds());  // exact, not near
    EXPECT_EQ(back.client, e.client);
    EXPECT_EQ(back.type, e.type);
    // Re-encoding is the full-fidelity equality check: every payload field
    // participates in the line.
    EXPECT_EQ(to_jsonl(back), line);
  }

  const SteeringEvent v = steering_event_from_jsonl(to_jsonl(view));
  EXPECT_EQ(v.view.field, "wind-speed");
  EXPECT_EQ(v.view.zoom, 2.5);
  EXPECT_EQ(v.view.center_lon, 89.0 + 1.0 / 3.0);
}

TEST(ControlPlaneCodec, MalformedLinesAreRejected) {
  const std::string good = to_jsonl(SteeringEvent{});
  EXPECT_NO_THROW(steering_event_from_jsonl(good));
  EXPECT_THROW(steering_event_from_jsonl(""), std::runtime_error);
  EXPECT_THROW(steering_event_from_jsonl("{"), std::runtime_error);
  EXPECT_THROW(steering_event_from_jsonl("{}"), std::runtime_error);
  EXPECT_THROW(
      steering_event_from_jsonl(
          R"({"wall":"0x0p+0","client":"","type":"command","kind":"pause",)"
          R"("bounds_min_s":"0x0p+0","bounds_max_s":"0x0p+0",)"
          R"("floor_km":"0x0p+0","nest_deg":"0x0p+0",)"
          R"("auto_resume_s":"0x0p+0","reason":"","surprise":"1"})"),
      std::runtime_error);  // unknown key
  EXPECT_THROW(
      steering_event_from_jsonl(R"({"wall":"0x0p+0","type":"warp"})"),
      std::runtime_error);  // unknown type
  EXPECT_THROW(
      steering_event_from_jsonl(R"({"wall":"fast","type":"detach"})"),
      std::runtime_error);  // unparseable double
}

TEST(ControlPlaneCodec, SaveLoadRoundTripAndBlankLines) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "adaptviz_steering_codec";
  fs::create_directories(dir);
  const std::string path = (dir / "log.jsonl").string();

  std::vector<SteeringEvent> events(3);
  events[0].wall = WallSeconds(1.5);
  events[1].wall = WallSeconds(2.5);
  events[1].type = SteeringEvent::Type::kView;
  events[1].client = "a";
  events[2].wall = WallSeconds(3.5);
  events[2].type = SteeringEvent::Type::kDetach;
  events[2].client = "a";
  save_steering_log(path, events);

  // Hand-edited logs may carry blank separator lines: skipped on load.
  {
    std::ofstream out(path, std::ios::app);
    out << "\n\n";
  }
  const std::vector<SteeringEvent> back = load_steering_log(path);
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(to_jsonl(back[i]), to_jsonl(events[i]));
  }
  EXPECT_THROW(load_steering_log((dir / "missing.jsonl").string()),
               std::runtime_error);
  fs::remove_all(dir);
}

// --- LocalControlPlane mechanics ---

TEST(ControlPlaneLocal, DeliversInOrderAndCounts) {
  EventQueue queue;
  std::vector<std::pair<double, SteeringEvent::Type>> applied;
  LocalControlPlane plane(queue, WallSeconds(2.0),
                          [&applied, &queue](const SteeringEvent& e) {
                            applied.push_back({queue.now().seconds(), e.type});
                          });
  const ControlPlane::RunId run = plane.register_run("run-a");
  EXPECT_THROW(plane.register_run("run-b"), std::invalid_argument);

  const ClientId c = plane.attach(run, "scientist", ObserverSpec{});
  EXPECT_TRUE(c.valid());
  SteeringEvent view;
  view.type = SteeringEvent::Type::kView;
  view.client = "scientist";
  view.view.zoom = 2.0;
  plane.steer(run, view);
  plane.detach(run, c);
  EXPECT_THROW(plane.detach(run, ClientId{99}), std::invalid_argument);
  queue.run_all();

  ASSERT_EQ(applied.size(), 3u);
  EXPECT_EQ(applied[0].second, SteeringEvent::Type::kAttach);
  EXPECT_EQ(applied[1].second, SteeringEvent::Type::kView);
  EXPECT_EQ(applied[2].second, SteeringEvent::Type::kDetach);
  for (const auto& [at, type] : applied) EXPECT_DOUBLE_EQ(at, 2.0);
  EXPECT_EQ(plane.events_sent(), 3);
  EXPECT_EQ(plane.events_applied(), 3);
  EXPECT_TRUE(plane.drain(run, WallSeconds(10.0)).empty());
}

TEST(ControlPlaneLocal, ReplayAppliesAtExactlyTheLoggedWall) {
  EventQueue queue;
  std::vector<double> at;
  LocalControlPlane plane(queue, WallSeconds(2.0),
                          [&at, &queue](const SteeringEvent& e) {
                            at.push_back(queue.now().seconds());
                            EXPECT_EQ(e.wall.seconds(), queue.now().seconds());
                          });
  SteeringEvent e;
  e.wall = WallSeconds(7.25);
  plane.schedule_replay(e);  // no channel latency added: 7.25, not 9.25
  queue.run_all();
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], 7.25);
}

TEST(SteeringCommandKind, Names) {
  EXPECT_STREQ(to_string(SteeringCommand::Kind::kPause), "pause");
  EXPECT_STREQ(to_string(SteeringCommand::Kind::kResume), "resume");
  EXPECT_STREQ(to_string(SteeringCommand::Kind::kSetOutputBounds),
               "set-output-bounds");
  EXPECT_STREQ(to_string(SteeringCommand::Kind::kSetResolutionFloor),
               "set-resolution-floor");
  EXPECT_STREQ(to_string(SteeringCommand::Kind::kSetNestExtent),
               "set-nest-extent");
}

// --- End-to-end through the framework ---

ExperimentConfig steer_config() {
  ExperimentConfig cfg;
  cfg.name = "steering-test";
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
  return cfg;
}

TEST(SteeringEndToEnd, TightenOutputBoundsProducesMoreFrames) {
  // Baseline: default bounds.
  const ExperimentResult base = run_experiment(steer_config());

  // Steered: once the storm is seen below 995 hPa, require frames at least
  // every 6 simulated minutes.
  ExperimentConfig cfg = steer_config();
  bool requested = false;
  cfg.steering.policy =
      [&requested](const SteeringObservation& obs)
      -> std::optional<SteeringCommand> {
    if (!requested && obs.min_pressure_hpa < 995.0) {
      requested = true;
      SteeringCommand c;
      c.kind = SteeringCommand::Kind::kSetOutputBounds;
      c.bounds.min_output_interval = SimSeconds::minutes(3.0);
      c.bounds.max_output_interval = SimSeconds::minutes(6.0);
      c.reason = "storm intensifying: need dense frames";
      return c;
    }
    return std::nullopt;
  };
  const ExperimentResult steered = run_experiment(cfg);

  ASSERT_FALSE(steered.steering.empty());
  EXPECT_EQ(steered.steering[0].command.kind,
            SteeringCommand::Kind::kSetOutputBounds);
  EXPECT_GT(steered.summary.frames_written, base.summary.frames_written);
}

TEST(SteeringEndToEnd, ResolutionFloorStopsTheLadder) {
  ExperimentConfig cfg = steer_config();
  bool sent = false;
  cfg.steering.policy = [&sent](const SteeringObservation& obs)
      -> std::optional<SteeringCommand> {
    if (!sent && obs.sequence == 0) {
      sent = true;
      SteeringCommand c;
      c.kind = SteeringCommand::Kind::kSetResolutionFloor;
      c.resolution_floor_km = 18.0;
      c.reason = "budget guard";
      return c;
    }
    return std::nullopt;
  };
  const ExperimentResult r = run_experiment(cfg);
  ASSERT_FALSE(r.steering.empty());
  double finest = 1e9;
  for (const auto& s : r.samples) finest = std::min(finest, s.resolution_km);
  EXPECT_GE(finest, 18.0 - 1e-9);
}

TEST(SteeringEndToEnd, PauseWithAutoResumeHoldsTheSimulation) {
  ExperimentConfig cfg = steer_config();
  int frames_seen = 0;
  cfg.steering.policy = [&frames_seen](const SteeringObservation&)
      -> std::optional<SteeringCommand> {
    if (++frames_seen == 3) {
      // A paused simulation emits no frames, so the policy schedules its
      // own wake-up: inspect for two (virtual) hours, then continue.
      return SteeringCommand{
          .kind = SteeringCommand::Kind::kPause,
          .auto_resume_after = WallSeconds::hours(2.0),
          .reason = "inspecting the genesis frames",
      };
    }
    return std::nullopt;
  };
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_TRUE(r.summary.completed);
  // The hold shows up as ~2 h of stall.
  EXPECT_GT(r.summary.total_stall_time.as_hours(), 1.5);
  EXPECT_LT(r.summary.total_stall_time.as_hours(), 3.0);
  bool saw_paused_sample = false;
  for (const auto& s : r.samples) saw_paused_sample |= s.paused;
  EXPECT_TRUE(saw_paused_sample);
}

TEST(SteeringEndToEnd, NestExtentChangeRestarts) {
  ExperimentConfig cfg = steer_config();
  bool sent = false;
  cfg.steering.policy = [&sent](const SteeringObservation& obs)
      -> std::optional<SteeringCommand> {
    if (!sent && obs.nest_active) {
      sent = true;
      SteeringCommand c;
      c.kind = SteeringCommand::Kind::kSetNestExtent;
      c.nest_extent_deg = 12.0;
      c.reason = "wider context around the eye";
      return c;
    }
    return std::nullopt;
  };
  const ExperimentResult r = run_experiment(cfg);
  ASSERT_FALSE(r.steering.empty());
  EXPECT_TRUE(r.summary.completed);
  // The extent change adds one restart beyond the ladder's.
  EXPECT_GE(r.summary.restarts, 2);
}

// --- Record / replay determinism through the full framework ---

// Exact-byte views of a result (the test_campaign.cpp pattern): identity
// is asserted on serialized artifacts, not approximate summaries.
std::string telemetry_csv(const ExperimentResult& r) {
  CsvTable table(telemetry_columns());
  for (const TelemetrySample& s : r.samples) {
    table.add_row(telemetry_row(s, CalendarEpoch::aila_start()));
  }
  return table.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(SteeringReplay, RecordedLogReplaysBitwiseIdentical) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "adaptviz_steering_replay";
  fs::create_directories(dir);
  const std::string recorded = (dir / "live.jsonl").string();
  const std::string rerecorded = (dir / "replayed.jsonl").string();

  // Live leg: an in-run policy steers; the applied stream is recorded.
  ExperimentConfig live = steer_config();
  live.steering.record_log_path = recorded;
  bool requested = false;
  live.steering.policy =
      [&requested](const SteeringObservation& obs)
      -> std::optional<SteeringCommand> {
    if (!requested && obs.min_pressure_hpa < 995.0) {
      requested = true;
      SteeringCommand c;
      c.kind = SteeringCommand::Kind::kSetOutputBounds;
      c.bounds.min_output_interval = SimSeconds::minutes(3.0);
      c.bounds.max_output_interval = SimSeconds::minutes(6.0);
      c.reason = "storm intensifying";
      return c;
    }
    return std::nullopt;
  };
  const ExperimentResult first = run_experiment(live);
  ASSERT_FALSE(first.steering.empty());
  ASSERT_GT(first.summary.steering_events, 0);

  // Replay leg: no policy — the log carries what the policy decided — and
  // the replayed run re-records its own applied stream.
  ExperimentConfig replay = steer_config();
  replay.steering.replay_log_path = recorded;
  replay.steering.record_log_path = rerecorded;
  const ExperimentResult second = run_experiment(replay);

  EXPECT_EQ(telemetry_csv(first), telemetry_csv(second));
  EXPECT_EQ(first.summary.steering_events, second.summary.steering_events);
  EXPECT_EQ(first.summary.frames_written, second.summary.frames_written);
  // The re-recorded log is byte-identical: apply walls are reproduced
  // exactly, so a replay of the replay would be too.
  EXPECT_EQ(read_file(recorded), read_file(rerecorded));

  // Configuring both a policy and a replay double-steers: rejected.
  ExperimentConfig both = steer_config();
  both.steering.policy = live.steering.policy;
  both.steering.replay_log_path = recorded;
  EXPECT_THROW(run_experiment(both), std::invalid_argument);
  fs::remove_all(dir);
}

TEST(SteeringReplay, ScriptedAttachDetachMidRun) {
  ExperimentConfig cfg = steer_config();
  cfg.name = "scripted-session";

  SteeringEvent attach;
  attach.wall = WallSeconds::hours(0.5);
  attach.client = "scientist";
  attach.type = SteeringEvent::Type::kAttach;
  attach.attach = ObserverSpec{.mode = "live-tail", .downlink_mbps = 50.0};
  cfg.steering.replay.push_back(attach);

  SteeringEvent view;
  view.wall = WallSeconds::hours(1.5);
  view.client = "scientist";
  view.type = SteeringEvent::Type::kView;
  view.view = ViewCommand{.field = "pressure",
                          .colormap = "viridis",
                          .zoom = 2.0,
                          .center_lat = 21.0,
                          .center_lon = 89.0};
  cfg.steering.replay.push_back(view);

  SteeringEvent pause;
  pause.wall = WallSeconds::hours(2.0);
  pause.client = "scientist";
  pause.type = SteeringEvent::Type::kCommand;
  pause.command.kind = SteeringCommand::Kind::kPause;
  pause.command.auto_resume_after = WallSeconds::hours(2.0);
  pause.command.reason = "inspecting";
  cfg.steering.replay.push_back(pause);

  // After the 2 h auto-resume the unsteered ~3.9 h run stretches past
  // ~5.9 h; the detach at 5 h is still mid-run.
  SteeringEvent detach;
  detach.wall = WallSeconds::hours(5.0);
  detach.client = "scientist";
  detach.type = SteeringEvent::Type::kDetach;
  cfg.steering.replay.push_back(detach);

  const ExperimentResult r = run_experiment(cfg);
  EXPECT_TRUE(r.summary.completed);
  EXPECT_EQ(r.summary.steering_events, 4);
  EXPECT_EQ(r.summary.observers_peak, 1);

  // The observer existed and received frames between attach and detach.
  ASSERT_EQ(r.clients.size(), 1u);
  EXPECT_EQ(r.clients[0].name, "scientist");
  EXPECT_GT(r.clients[0].stats.frames_delivered, 0);

  // The view change re-rendered the scientist's current frame.
  EXPECT_GE(r.summary.steer_renders, 1);

  // The pause held the simulation ~2 h (auto-resume).
  EXPECT_GT(r.summary.total_stall_time.as_hours(), 1.5);
  EXPECT_LT(r.summary.total_stall_time.as_hours(), 3.0);

  // Pause commands also land in the legacy command log.
  ASSERT_EQ(r.steering.size(), 1u);
  EXPECT_EQ(r.steering[0].command.kind, SteeringCommand::Kind::kPause);
}

// An attached observer's knob proposal is the third decision input: the
// strictest proposal tightens the bounds the algorithms work within.
TEST(SteeringReplay, ObserverProposalTightensDecisions) {
  const ExperimentResult base = run_experiment(steer_config());

  ExperimentConfig cfg = steer_config();
  SteeringEvent attach;
  attach.wall = WallSeconds::hours(1.0);
  attach.client = "forecaster";
  attach.type = SteeringEvent::Type::kAttach;
  cfg.steering.replay.push_back(attach);

  SteeringEvent proposal;
  proposal.wall = WallSeconds::hours(1.5);
  proposal.client = "forecaster";
  proposal.type = SteeringEvent::Type::kProposal;
  proposal.proposal.max_output_interval = SimSeconds::minutes(6.0);
  proposal.proposal.reason = "need dense frames for the landfall brief";
  cfg.steering.replay.push_back(proposal);

  const ExperimentResult r = run_experiment(cfg);
  EXPECT_TRUE(r.summary.completed);
  EXPECT_GT(r.summary.frames_written, base.summary.frames_written);
}

}  // namespace
}  // namespace adaptviz

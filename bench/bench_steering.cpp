// Live-steering control-plane bench: record → replay determinism gate.
//
// Leg 1 (record) runs the inter-department Aila configuration under a
// scripted interactive session — an observer attaches mid-run, steers the
// view twice (the second client's identical view exercises the dedup
// path), proposes a knob, pauses/auto-resumes the simulation and detaches
// — and records the applied event stream to steering_log.jsonl.
//
// Leg 2 (replay) runs the same configuration with *only* the recorded log
// as input. The bench *fails* (exit 1) unless
//  (a) both legs complete,
//  (b) the FNV-1a digest over the replay's telemetry CSV bytes and
//      per-client delivery series equals the record leg's digest (the
//      bitwise-reproducibility gate the paper's "online remote
//      visualization" workflow depends on),
//  (c) the re-recorded log of the replay leg is byte-identical to the
//      original (a replay of the replay would also be exact), and
//  (d) the scripted same-view steers were deduplicated onto one render
//      (steer_dedup >= 1).
//
// Reports events applied, steer re-renders/dedups, observer peak and both
// legs' wall time; writes BENCH_steering.json and leaves
// steering_log.jsonl in the working directory for CI artifact upload.
// --quick shrinks the simulated window (the ctest smoke).
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "core/telemetry.hpp"
#include "experiment_common.hpp"
#include "steering/control_plane.hpp"
#include "util/logging.hpp"

using namespace adaptviz;
using namespace adaptviz::bench;

namespace {

// FNV-1a over raw bytes: the gate must capture exact bit patterns.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void str(const std::string& s) { bytes(s.data(), s.size()); }
  void f64(double v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
};

std::uint64_t digest_result(const ExperimentResult& r) {
  Digest d;
  CsvTable table(telemetry_columns());
  for (const TelemetrySample& s : r.samples) {
    table.add_row(telemetry_row(s, CalendarEpoch::aila_start()));
  }
  d.str(table.str());
  for (const ClientSeries& c : r.clients) {
    d.str(c.name);
    for (const DeliveryRecord& rec : c.records) {
      d.i64(rec.sequence);
      d.f64(rec.wall_time.seconds());
      d.f64(rec.sim_time.seconds());
      d.i64(rec.cache_hit ? 1 : 0);
    }
  }
  return d.h;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return {};
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

ExperimentConfig steered_config(bool quick) {
  ExperimentConfig cfg = standard_config(
      "inter-department", table4_sites()[0].second,
      AlgorithmKind::kOptimization);
  cfg.name = "steered";
  if (quick) {
    cfg.sim_window = SimSeconds::hours(24.0);
    cfg.max_wall = WallSeconds::hours(48.0);
  }
  cfg.log.set_level(LogLevel::kError);
  return cfg;
}

/// The scripted interactive session: two observers, a shared view change
/// (dedup), a knob proposal and a pause, all at fixed virtual walls well
/// inside the run.
std::vector<SteeringEvent> scripted_session() {
  std::vector<SteeringEvent> events;
  auto attach = [&events](double wall_h, const std::string& who) {
    SteeringEvent e;
    e.wall = WallSeconds::hours(wall_h);
    e.client = who;
    e.type = SteeringEvent::Type::kAttach;
    e.attach = ObserverSpec{.mode = "live-tail", .downlink_mbps = 50.0};
    events.push_back(e);
  };
  auto view = [&events](double wall_h, const std::string& who) {
    SteeringEvent e;
    e.wall = WallSeconds::hours(wall_h);
    e.client = who;
    e.type = SteeringEvent::Type::kView;
    e.view = ViewCommand{.field = "pressure",
                         .colormap = "viridis",
                         .zoom = 2.0,
                         .center_lat = 21.5,
                         .center_lon = 89.0};
    events.push_back(e);
  };
  // Walls sit well inside even the --quick run: unsteered, the quick
  // simulation finishes its window at ~2.1 h wall (the remaining ~4.5 h is
  // transfer drain), so the pause lands at 1.0 h while the simulation is
  // demonstrably still stepping and stretches it by its full hour.
  attach(0.5, "forecaster");
  attach(0.5, "modeler");
  {
    SteeringEvent e;
    e.wall = WallSeconds::hours(1.0);
    e.client = "modeler";
    e.type = SteeringEvent::Type::kCommand;
    e.command.kind = SteeringCommand::Kind::kPause;
    e.command.auto_resume_after = WallSeconds::hours(1.0);
    e.command.reason = "inspecting the genesis frames";
    events.push_back(e);
  }
  // Same frame, same view, same instant: the second must dedup onto the
  // first's render.
  view(1.5, "forecaster");
  view(1.5, "modeler");
  {
    SteeringEvent e;
    e.wall = WallSeconds::hours(2.0);
    e.client = "forecaster";
    e.type = SteeringEvent::Type::kProposal;
    e.proposal.max_output_interval = SimSeconds::minutes(10.0);
    e.proposal.reason = "landfall brief needs denser frames";
    events.push_back(e);
  }
  {
    SteeringEvent e;
    e.wall = WallSeconds::hours(4.2);
    e.client = "modeler";
    e.type = SteeringEvent::Type::kDetach;
    events.push_back(e);
  }
  return events;
}

}  // namespace

int main(int argc, char** argv) {
  const benchio::BenchArgs args = benchio::parse_bench_args(argc, argv);
  set_log_level(LogLevel::kError);
  const std::string log_path = "steering_log.jsonl";
  const std::string relog_path = "replayed_steering_log.jsonl";

  std::printf("== Live steering: record -> replay determinism ==\n");

  // Leg 1: the scripted live session, recorded.
  ExperimentConfig record_cfg = steered_config(args.quick);
  record_cfg.steering.replay = scripted_session();
  record_cfg.steering.record_log_path = log_path;
  const ExperimentResult live = run_experiment(record_cfg);
  const std::uint64_t live_digest = digest_result(live);
  std::printf(
      "record: completed=%s wall=%.1fh events=%lld renders=%lld "
      "dedup=%lld observers_peak=%d digest=%016llx\n",
      live.summary.completed ? "yes" : "NO",
      live.summary.wall_elapsed.as_hours(),
      static_cast<long long>(live.summary.steering_events),
      static_cast<long long>(live.summary.steer_renders),
      static_cast<long long>(live.summary.steer_dedup),
      live.summary.observers_peak,
      static_cast<unsigned long long>(live_digest));

  // Leg 2: the recorded log is the only steering input.
  ExperimentConfig replay_cfg = steered_config(args.quick);
  replay_cfg.steering.replay = load_steering_log(log_path);
  replay_cfg.steering.record_log_path = relog_path;
  const ExperimentResult replayed = run_experiment(replay_cfg);
  const std::uint64_t replay_digest = digest_result(replayed);
  std::printf("replay: completed=%s wall=%.1fh events=%lld digest=%016llx\n",
              replayed.summary.completed ? "yes" : "NO",
              replayed.summary.wall_elapsed.as_hours(),
              static_cast<long long>(replayed.summary.steering_events),
              static_cast<unsigned long long>(replay_digest));

  bool ok = true;
  auto gate = [&ok](bool pass, const char* what) {
    std::printf("  [%s] %s\n", pass ? "ok" : "FAIL", what);
    ok = ok && pass;
  };
  gate(live.summary.completed && replayed.summary.completed,
       "both legs completed");
  gate(live_digest == replay_digest,
       "replay telemetry+delivery digest matches the recorded run");
  const std::string original = read_file(log_path);
  gate(!original.empty() && original == read_file(relog_path),
       "re-recorded steering_log.jsonl is byte-identical");
  gate(live.summary.steer_dedup >= 1,
       "identical same-frame views were deduplicated onto one render");
  gate(live.summary.steering_events ==
           static_cast<std::int64_t>(scripted_session().size()),
       "every scripted event was applied");
  gate(live.summary.observers_peak == 2, "both observers were attached");
  gate(live.summary.total_stall_time.as_hours() > 0.5,
       "the scripted pause held the simulation");

  benchio::BenchReport report;
  const std::string scenario = args.quick ? "quick" : "full";
  report.add("steering", scenario, "events_applied",
             static_cast<double>(live.summary.steering_events), "count");
  report.add("steering", scenario, "steer_renders",
             static_cast<double>(live.summary.steer_renders), "count");
  report.add("steering", scenario, "steer_dedup",
             static_cast<double>(live.summary.steer_dedup), "count");
  report.add("steering", scenario, "observers_peak",
             static_cast<double>(live.summary.observers_peak), "count");
  report.add("steering", scenario, "record_wall_hours",
             live.summary.wall_elapsed.as_hours(), "h");
  report.add("steering", scenario, "replay_wall_hours",
             replayed.summary.wall_elapsed.as_hours(), "h");
  report.add("steering", scenario, "replay_digest_match",
             live_digest == replay_digest ? 1.0 : 0.0, "flag");
  report.add("steering", scenario, "log_byte_identical",
             original == read_file(relog_path) ? 1.0 : 0.0, "flag");
  const std::string json =
      args.json_path.empty() ? "BENCH_steering.json" : args.json_path;
  report.save(json);
  std::printf("report written to %s; event log in %s\n", json.c_str(),
              log_path.c_str());

  if (!ok) {
    std::printf("bench_steering: FAILED\n");
    return 1;
  }
  std::printf("bench_steering: all gates passed\n");
  return 0;
}

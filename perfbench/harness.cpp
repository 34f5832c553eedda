// perfbench_harness — runs one benchmark workload through adaptviz's public
// API and prints its metrics as one JSON line (see perfbench/README.md).
//
//   perfbench_harness --workload <name> --input <generated.ini> --out <dir>
//                     --seconds <n> --trace <0|1> [--golden <hex>]
//
// --trace 0 repeats the workload's operation until --seconds are used and
// reports the end-to-end metrics; --trace 1 runs it once untraced and once
// traced (stepwise drive plus per-layer replay, trace.hpp) and reports the
// per-layer metrics. Every operation's outputs are digested (FNV-1a); a
// digest that differs from --golden, from another operation of the same
// run, or from the traced run counts as a failed operation.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/scenario.hpp"
#include "explore/explorer.hpp"
#include "trace.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;
using namespace adaptviz;
using perfbench::Clock;
using perfbench::seconds_since;

namespace {

// ---------------------------------------------------------------- helpers

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// FNV-1a over every regular file under `dir`, in name order, each as
/// its relative name, a NUL, then its bytes.
std::string digest_dir(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto feed = [&h](const char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ static_cast<unsigned char>(p[i])) * 0x100000001b3ULL;
    }
  };
  for (const fs::path& f : files) {
    const std::string rel = fs::relative(f, dir).generic_string();
    feed(rel.c_str(), rel.size() + 1);
    std::ifstream in(f, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    feed(bytes.data(), bytes.size());
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

double dir_bytes(const fs::path& dir) {
  double n = 0.0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) n += static_cast<double>(e.file_size());
  }
  return n;
}

void fresh_dir(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

/// Resets the kernel's peak-RSS mark for this process (clear_refs "5").
/// Where the kernel refuses, VmHWM stays the process's peak so far.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ------------------------------------------------------------- workloads

enum class Kind { kSingle, kCampaign, kExplore };

struct Workload {
  Kind kind;
  const char* name;
};

const Workload kWorkloads[] = {
    {Kind::kSingle, "aila-opt"},
    {Kind::kSingle, "aila-greedy-codec"},
    {Kind::kCampaign, "paper-suite"},
    {Kind::kExplore, "explore-smoke"},
};

/// One operation's outcome: a run, a whole campaign, or a whole search.
struct OpResult {
  double wall_s = 0.0;
  double sim_h = 0.0;
  std::string digest;
  int attempted = 1;  // runs, campaign cells or searches
  int failed = 0;
  std::vector<std::string> problems;
  // Campaign only: each cell's completion instant (s after start), in grid
  // order, and the concurrency.
  std::vector<double> finish_s;
  int concurrency = 1;
  ExploreReport report;
};

/// Campaign-cell configs get the runner's per-run log level, exactly as
/// execute_campaign_run() applies it.
ExperimentConfig as_campaign_cell(ExperimentConfig cfg) {
  if (!cfg.log.has_level) cfg.log.set_level(LogLevel::kError);
  return cfg;
}

OpResult run_single(const std::string& input, const fs::path& out) {
  OpResult r;
  const auto t0 = Clock::now();
  const ExperimentResult result = run_experiment(load_scenario(input));
  write_result(result, out.string());
  r.wall_s = seconds_since(t0);
  r.sim_h = result.summary.sim_reached.as_hours();
  return r;
}

OpResult run_campaign(const std::string& input, const fs::path& out) {
  OpResult r;
  std::map<std::string, double> finish_by_label;
  const auto t0 = Clock::now();
  const CampaignSpec spec = load_campaign(input);
  CampaignOptions opts;
  opts.concurrency = spec.concurrency;
  opts.output_dir = out.string();
  opts.on_progress = [&](const CampaignProgress& p) {
    finish_by_label[p.record->label] = seconds_since(t0);
  };
  const std::vector<CampaignRunRecord> records = CampaignRunner(opts).run(spec);
  r.wall_s = seconds_since(t0);
  r.concurrency = spec.concurrency;
  const std::size_t cells = spec.expand().size();
  r.attempted = static_cast<int>(cells);
  for (const CampaignRunRecord& rec : records) {
    const auto it = finish_by_label.find(rec.label);
    r.finish_s.push_back(it != finish_by_label.end() ? it->second : r.wall_s);
    r.sim_h += rec.summary.sim_reached.as_hours();
    if (rec.failed) {
      ++r.failed;
      r.problems.push_back(rec.label + " threw: " + rec.error);
    }
  }
  std::ifstream summary(out / "campaign_summary.csv");
  std::size_t lines = 0;
  for (std::string line; std::getline(summary, line);) ++lines;
  if (records.size() != cells || lines != cells + 1) {
    r.failed = r.attempted;
    r.problems.push_back("campaign_summary.csv rows do not match the cells");
  }
  return r;
}

OpResult run_explore(const std::string& input, const fs::path& out) {
  OpResult r;
  const auto t0 = Clock::now();
  const IniDocument doc = IniDocument::load(input);
  ExperimentConfig cfg = scenario_from_ini(doc);
  const std::string name = cfg.name;
  ScenarioExplorer explorer(std::move(cfg), explore_spec_from_ini(doc));
  r.report = explorer.explore();
  std::ofstream(out / (name + "_explore.txt")) << to_string(r.report);
  r.wall_s = seconds_since(t0);
  const bool stall = std::any_of(
      r.report.violations.begin(), r.report.violations.end(),
      [](const Violation& v) { return v.invariant == "greedy-stall"; });
  if (!stall) {
    r.failed = 1;
    r.problems.push_back("explorer did not find the seeded greedy stall");
  }
  return r;
}

OpResult run_op(Kind kind, const std::string& input, const fs::path& out) {
  fresh_dir(out);
  OpResult r;
  try {
    switch (kind) {
      case Kind::kSingle:
        r = run_single(input, out);
        break;
      case Kind::kCampaign:
        r = run_campaign(input, out);
        break;
      case Kind::kExplore:
        r = run_explore(input, out);
        break;
    }
    r.digest = digest_dir(out);
  } catch (const std::exception& e) {
    r.failed = r.attempted;
    r.problems.push_back(std::string("threw: ") + e.what());
  }
  return r;
}

/// Generated config to the first event: parse, framework construction
/// (machine profiling, analysis generation, preprocessing) and start_run();
/// for a campaign also grid expansion and its worker pool, for a search
/// also the explorer's validation.
double setup_once(Kind kind, const std::string& input) {
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  switch (kind) {
    case Kind::kSingle: {
      AdaptiveFramework fw(load_scenario(input));
      fw.start_run();
      elapsed = seconds_since(t0);
      break;
    }
    case Kind::kCampaign: {
      const CampaignSpec spec = load_campaign(input);
      const std::vector<CampaignRun> cells = spec.expand();
      ThreadPool pool(spec.concurrency);
      AdaptiveFramework fw(as_campaign_cell(cells.front().config));
      fw.start_run();
      elapsed = seconds_since(t0);
      break;
    }
    case Kind::kExplore: {
      const IniDocument doc = IniDocument::load(input);
      const ExperimentConfig cfg = scenario_from_ini(doc);
      const ScenarioExplorer explorer(cfg, explore_spec_from_ini(doc));
      AdaptiveFramework fw(cfg);
      fw.start_run();
      elapsed = seconds_since(t0);
      break;
    }
  }
  return elapsed;
}

// ------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  std::string digest;  // the first operation's outputs

  void add(const OpResult& op) {
    attempted += op.attempted;
    failed += op.failed;
    problems.insert(problems.end(), op.problems.begin(), op.problems.end());
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Build and machine facts the numbers depend on, plus each resolution
/// rung's compute-grid sizes (they back the *_computed byte counts).
std::string environment_json(const std::string& input, std::uint64_t seed) {
  ExperimentConfig cfg;
  const IniDocument doc = IniDocument::load(input);
  if (is_campaign_ini(doc)) {
    cfg = campaign_from_ini(doc).base;
  } else {
    cfg = scenario_from_ini(doc);
  }
  const ModelConfig& m = cfg.model;
  std::ostringstream o;
  o << "{\"seed\": " << seed
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"l2_bytes\": " << sysconf(_SC_LEVEL2_CACHE_SIZE)
    << ", \"l3_bytes\": " << sysconf(_SC_LEVEL3_CACHE_SIZE)
    << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
    << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
    << ", \"compute_scale\": " << json_number(m.compute_scale)
    << ", \"rungs\": [";
  std::vector<double> resolutions{m.base_resolution_km};
  const ResolutionLadder ladder = ResolutionLadder::table3();
  for (const auto& rung : ladder.rungs()) {
    if (rung.resolution_km < resolutions.back()) {
      resolutions.push_back(rung.resolution_km);
    }
  }
  for (std::size_t i = 0; i < resolutions.size(); ++i) {
    const double res = resolutions[i] * m.compute_scale;
    const GridSpec parent(m.lon0, m.lat0, m.extent_lon_deg, m.extent_lat_deg,
                          res);
    const GridSpec nest(m.lon0, m.lat0, m.nest_extent_deg, m.nest_extent_deg,
                        res / kNestRatio);
    o << (i ? ", " : "") << "{\"resolution_km\": "
      << json_number(resolutions[i]) << ", \"parent\": [" << parent.nx()
      << ", " << parent.ny() << "], \"parent_array_bytes\": "
      << parent.point_count() * sizeof(double) << ", \"nest\": ["
      << nest.nx() << ", " << nest.ny() << "], \"nest_array_bytes\": "
      << nest.point_count() * sizeof(double) << "}";
  }
  o << "]}";
  return o.str();
}

void print_result(const Outcome& out) {
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", p.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.failed == 0 && out.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
            json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Checks one operation's digest against the golden and the run's first.
void check_digest(OpResult& op, const std::string& golden,
                  const std::string& reference, const char* what) {
  if (op.failed != 0) return;
  std::string problem;
  if (!golden.empty() && op.digest != golden) {
    problem = std::string(what) + " output digest " + op.digest +
              " differs from the golden " + golden;
  } else if (!reference.empty() && op.digest != reference) {
    problem = std::string(what) + " output digest " + op.digest +
              " differs from this run's " + reference;
  }
  if (!problem.empty()) {
    op.failed = op.attempted;
    op.problems.push_back(problem);
  }
}

// ---------------------------------------------------------- untraced runs

// Set-ups are sampled before every operation and once more at the end, so
// their median spans the whole run rather than one moment of machine noise.
constexpr int kSetupsPerSample = 20;

Outcome measure(const Workload& w, const std::string& input,
                const fs::path& out, double seconds,
                const std::string& golden) {
  Outcome res;
  std::vector<double> setups;
  auto sample_setups = [&] {
    for (int i = 0; i < kSetupsPerSample; ++i) {
      setups.push_back(setup_once(w.kind, input));
    }
  };

  // The explorer's report carries no stepping count; the mirrored walk
  // (deterministic for a seed) supplies the simulated hours it integrates.
  double explore_sim_h = 0.0;
  if (w.kind == Kind::kExplore) {
    const IniDocument doc = IniDocument::load(input);
    explore_sim_h = perfbench::mirror_walk(scenario_from_ini(doc),
                                           explore_spec_from_ini(doc))
                        .sim_h_stepped;
  }

  std::vector<double> walls, rates, rss;
  std::string reference;  // the first correct operation's digest
  const auto t_start = Clock::now();
  double last = 0.0;
  while (walls.empty() || seconds_since(t_start) + last <= seconds) {
    sample_setups();
    reset_peak_rss();
    OpResult op = run_op(w.kind, input, out);
    if (w.kind == Kind::kExplore) op.sim_h = explore_sim_h;
    if (walls.empty()) res.digest = op.digest;
    check_digest(op, golden, reference, w.name);
    if (reference.empty() && op.failed == 0) reference = op.digest;
    res.add(op);
    last = op.wall_s;
    walls.push_back(op.wall_s);
    rates.push_back(op.sim_h / op.wall_s);
    rss.push_back(peak_rss_mb());
  }
  sample_setups();
  res.metric("wall_s", median(walls), "s");
  res.metric("sim_h_per_s", median(rates), "sim_h/s");
  res.metric("setup_s", median(setups), "s");
  res.metric("peak_rss_mb", median(rss), "MB");
  std::fprintf(stderr, "perfbench: %s ran %zu operation(s), wall_s =",
               w.name, walls.size());
  for (double x : walls) std::fprintf(stderr, " %.3f", x);
  std::fprintf(stderr, "; setup_s min/median/max = %.6f/%.6f/%.6f\n",
               quantile(setups, 0.0), median(setups), quantile(setups, 1.0));
  return res;
}

// ------------------------------------------------------------ traced runs

/// What every traced workload reports, however it was driven.
struct TraceTotals {
  perfbench::LayerTimes layers;
  double traced_wall_s = 0.0;  // sum over driven runs
  double setup_s = 0.0;
  double loop_s = 0.0;
  double write_s = 0.0;
  double output_bytes = 0.0;
  double sim_h = 0.0;
  std::vector<double> event_s, snapshot_s, restore_s;
  std::uint64_t events = 0;

  void add(const perfbench::DriveResult& d) {
    traced_wall_s += d.wall_s;
    setup_s += d.setup_s;
    loop_s += d.loop_s;
    write_s += d.write_s;
    sim_h += d.summary.sim_reached.as_hours();
    event_s.insert(event_s.end(), d.event_s.begin(), d.event_s.end());
    snapshot_s.insert(snapshot_s.end(), d.snapshot_s.begin(),
                      d.snapshot_s.end());
    restore_s.insert(restore_s.end(), d.restore_s.begin(), d.restore_s.end());
    events += d.events_executed;
  }
};

/// Checks a driven run's counters against the summary it produced.
void check_counters(const perfbench::DriveResult& d, Outcome& res) {
  const auto& s = d.summary;
  const auto& sc = d.script;
  if (static_cast<std::size_t>(s.decision_count) != sc.decisions.size()) {
    res.problems.push_back(sc.config.name +
                           ": recorded decisions differ from the summary");
  }
  if (d.event_s.size() != d.events_executed) {
    res.problems.push_back(sc.config.name +
                           ": timed events differ from EventQueue::executed()");
  }
}

void replay_all(const std::vector<perfbench::DriveResult>& drives,
                int concurrency, TraceTotals& totals, Outcome& res) {
  std::vector<perfbench::LayerTimes> layers(drives.size());
  std::vector<std::vector<std::string>> mismatches(drives.size());
  auto one = [&](std::size_t i) {
    layers[i] = perfbench::replay(drives[i].script, mismatches[i]);
  };
  if (concurrency <= 1) {
    for (std::size_t i = 0; i < drives.size(); ++i) one(i);
  } else {
    ThreadPool pool(concurrency);
    std::vector<ThreadPool::TaskHandle> handles;
    for (std::size_t i = 0; i < drives.size(); ++i) {
      handles.push_back(pool.submit([&one, i] { one(i); }));
    }
    for (auto& h : handles) h.wait();
  }
  for (std::size_t i = 0; i < drives.size(); ++i) {
    totals.layers.merge(layers[i]);
    res.problems.insert(res.problems.end(), mismatches[i].begin(),
                        mismatches[i].end());
    const auto& codec_frames = layers[i].codec_frames;
    const auto& cfg = drives[i].script.config;
    if (cfg.codec.enabled && codec_frames < drives[i].summary.frames_written) {
      res.problems.push_back(cfg.name + ": fewer frames encoded than written");
    }
  }
}

void report_layers(const TraceTotals& t, Outcome& res) {
  const perfbench::LayerTimes& l = t.layers;
  auto rate = [](double work, double secs) {
    return secs > 0.0 ? work / secs : 0.0;
  };
  res.metric("weather.physics.forcing_s", l.forcing_s, "s");
  res.metric("weather.physics.forcing_calls",
             static_cast<double>(l.forcing_calls), "count");
  res.metric("weather.physics.mcells_per_s",
             rate(l.forcing_cells / 1e6, l.forcing_s), "Mcell/s");
  res.metric("weather.dynamics.step_s", l.dynamics_s, "s");
  res.metric("weather.dynamics.calls", static_cast<double>(l.dynamics_calls),
             "count");
  res.metric("weather.dynamics.mcells_per_s",
             rate(l.dynamics_cells / 1e6, l.dynamics_s), "Mcell/s");
  res.metric("weather.dynamics.gb_moved_computed", l.dynamics_bytes / 1e9,
             "GB");
  res.metric("weather.nest.boundary_s", l.boundary_s, "s");
  res.metric("weather.nest.feedback_s", l.feedback_s, "s");
  res.metric("weather.nest.recenter_s", l.recenter_s, "s");
  res.metric("weather.nest.substeps", static_cast<double>(l.nest_substeps),
             "count");
  res.metric("weather.tracker.update_s", l.tracker_s, "s");
  res.metric("weather.model.steps", static_cast<double>(l.step_s.size()),
             "count");
  res.metric("weather.model.step_ms_p50", 1e3 * median(l.step_s), "ms");
  res.metric("weather.model.step_ms_p99", 1e3 * quantile(l.step_s, 0.99),
             "ms");
  res.metric("weather.model.restarts", static_cast<double>(l.restarts),
             "count");
  res.metric("weather.model.restart_s", l.restart_s, "s");

  res.metric("dataio.codec.frames", static_cast<double>(l.codec_frames),
             "count");
  res.metric("dataio.codec.fields", static_cast<double>(l.codec_fields),
             "count");
  res.metric("dataio.codec.encode_mb_per_s",
             rate(l.codec_raw_bytes / 1e6, l.encode_s), "MB/s");
  res.metric("dataio.codec.decode_mb_per_s",
             rate(l.codec_raw_bytes / 1e6, l.decode_s), "MB/s");
  res.metric("dataio.codec.ratio",
             l.codec_encoded_bytes > 0.0
                 ? l.codec_raw_bytes / l.codec_encoded_bytes
                 : 1.0,
             "ratio");

  const double other_s = t.loop_s - l.loop_layers_s();
  res.metric("core.framework.events", static_cast<double>(t.events), "count");
  res.metric("core.framework.event_us_p50", 1e6 * median(t.event_s), "us");
  res.metric("core.framework.event_us_p99", 1e6 * quantile(t.event_s, 0.99),
             "us");
  res.metric("core.framework.other_s", other_s, "s");
  res.metric("core.decision.calls", static_cast<double>(l.decide_s.size()),
             "count");
  res.metric("core.decision.us_p50", 1e6 * median(l.decide_s), "us");
  res.metric("core.output.write_s", t.write_s, "s");
  res.metric("core.output.bytes", t.output_bytes, "bytes");

  res.metric("explore.snapshot_ms_p50", 1e3 * median(t.snapshot_s), "ms");
  res.metric("explore.restore_ms_p50", 1e3 * median(t.restore_s), "ms");

  // What the replayed layers, set-up and output writing leave unexplained
  // of the traced wall time.
  const double explained = t.setup_s + l.loop_layers_s() + t.write_s;
  res.metric("trace.unattributed_frac",
             t.traced_wall_s > 0.0 ? 1.0 - explained / t.traced_wall_s : 0.0,
             "ratio");
}

/// campaign.* metrics. A single run or search is a one-cell campaign.
/// Cell start times are inferred: CampaignRunner's pool takes cells FIFO in
/// grid order, so cell j < K starts at 0 and cell j >= K starts when the
/// (j-K+1)-th completion frees a lane.
void report_campaign(const OpResult& op, Outcome& res) {
  std::vector<double> finish = op.finish_s;  // grid order
  if (finish.empty()) finish.push_back(op.wall_s);
  std::vector<double> sorted = finish;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t k = static_cast<std::size_t>(std::max(1, op.concurrency));
  std::vector<double> cell_s;
  for (std::size_t j = 0; j < finish.size(); ++j) {
    const double start = j < k ? 0.0 : sorted[j - k];
    cell_s.push_back(finish[j] - start);
  }
  const double tail_s =
      sorted.size() > k ? op.wall_s - sorted[sorted.size() - k] : 0.0;
  res.metric("campaign.runs", static_cast<double>(op.attempted), "count");
  res.metric("campaign.runs_failed", static_cast<double>(op.failed), "count");
  res.metric("campaign.cell_s_max",
             *std::max_element(cell_s.begin(), cell_s.end()), "s");
  res.metric("campaign.tail_frac", op.wall_s > 0.0 ? tail_s / op.wall_s : 0.0,
             "ratio");
  res.metric("campaign.parallel_eff",
             sum(cell_s) / (static_cast<double>(k) * op.wall_s), "ratio");
}

void report_explore(const perfbench::WalkStats* walk, double sim_h,
                    Outcome& res) {
  const double nodes = walk ? walk->nodes : 0.0;
  res.metric("explore.nodes", nodes, "count");
  res.metric("explore.leaves", walk ? walk->leaves : 0.0, "count");
  res.metric("explore.pruned_frac", nodes > 0 ? walk->pruned / nodes : 0.0,
             "ratio");
  res.metric("explore.sim_h_stepped", walk ? walk->sim_h_stepped : sim_h,
             "sim_h");
}

Outcome trace(const Workload& w, const std::string& input,
              const fs::path& out, const std::string& golden) {
  Outcome res;
  OpResult untraced = run_op(w.kind, input, out / "untraced");
  check_digest(untraced, golden, "", w.name);
  res.add(untraced);
  res.digest = untraced.digest;

  TraceTotals totals;
  std::vector<perfbench::DriveResult> drives;
  const fs::path traced_dir = out / "traced";
  fresh_dir(traced_dir);
  const auto t_traced = Clock::now();
  std::optional<perfbench::WalkStats> walk;
  int concurrency = 1;
  switch (w.kind) {
    case Kind::kSingle:
      drives.push_back(perfbench::drive_traced(
          [&] { return load_scenario(input); }, traced_dir.string()));
      break;
    case Kind::kCampaign: {
      const CampaignSpec spec = load_campaign(input);
      const std::vector<CampaignRun> cells = spec.expand();
      concurrency = spec.concurrency;
      drives.resize(cells.size());
      {
        ThreadPool pool(concurrency);
        std::vector<ThreadPool::TaskHandle> handles;
        for (std::size_t i = 0; i < cells.size(); ++i) {
          handles.push_back(pool.submit([&, i] {
            drives[i] = perfbench::drive_traced(
                [&] { return as_campaign_cell(cells[i].config); },
                traced_dir.string());
          }));
        }
        for (auto& h : handles) h.wait();
      }
      std::vector<CampaignRunRecord> records;
      for (std::size_t i = 0; i < cells.size(); ++i) {
        records.push_back(make_run_record(cells[i]));
        records.back().summary = drives[i].summary;
      }
      write_campaign_summary(records, traced_dir.string());
      break;
    }
    case Kind::kExplore: {
      const IniDocument doc = IniDocument::load(input);
      const ExperimentConfig cfg = scenario_from_ini(doc);
      walk = perfbench::mirror_walk(cfg, explore_spec_from_ini(doc));
      const ExploreReport& rep = untraced.report;
      if (walk->nodes != rep.nodes_explored ||
          walk->leaves != rep.leaves_evaluated || walk->pruned != rep.pruned) {
        res.problems.push_back("mirrored walk disagrees with the explorer");
      }
      // Layer replay of the no-adversary branch, the search's baseline.
      drives.push_back(perfbench::drive_traced(
          [&] { return cfg; }, (out / "baseline").string()));
      break;
    }
  }
  const double traced_wall = seconds_since(t_traced);

  if (w.kind != Kind::kExplore && untraced.failed == 0 &&
      digest_dir(traced_dir) != untraced.digest) {
    res.problems.push_back("traced and untraced outputs differ");
  }
  for (const auto& d : drives) {
    totals.add(d);
    check_counters(d, res);
  }
  totals.output_bytes =
      dir_bytes(w.kind == Kind::kExplore ? out / "baseline" : traced_dir);
  replay_all(drives, concurrency, totals, res);
  if (walk) {
    totals.snapshot_s = walk->snapshot_s;
    totals.restore_s = walk->restore_s;
  }

  report_layers(totals, res);
  report_campaign(untraced, res);
  report_explore(walk ? &*walk : nullptr, totals.sim_h, res);
  const double traced_cost = walk ? walk->wall_s : traced_wall;
  res.metric("trace.overhead_frac",
             untraced.wall_s > 0.0 ? traced_cost / untraced.wall_s - 1.0 : 0.0,
             "ratio");
  res.attempted += static_cast<int>(drives.size());
  if (!res.problems.empty() && res.failed == 0) res.failed = 1;
  return res;
}

struct Args {
  std::string workload, input, out, golden;
  double seconds = 10.0;
  int trace = 0;
  std::uint64_t seed = 0;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--input") {
      a.input = val;
    } else if (key == "--out") {
      a.out = val;
    } else if (key == "--golden") {
      a.golden = val;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = std::atoi(val.c_str());
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.input.empty() &&
         !a.out.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload <name> --input <ini> "
                 "--out <dir> [--seed <n>] [--seconds <s>] [--trace 0|1] "
                 "[--golden <hex>]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  set_log_level(LogLevel::kError);
  try {
    std::printf("env %s\n", environment_json(args.input, args.seed).c_str());
    const Outcome out =
        args.trace != 0
            ? trace(*w, args.input, args.out, args.golden)
            : measure(*w, args.input, args.out, args.seconds, args.golden);
    std::printf("digest %s\n", out.digest.c_str());
    print_result(out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

#include "core/scenario.hpp"

#include <filesystem>
#include <stdexcept>

#include "util/calendar.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "util/wire.hpp"

namespace adaptviz {

SiteSpec site_preset(const std::string& name) {
  if (name == "inter-department") return inter_department_site();
  if (name == "intra-country") return intra_country_site();
  if (name == "cross-continent") return cross_continent_site();
  throw std::runtime_error("scenario: unknown site preset '" + name + "'");
}

AlgorithmKind algorithm_from_name(const std::string& name) {
  if (name == "optimization") return AlgorithmKind::kOptimization;
  if (name == "greedy-threshold") return AlgorithmKind::kGreedyThreshold;
  if (name == "non-adaptive") return AlgorithmKind::kStatic;
  throw std::runtime_error("scenario: unknown algorithm '" + name + "'");
}

namespace {

std::vector<LinkOutage> parse_outages(const std::string& spec) {
  std::vector<LinkOutage> out;
  for (const std::string& window : split(spec, ',')) {
    const std::string w = trim(window);
    if (w.empty()) continue;
    const auto parts = split(w, '-');
    if (parts.size() != 2) {
      throw std::runtime_error("outage window '" + w +
                               "' must be start-end (hours)");
    }
    const auto start = wire::parse_double(trim(parts[0]));
    const auto end = wire::parse_double(trim(parts[1]));
    if (!start || !end) {
      throw std::runtime_error("malformed outage window '" + w + "'");
    }
    out.push_back(
        LinkOutage{WallSeconds::hours(*start), WallSeconds::hours(*end)});
  }
  return out;
}

CodecPrecision codec_precision_from(const std::string& name) {
  if (name == "float32") return CodecPrecision::kFloat32;
  if (name == "float64") return CodecPrecision::kFloat64;
  throw std::runtime_error("must be float32 or float64");
}

// One field table per scenario section. Each names every key its section
// owns, with the key's decoder and range check; scenario_from_ini()
// rejects any other key, and any section no table owns.

void experiment_fields(IniSection& s, ExperimentConfig& c) {
  s.field("name", c.name);
  s.field("algorithm", c.algorithm, algorithm_from_name);
  s.field("sim_window_hours", c.sim_window, SimSeconds::hours);
  s.field("max_wall_hours", c.max_wall, WallSeconds::hours);
  s.field("decision_period_hours", c.decision_period, WallSeconds::hours);
  s.field("compute_scale", c.model.compute_scale);
  s.field("seed", c.seed);
  s.field("vis_workers", c.vis_workers);
}

void site_fields(IniSection& s, ExperimentConfig& c) {
  // The Table IV preset first; the keys below override it.
  s.field("preset", c.site, site_preset);
  s.field("max_cores", c.site.machine.max_cores);
  s.field("min_cores", c.site.machine.min_cores);
  s.field("disk_gb", c.site.disk_capacity, Bytes::gigabytes);
  s.field("wan_mbps", c.site.wan_nominal, Bandwidth::mbps);
  s.field("wan_efficiency", c.site.wan_efficiency);
  s.field("io_mbps", c.site.io_bandwidth, Bandwidth::megabytes_per_second);
}

void bounds_fields(IniSection& s, ExperimentConfig& c) {
  s.field("min_output_interval_min", c.bounds.min_output_interval,
          SimSeconds::minutes);
  s.field("max_output_interval_min", c.bounds.max_output_interval,
          SimSeconds::minutes);
}

// "Extend our framework for a larger grid": the domain box and base
// resolution are fully configurable.
void model_fields(IniSection& s, ExperimentConfig& c) {
  s.field("base_resolution_km", c.model.base_resolution_km);
  s.field("nest_extent_deg", c.model.nest_extent_deg);
  s.field("lon0", c.model.lon0);
  s.field("lat0", c.model.lat0);
  s.field("extent_lon_deg", c.model.extent_lon_deg);
  s.field("extent_lat_deg", c.model.extent_lat_deg);
}

// Optional on-disk protocol artifacts.
void files_fields(IniSection& s, ExperimentConfig& c) {
  s.field("config_file", c.manager.config_file_path);
  s.field("checkpoint_dir", c.job.checkpoint_dir);
}

// Scheduled WAN outages, `windows = 10-14, 30-31.5` in wall hours.
void outages_fields(IniSection& s, ExperimentConfig& c) {
  s.field("windows", c.wan_outages, parse_outages);
}

// Transport failure injection plus the sender's retry policy.
void faults_fields(IniSection& s, ExperimentConfig& c) {
  s.field("transfer_failure_rate", c.faults.transfer_failure_rate,
          between(0.0, 1.0));
  retry_fields(s, c.faults.retry);
}

// Environment actions keyed by decision boundary, the plain-scenario
// replay format for explored branches: `plan` is the whitespace-separated
// to_string(AdversaryPlan) form, e.g.
//   plan = 1:bandwidth-drop=0.25 2:disk-shock=0.9
void adversary_fields(IniSection& s, ExperimentConfig& c) {
  if (s.field("plan", c.adversary, adversary_plan_from)) {
    validate(c.adversary);
  }
}

// Visualization-site frame cache + viewer fan-out. Nonsensical values are
// rejected with the key named, never silently clamped: a zero-byte cache
// or a negative render cost is a typo the author wants to hear about.
void serve_fields(IniSection& s, ExperimentConfig& c) {
  // The viewer fleet is built from five keys.
  int viewers = 0;
  double downlink_mbps = 100.0;
  double catchup_fraction = 0.0;
  double catchup_start_hours = 0.0;
  double catchup_join_hours = 0.0;
  s.field("viewers", viewers, at_least(0));
  s.field("viewer_downlink_mbps", downlink_mbps, above(0));
  s.field("catchup_fraction", catchup_fraction, between(0.0, 1.0));
  s.field("catchup_start_hours", catchup_start_hours, at_least(0));
  s.field("catchup_join_wall_hours", catchup_join_hours, at_least(0));
  c.serve.viewers = make_viewer_fleet(
      viewers, Bandwidth::mbps(downlink_mbps), catchup_fraction,
      SimSeconds::hours(catchup_start_hours),
      WallSeconds::hours(catchup_join_hours));

  ViewerSessionManager::Options& session = c.serve.session;
  s.field("cache_gb", session.cache.capacity, Bytes::gigabytes, above(0));
  s.field("cache_frames", session.cache.max_frames, at_least(0));
  s.field("cache_policy", session.cache.policy, eviction_policy_from);
  s.field("rerender_workers", session.rerender_workers, at_least(1));
  s.field("rerender_fixed_seconds", session.rerender_fixed_seconds,
          at_least(0));
  s.field("rerender_seconds_per_gb", session.rerender_seconds_per_gb,
          at_least(0));
}

// Lossless frame codec: a [codec] section turns it on (enabling it
// switches Frame::size to encoded bytes through disk, WAN, and cache
// accounting).
void codec_fields(IniSection& s, ExperimentConfig& c) {
  c.codec.enabled = true;
  s.field("enabled", c.codec.enabled);
  s.field("precision", c.codec.precision, codec_precision_from);
}

// Observability layer (metrics registry + stage tracer): a [obs] section
// turns it on.
void obs_fields(IniSection& s, ExperimentConfig& c) {
  c.observability = true;
  s.field("enabled", c.observability);
}

// The run-side steering knobs. Policies and registration servers are
// code-level wiring; scenario files configure latency, the inbox poll
// cadence, the log to record, and the log to replay (read here, so a
// missing or malformed log fails the scenario load).
void steering_fields(IniSection& s, ExperimentConfig& c) {
  s.field("latency_seconds", c.steering.latency, at_least(0));
  s.field("poll_period_seconds", c.steering.poll_period, above(0));
  s.field("record_log", c.steering.record_log_path);
  s.field("replay_log", c.steering.replay, load_steering_log);
}

using SectionTable = void (*)(IniSection&, ExperimentConfig&);

// Each table reads its section only when the section is present. [tree]
// is owned by serve/edge_tree.cpp and read after these; [explore] and
// [campaign] belong to their own readers, which callers run on the same
// document.
constexpr std::pair<const char*, SectionTable> kSections[] = {
    {"experiment", experiment_fields}, {"site", site_fields},
    {"bounds", bounds_fields},         {"model", model_fields},
    {"files", files_fields},           {"outages", outages_fields},
    {"faults", faults_fields},         {"adversary", adversary_fields},
    {"serve", serve_fields},           {"codec", codec_fields},
    {"obs", obs_fields},               {"steering", steering_fields},
};

bool owned(const std::string& section) {
  for (const auto& entry : kSections) {
    if (section == entry.first) return true;
  }
  return section == "tree" || section == "explore" || section == "campaign";
}

}  // namespace

ExperimentConfig scenario_from_ini(const IniDocument& doc) {
  for (const auto& [name, keys] : doc.sections()) {
    if (owned(name)) continue;
    const std::string first = keys.empty() ? "" : keys.begin()->first;
    if (name.empty() && !first.empty()) {
      throw std::runtime_error("scenario: key '" + first +
                               "' comes before the first [section] header");
    }
    throw std::runtime_error("scenario: unknown section [" + name + "]" +
                             (first.empty() ? "" : " holding " + first));
  }

  ExperimentConfig cfg;
  cfg.name = "scenario";
  for (const auto& [name, table] : kSections) {
    if (!doc.has_section(name)) continue;
    read_section(doc, name, [&cfg, table](IniSection& s) { table(s, cfg); });
  }
  cfg.serve.tree = tree_spec_from_ini(doc);

  // Sanity.
  if (cfg.model.compute_scale < 1.0) {
    throw std::runtime_error("scenario: compute_scale must be >= 1");
  }
  if (cfg.sim_window.seconds() <= 0 || cfg.max_wall.seconds() <= 0) {
    throw std::runtime_error("scenario: windows must be positive");
  }
  return cfg;
}

ExperimentConfig load_scenario(const std::string& path) {
  return scenario_from_ini(IniDocument::load(path));
}

void write_result(const ExperimentResult& result, const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string base = dir + "/" + result.config.name;
  const CalendarEpoch epoch = CalendarEpoch::aila_start();

  // Header and rows both come off the declarative telemetry schema; the
  // golden-header test pins the emitted bytes to the historical layout.
  CsvTable samples(telemetry_columns());
  for (const TelemetrySample& s : result.samples) {
    samples.add_row(telemetry_row(s, epoch));
  }
  samples.save(base + "_samples.csv");

  CsvTable vis({"wall_hours", "frame_sim_label", "frame_sim_hours",
                "sequence", "size_mb"});
  for (const VisRecord& v : result.vis_records) {
    vis.add_row({v.wall_time.as_hours(), epoch.label(v.sim_time),
                 v.sim_time.as_hours(), static_cast<long>(v.sequence),
                 v.size.mb()});
  }
  vis.save(base + "_visualization.csv");

  CsvTable decisions({"wall_hours", "free_disk_percent", "bandwidth_mbps",
                      "processors", "output_interval_min", "critical",
                      "note"});
  for (const DecisionRecord& d : result.decisions) {
    decisions.add_row({d.wall_time.as_hours(), d.input.free_disk_percent,
                       d.input.observed_bandwidth.megabits_per_sec(),
                       static_cast<long>(d.decision.processors),
                       d.decision.output_interval.as_minutes(),
                       static_cast<long>(d.decision.critical),
                       d.decision.note});
  }
  decisions.save(base + "_decisions.csv");

  CsvTable track({"sim_label", "lat", "lon", "min_pressure_hpa",
                  "max_wind_ms"});
  for (const TrackPoint& p : result.track) {
    track.add_row({epoch.label(p.time), p.eye.lat, p.eye.lon,
                   p.min_pressure_hpa, p.max_wind_ms});
  }
  track.save(base + "_track.csv");

  if (!result.clients.empty()) {
    // Per-client delivery series: viewer-side progress (Fig 7, one curve
    // per client) plus the cache-hit flag behind each delivery.
    CsvTable clients({"client", "mode", "wall_hours", "frame_sim_label",
                      "frame_sim_hours", "sequence", "size_mb", "cache_hit"});
    for (const ClientSeries& c : result.clients) {
      for (const DeliveryRecord& d : c.records) {
        clients.add_row({c.name, std::string(to_string(c.mode)),
                         d.wall_time.as_hours(), epoch.label(d.sim_time),
                         d.sim_time.as_hours(), static_cast<long>(d.sequence),
                         d.size.mb(), static_cast<long>(d.cache_hit)});
      }
    }
    clients.save(base + "_clients.csv");
  }

  IniDocument summary;
  const ExperimentSummary& s = result.summary;
  summary.set("summary", "name", result.config.name);
  summary.set("summary", "algorithm", to_string(result.config.algorithm));
  summary.set_bool("summary", "completed", s.completed);
  summary.set_double("summary", "wall_hours", s.wall_elapsed.as_hours());
  summary.set_double("summary", "sim_finished_wall_hours",
                     s.sim_finished_wall.as_hours());
  summary.set_double("summary", "sim_reached_hours", s.sim_reached.as_hours());
  summary.set_double("summary", "peak_disk_gb", s.peak_disk_used.gb());
  summary.set_double("summary", "min_free_disk_percent",
                     s.min_free_disk_percent);
  summary.set_double("summary", "stall_hours", s.total_stall_time.as_hours());
  summary.set_int("summary", "frames_written", s.frames_written);
  summary.set_int("summary", "frames_sent", s.frames_sent);
  summary.set_int("summary", "frames_visualized", s.frames_visualized);
  summary.set_int("summary", "transfer_failures", s.transfer_failures);
  summary.set_int("summary", "transfer_retries", s.transfer_retries);
  summary.set_int("summary", "restarts", s.restarts);
  summary.set_int("summary", "decisions", s.decision_count);
  if (result.config.codec.enabled) {
    summary.set_double("codec", "mean_ratio", s.codec_mean_ratio);
    summary.set_double("codec", "bytes_saved_gb", s.codec_bytes_saved.gb());
  }
  if (s.tree_tiers > 0) {
    summary.set_int("tree", "tiers", s.tree_tiers);
    summary.set_int("tree", "leaves", s.tree_leaves);
    summary.set_int("tree", "viewers", s.tree_viewers);
    summary.set_int("tree", "frames_delivered", s.tree_frames_delivered);
    summary.set_double("tree", "origin_wan_gb", s.tree_origin_wan_bytes.gb());
    summary.set_int("tree", "fill_retries", s.tree_fill_retries);
    summary.set_int("tree", "degraded_events", s.tree_degraded_events);
  }
  if (s.viewers > 0) {
    summary.set_int("serve", "viewers", s.viewers);
    summary.set_int("serve", "frames_served", s.frames_served);
    summary.set_int("serve", "cache_hits", s.cache_hits);
    summary.set_int("serve", "cache_misses", s.cache_misses);
    summary.set_int("serve", "cache_evictions", s.cache_evictions);
    summary.set_int("serve", "rerenders", s.rerenders);
    summary.set_double("serve", "peak_cache_gb", s.peak_cache_bytes.gb());
  }
  if (s.steering_events > 0) {
    summary.set_int("steering", "events", s.steering_events);
    summary.set_int("steering", "steer_renders", s.steer_renders);
    summary.set_int("steering", "steer_dedup", s.steer_dedup);
    summary.set_int("steering", "observers_peak", s.observers_peak);
  }
  summary.save(base + "_summary.ini");
}

}  // namespace adaptviz

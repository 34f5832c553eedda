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
      throw std::runtime_error("scenario: outage window '" + w +
                               "' must be start-end (hours)");
    }
    const auto start = wire::parse_double(trim(parts[0]));
    const auto end = wire::parse_double(trim(parts[1]));
    if (!start || !end) {
      throw std::runtime_error("scenario: malformed outage window '" + w +
                               "'");
    }
    out.push_back(
        LinkOutage{WallSeconds::hours(*start), WallSeconds::hours(*end)});
  }
  return out;
}

}  // namespace

ExperimentConfig scenario_from_ini(const IniDocument& doc) {
  ExperimentConfig cfg;

  // [experiment]
  cfg.name = doc.get_or("experiment", "name", "scenario");
  cfg.algorithm =
      algorithm_from_name(
          doc.get_or("experiment", "algorithm", "optimization"));
  if (auto v = doc.get_double("experiment", "sim_window_hours")) {
    cfg.sim_window = SimSeconds::hours(*v);
  }
  if (auto v = doc.get_double("experiment", "max_wall_hours")) {
    cfg.max_wall = WallSeconds::hours(*v);
  }
  if (auto v = doc.get_double("experiment", "decision_period_hours")) {
    cfg.decision_period = WallSeconds::hours(*v);
  }
  if (auto v = doc.get_double("experiment", "compute_scale")) {
    cfg.model.compute_scale = *v;
  }
  if (auto v = doc.get_int("experiment", "seed")) {
    cfg.seed = static_cast<std::uint64_t>(*v);
  }
  if (auto v = doc.get_int("experiment", "vis_workers")) {
    cfg.vis_workers = static_cast<int>(*v);
  }
  if (auto v = doc.get_bool("experiment", "keep_payloads")) {
    cfg.keep_payloads = *v;
  }
  if (auto v = doc.get_int("experiment", "max_series_points")) {
    if (*v < 0) {
      throw std::runtime_error(
          "scenario: experiment.max_series_points must be >= 0");
    }
    cfg.max_series_points = static_cast<std::size_t>(*v);
  }

  // [site]
  cfg.site = site_preset(doc.get_or("site", "preset", "inter-department"));
  if (auto v = doc.get_int("site", "max_cores")) {
    cfg.site.machine.max_cores = static_cast<int>(*v);
  }
  if (auto v = doc.get_int("site", "min_cores")) {
    cfg.site.machine.min_cores = static_cast<int>(*v);
  }
  if (auto v = doc.get_double("site", "disk_gb")) {
    cfg.site.disk_capacity = Bytes::gigabytes(*v);
  }
  if (auto v = doc.get_double("site", "wan_mbps")) {
    cfg.site.wan_nominal = Bandwidth::mbps(*v);
  }
  if (auto v = doc.get_double("site", "wan_efficiency")) {
    cfg.site.wan_efficiency = *v;
  }
  if (auto v = doc.get_double("site", "io_mbps")) {
    cfg.site.io_bandwidth = Bandwidth::megabytes_per_second(*v);
  }

  // [bounds]
  if (auto v = doc.get_double("bounds", "min_output_interval_min")) {
    cfg.bounds.min_output_interval = SimSeconds::minutes(*v);
  }
  if (auto v = doc.get_double("bounds", "max_output_interval_min")) {
    cfg.bounds.max_output_interval = SimSeconds::minutes(*v);
  }

  // [model] — "extend our framework for a larger grid": the domain box and
  // base resolution are fully configurable.
  if (auto v = doc.get_double("model", "base_resolution_km")) {
    cfg.model.base_resolution_km = *v;
  }
  if (auto v = doc.get_double("model", "nest_extent_deg")) {
    cfg.model.nest_extent_deg = *v;
  }
  if (auto v = doc.get_double("model", "lon0")) cfg.model.lon0 = *v;
  if (auto v = doc.get_double("model", "lat0")) cfg.model.lat0 = *v;
  if (auto v = doc.get_double("model", "extent_lon_deg")) {
    cfg.model.extent_lon_deg = *v;
  }
  if (auto v = doc.get_double("model", "extent_lat_deg")) {
    cfg.model.extent_lat_deg = *v;
  }

  // [files] — optional on-disk protocol artifacts.
  if (auto v = doc.get("files", "config_file")) {
    cfg.manager.config_file_path = *v;
  }
  if (auto v = doc.get("files", "checkpoint_dir")) {
    cfg.job.checkpoint_dir = *v;
  }

  // [outages]
  if (auto v = doc.get("outages", "windows")) {
    cfg.wan_outages = parse_outages(*v);
  }

  // [faults] — transport failure injection + the sender's retry policy.
  if (doc.has_section("faults")) {
    if (auto v = doc.get_double("faults", "transfer_failure_rate")) {
      if (*v < 0.0 || *v > 1.0) {
        throw std::runtime_error(
            "scenario: faults.transfer_failure_rate must be in [0, 1]");
      }
      cfg.faults.transfer_failure_rate = *v;
    }
    if (auto v = doc.get_double("faults", "retry_initial_seconds")) {
      cfg.faults.retry.initial_backoff = WallSeconds(*v);
    }
    if (auto v = doc.get_double("faults", "retry_multiplier")) {
      cfg.faults.retry.multiplier = *v;
    }
    if (auto v = doc.get_double("faults", "retry_cap_seconds")) {
      cfg.faults.retry.max_backoff = WallSeconds(*v);
    }
    if (auto v = doc.get_double("faults", "retry_jitter")) {
      cfg.faults.retry.jitter = *v;
    }
    if (auto v = doc.get_int("faults", "degrade_after")) {
      cfg.faults.retry.degrade_after = static_cast<int>(*v);
    }
  }

  // [adversary] — environment actions keyed by decision boundary, the
  // plain-scenario replay format for explored branches. `plan` is the
  // whitespace-separated to_string(AdversaryPlan) form, e.g.
  //   plan = 1:bandwidth-drop=0.25 2:disk-shock=0.9
  if (auto v = doc.get("adversary", "plan")) {
    cfg.adversary = adversary_plan_from(*v);
    validate(cfg.adversary);
  }

  // [serve] — visualization-site frame cache + viewer fan-out. Nonsensical
  // values are rejected here with the offending key named, never silently
  // clamped: a config that asks for a zero-byte cache or negative render
  // cost is a typo the author wants to hear about, not run with.
  if (doc.has_section("serve")) {
    const int viewers =
        static_cast<int>(doc.get_int("serve", "viewers").value_or(0));
    if (viewers < 0) {
      throw std::runtime_error("scenario: serve.viewers must be >= 0");
    }
    const double downlink_mbps =
        doc.get_double("serve", "viewer_downlink_mbps").value_or(100.0);
    if (downlink_mbps <= 0.0) {
      throw std::runtime_error(
          "scenario: serve.viewer_downlink_mbps must be > 0");
    }
    const Bandwidth downlink = Bandwidth::mbps(downlink_mbps);
    const double catchup_fraction =
        doc.get_double("serve", "catchup_fraction").value_or(0.0);
    if (catchup_fraction < 0.0 || catchup_fraction > 1.0) {
      throw std::runtime_error(
          "scenario: serve.catchup_fraction must be in [0, 1]");
    }
    const double catchup_start_hours =
        doc.get_double("serve", "catchup_start_hours").value_or(0.0);
    const double catchup_join_hours =
        doc.get_double("serve", "catchup_join_wall_hours").value_or(0.0);
    if (catchup_start_hours < 0.0 || catchup_join_hours < 0.0) {
      throw std::runtime_error(
          "scenario: serve catch-up times must be >= 0 hours");
    }
    const SimSeconds catchup_start = SimSeconds::hours(catchup_start_hours);
    const WallSeconds catchup_join = WallSeconds::hours(catchup_join_hours);
    cfg.serve.viewers = make_viewer_fleet(viewers, downlink, catchup_fraction,
                                          catchup_start, catchup_join);
    if (auto v = doc.get_double("serve", "cache_gb")) {
      if (*v <= 0.0) {
        throw std::runtime_error("scenario: serve.cache_gb must be > 0");
      }
      cfg.serve.session.cache.capacity = Bytes::gigabytes(*v);
    }
    if (auto v = doc.get_int("serve", "cache_frames")) {
      if (*v < 0) {
        throw std::runtime_error("scenario: serve.cache_frames must be >= 0");
      }
      cfg.serve.session.cache.max_frames = static_cast<std::size_t>(*v);
    }
    if (auto v = doc.get("serve", "cache_policy")) {
      cfg.serve.session.cache.policy = eviction_policy_from(*v);
    }
    if (auto v = doc.get_int("serve", "rerender_workers")) {
      if (*v < 1) {
        throw std::runtime_error(
            "scenario: serve.rerender_workers must be >= 1");
      }
      cfg.serve.session.rerender_workers = static_cast<int>(*v);
    }
    if (auto v = doc.get_double("serve", "rerender_fixed_seconds")) {
      if (*v < 0.0) {
        throw std::runtime_error(
            "scenario: serve.rerender_fixed_seconds must be >= 0");
      }
      cfg.serve.session.rerender_fixed_seconds = *v;
    }
    if (auto v = doc.get_double("serve", "rerender_seconds_per_gb")) {
      if (*v < 0.0) {
        throw std::runtime_error(
            "scenario: serve.rerender_seconds_per_gb must be >= 0");
      }
      cfg.serve.session.rerender_seconds_per_gb = *v;
    }
  }

  // [tree] — edge-cache distribution tree below the visualization site.
  // All key validation lives with the schema in serve/edge_tree.cpp.
  cfg.serve.tree = tree_spec_from_ini(doc);

  // [codec] — lossless frame codec (off by default; enabling it switches
  // Frame::size to encoded bytes through disk, WAN, and cache accounting).
  if (doc.has_section("codec")) {
    cfg.codec.enabled = doc.get_bool("codec", "enabled").value_or(true);
    if (auto v = doc.get("codec", "precision")) {
      if (*v == "float32") {
        cfg.codec.precision = CodecPrecision::kFloat32;
      } else if (*v == "float64") {
        cfg.codec.precision = CodecPrecision::kFloat64;
      } else {
        throw std::runtime_error(
            "scenario: codec.precision must be float32 or float64");
      }
    }
    if (auto v = doc.get_bool("codec", "verify_roundtrip")) {
      cfg.codec.verify_roundtrip = *v;
    }
  }

  // [obs] — observability layer (metrics registry + stage tracer).
  if (doc.has_section("obs")) {
    cfg.observability = doc.get_bool("obs", "enabled").value_or(true);
    if (auto v = doc.get_int("obs", "trace_capacity")) {
      if (*v <= 0) {
        throw std::runtime_error("scenario: obs.trace_capacity must be > 0");
      }
      cfg.obs.trace_capacity = static_cast<std::size_t>(*v);
    }
  }

  // [steering] — the control plane's run-side knobs. Policies and external
  // registration servers are code-level wiring; scenario files configure
  // latency, the inbox poll cadence, and record/replay log paths.
  if (doc.has_section("steering")) {
    if (auto v = doc.get_double("steering", "latency_seconds")) {
      if (*v < 0.0) {
        throw std::runtime_error(
            "scenario: steering.latency_seconds must be >= 0");
      }
      cfg.steering.latency = WallSeconds(*v);
    }
    if (auto v = doc.get_double("steering", "poll_period_seconds")) {
      if (*v <= 0.0) {
        throw std::runtime_error(
            "scenario: steering.poll_period_seconds must be > 0");
      }
      cfg.steering.poll_period = WallSeconds(*v);
    }
    if (auto v = doc.get("steering", "record_log")) {
      cfg.steering.record_log_path = *v;
    }
    if (auto v = doc.get("steering", "replay_log")) {
      cfg.steering.replay_log_path = *v;
    }
  }

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

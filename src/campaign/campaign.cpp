#include "campaign/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace adaptviz {
namespace {

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// to_string(AlgorithmKind) throws on an out-of-range enum value; a label
// must never do that — an invalid cell has to survive expansion so the
// runner can record it as a failed row instead of aborting the whole
// campaign (rows == expand().size(), no silent drops).
std::string algorithm_label(AlgorithmKind k) {
  switch (k) {
    case AlgorithmKind::kGreedyThreshold:
    case AlgorithmKind::kOptimization:
    case AlgorithmKind::kStatic:
      return to_string(k);
  }
  return "algo" + std::to_string(static_cast<int>(k));
}

}  // namespace

std::vector<CampaignRun> CampaignSpec::expand() const {
  // Empty axes contribute the base value exactly once; the label only
  // names axes that were actually declared, so a one-axis campaign reads
  // naturally ("inter-department-optimization", not a wall of defaults).
  const std::vector<std::pair<std::string, SiteSpec>> site_axis =
      sites.empty() ? std::vector<std::pair<std::string, SiteSpec>>{{"", base.site}}
                    : sites;
  const std::vector<AlgorithmKind> algo_axis =
      algorithms.empty() ? std::vector<AlgorithmKind>{base.algorithm}
                         : algorithms;
  const std::vector<std::uint64_t> seed_axis =
      seeds.empty() ? std::vector<std::uint64_t>{base.seed} : seeds;
  const std::vector<Bytes> disk_axis =
      disk_caps.empty() ? std::vector<Bytes>{base.site.disk_capacity}
                        : disk_caps;
  const std::vector<double> rate_axis =
      failure_rates.empty()
          ? std::vector<double>{base.faults.transfer_failure_rate}
          : failure_rates;
  const std::vector<bool> codec_axis =
      codecs.empty() ? std::vector<bool>{base.codec.enabled} : codecs;
  const std::vector<WallSeconds> period_axis =
      decision_periods.empty() ? std::vector<WallSeconds>{base.decision_period}
                               : decision_periods;
  const std::vector<int> worker_axis =
      vis_workers.empty() ? std::vector<int>{base.vis_workers} : vis_workers;

  std::vector<CampaignRun> runs;
  runs.reserve(site_axis.size() * algo_axis.size() * seed_axis.size() *
               disk_axis.size() * rate_axis.size() * codec_axis.size() *
               period_axis.size() * worker_axis.size());
  std::set<std::string> labels;
  for (const auto& [site_name, site] : site_axis) {
    for (const AlgorithmKind algo : algo_axis) {
      for (const std::uint64_t seed : seed_axis) {
        for (const Bytes disk : disk_axis) {
          for (const double rate : rate_axis) {
            for (const bool codec : codec_axis) {
              for (const WallSeconds period : period_axis) {
                for (const int workers : worker_axis) {
                  CampaignRun run;
                  run.site = site_name;
                  run.config = base;
                  run.config.site = site;
                  run.config.algorithm = algo;
                  run.config.seed = seed;
                  run.config.site.disk_capacity = disk;
                  run.config.faults.transfer_failure_rate = rate;
                  run.config.codec.enabled = codec;
                  run.config.decision_period = period;
                  run.config.vis_workers = workers;

                  std::string label;
                  auto append = [&label](const std::string& part) {
                    if (!label.empty()) label += '-';
                    label += part;
                  };
                  if (!sites.empty()) append(site_name);
                  if (!algorithms.empty()) append(algorithm_label(algo));
                  if (!seeds.empty()) append("s" + std::to_string(seed));
                  if (!disk_caps.empty()) {
                    append("d" + format_double(disk.gb()));
                  }
                  if (!failure_rates.empty()) {
                    append("f" + format_double(rate));
                  }
                  if (!codecs.empty()) append(codec ? "codec" : "raw");
                  if (!decision_periods.empty()) {
                    append("p" + format_double(period.as_hours()));
                  }
                  if (!vis_workers.empty()) {
                    append("w" + std::to_string(workers));
                  }
                  if (label.empty()) label = base.name;
                  // Uniqueness backstop (e.g. a repeated seed in the axis
                  // list): suffix the grid index rather than silently
                  // overwriting CSVs.
                  if (!labels.insert(label).second) {
                    label += "-r" + std::to_string(runs.size());
                    labels.insert(label);
                  }
                  run.label = label;
                  run.config.name = label;
                  runs.push_back(std::move(run));
                }
              }
            }
          }
        }
      }
    }
  }
  return runs;
}

const std::vector<CampaignSummaryColumn>& campaign_summary_schema() {
  using R = CampaignRunRecord;
  using Cell = CsvTable::Cell;
  static const std::vector<CampaignSummaryColumn> schema = {
      {"label", "", [](const R& r) -> Cell { return r.label; }},
      {"site", "", [](const R& r) -> Cell { return r.site; }},
      {"algorithm", "",
       [](const R& r) -> Cell { return algorithm_label(r.algorithm); }},
      {"seed", "",
       [](const R& r) -> Cell { return static_cast<long>(r.seed); }},
      {"disk_gb", "GB", [](const R& r) -> Cell { return r.disk_gb; }},
      {"failure_rate", "", [](const R& r) -> Cell { return r.failure_rate; }},
      {"codec", "flag",
       [](const R& r) -> Cell { return static_cast<long>(r.codec_enabled); }},
      {"codec_mean_ratio", "x",
       [](const R& r) -> Cell { return r.summary.codec_mean_ratio; }},
      {"codec_saved_gb", "GB",
       [](const R& r) -> Cell { return r.summary.codec_bytes_saved.gb(); }},
      {"completed", "flag",
       [](const R& r) -> Cell {
         return static_cast<long>(r.summary.completed);
       }},
      {"wall_hours", "h",
       [](const R& r) -> Cell { return r.summary.wall_elapsed.as_hours(); }},
      {"sim_finished_wall_hours", "h",
       [](const R& r) -> Cell {
         return r.summary.sim_finished_wall.as_hours();
       }},
      {"sim_reached_hours", "h",
       [](const R& r) -> Cell { return r.summary.sim_reached.as_hours(); }},
      {"peak_disk_gb", "GB",
       [](const R& r) -> Cell { return r.summary.peak_disk_used.gb(); }},
      {"min_free_disk_percent", "%",
       [](const R& r) -> Cell { return r.summary.min_free_disk_percent; }},
      {"stall_hours", "h",
       [](const R& r) -> Cell {
         return r.summary.total_stall_time.as_hours();
       }},
      {"frames_written", "frames",
       [](const R& r) -> Cell {
         return static_cast<long>(r.summary.frames_written);
       }},
      {"frames_sent", "frames",
       [](const R& r) -> Cell {
         return static_cast<long>(r.summary.frames_sent);
       }},
      {"frames_visualized", "frames",
       [](const R& r) -> Cell {
         return static_cast<long>(r.summary.frames_visualized);
       }},
      {"transfer_failures", "",
       [](const R& r) -> Cell {
         return static_cast<long>(r.summary.transfer_failures);
       }},
      {"transfer_retries", "",
       [](const R& r) -> Cell {
         return static_cast<long>(r.summary.transfer_retries);
       }},
      {"restarts", "",
       [](const R& r) -> Cell {
         return static_cast<long>(r.summary.restarts);
       }},
      {"decisions", "",
       [](const R& r) -> Cell {
         return static_cast<long>(r.summary.decision_count);
       }},
      {"failed", "flag",
       [](const R& r) -> Cell { return static_cast<long>(r.failed); }},
      {"error", "", [](const R& r) -> Cell { return r.error; }},
  };
  return schema;
}

std::vector<std::string> campaign_summary_columns() {
  std::vector<std::string> out;
  out.reserve(campaign_summary_schema().size());
  for (const CampaignSummaryColumn& c : campaign_summary_schema()) {
    out.emplace_back(c.name);
  }
  return out;
}

std::vector<CsvTable::Cell> campaign_summary_row(
    const CampaignRunRecord& record) {
  std::vector<CsvTable::Cell> row;
  row.reserve(campaign_summary_schema().size());
  for (const CampaignSummaryColumn& c : campaign_summary_schema()) {
    row.push_back(c.cell(record));
  }
  return row;
}

void write_campaign_summary(const std::vector<CampaignRunRecord>& records,
                            const std::string& dir) {
  std::filesystem::create_directories(dir);
  CsvTable table(campaign_summary_columns());
  for (const CampaignRunRecord& r : records) {
    table.add_row(campaign_summary_row(r));
  }
  table.save(dir + "/campaign_summary.csv");
}

CampaignRunRecord make_run_record(const CampaignRun& cell) {
  CampaignRunRecord rec;
  rec.label = cell.label;
  rec.site = cell.site.empty() ? cell.config.site.machine.name : cell.site;
  rec.algorithm = cell.config.algorithm;
  rec.seed = cell.config.seed;
  rec.disk_gb = cell.config.site.disk_capacity.gb();
  rec.failure_rate = cell.config.faults.transfer_failure_rate;
  rec.codec_enabled = cell.config.codec.enabled;
  return rec;
}

CampaignRunRecord execute_campaign_run(
    const CampaignRun& cell, LogLevel run_log_level,
    const std::function<void(const ExperimentResult&)>& on_result) {
  CampaignRunRecord rec = make_run_record(cell);
  try {
    ExperimentConfig cfg = cell.config;
    if (!cfg.log.has_level) cfg.log.set_level(run_log_level);
    const ExperimentResult result = run_experiment(cfg);
    rec.summary = result.summary;
    if (on_result) on_result(result);
    // The full result dies here: memory stays bounded by the number of
    // in-flight experiments no matter how large the grid is.
  } catch (const std::exception& e) {
    rec.failed = true;
    rec.error = e.what();
  } catch (...) {
    // Even a non-standard exception must not cost the campaign its row.
    rec.failed = true;
    rec.error = "non-standard exception";
  }
  return rec;
}

std::vector<CampaignRunRecord> run_campaign_cells(
    std::vector<CampaignRunRecord> records,
    const std::vector<std::size_t>& todo, int concurrency,
    const CampaignOutputOptions& options, const CampaignCellFn& cell) {
  const int k =
      std::min<int>(std::max(1, concurrency),
                    std::max<std::size_t>(std::size_t{1}, todo.size()));
  if (options.write_per_run_csvs || options.write_summary_csv) {
    std::filesystem::create_directories(options.output_dir);
  }

  // One lock serializes everything that leaves a cell: CSV writes, the
  // result sink, manifest saves, progress callbacks. A cell takes it only
  // around what it emits, never while its run executes.
  std::mutex emit_mutex;
  std::size_t finished = records.size() - todo.size();
  std::exception_ptr first_error;  // the first exception a cell threw

  auto execute = [&](std::size_t i) {
    {
      std::lock_guard<std::mutex> lock(emit_mutex);
      if (first_error) return;
    }
    CampaignRunRecord rec;
    try {
      rec = cell(i, emit_mutex);
    } catch (...) {
      std::lock_guard<std::mutex> lock(emit_mutex);
      if (!first_error) first_error = std::current_exception();
      return;
    }
    std::lock_guard<std::mutex> lock(emit_mutex);
    records[i] = std::move(rec);
    ++finished;
    if (options.on_progress) {
      options.on_progress(
          CampaignProgress{finished, records.size(), &records[i]});
    }
  };

  if (k <= 1) {
    // Strictly sequential on the calling thread — the baseline the
    // bitwise-identity guarantee is stated against.
    for (const std::size_t i : todo) execute(i);
  } else {
    // Whole cells run as pool tasks, taken FIFO in grid order; per-run
    // contexts keep their metrics, logs and results disjoint while they
    // interleave.
    ThreadPool pool(k);
    std::vector<ThreadPool::TaskHandle> handles;
    handles.reserve(todo.size());
    for (const std::size_t i : todo) {
      handles.push_back(pool.submit([&execute, i] { execute(i); }));
    }
    for (ThreadPool::TaskHandle& h : handles) h.wait();
  }

  if (first_error) std::rethrow_exception(first_error);
  if (options.write_summary_csv) {
    write_campaign_summary(records, options.output_dir);
  }
  return records;
}

CampaignRunner::CampaignRunner(CampaignOptions options)
    : options_(std::move(options)) {}

std::vector<CampaignRunRecord> CampaignRunner::run(
    const std::vector<CampaignRun>& runs, const ResultSink& sink) {
  return run_grid(runs, options_.concurrency, "campaign", sink);
}

std::vector<CampaignRunRecord> CampaignRunner::run(const CampaignSpec& spec,
                                                   const ResultSink& sink) {
  // An unset concurrency defers to the spec for this call only.
  const int k = options_.concurrency > 0 ? options_.concurrency
                                         : std::max(1, spec.concurrency);
  return run_grid(spec.expand(), k, spec.name, sink);
}

std::vector<CampaignRunRecord> CampaignRunner::run_grid(
    const std::vector<CampaignRun>& runs, int concurrency,
    const std::string& name, const ResultSink& sink) {
  RegistrationServer* const registration = options_.registration;
  CampaignOutputOptions output = options_;
  if (registration != nullptr) {
    CampaignView view;
    view.name = name;
    view.total = runs.size();
    registration->publish_campaign(view);
    // Sweep progress reaches the serve process ahead of the caller's
    // callback.
    output.on_progress = [&](const CampaignProgress& p) {
      CampaignView done;
      done.name = name;
      done.finished = p.finished;
      done.total = p.total;
      done.last_label = p.record->label;
      done.last_failed = p.record->failed;
      registration->publish_campaign(done);
      if (options_.on_progress) options_.on_progress(p);
    };
  }

  std::vector<std::size_t> todo(runs.size());
  std::iota(todo.begin(), todo.end(), std::size_t{0});
  return run_campaign_cells(
      std::vector<CampaignRunRecord>(runs.size()), todo, concurrency, output,
      [&](std::size_t i, std::mutex& emit_mutex) {
        // The registration hook mutates this run's config copy only; the
        // caller's grid stays untouched.
        CampaignRun cell = runs[i];
        if (registration != nullptr &&
            cell.config.steering.control_plane == nullptr) {
          // Every run of the sweep registers with the shared serve
          // process: one RegistrationServer fronts all K concurrent
          // simulations.
          cell.config.steering.control_plane = registration;
        }
        return execute_campaign_run(
            cell, options_.run_log_level,
            [&](const ExperimentResult& result) {
              std::lock_guard<std::mutex> lock(emit_mutex);
              if (options_.write_per_run_csvs) {
                write_result(result, options_.output_dir);
              }
              if (sink) sink(i, cell, result);
            });
      });
}

// ---- [campaign] INI schema ----

namespace {

// A sites axis replaces the whole preset per cell; per-key [site]
// overrides apply only to the base scenario's site.
std::pair<std::string, SiteSpec> named_site(const std::string& name) {
  return {name, site_preset(name)};
}

bool codec_state(const std::string& name) {
  if (name == "on" || name == "true" || name == "1") return true;
  if (name == "off" || name == "false" || name == "0") return false;
  throw std::runtime_error("entries must be on/off, got '" + name + "'");
}

}  // namespace

bool is_campaign_ini(const IniDocument& doc) {
  return doc.has_section("campaign");
}

CampaignSpec campaign_from_ini(const IniDocument& doc) {
  if (!is_campaign_ini(doc)) {
    throw std::runtime_error("campaign: missing [campaign] section");
  }
  CampaignSpec spec;
  // Everything outside [campaign] is the base scenario, parsed unchanged.
  spec.base = scenario_from_ini(doc);
  spec.name = spec.base.name;
  read_section(doc, "campaign", [&spec](IniSection& s) {
    s.field("name", spec.name);
    s.field("sites", spec.sites, named_site);
    s.field("algorithms", spec.algorithms, algorithm_from_name);
    s.field("seeds", spec.seeds, at_least(0));
    s.field("disk_gb", spec.disk_caps, Bytes::gigabytes, above(0));
    s.field("failure_rates", spec.failure_rates, between(0, 1));
    s.field("codec", spec.codecs, codec_state);
    s.field("decision_period_hours", spec.decision_periods,
            WallSeconds::hours, above(0));
    s.field("vis_workers", spec.vis_workers, at_least(1));
    s.field("concurrency", spec.concurrency, at_least(1));
    s.field("workers", spec.workers, at_least(0));
  });
  return spec;
}

CampaignSpec load_campaign(const std::string& path) {
  return campaign_from_ini(IniDocument::load(path));
}

}  // namespace adaptviz

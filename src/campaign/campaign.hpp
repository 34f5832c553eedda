// Campaign engine: multi-experiment sweeps through one runner.
//
// Every result in the paper is a sweep — three network configurations ×
// two decision algorithms × disk limits (Figs 5–8, Tables 1/3) — and the
// bench binaries used to each hand-roll a sequential loop over
// run_experiment(). This subsystem makes the sweep a first-class object:
//
//  * CampaignSpec — a base scenario plus override axes (algorithm, site,
//    seed, disk cap, transfer-failure rate). expand() takes the cross
//    product and yields one fully-resolved, uniquely-labelled
//    ExperimentConfig per grid cell.
//  * CampaignRunner — executes K runs concurrently as thread-pool tasks
//    with bounded memory: each run's CSVs stream to disk as it finishes
//    and the full ExperimentResult is dropped; only the one-row summary
//    is retained. Per-run contexts (runtime/run_context.hpp) guarantee
//    every run in a concurrent campaign is bitwise identical to the same
//    config run alone (asserted by tests/test_campaign.cpp and
//    bench_campaign_throughput).
//  * campaign_summary_schema() — the declarative column table behind
//    campaign_summary.csv (one row per run), following the
//    telemetry_schema() pattern: header order, serialization and docs all
//    derive from this single table.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/framework.hpp"
#include "core/scenario.hpp"
#include "serve/registration.hpp"
#include "util/csv.hpp"

namespace adaptviz {

/// One fully-resolved cell of a campaign grid. `label` is unique within
/// the campaign and filesystem-safe; it doubles as the run's config.name,
/// so per-run CSV basenames never collide.
struct CampaignRun {
  std::string label;
  std::string site;  // site axis name ("" when the axis is inherited)
  ExperimentConfig config;
};

/// A base scenario plus override axes. Empty axes inherit the base value
/// (an axis of one); non-empty axes multiply out in declaration order:
/// sites × algorithms × seeds × disk caps × failure rates × codec on/off ×
/// decision periods × vis workers.
struct CampaignSpec {
  std::string name = "campaign";
  ExperimentConfig base{};

  std::vector<std::pair<std::string, SiteSpec>> sites;
  std::vector<AlgorithmKind> algorithms;
  std::vector<std::uint64_t> seeds;
  std::vector<Bytes> disk_caps;
  std::vector<double> failure_rates;
  /// Lossless-frame-codec axis: each entry toggles base.codec.enabled, so
  /// one campaign measures the codec's wall/WAN effect cell by cell.
  std::vector<bool> codecs;
  /// Manager re-plan cadence axis (how often the decision algorithm runs).
  std::vector<WallSeconds> decision_periods;
  /// Visualization-site parallel render-slot axis.
  std::vector<int> vis_workers;

  /// Default concurrency for runners driven off this spec (the sweep
  /// tool's --jobs overrides it).
  int concurrency = 1;

  /// Default worker-process count for distributed dispatch (`[campaign]
  /// workers = N`; the sweep tool's --workers overrides it). 0 keeps the
  /// campaign in-process on the CampaignRunner.
  int workers = 0;

  [[nodiscard]] std::vector<CampaignRun> expand() const;
};

/// Terminal record of one campaign run — one row of campaign_summary.csv.
struct CampaignRunRecord {
  std::string label;
  std::string site;
  AlgorithmKind algorithm = AlgorithmKind::kOptimization;
  std::uint64_t seed = 0;
  double disk_gb = 0.0;
  double failure_rate = 0.0;
  bool codec_enabled = false;
  ExperimentSummary summary{};
  /// The run threw instead of finishing; `error` carries the message and
  /// the summary row is all defaults.
  bool failed = false;
  std::string error;
};

/// One column of the aggregated campaign summary: CSV header name, unit,
/// and the accessor producing a record's cell (telemetry_schema()'s
/// pattern — adding a summary field is one entry here and nowhere else).
struct CampaignSummaryColumn {
  const char* name;
  const char* unit;
  CsvTable::Cell (*cell)(const CampaignRunRecord&);
};

const std::vector<CampaignSummaryColumn>& campaign_summary_schema();

/// Record with the identity columns (label, site, algorithm, seed, ...)
/// filled from the cell and a default (not-yet-run) summary. The one place
/// those fields are derived — the in-process runner, the worker protocol
/// and the dispatcher's gave-up rows all agree byte for byte.
CampaignRunRecord make_run_record(const CampaignRun& cell);

/// Executes one expanded cell with full failure isolation: whatever throws
/// — config apply, framework construction/validation, the run itself, or
/// `on_result` — yields a failed record carrying the error string instead
/// of propagating. Every expanded label therefore produces exactly one
/// summary row (rows == expand().size(), always). `on_result` receives the
/// full result before it is discarded (CSV streaming, sinks).
CampaignRunRecord execute_campaign_run(
    const CampaignRun& cell, LogLevel run_log_level,
    const std::function<void(const ExperimentResult&)>& on_result = {});

/// Column names in schema order (the campaign_summary.csv header).
std::vector<std::string> campaign_summary_columns();

/// One CSV row for `record` in schema order.
std::vector<CsvTable::Cell> campaign_summary_row(
    const CampaignRunRecord& record);

/// Progress report delivered after each run completes (under the runner's
/// serialization lock — keep callbacks quick).
struct CampaignProgress {
  std::size_t finished = 0;  // runs completed so far, this one included
  std::size_t total = 0;
  const CampaignRunRecord* record = nullptr;  // the run that just finished
};

struct CampaignOptions {
  /// Experiments in flight at once (K). 1 executes strictly sequentially
  /// on the calling thread, no worker threads involved.
  int concurrency = 1;
  /// Directory receiving per-run CSVs and campaign_summary.csv.
  std::string output_dir = "results";
  /// Stream write_result() CSVs for each run as it finishes.
  bool write_per_run_csvs = true;
  /// Write <output_dir>/campaign_summary.csv when the campaign ends.
  bool write_summary_csv = true;
  /// Applied to each run's config unless it already sets a level: keeps K
  /// interleaved runs from narrating over each other on stderr.
  LogLevel run_log_level = LogLevel::kError;
  /// Invoked after each run finishes (serialized, completion order).
  std::function<void(const CampaignProgress&)> on_progress;
  /// Live control plane fronting the campaign (non-owning; must outlive
  /// the call). Every run whose config leaves steering.control_plane
  /// unset registers here — one serve process fronts all K concurrent
  /// runs — and sweep progress is published as a CampaignView after each
  /// completion.
  RegistrationServer* registration = nullptr;
};

class CampaignRunner {
 public:
  /// Receives each run's full ExperimentResult on the worker thread as it
  /// finishes, serialized by the runner's lock, before the result is
  /// discarded — the streaming hook for callers that need more than the
  /// summary row (figure benches, digest tests).
  using ResultSink = std::function<void(
      std::size_t index, const CampaignRun& run, const ExperimentResult&)>;

  explicit CampaignRunner(CampaignOptions options = {});

  /// Executes every run with at most `concurrency` in flight; returns the
  /// records in grid order (not completion order). A run that throws is
  /// recorded as failed; the campaign continues.
  std::vector<CampaignRunRecord> run(const std::vector<CampaignRun>& runs,
                                     const ResultSink& sink = {});

  /// expand() + run(). The spec's `concurrency` is used when the options
  /// left it at 0 or negative; explicit options win.
  std::vector<CampaignRunRecord> run(const CampaignSpec& spec,
                                     const ResultSink& sink = {});

 private:
  CampaignOptions options_;
  std::string campaign_label_ = "campaign";  // CampaignView name
};

// ---- [campaign] INI schema ----
//
//   [campaign]
//   name = paper-suite
//   sites = inter-department, intra-country, cross-continent
//   algorithms = greedy-threshold, optimization
//   seeds = 42, 43                    ; optional
//   disk_gb = 100, 182                ; optional disk-cap axis
//   failure_rates = 0, 0.15           ; optional transport-fault axis
//   codec = off, on                   ; optional lossless-codec axis
//   decision_period_hours = 0.5, 1.5  ; optional re-plan cadence axis
//   vis_workers = 1, 4                ; optional render-slot axis
//   concurrency = 4                   ; default K (CLI --jobs overrides)
//   workers = 2                       ; worker processes for distributed
//                                     ; dispatch (0 = in-process; CLI
//                                     ; --workers overrides)
//
// All remaining sections ([experiment], [site], [bounds], ...) form the
// base scenario, parsed by scenario_from_ini() unchanged.

/// True when the document has a [campaign] section.
[[nodiscard]] bool is_campaign_ini(const IniDocument& doc);

/// Builds a CampaignSpec from a parsed campaign document. An unknown key
/// or a bad axis value raises std::runtime_error naming `[campaign] key`.
CampaignSpec campaign_from_ini(const IniDocument& doc);

/// Loads and parses a campaign file.
CampaignSpec load_campaign(const std::string& path);

/// Writes <dir>/campaign_summary.csv off the declarative schema.
void write_campaign_summary(const std::vector<CampaignRunRecord>& records,
                            const std::string& dir);

}  // namespace adaptviz

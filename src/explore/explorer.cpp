#include "explore/explorer.hpp"

#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "util/logging.hpp"
#include "util/string_util.hpp"

namespace adaptviz {

namespace {

void validate_magnitudes(const std::vector<double>& values, double lo,
                         bool lo_open, const char* field) {
  for (double v : values) {
    const bool ok = (lo_open ? v > lo : v >= lo) && v <= 1.0;
    if (!ok) {
      throw std::invalid_argument(std::string("ExploreSpec: ") + field +
                                  " values must be in " +
                                  (lo_open ? "(0, 1]" : "[0, 1]"));
    }
  }
}

}  // namespace

void validate(const ExploreSpec& spec) {
  if (spec.max_depth < 1) {
    throw std::invalid_argument("ExploreSpec: max_depth must be >= 1");
  }
  if (spec.max_branches < 1) {
    throw std::invalid_argument("ExploreSpec: max_branches must be >= 1");
  }
  validate_magnitudes(spec.bandwidth_drop_tiers, 0.0, true,
                      "bandwidth_drop_tiers");
  validate_magnitudes(spec.failure_burst_levels, 0.0, false,
                      "failure_burst_levels");
  validate_magnitudes(spec.disk_shock_fractions, 0.0, true,
                      "disk_shock_fractions");
  const std::size_t actions = spec.bandwidth_drop_tiers.size() +
                              spec.failure_burst_levels.size() +
                              spec.disk_shock_fractions.size();
  if (!spec.include_none && actions == 0) {
    throw std::invalid_argument(
        "ExploreSpec: no candidate actions and include_none is off — "
        "the tree would be empty");
  }
}

std::string to_string(const ExploreReport& report) {
  std::string out = format(
      "explore: %d nodes, %d leaves, %d pruned%s, %zu violation(s)\n"
      "  baseline progress: %.2f sim-h\n"
      "  worst progress:    %.2f sim-h  (plan: %s)\n",
      report.nodes_explored, report.leaves_evaluated, report.pruned,
      report.branch_cap_hit ? " (branch cap hit)" : "",
      report.violations.size(), report.baseline_progress.as_hours(),
      report.worst_progress.as_hours(),
      report.worst_plan.empty() ? "<none>"
                                : to_string(report.worst_plan).c_str());
  for (const Violation& v : report.violations) {
    out += format("  violation [%s] at wall %.2f h under plan '%s': %s\n",
                  v.invariant.c_str(), v.wall.as_hours(),
                  to_string(v.plan).c_str(), v.detail.c_str());
  }
  return out;
}

ExploreSpec explore_spec_from_ini(const IniDocument& doc) {
  ExploreSpec spec;
  read_section(doc, "explore", [&spec](IniSection& s) {
    s.field("max_depth", spec.max_depth);
    s.field("max_branches", spec.max_branches);
    s.field("bandwidth_drop_tiers", spec.bandwidth_drop_tiers);
    s.field("failure_burst_levels", spec.failure_burst_levels);
    s.field("disk_shock_fractions", spec.disk_shock_fractions);
    s.field("include_none", spec.include_none);
    s.field("prune", spec.prune);
    s.field("use_snapshots", spec.use_snapshots);
  });
  validate(spec);
  return spec;
}

/// One depth-first search over the adversary tree. Owns the incumbent
/// bound and the violation dedup set; writes everything into the report.
class ScenarioExplorer::Walk {
 public:
  Walk(const ExperimentConfig& config, const ExploreSpec& spec,
       ExploreReport& report)
      : config_(config), spec_(spec), report_(report) {}

  void run() {
    std::unique_ptr<AdaptiveFramework> fw = make_fw({});
    fw->start_run();
    ++report_.nodes_explored;
    check(*fw, {});
    dfs(*fw, {}, 0);
  }

 private:
  struct Candidate {
    bool none = false;
    AdversaryAction action{};
  };

  [[nodiscard]] std::vector<Candidate> candidates(int depth) const {
    std::vector<Candidate> out;
    if (spec_.include_none) out.push_back(Candidate{true, {}});
    for (double m : spec_.bandwidth_drop_tiers) {
      out.push_back(Candidate{
          false, {depth, AdversaryActionKind::kBandwidthDrop, m}});
    }
    for (double m : spec_.failure_burst_levels) {
      out.push_back(
          Candidate{false, {depth, AdversaryActionKind::kFailureBurst, m}});
    }
    for (double m : spec_.disk_shock_fractions) {
      out.push_back(
          Candidate{false, {depth, AdversaryActionKind::kDiskShock, m}});
    }
    return out;
  }

  std::unique_ptr<AdaptiveFramework> make_fw(const AdversaryPlan& plan) {
    ExperimentConfig cfg = config_;
    cfg.adversary = plan;
    return std::make_unique<AdaptiveFramework>(std::move(cfg));
  }

  /// Steps until the manager has made `target` decisions. Returns false
  /// when the run ends first.
  bool advance_to(AdaptiveFramework& fw, int target, bool check_invariants,
                  const AdversaryPlan& plan) {
    while (fw.decisions_made() < target) {
      if (!fw.step_once()) return false;
      if (check_invariants) check(fw, plan);
    }
    return true;
  }

  /// `fw` is positioned at boundary `depth` (decision `depth` just made,
  /// adversary slot `depth` still open) under `plan`.
  void dfs(AdaptiveFramework& fw, const AdversaryPlan& plan, int depth) {
    if (depth >= spec_.max_depth) {
      finish_branch(fw, plan);
      return;
    }
    if (spec_.prune && have_incumbent_ &&
        fw.process().sim_time() >= incumbent_) {
      // Progress is monotone: every leaf below this node finishes at or
      // above the current progress, which already matches the worst leaf
      // found. Nothing below can lower the bound.
      ++report_.pruned;
      return;
    }
    std::optional<ExperimentState> state;
    if (spec_.use_snapshots) state = fw.snapshot();
    for (const Candidate& cand : candidates(depth)) {
      if (report_.leaves_evaluated >= spec_.max_branches) {
        report_.branch_cap_hit = true;
        break;
      }
      AdversaryPlan next = plan;
      if (!cand.none) next.push_back(cand.action);

      std::unique_ptr<AdaptiveFramework> fresh;
      AdaptiveFramework* cur = &fw;
      if (spec_.use_snapshots) {
        fw.restore(*state);
        if (!cand.none) fw.set_adversary_plan(next);
      } else {
        // Naive baseline: re-execute from t = 0 (full construction,
        // profiling sweep included — that is the honest cost of not
        // having checkpoints). The prefix repositioning is silent: the
        // parent already invariant-checked that trajectory.
        fresh = make_fw(next);
        fresh->start_run();
        advance_to(*fresh, depth + 1, /*check_invariants=*/false, next);
        cur = fresh.get();
      }
      ++report_.nodes_explored;
      // The action itself may already violate (a disk shock against a
      // nearly-full disk), before any further event runs.
      if (!cand.none) check(*cur, next);
      if (advance_to(*cur, depth + 2, /*check_invariants=*/true, next)) {
        dfs(*cur, next, depth + 1);
      } else {
        evaluate_leaf(*cur, next);  // run ended inside this segment
      }
    }
  }

  /// Past max_depth: run the branch to its end, checking throughout.
  void finish_branch(AdaptiveFramework& fw, const AdversaryPlan& plan) {
    while (fw.step_once()) check(fw, plan);
    evaluate_leaf(fw, plan);
  }

  void evaluate_leaf(AdaptiveFramework& fw, const AdversaryPlan& plan) {
    ++report_.leaves_evaluated;
    const SimSeconds progress = fw.process().sim_time();
    if (plan.empty()) report_.baseline_progress = progress;
    if (!have_incumbent_ || progress < incumbent_) {
      have_incumbent_ = true;
      incumbent_ = progress;
      report_.worst_progress = progress;
      report_.worst_plan = plan;
    }
  }

  void check(AdaptiveFramework& fw, const AdversaryPlan& plan) {
    // Delivered stream is exactly 0,1,2,...: one visualization record may
    // be appended per event, so checking the newest suffices inductively
    // (restore rewinds to an already-checked prefix).
    const std::vector<VisRecord>& recs = fw.vis().records();
    if (!recs.empty() &&
        recs.back().sequence !=
            static_cast<std::int64_t>(recs.size()) - 1) {
      record(fw, plan, "frame-stream",
             format("record %zu carries sequence %lld", recs.size() - 1,
                    static_cast<long long>(recs.back().sequence)));
    }
    if (fw.disk().used() > fw.disk().capacity()) {
      record(fw, plan, "disk-cap",
             format("used %s exceeds capacity %s",
                    to_string(fw.disk().used()).c_str(),
                    to_string(fw.disk().capacity()).c_str()));
    }
    if (fw.config().algorithm == AlgorithmKind::kGreedyThreshold &&
        fw.process().stalled()) {
      record(fw, plan, "greedy-stall",
             format("simulation stalled at sim %.2f h",
                    fw.process().sim_time().as_hours()));
    }
    if (fw.config().algorithm == AlgorithmKind::kOptimization &&
        !fw.manager().decisions().empty()) {
      const Decision& d = fw.manager().decisions().back().decision;
      const DecisionBounds& b = fw.config().bounds;
      constexpr double kEps = 1e-6;
      if (d.output_interval.seconds() <
              b.min_output_interval.seconds() - kEps ||
          d.output_interval.seconds() >
              b.max_output_interval.seconds() + kEps) {
        record(fw, plan, "lp-bounds",
               format("decision OI %.2f min outside [%.2f, %.2f]",
                      d.output_interval.as_minutes(),
                      b.min_output_interval.as_minutes(),
                      b.max_output_interval.as_minutes()));
      }
    }
  }

  void record(AdaptiveFramework& fw, const AdversaryPlan& plan,
              const char* invariant, std::string detail) {
    // One report per (invariant, plan): a persisting condition (an open
    // stall) would otherwise flood the report at every event.
    const std::string key = std::string(invariant) + "|" + to_string(plan);
    if (!seen_.insert(key).second) return;
    Violation v;
    v.invariant = invariant;
    v.detail = std::move(detail);
    v.plan = plan;
    v.wall = fw.queue().now();
    ADAPTVIZ_LOG_WARN("explore", "violation [%s] under '%s': %s", invariant,
                      to_string(plan).c_str(), v.detail.c_str());
    report_.violations.push_back(std::move(v));
  }

  const ExperimentConfig& config_;
  const ExploreSpec& spec_;
  ExploreReport& report_;
  bool have_incumbent_ = false;
  SimSeconds incumbent_{std::numeric_limits<double>::infinity()};
  std::set<std::string> seen_;
};

ScenarioExplorer::ScenarioExplorer(ExperimentConfig config, ExploreSpec spec)
    : config_(std::move(config)), spec_(std::move(spec)) {
  validate(spec_);
  if (!config_.adversary.empty()) {
    throw std::invalid_argument(
        "ScenarioExplorer: config.adversary must be empty — the explorer "
        "owns the plan (replay an explored plan through a plain run)");
  }
  if (spec_.use_snapshots && config_.steering.control_plane != nullptr) {
    throw std::logic_error(
        "ScenarioExplorer: an external control plane does not support "
        "snapshot/restore");
  }
}

ExploreReport ScenarioExplorer::explore() {
  ExploreReport report;
  Walk(config_, spec_, report).run();
  return report;
}

}  // namespace adaptviz

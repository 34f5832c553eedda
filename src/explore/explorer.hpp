// Adversarial scenario explorer: snapshot/backtrack tree search over what
// the environment can do to a run.
//
// The adaptive framework's claim is qualitative robustness: whatever the
// WAN, the disk, or competing jobs do, the decision layer keeps the
// simulation progressing and the visualization continuous. The explorer
// turns that claim into a checked property. At every application-manager
// decision boundary the *adversary* picks one discretized action —
// a bandwidth collapse, a transfer-failure burst, a disk shock, or
// nothing — producing a tree of futures. The explorer walks that tree
// depth-first:
//
//  * snapshot/backtrack — one AdaptiveFramework instance is driven with
//    the stepwise API (start_run/step_once); at each boundary the whole
//    ExperimentState is captured once and restored per candidate action,
//    so a branch costs only its own segment instead of a re-execution
//    from t = 0 (bench_explore gates the speedup);
//  * branch-and-bound — the adversary minimizes final simulation
//    progress; progress is monotone in virtual time, so a node whose
//    current progress already matches the worst leaf found cannot improve
//    it and is pruned (reported, so coverage loss is never silent);
//  * invariant checks after every event — delivered frames form exactly
//    the sequence 0,1,2,... (the sender never loses, duplicates or
//    reorders a frame), the disk never exceeds its capacity, the greedy
//    algorithm never lets the simulation stall, and the LP's decisions
//    stay inside the configured output-interval bounds. An invariant
//    failure is recorded with the exact adversary plan that produced it,
//    and replaying that plan through a plain `[adversary]` scenario
//    reproduces the branch bit for bit (tests/test_explore.cpp).
#pragma once

#include <string>
#include <vector>

#include "core/framework.hpp"
#include "util/ini.hpp"

namespace adaptviz {

/// Discretization of the adversary's choices and the search budget
/// ([explore] scenario section; see explore_spec_from_ini).
struct ExploreSpec {
  /// Decision boundaries the adversary may act at (tree depth).
  int max_depth = 3;
  /// Cap on evaluated leaves across the whole search.
  int max_branches = 64;
  /// Candidate kBandwidthDrop magnitudes (each multiplies the link's
  /// current efficiency).
  std::vector<double> bandwidth_drop_tiers;
  /// Candidate kFailureBurst per-transfer failure probabilities.
  std::vector<double> failure_burst_levels;
  /// Candidate kDiskShock fractions of disk capacity.
  std::vector<double> disk_shock_fractions;
  /// Include the do-nothing branch at every boundary.
  bool include_none = true;
  /// Branch-and-bound pruning on worst-case simulation progress. Pruned
  /// subtrees are not scanned for invariant violations (reported in
  /// ExploreReport::pruned).
  bool prune = true;
  /// false = re-execute every node from t = 0 instead of restoring a
  /// snapshot: the naive baseline bench_explore compares against. The
  /// report is identical either way.
  bool use_snapshots = true;
};

/// Throws std::invalid_argument naming the offending field.
void validate(const ExploreSpec& spec);

/// One invariant failure, addressed by the exact adversary path that
/// produced it.
struct Violation {
  std::string invariant;  // "frame-stream" | "disk-cap" | "greedy-stall" |
                          // "lp-bounds"
  std::string detail;
  AdversaryPlan plan;     // replay via [adversary] plan = to_string(plan)
  WallSeconds wall{};     // virtual time of first detection
};

struct ExploreReport {
  int nodes_explored = 0;
  int leaves_evaluated = 0;
  int pruned = 0;
  bool branch_cap_hit = false;
  std::vector<Violation> violations;
  /// Worst (minimum) final simulation progress over evaluated leaves and
  /// the plan achieving it.
  SimSeconds worst_progress{0.0};
  AdversaryPlan worst_plan;
  /// Baseline: the no-adversary leaf's final progress (always evaluated
  /// first when include_none is set).
  SimSeconds baseline_progress{0.0};
};

/// Renders the report as a human-readable multi-line summary.
std::string to_string(const ExploreReport& report);

class ScenarioExplorer {
 public:
  /// `config.adversary` must be empty (the explorer owns the plan) and,
  /// when use_snapshots is set, the scenario must not set
  /// steering.control_plane (a registration server is shared across runs,
  /// so it cannot be rewound).
  /// Throws std::invalid_argument / std::logic_error otherwise.
  ScenarioExplorer(ExperimentConfig config, ExploreSpec spec);

  /// Runs the full search and returns the report.
  ExploreReport explore();

 private:
  class Walk;

  ExperimentConfig config_;
  ExploreSpec spec_;
};

/// Parses the [explore] section:
///
///   [explore]
///   max_depth = 3
///   max_branches = 64
///   bandwidth_drop_tiers = 0.25 0.5    ; magnitudes, commas or spaces
///   failure_burst_levels = 0.3
///   disk_shock_fractions = 0.9
///   include_none = true
///   prune = true
///
/// Absent keys keep ExploreSpec defaults; an absent section returns the
/// default spec. An unknown key or a malformed value throws
/// std::runtime_error naming `[explore] key`; validate() then throws
/// std::invalid_argument. Lives here (not scenario.cpp) so core does not
/// depend on the explorer.
ExploreSpec explore_spec_from_ini(const IniDocument& doc);

}  // namespace adaptviz

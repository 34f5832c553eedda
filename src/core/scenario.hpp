// Scenario files: INI-driven experiment configuration.
//
// The paper's future work asks to run "a larger grid and ... different
// configuration settings"; scenario files make any configuration runnable
// without recompiling (see tools/adaptviz_run and scenarios/*.ini). Each
// section has exactly one owner table, and those tables are the reference
// for its keys, their units and their range checks: the twelve sections
// from [experiment] to [steering] in scenario.cpp, [tree] in
// serve/edge_tree.cpp, the retry keys [faults] and [tree] share in
// transport/retry.cpp, [explore] in explore/explorer.cpp and [campaign] in
// campaign/campaign.cpp. A section or key no table names, and a key
// written twice, is an error; list values take commas, spaces or both.
#pragma once

#include <string>

#include "core/framework.hpp"
#include "util/ini.hpp"

namespace adaptviz {

/// Table IV site preset by scenario name ("inter-department",
/// "intra-country", "cross-continent"); throws std::runtime_error on an
/// unknown name. Shared by the [site] section and the campaign grid's
/// `sites` axis.
SiteSpec site_preset(const std::string& name);

/// Decision-algorithm kind by scenario name ("optimization",
/// "greedy-threshold", "non-adaptive"); throws std::runtime_error on an
/// unknown name. Inverse of to_string(AlgorithmKind).
AlgorithmKind algorithm_from_name(const std::string& name);

/// Builds an ExperimentConfig from a parsed scenario document. An unknown
/// section, an unknown key or a bad value raises std::runtime_error naming
/// the `[section] key`. [explore] and [campaign] are left to
/// explore_spec_from_ini() and campaign_from_ini().
ExperimentConfig scenario_from_ini(const IniDocument& doc);

/// Loads and parses a scenario file.
ExperimentConfig load_scenario(const std::string& path);

/// Writes an ExperimentResult as CSV files under `dir`:
/// <name>_samples.csv, <name>_visualization.csv, <name>_decisions.csv,
/// <name>_track.csv, <name>_summary.ini, and — when viewer clients were
/// configured — <name>_clients.csv with the per-client delivery series.
void write_result(const ExperimentResult& result, const std::string& dir);

}  // namespace adaptviz

// The scenario schema: every section of a scenario file has one owner
// table, and a key or section no table names is an error instead of a
// silent fall-back to the defaults. Lives in explore_tests because that
// binary links every reader (scenario, [tree], [explore], [campaign]).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/scenario.hpp"
#include "explore/explorer.hpp"
#include "serve/edge_tree.hpp"

namespace adaptviz {
namespace {

namespace fs = std::filesystem;

/// Runs every reader a tool would run on the document.
void load_all(const IniDocument& doc) {
  (void)scenario_from_ini(doc);
  (void)explore_spec_from_ini(doc);
  if (is_campaign_ini(doc)) (void)campaign_from_ini(doc);
}

/// The keys each section owns, stated independently of the readers.
const std::map<std::string, std::set<std::string>>& owners() {
  static const std::map<std::string, std::set<std::string>> kOwners = {
      {"experiment",
       {"name", "algorithm", "sim_window_hours", "max_wall_hours",
        "decision_period_hours", "compute_scale", "seed", "vis_workers"}},
      {"site",
       {"preset", "max_cores", "min_cores", "disk_gb", "wan_mbps",
        "wan_efficiency", "io_mbps"}},
      {"bounds", {"min_output_interval_min", "max_output_interval_min"}},
      {"model",
       {"base_resolution_km", "nest_extent_deg", "lon0", "lat0",
        "extent_lon_deg", "extent_lat_deg"}},
      {"files", {"config_file", "checkpoint_dir"}},
      {"outages", {"windows"}},
      {"faults",
       {"transfer_failure_rate", "retry_initial_seconds", "retry_multiplier",
        "retry_cap_seconds", "retry_jitter", "degrade_after"}},
      {"adversary", {"plan"}},
      {"serve",
       {"viewers", "viewer_downlink_mbps", "catchup_fraction",
        "catchup_start_hours", "catchup_join_wall_hours", "cache_gb",
        "cache_frames", "cache_policy", "rerender_workers",
        "rerender_fixed_seconds", "rerender_seconds_per_gb"}},
      {"codec", {"enabled", "precision"}},
      {"obs", {"enabled"}},
      {"steering",
       {"latency_seconds", "poll_period_seconds", "record_log",
        "replay_log"}},
      {"tree",
       {"fan_out", "uplink_mbps", "uplink_latency_ms", "uplink_efficiency",
        "cache_gb", "cache_frames", "codec_ratio", "failure_rate",
        "cache_policy", "viewers_per_leaf", "retry_initial_seconds",
        "retry_multiplier", "retry_cap_seconds", "retry_jitter",
        "degrade_after", "join_stagger_seconds"}},
      {"explore",
       {"max_depth", "max_branches", "bandwidth_drop_tiers",
        "failure_burst_levels", "disk_shock_fractions", "include_none",
        "prune", "use_snapshots"}},
      {"campaign",
       {"name", "sites", "algorithms", "seeds", "disk_gb", "failure_rates",
        "codec", "decision_period_hours", "vis_workers", "concurrency",
        "workers"}},
  };
  return kOwners;
}

bool owns(const std::string& section, const std::string& key) {
  const auto it = owners().find(section);
  return it != owners().end() && it->second.contains(key);
}

TEST(ScenarioSchema, RejectsUnknownSectionsAndKeys) {
  struct Case {
    const char* ini;
    std::vector<std::string> named;  // must all appear in the message
  };
  const Case cases[] = {
      {"[experiment]\nalgorithmm = greedy-threshold\n",
       {"[experiment]", "algorithmm"}},
      {"[experiment]\nsim_windw_hours = 1\n",
       {"[experiment]", "sim_windw_hours"}},
      {"[servre]\nviewers = 4\n", {"[servre]", "viewers"}},
      {"seed = 1\n[experiment]\nname = x\n", {"seed", "[section]"}},
      {"[site]\nseed = 7\n", {"[site]", "seed"}},
      {"[tree]\nfan_out = 2\nfan_outt = 3\n", {"[tree]", "fan_outt"}},
      {"[faults]\nretry_jiter = 0.1\n", {"[faults]", "retry_jiter"}},
      {"[explore]\nmax_dept = 9\n", {"[explore]", "max_dept"}},
      {"[campaign]\nalgorithm = greedy-threshold, optimization\n",
       {"[campaign]", "algorithm"}},
      {"[campaign]\nconcurency = 2\n", {"[campaign]", "concurency"}},
      // Knobs that no longer exist fail loudly rather than being ignored.
      {"[experiment]\nkeep_payloads = true\n",
       {"[experiment]", "keep_payloads"}},
      {"[experiment]\nmax_series_points = 500\n",
       {"[experiment]", "max_series_points"}},
      {"[obs]\ntrace_capacity = 1024\n", {"[obs]", "trace_capacity"}},
  };
  for (const Case& c : cases) {
    try {
      load_all(IniDocument::parse(c.ini));
      ADD_FAILURE() << "accepted: " << c.ini;
    } catch (const std::runtime_error& e) {
      for (const std::string& word : c.named) {
        EXPECT_NE(std::string(e.what()).find(word), std::string::npos)
            << "'" << e.what() << "' does not name " << word;
      }
    }
  }
}

TEST(ScenarioSchema, ListsTakeCommasOrSpaces) {
  for (const char* list : {"0.25 0.5", "0.25, 0.5", "0.25,0.5"}) {
    SCOPED_TRACE(list);
    const std::string value = std::string(list) + "\n";
    const ExploreSpec spec = explore_spec_from_ini(
        IniDocument::parse("[explore]\nbandwidth_drop_tiers = " + value));
    EXPECT_EQ(spec.bandwidth_drop_tiers, (std::vector<double>{0.25, 0.5}));

    const TreeSpec tree = tree_spec_from_ini(IniDocument::parse(
        "[tree]\nfan_out = 2 4\nfailure_rate = " + value));
    ASSERT_EQ(tree.tiers.size(), 2u);
    EXPECT_EQ(tree.tiers[0].uplink.failure_probability, 0.25);
    EXPECT_EQ(tree.tiers[1].uplink.failure_probability, 0.5);

    const CampaignSpec campaign = campaign_from_ini(
        IniDocument::parse("[campaign]\nfailure_rates = " + value));
    EXPECT_EQ(campaign.failure_rates, (std::vector<double>{0.25, 0.5}));
  }
}

/// One `key = value` line of a scenario file.
struct KeyLine {
  std::size_t index;  // line number, from 0
  std::string section;
  std::string key;
  std::string value;
};

std::vector<std::string> read_lines(const fs::path& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string trimmed(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  return s.substr(b, s.find_last_not_of(" \t") - b + 1);
}

std::vector<KeyLine> key_lines(const std::vector<std::string>& lines) {
  std::vector<KeyLine> out;
  std::string section;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string s = trimmed(lines[i]);
    if (s.empty() || s[0] == '#' || s[0] == ';') continue;
    if (s[0] == '[') {
      section = trimmed(s.substr(1, s.size() - 2));
      continue;
    }
    const auto eq = s.find('=');
    out.push_back({i, section, trimmed(s.substr(0, eq)),
                   trimmed(s.substr(eq + 1))});
  }
  return out;
}

/// Every one-character drop, duplicate and adjacent swap of `name`.
std::set<std::string> typos(const std::string& name) {
  std::set<std::string> out;
  for (std::size_t i = 0; i < name.size(); ++i) {
    out.insert(name.substr(0, i) + name.substr(i + 1));
    out.insert(name.substr(0, i + 1) + name.substr(i));
    if (i + 1 < name.size()) {
      std::string swapped = name;
      std::swap(swapped[i], swapped[i + 1]);
      out.insert(swapped);
    }
  }
  out.erase(name);
  return out;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

/// `lines` with `line` removed and put into [section] instead: right after
/// its header, or in a new section at the end.
std::string moved(std::vector<std::string> lines, std::size_t line,
                  const std::string& section) {
  const std::string text = lines[line];
  lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(line));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (trimmed(lines[i]) == "[" + section + "]") {
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i) + 1, text);
      return join(lines);
    }
  }
  lines.push_back("[" + section + "]");
  lines.push_back(text);
  return join(lines);
}

/// True when loading `text` throws an error naming `key`. A [tree]
/// section without its required fan_out fails before its keys are
/// checked, so that error counts too.
bool rejected_naming(const std::string& text, const std::string& key) {
  try {
    load_all(IniDocument::parse(text));
  } catch (const std::exception& e) {
    const std::string what = e.what();
    return what.find(key) != std::string::npos ||
           what.find("[tree] fan_out: required") != std::string::npos;
  }
  return false;
}

// A deterministic mutation sweep over the checked-in scenarios: a key
// misspelt by one character, or written in a section that does not own
// it, must never load as if it were absent.
TEST(ScenarioSchema, MisspeltOrMisplacedKeysInEveryScenarioAreRejected) {
  int files = 0;
  int mutants = 0;
  for (const auto& entry : fs::directory_iterator(ADAPTVIZ_SCENARIO_DIR)) {
    if (entry.path().extension() != ".ini") continue;
    ++files;
    const std::vector<std::string> lines = read_lines(entry.path());
    ASSERT_NO_THROW(load_all(IniDocument::parse(join(lines))))
        << entry.path();
    for (const KeyLine& k : key_lines(lines)) {
      for (const std::string& typo : typos(k.key)) {
        if (owns(k.section, typo)) continue;
        std::vector<std::string> mutant = lines;
        mutant[k.index] = typo + " = " + k.value;
        ++mutants;
        EXPECT_TRUE(rejected_naming(join(mutant), typo))
            << entry.path().filename() << ": [" << k.section << "] "
            << k.key << " -> " << typo;
      }
      for (const auto& [section, keys] : owners()) {
        if (section == k.section || keys.contains(k.key)) continue;
        ++mutants;
        EXPECT_TRUE(rejected_naming(moved(lines, k.index, section), k.key))
            << entry.path().filename() << ": [" << k.section << "] "
            << k.key << " -> [" << section << "]";
      }
    }
  }
  EXPECT_GE(files, 8);
  EXPECT_GT(mutants, 1000);
}

}  // namespace
}  // namespace adaptviz

// adaptviz_explore — adversarial scenario explorer CLI.
//
//   $ adaptviz_explore scenarios/explore_smoke.ini [output_dir]
//
// Loads an INI scenario plus its [explore] section (see
// src/explore/explorer.hpp for the schema), runs the branch-and-bound
// snapshot/backtrack search over the adversary's discretized choices at
// every decision boundary, prints the report, and writes it to
// <output_dir>/<name>_explore.txt. Every reported violation carries the
// exact adversary plan that produced it; paste that plan into a plain
// scenario's `[adversary] plan =` key to replay the branch bit for bit.
//
// Options:
//   --naive             re-execute every node from t = 0 instead of
//                       restoring snapshots (the bench_explore baseline;
//                       same report, much slower)
//   --no-prune          disable branch-and-bound pruning
//   --expect-violation  invert the exit-code convention for CI smoke
//                       tests: exit 0 iff the search found at least one
//                       violation
//
// Exit codes: 0 — search ran and met the expectation (no violations, or
// with --expect-violation at least one); 1 — expectation missed; 2 — the
// search could not run (bad usage, unreadable scenario).
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/scenario.hpp"
#include "explore/explorer.hpp"
#include "tool_args.hpp"
#include "util/logging.hpp"

using namespace adaptviz;

int main(int argc, char** argv) {
  const auto args =
      tools::ArgSpec("<scenario.ini> [output_dir] [--verbose] [--naive] "
                     "[--no-prune] [--expect-violation]")
          .flag("--naive")
          .flag("--no-prune")
          .flag("--expect-violation")
          .parse(argc, argv);
  if (!args) return 2;
  set_log_level(args->verbose ? LogLevel::kInfo : LogLevel::kWarn);

  try {
    const IniDocument doc = IniDocument::load(args->input);
    ExperimentConfig cfg = scenario_from_ini(doc);
    ExploreSpec spec = explore_spec_from_ini(doc);
    if (args->has("--naive")) spec.use_snapshots = false;
    if (args->has("--no-prune")) spec.prune = false;

    std::printf(
        "explore '%s': %s on %s, depth %d, <=%d branches, %s%s\n",
        cfg.name.c_str(), to_string(cfg.algorithm),
        cfg.site.machine.name.c_str(), spec.max_depth, spec.max_branches,
        spec.use_snapshots ? "snapshot/backtrack" : "naive re-execution",
        spec.prune ? "" : ", pruning off");

    const std::string name = cfg.name;
    ScenarioExplorer explorer(std::move(cfg), spec);
    const ExploreReport report = explorer.explore();
    const std::string rendered = to_string(report);
    std::fputs(rendered.c_str(), stdout);

    std::filesystem::create_directories(args->out_dir);
    const std::string report_path =
        args->out_dir + "/" + name + "_explore.txt";
    std::ofstream out(report_path);
    out << rendered;
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", report_path.c_str());
      return 2;
    }
    std::printf("report written to %s\n", report_path.c_str());

    const bool found = !report.violations.empty();
    if (args->has("--expect-violation")) {
      if (!found) std::fprintf(stderr, "error: expected a violation\n");
      return found ? 0 : 1;
    }
    return found ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

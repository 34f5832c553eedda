// Shared argv handling for the adaptviz_* CLI tools.
//
// Every tool has the same surface: a required input file, an optional
// output directory, `--verbose`, plus a handful of tool-specific flags
// and `--opt <value>` options. adaptviz_run and adaptviz_sweep used to
// carry independent copies of that loop; this helper is the single
// implementation all three tools (run, sweep, explore) share.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace adaptviz::tools {

/// The parsed command line. Positionals: the first is the input file,
/// any later one replaces the output directory (last wins — the
/// behaviour the tools always had).
struct ParsedArgs {
  std::string input;
  std::string out_dir = "results";
  bool verbose = false;

  [[nodiscard]] bool has(const std::string& flag) const {
    return flags.count(flag) != 0;
  }
  /// Value of `--opt <value>`, or `def` when the option was not given.
  [[nodiscard]] std::string value_or(const std::string& opt,
                                     std::string def = "") const {
    auto it = values.find(opt);
    return it == values.end() ? std::move(def) : it->second;
  }
  /// Whole-number value of `--opt <value>`, or `def` when the option was
  /// not given. A value that is not a whole number >= `min` prints
  /// "error: <opt> needs a <what>" and returns nullopt — the tool should
  /// exit 2.
  [[nodiscard]] std::optional<int> int_value(const std::string& opt, int def,
                                             int min,
                                             const char* what) const;

  std::set<std::string> flags;
  std::map<std::string, std::string> values;
};

/// Declarative description of one tool's command line.
class ArgSpec {
 public:
  /// `usage` is the full usage line printed on errors (without the
  /// program name), e.g. "<scenario.ini> [output_dir] [--verbose]".
  explicit ArgSpec(std::string usage);

  /// Registers a boolean `--name` flag. `--verbose` is built in.
  ArgSpec& flag(const std::string& name);
  /// Registers a `--name <value>` option.
  ArgSpec& value(const std::string& name);

  /// Parses argv. On any error (missing input, unknown `--` option,
  /// value option without a value) prints the error and the usage line
  /// to stderr and returns nullopt — the tool should exit 2.
  [[nodiscard]] std::optional<ParsedArgs> parse(int argc,
                                                char** argv) const;

 private:
  std::string usage_;
  std::set<std::string> flags_;
  std::set<std::string> values_;
};

}  // namespace adaptviz::tools

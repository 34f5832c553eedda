#include "tool_args.hpp"

#include <climits>
#include <cstdio>

#include "util/wire.hpp"

namespace adaptviz::tools {

std::optional<int> ParsedArgs::int_value(const std::string& opt, int def,
                                         int min, const char* what) const {
  const auto it = values.find(opt);
  if (it == values.end()) return def;
  const std::optional<std::int64_t> v = wire::parse_int(it->second);
  if (!v || *v < min || *v > INT_MAX) {
    std::fprintf(stderr, "error: %s needs a %s, got '%s'\n", opt.c_str(),
                 what, it->second.c_str());
    return std::nullopt;
  }
  return static_cast<int>(*v);
}

ArgSpec::ArgSpec(std::string usage) : usage_(std::move(usage)) {
  flags_.insert("--verbose");
}

ArgSpec& ArgSpec::flag(const std::string& name) {
  flags_.insert(name);
  return *this;
}

ArgSpec& ArgSpec::value(const std::string& name) {
  values_.insert(name);
  return *this;
}

std::optional<ParsedArgs> ArgSpec::parse(int argc, char** argv) const {
  const auto usage = [&] {
    std::fprintf(stderr, "usage: %s %s\n", argv[0], usage_.c_str());
  };
  if (argc < 2) {
    usage();
    return std::nullopt;
  }
  ParsedArgs out;
  out.input = argv[1];
  if (out.input.rfind("--", 0) == 0) {
    std::fprintf(stderr, "error: the first argument must be the input file\n");
    usage();
    return std::nullopt;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verbose") {
      out.verbose = true;
    } else if (flags_.count(arg) != 0) {
      out.flags.insert(arg);
    } else if (values_.count(arg) != 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        return std::nullopt;
      }
      out.values[arg] = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      usage();
      return std::nullopt;
    } else {
      out.out_dir = arg;
    }
  }
  return out;
}

}  // namespace adaptviz::tools

#include "bench_report.hpp"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "util/wire.hpp"

namespace adaptviz::benchio {

void BenchReport::add(std::string bench, std::string scenario,
                      std::string metric, double value, std::string unit) {
  rows_.push_back(BenchRow{std::move(bench), std::move(scenario),
                           std::move(metric), value, std::move(unit)});
}

void BenchReport::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("BenchReport: cannot write " + path);
  }
  out << "[\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const BenchRow& r = rows_[i];
    out << "  {\"bench\": " << wire::json_quote(r.bench)
        << ", \"scenario\": " << wire::json_quote(r.scenario)
        << ", \"metric\": " << wire::json_quote(r.metric)
        << ", \"value\": " << wire::json_number(r.value)
        << ", \"unit\": " << wire::json_quote(r.unit) << "}"
        << (i + 1 < rows_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  if (!out.flush()) {
    throw std::runtime_error("BenchReport: write failed for " + path);
  }
}

BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs out;
  if (argc > 0) out.rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      out.quick = true;
    } else if (a.rfind("--json=", 0) == 0) {
      out.json_path = a.substr(7);
    } else {
      out.rest.push_back(argv[i]);
    }
  }
  return out;
}

}  // namespace adaptviz::benchio

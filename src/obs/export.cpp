#include "obs/export.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "util/wire.hpp"

namespace adaptviz::obs {

void write_json(std::ostream& out, const MetricsSnapshot& metrics,
                const std::vector<TraceEvent>& trace) {
  out << "{\n  \"metrics\": {\n    \"counters\": {";
  for (std::size_t i = 0; i < metrics.counters.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "      "
        << wire::json_quote(metrics.counters[i].name) << ": "
        << metrics.counters[i].value;
  }
  out << "\n    },\n    \"gauges\": {";
  for (std::size_t i = 0; i < metrics.gauges.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "      "
        << wire::json_quote(metrics.gauges[i].name) << ": "
        << wire::json_number(metrics.gauges[i].value);
  }
  out << "\n    },\n    \"histograms\": {";
  for (std::size_t i = 0; i < metrics.histograms.size(); ++i) {
    const auto& h = metrics.histograms[i].snapshot;
    out << (i == 0 ? "\n" : ",\n") << "      "
        << wire::json_quote(metrics.histograms[i].name) << ": {\"count\": "
        << h.count << ", \"sum\": " << wire::json_number(h.sum)
        << ", \"min\": " << wire::json_number(h.min)
        << ", \"max\": " << wire::json_number(h.max) << ", \"bounds\": [";
    for (std::size_t k = 0; k < h.upper_bounds.size(); ++k) {
      if (k != 0) out << ", ";
      out << wire::json_number(h.upper_bounds[k]);
    }
    out << "], \"buckets\": [";
    for (std::size_t k = 0; k < h.counts.size(); ++k) {
      if (k != 0) out << ", ";
      out << h.counts[k];
    }
    out << "]}";
  }
  out << "\n    }\n  },\n  \"trace\": [";
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace[i];
    out << (i == 0 ? "\n" : ",\n")
        << "    {\"stage\": " << wire::json_quote(e.stage)
        << ", \"clock\": \"" << to_string(e.clock)
        << "\", \"start\": " << wire::json_number(e.start_seconds)
        << ", \"duration\": " << wire::json_number(e.duration_seconds)
        << ", \"meta\": " << wire::json_quote(e.metadata) << "}";
  }
  out << "\n  ]\n}\n";
}

void save_json(const std::string& path, const MetricsSnapshot& metrics,
               const std::vector<TraceEvent>& trace) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("obs: cannot write " + path);
  }
  write_json(out, metrics, trace);
}

void write_trace_csv(std::ostream& out,
                     const std::vector<TraceEvent>& trace) {
  out << "stage,clock,start_seconds,duration_seconds,metadata\n";
  for (const TraceEvent& e : trace) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g,%.9g", e.start_seconds,
                  e.duration_seconds);
    // Metadata is quoted; embedded quotes are doubled per RFC 4180.
    std::string meta = e.metadata;
    std::string quoted;
    quoted.reserve(meta.size() + 2);
    for (const char c : meta) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    out << e.stage << ',' << to_string(e.clock) << ',' << buf << ",\""
        << quoted << "\"\n";
  }
}

}  // namespace adaptviz::obs

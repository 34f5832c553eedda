#include "core/telemetry.hpp"

#include <cstdio>
#include <stdexcept>
#include <variant>

namespace adaptviz {

const std::vector<TelemetryColumn>& telemetry_schema() {
  using S = TelemetrySample;
  using E = CalendarEpoch;
  using Cell = CsvTable::Cell;
  // Cell variant alternatives are part of the contract: doubles stay
  // doubles, counters and flags are `long` — exactly what the old
  // hand-written add_row produced, so the CSV bytes cannot change.
  static const std::vector<TelemetryColumn> schema = {
      {"wall_hours", "h",
       [](const S& s, const E&) -> Cell { return s.wall_time.as_hours(); }},
      {"sim_label", "",
       [](const S& s, const E& e) -> Cell { return e.label(s.sim_time); }},
      {"sim_hours", "h",
       [](const S& s, const E&) -> Cell { return s.sim_time.as_hours(); }},
      {"free_disk_percent", "%",
       [](const S& s, const E&) -> Cell { return s.free_disk_percent; }},
      {"processors", "",
       [](const S& s, const E&) -> Cell {
         return static_cast<long>(s.processors);
       }},
      {"output_interval_min", "min",
       [](const S& s, const E&) -> Cell {
         return s.output_interval.as_minutes();
       }},
      {"resolution_km", "km",
       [](const S& s, const E&) -> Cell { return s.resolution_km; }},
      {"min_pressure_hpa", "hPa",
       [](const S& s, const E&) -> Cell { return s.min_pressure_hpa; }},
      {"stalled", "flag",
       [](const S& s, const E&) -> Cell {
         return static_cast<long>(s.stalled);
       }},
      {"critical", "flag",
       [](const S& s, const E&) -> Cell {
         return static_cast<long>(s.critical);
       }},
      {"paused", "flag",
       [](const S& s, const E&) -> Cell {
         return static_cast<long>(s.paused);
       }},
      {"frames_written", "frames",
       [](const S& s, const E&) -> Cell {
         return static_cast<long>(s.frames_written);
       }},
      {"frames_sent", "frames",
       [](const S& s, const E&) -> Cell {
         return static_cast<long>(s.frames_sent);
       }},
      {"frames_visualized", "frames",
       [](const S& s, const E&) -> Cell {
         return static_cast<long>(s.frames_visualized);
       }},
      {"transfer_failures", "",
       [](const S& s, const E&) -> Cell {
         return static_cast<long>(s.transfer_failures);
       }},
      {"transfer_retries", "",
       [](const S& s, const E&) -> Cell {
         return static_cast<long>(s.transfer_retries);
       }},
      {"link_degraded", "flag",
       [](const S& s, const E&) -> Cell {
         return static_cast<long>(s.link_degraded);
       }},
      {"retry_backoff_s", "s",
       [](const S& s, const E&) -> Cell { return s.retry_backoff_seconds; }},
      {"frames_served", "frames",
       [](const S& s, const E&) -> Cell {
         return static_cast<long>(s.frames_served);
       }},
      {"serve_hit_percent", "%",
       [](const S& s, const E&) -> Cell { return s.serve_hit_percent; }},
      {"cache_mb", "MB",
       [](const S& s, const E&) -> Cell { return s.cache_bytes.mb(); }},
      {"codec_ratio", "x",
       [](const S& s, const E&) -> Cell { return s.codec_ratio; }},
  };
  return schema;
}

std::vector<std::string> telemetry_columns() {
  std::vector<std::string> out;
  out.reserve(telemetry_schema().size());
  for (const TelemetryColumn& c : telemetry_schema()) out.emplace_back(c.name);
  return out;
}

std::vector<CsvTable::Cell> telemetry_row(const TelemetrySample& s,
                                          const CalendarEpoch& epoch) {
  std::vector<CsvTable::Cell> row;
  row.reserve(telemetry_schema().size());
  for (const TelemetryColumn& c : telemetry_schema()) {
    row.push_back(c.cell(s, epoch));
  }
  return row;
}

std::string telemetry_summary(const TelemetrySample& s,
                              const CalendarEpoch& epoch) {
  std::string out;
  for (const TelemetryColumn& c : telemetry_schema()) {
    if (!out.empty()) out += ' ';
    out += c.name;
    out += '=';
    const CsvTable::Cell cell = c.cell(s, epoch);
    if (const auto* d = std::get_if<double>(&cell)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6g", *d);
      out += buf;
    } else if (const auto* l = std::get_if<long>(&cell)) {
      out += std::to_string(*l);
    } else {
      out += std::get<std::string>(cell);
    }
    out += c.unit;
  }
  return out;
}

TelemetryRecorder::TelemetryRecorder(EventQueue& queue, SampleFn fn,
                                     WallSeconds period)
    : queue_(queue), fn_(std::move(fn)), period_(period) {
  if (!fn_) throw std::invalid_argument("TelemetryRecorder: null sampler");
  if (period_.seconds() <= 0) {
    throw std::invalid_argument("TelemetryRecorder: period must be > 0");
  }
}

void TelemetryRecorder::start() {
  if (s_.running) return;
  s_.running = true;
  tick(++s_.epoch);
}

void TelemetryRecorder::stop() { s_.running = false; }

void TelemetryRecorder::tick(std::uint64_t epoch) {
  // A tick scheduled before stop() fires after a later start(): its epoch
  // is stale and it must die here, or two sampling chains run at once.
  if (!s_.running || epoch != s_.epoch) return;
  s_.samples.push_back(fn_());
  queue_.schedule_after(
      period_, [this, epoch] { tick(epoch); }, "telemetry.tick");
}

}  // namespace adaptviz

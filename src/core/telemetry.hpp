// Experiment telemetry: the time series behind the paper's figures.
//
//  * Fig 5 (simulation progress): (wall_time, sim_time)
//  * Fig 6 (free disk):           (wall_time, free_disk_percent)
//  * Fig 7 (visualization):       VisRecord series from the vis process
//  * Fig 8 (adaptivity):          (wall_time, processors, output_interval)
//  * Serving (beyond the paper):  (wall_time, frames_served, cache hit
//    rate, resident cache bytes) — viewer-side progress of the
//    multi-client fan-out (src/serve)
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "resources/event_queue.hpp"
#include "util/calendar.hpp"
#include "util/csv.hpp"
#include "util/units.hpp"

namespace adaptviz {

struct TelemetrySample {
  WallSeconds wall_time{};
  SimSeconds sim_time{};
  double free_disk_percent = 100.0;
  int processors = 0;
  SimSeconds output_interval{};
  double resolution_km = 0.0;
  double min_pressure_hpa = 0.0;
  bool stalled = false;
  bool critical = false;
  bool paused = false;
  std::int64_t frames_written = 0;
  std::int64_t frames_sent = 0;
  std::int64_t frames_visualized = 0;
  // Transport reliability (all zero on a failure-free link).
  std::int64_t transfer_failures = 0;
  std::int64_t transfer_retries = 0;
  bool link_degraded = false;
  /// Backoff delay of the retry pending at sample time (0 when healthy).
  double retry_backoff_seconds = 0.0;
  // Serving subsystem (all zero / 100 when no viewers are configured).
  std::int64_t frames_served = 0;
  double serve_hit_percent = 100.0;
  Bytes cache_bytes{};
  /// Frame codec compression ratio of the most recent output (1.0 with the
  /// codec off or before the first frame).
  double codec_ratio = 1.0;
};

/// One column of the telemetry series: CSV header name, unit (for docs
/// and the summary line), and the accessor producing a sample's cell.
struct TelemetryColumn {
  const char* name;
  const char* unit;
  CsvTable::Cell (*cell)(const TelemetrySample&, const CalendarEpoch&);
};

/// The declarative column schema — the single source of truth for the
/// samples CSV. Header order, cell serialization and the summary printer
/// all derive from this table, which used to be three hand-maintained
/// parallel lists that could (and did) drift. Adding a telemetry field is
/// now one entry here and nowhere else.
const std::vector<TelemetryColumn>& telemetry_schema();

/// Column names in schema order. Byte-identical to the historical
/// hand-written header (asserted by the golden-header test).
std::vector<std::string> telemetry_columns();

/// One CSV row for `s` in schema order.
std::vector<CsvTable::Cell> telemetry_row(const TelemetrySample& s,
                                          const CalendarEpoch& epoch);

/// Human-readable `name=value[unit]` rendering of one sample, derived
/// from the same schema (adaptviz_run's final-state line).
std::string telemetry_summary(const TelemetrySample& s,
                              const CalendarEpoch& epoch);

class TelemetryRecorder {
 public:
  using SampleFn = std::function<TelemetrySample()>;

  /// Samples `fn` immediately and then every `period` until stop().
  TelemetryRecorder(EventQueue& queue, SampleFn fn, WallSeconds period);

  void start();
  void stop();

  [[nodiscard]] const std::vector<TelemetrySample>& samples() const {
    return s_.samples;
  }

  /// Recorded series + the epoch guard. A tick pending in the EventQueue
  /// checks the epoch, so a restore that rewinds both stays consistent.
  struct State {
    bool running = false;
    /// Bumped by every start(): a tick scheduled before a stop()/start()
    /// cycle sees a stale epoch and dies instead of starting a second
    /// sampling chain (which doubled the sample rate after a restart).
    std::uint64_t epoch = 0;
    std::vector<TelemetrySample> samples;
  };
  [[nodiscard]] State snapshot() const { return s_; }
  void restore(const State& s) { s_ = s; }

 private:
  void tick(std::uint64_t epoch);

  EventQueue& queue_;
  const SampleFn fn_;
  const WallSeconds period_;
  State s_;
};

}  // namespace adaptviz

// Central metrics registry: named counters, gauges and fixed-bucket
// histograms for every stage of the coupled simulation–transport–
// visualization pipeline.
//
// The paper's application manager *observes* the pipeline to adapt it;
// this registry is the reproduction's systematic observation substrate
// (SIM-SITU-style instrumentation of every stage). Design constraints:
//
//  * Updates are lock-free atomic read-modify-writes — safe from the
//    event-loop thread and from thread-pool workers simultaneously, and
//    cheap enough to live inside the compute hot paths (<2% wall-time
//    budget, asserted by bench_observability).
//  * Registration (name -> instrument) takes a mutex and returns a
//    reference with a stable address for the registry's lifetime, so hot
//    call sites can resolve a handle once and update it forever after.
//  * snapshot() is safe while writers are running: it reads every atomic
//    with relaxed ordering and never blocks an update.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace adaptviz::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::int64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-written level (queue depth, backoff delay, resident bytes, ...).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if larger (peak tracking under concurrency).
  void set_max(double v) noexcept;
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: counts per (-inf, bound] bucket plus one
/// overflow bucket, with sum/min/max for mean and range reporting.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  struct Snapshot {
    std::vector<double> upper_bounds;
    std::vector<std::int64_t> counts;  // upper_bounds.size() + 1 (overflow)
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // 0 when count == 0
    double max = 0.0;
    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
    bool operator==(const Snapshot&) const = default;
  };
  [[nodiscard]] Snapshot snapshot() const;
  /// Sets buckets, count, sum, min and max from `s`; an empty `s.counts`
  /// resets the histogram to empty. Throws std::invalid_argument when
  /// `s` has a different bucket count.
  void restore(const Snapshot& s);
  [[nodiscard]] std::int64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<double>& upper_bounds() const {
    return bounds_;
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::int64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Point-in-time copy of every instrument, name-sorted within each kind.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::int64_t value = 0;
    bool operator==(const CounterValue&) const = default;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
    bool operator==(const GaugeValue&) const = default;
  };
  struct HistogramValue {
    std::string name;
    Histogram::Snapshot snapshot;
    bool operator==(const HistogramValue&) const = default;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  bool operator==(const MetricsSnapshot&) const = default;
  /// Counter value by name; `fallback` when absent.
  [[nodiscard]] std::int64_t counter_or(std::string_view name,
                                        std::int64_t fallback = 0) const;
  /// Gauge value by name; `fallback` when absent.
  [[nodiscard]] double gauge_or(std::string_view name,
                                double fallback = 0.0) const;
  /// Histogram snapshot by name; nullptr when absent.
  [[nodiscard]] const Histogram::Snapshot* histogram(
      std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Instrument by name, created on first use. References stay valid for
  /// the registry's lifetime; updates through them never take the
  /// registration mutex.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// A histogram keeps the bounds of its first registration; later calls
  /// with the same name ignore `upper_bounds`.
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_bounds = duration_buckets());

  /// Default bucket grid for durations in seconds: decade-ish steps from
  /// 100 microseconds to 1000 s.
  static std::vector<double> duration_buckets();

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Rewinds every instrument to a snapshot taken earlier on this
  /// registry: counters delta-add back to the recorded value (instrument
  /// addresses stay stable, so resolved handles keep working), gauges and
  /// histograms are set, and instruments created after the snapshot reset
  /// to zero / empty. Call only while no instrument is being updated (the
  /// framework restores between events).
  void restore(const MetricsSnapshot& s);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace adaptviz::obs

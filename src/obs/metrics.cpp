#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace adaptviz::obs {

namespace {

// fetch_add on atomic<double> is C++20 but not universally lowered well;
// a CAS loop keeps the same relaxed semantics everywhere.
void atomic_add(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Gauge::set_max(double v) noexcept { atomic_max(value_, v); }

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: no buckets");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "Histogram: bounds must be strictly increasing");
  }
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx =
      static_cast<std::size_t>(it - bounds_.begin());  // == size: overflow
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  // First observation seeds min/max; both CAS loops are correct for any
  // interleaving once count_ is nonzero.
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
  }
  atomic_min(min_, v);
  atomic_max(max_, v);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.upper_bounds = bounds_;
  s.counts.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    s.counts.push_back(b.load(std::memory_order_relaxed));
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = s.count == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
  s.max = s.count == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::restore(const Snapshot& s) {
  if (s.counts.empty()) {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  } else if (s.counts.size() != buckets_.size()) {
    throw std::invalid_argument("Histogram::restore: bucket count differs");
  } else {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i].store(s.counts[i], std::memory_order_relaxed);
    }
  }
  count_.store(s.count, std::memory_order_relaxed);
  sum_.store(s.sum, std::memory_order_relaxed);
  min_.store(s.min, std::memory_order_relaxed);
  max_.store(s.max, std::memory_order_relaxed);
}

std::int64_t MetricsSnapshot::counter_or(std::string_view name,
                                         std::int64_t fallback) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return c.value;
  }
  return fallback;
}

double MetricsSnapshot::gauge_or(std::string_view name,
                                 double fallback) const {
  for (const GaugeValue& g : gauges) {
    if (g.name == name) return g.value;
  }
  return fallback;
}

const Histogram::Snapshot* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const HistogramValue& h : histograms) {
    if (h.name == name) return &h.snapshot;
  }
  return nullptr;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(upper_bounds)))
             .first;
  }
  return *it->second;
}

std::vector<double> MetricsRegistry::duration_buckets() {
  return {1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1000.0};
}

void MetricsRegistry::restore(const MetricsSnapshot& s) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : counters_) {
    const std::int64_t want = s.counter_or(name, 0);
    c->add(want - c->value());
  }
  for (const auto& [name, g] : gauges_) {
    g->set(s.gauge_or(name, 0.0));
  }
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot* want = s.histogram(name);
    h->restore(want != nullptr ? *want : Histogram::Snapshot{});
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    s.counters.push_back({name, c->value()});
  }
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    s.gauges.push_back({name, g->value()});
  }
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    s.histograms.push_back({name, h->snapshot()});
  }
  return s;
}

}  // namespace adaptviz::obs

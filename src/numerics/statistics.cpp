#include "numerics/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace adaptviz {

double mean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("mean: empty");
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double variance(const std::vector<double>& v) {
  const double m = mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

double stddev(const std::vector<double>& v) { return std::sqrt(variance(v)); }

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("percentile: empty");
  if (q < 0.0 || q > 100.0) throw std::invalid_argument("percentile: q");
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double f = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - f) + v[hi] * f;
}

ExponentialMovingAverage::ExponentialMovingAverage(double alpha)
    : alpha_(alpha) {
  if (alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument("EMA: alpha must be in (0, 1]");
  }
}

void ExponentialMovingAverage::add(double sample) {
  s_.value =
      s_.initialized ? alpha_ * sample + (1.0 - alpha_) * s_.value : sample;
  s_.initialized = true;
  ++s_.count;
}

double ExponentialMovingAverage::value() const {
  if (!s_.initialized) throw std::logic_error("EMA: no samples");
  return s_.value;
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double d = x - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (x - mean_);
}

double RunningStats::min() const {
  if (n_ == 0) throw std::logic_error("RunningStats: empty");
  return min_;
}

double RunningStats::max() const {
  if (n_ == 0) throw std::logic_error("RunningStats: empty");
  return max_;
}

double RunningStats::stddev() const {
  if (n_ == 0) throw std::logic_error("RunningStats: empty");
  return n_ > 1 ? std::sqrt(m2_ / static_cast<double>(n_)) : 0.0;
}

}  // namespace adaptviz

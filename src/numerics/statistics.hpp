// Descriptive statistics and online estimators.
//
// ExponentialMovingAverage backs the application manager's bandwidth
// estimate: the paper uses "the average observed bandwidth between the
// simulation and visualization sites"; an EMA smooths probe noise while
// tracking real drift.
#pragma once

#include <cstddef>
#include <vector>

namespace adaptviz {

double mean(const std::vector<double>& v);
double variance(const std::vector<double>& v);  // population variance
double stddev(const std::vector<double>& v);
double median(std::vector<double> v);
/// Linear-interpolated percentile; q in [0, 100]. Throws on empty input.
double percentile(std::vector<double> v, double q);

/// First-order exponential smoother: y_n = alpha*x_n + (1-alpha)*y_{n-1}.
class ExponentialMovingAverage {
 public:
  /// alpha in (0, 1]; alpha=1 means "latest sample only".
  explicit ExponentialMovingAverage(double alpha);

  void add(double sample);
  [[nodiscard]] bool empty() const { return !s_.initialized; }
  /// Current estimate; throws std::logic_error before the first sample.
  [[nodiscard]] double value() const;
  [[nodiscard]] std::size_t count() const { return s_.count; }

  /// Full estimator state (alpha excluded: a construction constant).
  struct State {
    double value = 0.0;
    bool initialized = false;
    std::size_t count = 0;
  };
  [[nodiscard]] State snapshot() const { return s_; }
  void restore(const State& s) { s_ = s; }

 private:
  const double alpha_;
  State s_;
};

/// Streaming min/max/mean/stddev accumulator (Welford).
class RunningStats {
 public:
  void add(double x);
  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace adaptviz

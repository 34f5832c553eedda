#include "transport/retry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace adaptviz {

void validate(const RetryPolicy& r) {
  if (r.initial_backoff.seconds() <= 0.0) {
    throw std::invalid_argument("retry: initial backoff must be > 0");
  }
  if (r.max_backoff < r.initial_backoff) {
    throw std::invalid_argument(
        "retry: backoff cap must be >= the initial backoff");
  }
  if (r.multiplier < 1.0) {
    throw std::invalid_argument("retry: multiplier must be >= 1");
  }
  if (r.jitter < 0.0 || r.jitter >= 1.0) {
    throw std::invalid_argument("retry: jitter must be in [0, 1)");
  }
  if (r.degrade_after < 1) {
    throw std::invalid_argument("retry: degrade_after must be >= 1");
  }
}

WallSeconds backoff(const RetryPolicy& r, int failures, Rng& rng) {
  double delay = r.initial_backoff.seconds() *
                 std::pow(r.multiplier, static_cast<double>(failures - 1));
  delay = std::min(delay, r.max_backoff.seconds());
  if (r.jitter > 0.0) delay *= rng.uniform(1.0 - r.jitter, 1.0 + r.jitter);
  return WallSeconds(delay);
}

RetryLadder::Failure RetryLadder::fail(const RetryPolicy& policy) {
  ++consecutive_failures;
  const bool latched =
      !degraded && consecutive_failures >= policy.degrade_after;
  degraded = degraded || latched;
  return {backoff(policy, consecutive_failures, jitter_rng), latched};
}

bool RetryLadder::succeed() {
  const bool cleared = degraded;
  consecutive_failures = 0;
  degraded = false;
  return cleared;
}

RetryPolicy retry_policy_from_ini(const IniDocument& doc,
                                  const std::string& section,
                                  RetryPolicy base) {
  if (auto v = doc.get_double(section, "retry_initial_seconds")) {
    base.initial_backoff = WallSeconds(*v);
  }
  if (auto v = doc.get_double(section, "retry_multiplier")) {
    base.multiplier = *v;
  }
  if (auto v = doc.get_double(section, "retry_cap_seconds")) {
    base.max_backoff = WallSeconds(*v);
  }
  if (auto v = doc.get_double(section, "retry_jitter")) base.jitter = *v;
  if (auto v = doc.get_int(section, "degrade_after")) {
    base.degrade_after = static_cast<int>(*v);
  }
  try {
    validate(base);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error("[" + section + "] " + e.what());
  }
  return base;
}

}  // namespace adaptviz

#include "resources/network.hpp"

#include <cmath>
#include <stdexcept>

namespace adaptviz {
namespace {

/// advance_factor walks the per-period AR(1) loop at most this far before
/// switching to the closed-form multi-step jump (a catch-up this long only
/// happens after an idle gap no experiment cadence produces).
constexpr int kMaxCatchUpSteps = 64;

}  // namespace

NetworkLink::NetworkLink(LinkSpec spec, std::uint64_t seed)
    : s_{.spec = std::move(spec),
         .rng = Rng(seed),
         .fault_rng = Rng(seed ^ 0xfa117a11u)} {
  if (s_.spec.nominal.bytes_per_sec() <= 0.0) {
    throw std::invalid_argument("NetworkLink: nominal bandwidth must be > 0");
  }
  if (s_.spec.failure_probability < 0.0 || s_.spec.failure_probability > 1.0) {
    throw std::invalid_argument(
        "NetworkLink: failure probability must be in [0, 1]");
  }
  if (s_.spec.fluctuation_sigma < 0.0 || s_.spec.persistence < 0.0 ||
      s_.spec.persistence >= 1.0) {
    throw std::invalid_argument("NetworkLink: bad fluctuation parameters");
  }
  if (s_.spec.efficiency <= 0.0 || s_.spec.efficiency > 1.0) {
    throw std::invalid_argument("NetworkLink: efficiency must be in (0, 1]");
  }
  for (std::size_t i = 0; i < s_.spec.outages.size(); ++i) {
    const LinkOutage& o = s_.spec.outages[i];
    if (o.end <= o.start ||
        (i > 0 && o.start < s_.spec.outages[i - 1].end)) {
      throw std::invalid_argument(
          "NetworkLink: outages must be sorted and non-overlapping");
    }
  }
}

void NetworkLink::set_efficiency(double efficiency) {
  if (efficiency <= 0.0 || efficiency > 1.0) {
    throw std::invalid_argument("NetworkLink: efficiency must be in (0, 1]");
  }
  s_.spec.efficiency = efficiency;
}

void NetworkLink::set_failure_probability(double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument(
        "NetworkLink: failure probability must be in [0, 1]");
  }
  s_.spec.failure_probability = p;
}

bool NetworkLink::in_outage(WallSeconds t) const {
  for (const LinkOutage& o : s_.spec.outages) {
    if (t >= o.start && t < o.end) return true;
    if (t < o.start) break;
  }
  return false;
}

void NetworkLink::advance_factor(WallSeconds now) {
  if (s_.spec.fluctuation_sigma == 0.0) return;
  // Step the AR(1) log-factor once per elapsed update period. The
  // innovation stddev is chosen so the stationary stddev equals sigma.
  const double period = s_.spec.update_period.seconds();
  if (period <= 0.0) return;
  const double rho = s_.spec.persistence;
  const double innov =
      s_.spec.fluctuation_sigma * std::sqrt(1.0 - rho * rho);
  // Capped catch-up: the per-period loop is bitwise-identical to the
  // historical behavior for the cadences the experiments actually run at.
  int caught_up = 0;
  while (caught_up < kMaxCatchUpSteps &&
         s_.last_update + s_.spec.update_period <= now) {
    s_.log_factor = rho * s_.log_factor + innov * s_.rng.normal();
    s_.last_update += s_.spec.update_period;
    ++caught_up;
  }
  if (s_.last_update + s_.spec.update_period > now) return;
  // A long simulation stall with a small update period would otherwise
  // spin O(gap / period) iterations. Jump the remaining n steps in closed
  // form: x_n = rho^n x_0 + sigma sqrt(1 - rho^{2n}) N(0,1) is exactly the
  // n-step AR(1) transition, so the stationary distribution is preserved.
  const double gap = (now - s_.last_update).seconds();
  const auto n = static_cast<std::uint64_t>(gap / period);
  if (n == 0) return;
  const double rho_n = std::pow(rho, static_cast<double>(n));
  const double jump_sigma = s_.spec.fluctuation_sigma *
                            std::sqrt(std::max(0.0, 1.0 - rho_n * rho_n));
  s_.log_factor = rho_n * s_.log_factor + jump_sigma * s_.rng.normal();
  s_.last_update += WallSeconds(period * static_cast<double>(n));
}

Bandwidth NetworkLink::current_bandwidth(WallSeconds now) {
  if (in_outage(now)) return Bandwidth(0.0);
  advance_factor(now);
  // exp keeps the factor positive; clamp to avoid pathological stalls.
  const double f = std::exp(std::min(std::max(s_.log_factor, -1.5), 1.5));
  return Bandwidth(s_.spec.nominal.bytes_per_sec() * s_.spec.efficiency * f);
}

WallSeconds NetworkLink::transfer_duration(Bytes size, WallSeconds now) {
  advance_factor(now);
  const double f = std::exp(std::min(std::max(s_.log_factor, -1.5), 1.5));
  const double rate = s_.spec.nominal.bytes_per_sec() * s_.spec.efficiency * f;

  // Serve the payload at `rate`, pausing across outage windows.
  double t = (now + s_.spec.latency).seconds();
  double remaining = size.as_double();
  for (const LinkOutage& o : s_.spec.outages) {
    if (o.end.seconds() <= t) continue;
    if (t >= o.start.seconds()) {
      t = o.end.seconds();  // started mid-outage: wait it out
      continue;
    }
    const double capacity = rate * (o.start.seconds() - t);
    if (remaining <= capacity) {
      return WallSeconds(t + remaining / rate) - now;
    }
    remaining -= capacity;
    t = o.end.seconds();
  }
  return WallSeconds(t + remaining / rate) - now;
}

NetworkLink::TransferAttempt NetworkLink::plan_transfer(Bytes size,
                                                        WallSeconds now) {
  TransferAttempt attempt;
  attempt.duration = transfer_duration(size, now);
  attempt.bytes_moved = size;
  if (s_.spec.failure_probability <= 0.0) return attempt;
  if (s_.fault_rng.uniform() >= s_.spec.failure_probability) return attempt;
  attempt.failed = true;
  // Abort at a sampled progress fraction; the wall time burned is the time
  // that partial payload takes over the same link (outage pauses included).
  attempt.bytes_moved = size * s_.fault_rng.uniform();
  attempt.duration = transfer_duration(attempt.bytes_moved, now);
  return attempt;
}

NetworkLink::ProbeResult NetworkLink::probe(WallSeconds now, Bytes probe_size) {
  const WallSeconds elapsed = transfer_duration(probe_size, now);
  // The probe includes latency in its timing, exactly like timing a real
  // message, so the measured figure is slightly below the true bandwidth.
  // A degenerate probe (zero payload over a zero-latency link) completes
  // in no time; report the instantaneous rate instead of dividing by zero.
  const Bandwidth measured =
      elapsed.seconds() > 0.0
          ? Bandwidth(probe_size.as_double() / elapsed.seconds())
          : current_bandwidth(now);
  return ProbeResult{measured, elapsed};
}

}  // namespace adaptviz

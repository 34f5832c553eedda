// Wide-area link between the simulation and visualization sites.
//
// Real WANs fluctuate; the paper's application manager therefore *measures*
// bandwidth by timing a ~1 GB message rather than trusting a nominal figure.
// NetworkLink models the true instantaneous bandwidth as a mean-reverting
// AR(1) multiplicative factor around the nominal rate, re-sampled on a fixed
// cadence; probe() reproduces the paper's measurement (time a probe payload,
// divide) including the noise that real probes see.
#pragma once

#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace adaptviz {

/// A window of total link unavailability (maintenance, route flap, ...).
struct LinkOutage {
  WallSeconds start{};
  WallSeconds end{};
};

struct LinkSpec {
  Bandwidth nominal;
  /// Scheduled outages (sorted, non-overlapping). No bytes move inside a
  /// window; a transfer in flight resumes when the link returns — the
  /// resource dynamics the application manager must ride out.
  std::vector<LinkOutage> outages;
  /// Sustained-transfer efficiency in (0, 1]: the fraction of the nominal
  /// link rate a single long-lived stream actually achieves. 2010-era bulk
  /// transfers over high-RTT WANs (TCP window limits, shared paths) rarely
  /// sustained more than ~a third of the quoted capacity — exactly why the
  /// paper *measures* bandwidth instead of trusting the spec sheet.
  double efficiency = 1.0;
  /// Relative stddev of the stationary fluctuation factor (0 = constant).
  double fluctuation_sigma = 0.0;
  /// AR(1) persistence per update step, in [0, 1); higher = slower drift.
  double persistence = 0.9;
  /// Virtual-time spacing between factor updates.
  WallSeconds update_period = WallSeconds::hours(0.25);
  /// One-way latency added to every transfer.
  WallSeconds latency = WallSeconds(0.05);
  /// Failure injection: probability in [0, 1] that a single transfer
  /// attempt aborts mid-flight (route flap, TCP reset, receiver hiccup —
  /// the failure modes a real intercontinental WAN shows routinely). The
  /// abort point is a uniformly sampled progress fraction. Draws come from
  /// a dedicated seeded stream, so enabling failures does not perturb the
  /// AR(1) bandwidth fluctuation path and runs stay deterministic.
  double failure_probability = 0.0;
};

class NetworkLink {
 public:
  NetworkLink(LinkSpec spec, std::uint64_t seed);

  /// True instantaneous bandwidth at virtual time `now` (zero during an
  /// outage window).
  [[nodiscard]] Bandwidth current_bandwidth(WallSeconds now);

  /// Wall time to move `size` starting at `now`: latency + serving time at
  /// the current rate, skipping over any outage windows in between.
  [[nodiscard]] WallSeconds transfer_duration(Bytes size, WallSeconds now);

  /// One planned transfer attempt under the failure model: either the full
  /// payload lands after `duration`, or the attempt aborts (`failed`) after
  /// moving `bytes_moved` of it. An aborted attempt delivers nothing — the
  /// partial bytes are wasted wire time the sender must pay again.
  struct TransferAttempt {
    bool failed = false;
    WallSeconds duration{};
    Bytes bytes_moved{};
  };
  [[nodiscard]] TransferAttempt plan_transfer(Bytes size, WallSeconds now);

  /// True when `t` falls inside a scheduled outage.
  [[nodiscard]] bool in_outage(WallSeconds t) const;

  /// The application manager's measurement: times `probe_size` over the link
  /// and reports size/time. Returns the measured bandwidth and the probe's
  /// duration (the measurement itself costs wall time).
  struct ProbeResult {
    Bandwidth measured;
    WallSeconds elapsed;
  };
  [[nodiscard]] ProbeResult probe(WallSeconds now,
                                  Bytes probe_size = Bytes::gigabytes(1));

  [[nodiscard]] const LinkSpec& spec() const { return s_.spec; }

  /// Failure injection (adversary hooks): replace the sustained-transfer
  /// efficiency / the per-attempt abort probability mid-run. Both take
  /// effect on the next transfer planned; neither consumes an RNG draw, so
  /// applying the same mutation at the same virtual time reproduces the
  /// same downstream byte stream.
  void set_efficiency(double efficiency);
  void set_failure_probability(double p);

  /// The link's full dynamic state: the (mutable) spec, both RNG stream
  /// positions, and the AR(1) fluctuation factor. Restoring replays the
  /// exact same bandwidth and failure sequence.
  struct State {
    LinkSpec spec;
    Rng rng;        // AR(1) fluctuation stream
    Rng fault_rng;  // failure-injection stream (independent of rng)
    double log_factor = 0.0;  // log of the multiplicative factor
    WallSeconds last_update{0.0};
  };
  [[nodiscard]] State snapshot() const { return s_; }
  void restore(const State& s) { s_ = s; }

 private:
  void advance_factor(WallSeconds now);

  State s_;
};

}  // namespace adaptviz

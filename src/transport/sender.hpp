// Frame sender daemon (simulation site).
//
// "The frame sender daemon continuously checks for the availability of
// climate data output frames and sends the available frames over the
// network to the remote visualization site." Transferred frames are removed
// from the simulation site's disk, freeing space (the paper's core
// assumption). One frame is in flight at a time (the WAN path is the
// bottleneck; pipelining frames would not add throughput on a single link).
//
// Reliability: a transfer attempt can abort mid-flight (NetworkLink's
// injectable failure model). The sender is a retry state machine — a failed
// frame goes back to the catalog head with its disk bytes intact
// (delete-after-transfer semantics: nothing is released until the frame has
// actually landed), the next attempt waits out the shared retry ladder
// (transport/retry.hpp), and after `degrade_after` consecutive failures the
// sender latches a link_degraded flag the application manager and decision
// algorithms can observe (the transport analogue of the paper's CRITICAL
// disk flag). Every frame written is therefore delivered exactly once, in
// order, regardless of the failure rate.
#pragma once

#include <cstdint>
#include <functional>

#include "dataio/frame.hpp"
#include "resources/disk.hpp"
#include "resources/event_queue.hpp"
#include "resources/network.hpp"
#include "transport/bandwidth_estimator.hpp"
#include "transport/retry.hpp"

namespace adaptviz {

class FrameSender {
 public:
  /// Called at the receiver side when a frame's last byte arrives.
  using DeliveryFn = std::function<void(const Frame&)>;

  struct Options {
    WallSeconds poll_interval{10.0};
    RetryPolicy retry{};
    /// Seed for the backoff-jitter RNG.
    std::uint64_t seed = 0x5e7d;
  };

  FrameSender(EventQueue& queue, NetworkLink& link, FrameCatalog& catalog,
              DiskModel& disk, BandwidthEstimator& estimator,
              DeliveryFn deliver, Options options);

  /// Starts the daemon loop (idempotent).
  void start();
  /// Stops the daemon. An in-flight transfer is abandoned: when its
  /// completion event fires it neither delivers nor releases disk — the
  /// frame returns to the catalog head, ready for a restarted sender.
  void stop();
  /// Hint that a frame may be available (e.g. the simulation just wrote
  /// one); cheaper than waiting out the poll interval. Ignored while a
  /// retry backoff is pending — the backoff owns the next attempt.
  void kick();

  [[nodiscard]] std::int64_t frames_sent() const { return s_.frames_sent; }
  [[nodiscard]] Bytes bytes_sent() const { return s_.bytes_sent; }
  [[nodiscard]] bool transfer_in_flight() const { return s_.in_flight; }

  /// Aborted transfer attempts since construction.
  [[nodiscard]] std::int64_t transfer_failures() const { return s_.failures; }
  /// Re-attempts started after a backoff wait.
  [[nodiscard]] std::int64_t transfer_retries() const { return s_.retries; }
  /// Failures since the last successful transfer.
  [[nodiscard]] int consecutive_failures() const {
    return s_.ladder.consecutive_failures;
  }
  /// Latched after `degrade_after` consecutive failures; cleared by the
  /// next success. The escalation signal for the decision algorithms.
  [[nodiscard]] bool link_degraded() const { return s_.ladder.degraded; }
  /// Backoff delay of the pending retry (zero when none is pending).
  [[nodiscard]] WallSeconds current_backoff() const {
    return s_.current_backoff;
  }
  [[nodiscard]] bool retry_pending() const { return s_.retry_pending; }

  /// The whole retry state machine: phase flags, the retry ladder (failure
  /// count, degraded latch, jitter stream), and delivery counters. The
  /// in-flight transfer itself lives as a pending completion event in the
  /// EventQueue — its closure holds the frame by value, so restoring
  /// queue + sender state together resumes the transfer exactly.
  struct State {
    RetryLadder ladder;
    bool running = false;
    bool in_flight = false;
    bool poll_scheduled = false;
    bool retry_pending = false;
    WallSeconds current_backoff{0.0};
    std::int64_t frames_sent = 0;
    std::int64_t failures = 0;
    std::int64_t retries = 0;
    Bytes bytes_sent{};
  };
  [[nodiscard]] State snapshot() const { return s_; }
  void restore(const State& s) { s_ = s; }

 private:
  void poll_event();
  void retry_event();
  void try_send();
  void begin_transfer();
  void on_transfer_failed(Frame frame);

  EventQueue& queue_;
  NetworkLink& link_;
  FrameCatalog& catalog_;
  DiskModel& disk_;
  BandwidthEstimator& estimator_;
  const DeliveryFn deliver_;
  const Options options_;
  State s_;
};

}  // namespace adaptviz

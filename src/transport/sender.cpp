#include "transport/sender.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "util/logging.hpp"

namespace adaptviz {

FrameSender::FrameSender(EventQueue& queue, NetworkLink& link,
                         FrameCatalog& catalog, DiskModel& disk,
                         BandwidthEstimator& estimator, DeliveryFn deliver,
                         Options options)
    : queue_(queue),
      link_(link),
      catalog_(catalog),
      disk_(disk),
      estimator_(estimator),
      deliver_(std::move(deliver)),
      options_(options),
      s_{.ladder = RetryLadder(options.seed)} {
  if (!deliver_) throw std::invalid_argument("FrameSender: null delivery");
  if (options_.poll_interval.seconds() <= 0) {
    throw std::invalid_argument("FrameSender: poll interval must be > 0");
  }
  validate(options_.retry);
}

void FrameSender::start() {
  if (s_.running) return;
  s_.running = true;
  try_send();
}

void FrameSender::stop() { s_.running = false; }

void FrameSender::kick() { try_send(); }

void FrameSender::poll_event() {
  s_.poll_scheduled = false;
  try_send();
}

void FrameSender::retry_event() {
  s_.retry_pending = false;
  s_.current_backoff = WallSeconds(0.0);
  if (!s_.running) return;
  ++s_.retries;
  obs::count("transport.retries");
  try_send();
}

void FrameSender::try_send() {
  // A pending retry owns the next attempt: kicks and polls must not sneak
  // a transfer in ahead of the backoff.
  if (!s_.running || s_.in_flight || s_.retry_pending) return;
  if (catalog_.empty()) {
    if (!s_.poll_scheduled) {
      s_.poll_scheduled = true;
      queue_.schedule_after(
          options_.poll_interval, [this] { poll_event(); }, "sender.poll");
    }
    return;
  }
  begin_transfer();
}

void FrameSender::begin_transfer() {
  Frame frame = catalog_.pop_oldest();
  s_.in_flight = true;
  const WallSeconds start = queue_.now();
  const NetworkLink::TransferAttempt attempt =
      link_.plan_transfer(frame.size, start);
  obs::count("transport.attempts");
  ADAPTVIZ_LOG_DEBUG("sender", "frame #%lld (%s) in flight, eta %.1fs%s",
                     static_cast<long long>(frame.sequence),
                     to_string(frame.size).c_str(),
                     attempt.duration.seconds(),
                     attempt.failed ? " [will abort]" : "");
  queue_.schedule_after(
      attempt.duration,
      [this, frame = std::move(frame), attempt, start] {
        s_.in_flight = false;
        if (!s_.running) {
          // Stopped mid-flight: nothing was delivered and the bytes are
          // still on disk. Put the frame back so it is not silently lost —
          // a restarted sender ships it first.
          catalog_.requeue_front(frame);
          return;
        }
        if (attempt.failed) {
          on_transfer_failed(frame);
          return;
        }
        // Transferred data is removed from the simulation site (paper,
        // Section I), freeing disk for new frames. Only a *successful*
        // transfer releases disk or feeds the bandwidth estimate.
        disk_.release(frame.size);
        estimator_.record_transfer(frame.size, attempt.duration);
        if (s_.ladder.succeed()) {
          obs::gauge_set("transport.link_degraded", 0.0);
        }
        ++s_.frames_sent;
        s_.bytes_sent += frame.size;
        obs::count("transport.frames_sent");
        obs::trace_sim("transport.transfer", start.seconds(),
                       attempt.duration.seconds(),
                       "seq=" + std::to_string(frame.sequence) +
                           " gb=" + std::to_string(frame.size.gb()));
        deliver_(frame);
        try_send();
      },
      "sender.complete");
}

void FrameSender::on_transfer_failed(Frame frame) {
  ++s_.failures;
  obs::count("transport.failures");
  const RetryLadder::Failure step = s_.ladder.fail(options_.retry);
  if (step.latched) {
    obs::gauge_set("transport.link_degraded", 1.0);
    ADAPTVIZ_LOG_INFO("sender",
                      "[%s] link degraded after %d consecutive failures",
                      hh_mm(queue_.now()).c_str(),
                      s_.ladder.consecutive_failures);
  }
  const std::int64_t seq = frame.sequence;
  // The frame's bytes never left the simulation site: disk is NOT
  // released, and the frame returns to the catalog head to be re-sent
  // (the paper's delete-after-transfer semantics).
  catalog_.requeue_front(std::move(frame));
  s_.current_backoff = step.backoff;
  s_.retry_pending = true;
  const double delay = s_.current_backoff.seconds();
  obs::observe("transport.backoff_seconds", delay);
  ADAPTVIZ_LOG_DEBUG("sender",
                     "frame #%lld aborted (failure %d in a row), retry in "
                     "%.1fs%s",
                     static_cast<long long>(seq),
                     s_.ladder.consecutive_failures, delay,
                     s_.ladder.degraded ? " [LINK DEGRADED]" : "");
  queue_.schedule_after(
      s_.current_backoff, [this] { retry_event(); }, "sender.retry");
}

}  // namespace adaptviz

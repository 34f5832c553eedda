// Registration server: one serve process fronting N live simulations.
//
// ISAAC-style in-situ pipelines invert the usual connection direction: the
// *simulation* registers with a long-lived server when it starts, and
// observers discover and join runs through that server rather than
// connecting to the simulation directly. The RegistrationServer is that
// rendezvous point for this codebase:
//
//  * Simulations register under their (unique) run label — the campaign
//    runner wires every concurrent run of a sweep to one shared server, so
//    a single serve process fronts K registered runs at once.
//  * Observers steer by label or run id from any thread; events buffer in
//    the run's inbox (pre-registration events wait in a pending queue and
//    are handed over the moment the run registers, so "attach at wall X"
//    scripts work no matter which side starts first).
//  * Each run's event loop *pulls*: the framework drains the inbox
//    periodically (in virtual time) and stamps every event onto its own
//    deterministic steering stream. The server never pushes into a run, so
//    cross-thread timing can never leak into simulation results — each run
//    in a concurrent campaign stays bitwise identical to the same run
//    alone.
//  * The outbound direction (observe) keeps a bounded per-run tail of
//    recent observations for monitoring UIs, and the campaign runner
//    publishes live sweep progress (CampaignView) through the same object.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "steering/control_plane.hpp"

namespace adaptviz {

/// Monitoring snapshot of one registered run.
struct RunView {
  std::int64_t id = -1;
  std::string label;
  bool active = false;        // false once deregistered
  std::size_t inbox = 0;      // events waiting to be drained
  int observers = 0;          // attach events minus detach events
  std::int64_t events = 0;    // total events accepted for this run
  SteeringObservation last_observation{};
  std::int64_t observations = 0;
};

/// Live sweep progress published by a campaign runner fronted by this
/// server (plain data so serve/ stays independent of campaign/).
struct CampaignView {
  std::string name;
  std::size_t finished = 0;
  std::size_t total = 0;
  std::string last_label;  // most recently finished run
  bool last_failed = false;
};

/// Thread-safe multi-run registration server. All methods may be called
/// from any thread; runs drain their inboxes from their own event loops.
class RegistrationServer {
 public:
  /// Handle for one registered run.
  using RunId = std::int64_t;

  // -- run side (the framework) --
  /// A simulation announces itself under its run label. Throws
  /// std::invalid_argument when `label` is already registered and still
  /// active (finished labels are reusable).
  RunId register_run(const std::string& label);
  /// The run is over; its label becomes reusable. Idempotent.
  void deregister_run(RunId run);
  /// Outbound: the run publishes a per-visualized-frame observation.
  void observe(RunId run, const SteeringObservation& obs);
  /// FIFO events with wall <= now. The run-side pull: called from the
  /// owning run's event loop.
  std::vector<SteeringEvent> drain(RunId run, WallSeconds now);

  // -- observer side --
  /// Validates and enqueues (malformed events are rejected here and never
  /// reach the decision algorithms); event.wall is the earliest virtual
  /// time the run may apply the event at (0 = as soon as drained).
  void steer(RunId run, SteeringEvent event);

  /// Steers the run registered under `label`; events sent before the run
  /// registers wait in a pending queue and are delivered on registration.
  void steer(const std::string& label, SteeringEvent event);
  /// Attach by label; buffers like steer() when the run is not yet live.
  void attach(const std::string& label, const std::string& client,
              const ObserverSpec& spec);
  void detach(const std::string& label, const std::string& client);

  // -- monitoring --
  [[nodiscard]] std::vector<RunView> runs() const;
  [[nodiscard]] int active_runs() const;
  [[nodiscard]] int peak_active_runs() const;
  [[nodiscard]] std::int64_t total_registered() const;

  void publish_campaign(const CampaignView& view);
  [[nodiscard]] CampaignView campaign() const;

  /// Observations retained per run for runs()/monitoring (oldest dropped).
  static constexpr std::size_t kObservationTail = 64;

 private:
  struct RunSlot {
    std::string label;
    bool active = true;
    std::deque<SteeringEvent> inbox;
    int observers = 0;
    std::int64_t events = 0;
    SteeringObservation last_observation{};
    std::deque<SteeringObservation> tail;
    std::int64_t observations = 0;
  };

  RunSlot& slot_for(RunId run);  // callers hold mutex_
  void enqueue(RunSlot& slot, SteeringEvent event);

  mutable std::mutex mutex_;
  std::map<RunId, RunSlot> runs_;
  std::map<std::string, RunId> by_label_;  // active labels only
  std::map<std::string, std::deque<SteeringEvent>> pending_by_label_;
  RunId next_run_ = 0;
  int peak_active_ = 0;
  CampaignView campaign_{};
};

}  // namespace adaptviz

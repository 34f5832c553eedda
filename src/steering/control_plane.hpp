// The unified control plane: one protocol for registration, observer
// attach/detach, steering and observation.
//
// PR 2's serving subsystem made viewer sessions passive replay/tail
// consumers and the original steering module was a one-way, single-channel
// command pipe. ISAAC-style in-situ designs close the loop instead:
// simulations *register* with a server, observers attach and detach
// dynamically while the run is live, and client metadata (view angle,
// resolution requests, "I need frames more often") flows back to the
// simulation. The `ControlPlane` interface below is that protocol; serve,
// steering, the campaign runner and the framework all speak it:
//
//  * register/deregister — a simulation announces itself under its run
//    label; one serve process fronts N registered runs at once
//    (serve/registration.hpp implements the multi-run server).
//  * attach/detach — an observer joins or leaves a registered run mid-run.
//  * steer — an inbound client event: a simulation command (pause, output
//    bounds, ...), a per-client view change (pan/zoom/field/colormap), or
//    a knob proposal surfaced to the decision algorithms.
//  * observe — the outbound direction: the simulation publishes a
//    per-visualized-frame observation to whoever is attached.
//
// Determinism: every inbound event is applied as a timestamped
// `SteeringEvent` record on a dedicated RNG-free stream. The applied
// stream can be saved to / replayed from `steering_log.jsonl`
// (exact-round-trip JSONL: hexfloat doubles, percent-encoded strings);
// replaying a recorded log reproduces the original run bit for bit,
// because event application is a pure function of (virtual wall time,
// payload) on the run's event queue.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "resources/event_queue.hpp"
#include "steering/steering.hpp"

namespace adaptviz {

/// Stable handle for one attached client/observer. Handles are never
/// recycled: a ClientId stays valid (for stats/series queries) after the
/// client detaches, and re-attaching resumes the same handle.
struct ClientId {
  std::int64_t value = -1;

  [[nodiscard]] bool valid() const { return value >= 0; }
  friend bool operator==(ClientId a, ClientId b) { return a.value == b.value; }
  friend bool operator!=(ClientId a, ClientId b) { return a.value != b.value; }
};

/// Per-client view steering: what one observer wants rendered. Changing
/// any of these re-renders the client's current frame at the visualization
/// site; identical (frame, view) requests from different clients are
/// served by one render.
struct ViewCommand {
  std::string field = "default";     // diagnostic to render
  std::string colormap = "default";  // color mapping
  double zoom = 1.0;                 // magnification (> 0)
  double center_lat = 0.0;           // pan target, degrees
  double center_lon = 0.0;
};

/// Throws std::invalid_argument on a malformed view (zoom <= 0, pan target
/// off the globe, empty field/colormap).
void validate(const ViewCommand& view);

/// Canonical dedup key: two ViewCommands with the same key request the
/// same render. The default view maps to "" so default-view re-renders
/// share work exactly like the pre-control-plane cache-miss path.
std::string view_key(const ViewCommand& view);

/// Observer-driven knob proposal — the third decision input. Attached
/// observers may propose simulation knobs; the application manager
/// aggregates the strictest proposals into DecisionInput::observers and
/// tightens the bounds the algorithms work within. Zero values mean "no
/// opinion on that knob".
struct KnobProposal {
  SimSeconds max_output_interval{0.0};  // "frames at least this often"
  double resolution_floor_km = 0.0;     // "never refine below this"
  std::string reason;
};

/// Throws std::invalid_argument on negative proposal values.
void validate(const KnobProposal& proposal);

/// Observer session parameters carried by an attach event — plain data so
/// the steering layer stays independent of serve/ types. The framework
/// translates this into a ViewerConfig when the attach is applied.
struct ObserverSpec {
  std::string mode = "live-tail";  // "live-tail" | "catch-up"
  double downlink_mbps = 100.0;
  double catchup_start_hours = 0.0;
};

/// Throws std::invalid_argument on a malformed spec (unknown mode,
/// non-positive downlink, negative catch-up start).
void validate(const ObserverSpec& spec);

/// One timestamped record on the control plane's event stream — the unit
/// of the steering_log.jsonl format and the only way client input reaches
/// a run. RNG-free by construction: application is a pure function of
/// (wall, payload).
struct SteeringEvent {
  enum class Type { kCommand, kView, kProposal, kAttach, kDetach };

  /// Virtual wall time the event applies at the simulation site. For
  /// inbound live events this is stamped at delivery (drain time + channel
  /// latency); for scripted/replayed events it is the exact apply time.
  WallSeconds wall{0.0};
  /// Originating client name ("" = scripted / in-run policy).
  std::string client;
  Type type = Type::kCommand;

  SteeringCommand command{};  // kCommand
  ViewCommand view{};         // kView
  KnobProposal proposal{};    // kProposal
  ObserverSpec attach{};      // kAttach
};

const char* to_string(SteeringEvent::Type type);
SteeringEvent::Type steering_event_type_from(const std::string& name);

/// Validates the payload matching the event's type (and wall >= 0).
/// Throws std::invalid_argument naming the offending field.
void validate(const SteeringEvent& event);

// ---- steering_log.jsonl codec ----
//
// One event per line, a flat JSON object whose values are all strings:
// doubles travel as hexfloats (`%a`) and free-form strings are
// percent-encoded, so the round trip is exact and a line never contains a
// raw newline or quote. Example:
//
//   {"wall":"0x1.77p+12","client":"viewer000","type":"view",
//    "field":"pressure","colormap":"viridis","zoom":"0x1p+1",
//    "lat":"0x1.4p+4","lon":"0x1.6p+6"}

/// One JSONL line (no trailing newline).
std::string to_jsonl(const SteeringEvent& event);

/// Inverse of to_jsonl. Throws std::runtime_error naming the malformed
/// token; unknown keys are rejected.
SteeringEvent steering_event_from_jsonl(const std::string& line);

/// Writes one line per event (+ trailing newline). Throws
/// std::runtime_error when the file cannot be written.
void save_steering_log(const std::string& path,
                       const std::vector<SteeringEvent>& events);

/// Loads a steering_log.jsonl; blank lines are skipped. Throws
/// std::runtime_error on unreadable files or malformed lines.
std::vector<SteeringEvent> load_steering_log(const std::string& path);

// ---- The control-plane interface ----

class ControlPlane {
 public:
  /// Handle for one registered run.
  using RunId = std::int64_t;

  virtual ~ControlPlane() = default;

  /// A simulation announces itself under its (unique) run label. Throws
  /// std::invalid_argument when the label is already registered and live.
  virtual RunId register_run(const std::string& label) = 0;

  /// The run is over; its label becomes reusable. Idempotent.
  virtual void deregister_run(RunId run) = 0;

  /// An observer joins the run. The attach travels the event stream like
  /// any other client input (so it is recorded and replayable); the
  /// returned handle is the server-side identity used for detach().
  virtual ClientId attach(RunId run, const std::string& client,
                          const ObserverSpec& spec) = 0;

  /// The observer leaves. Also an event on the stream.
  virtual void detach(RunId run, ClientId client) = 0;

  /// Inbound client event. Validated here — malformed commands are
  /// rejected at the boundary and never reach the decision algorithms.
  virtual void steer(RunId run, SteeringEvent event) = 0;

  /// Outbound: the run publishes a per-visualized-frame observation.
  virtual void observe(RunId run, const SteeringObservation& obs) = 0;

  /// Run-side mailbox pull: events due at virtual time `now`, FIFO. A
  /// run's event loop drains its inbox periodically; implementations with
  /// no mailbox (the in-process plane applies directly) return {}.
  virtual std::vector<SteeringEvent> drain(RunId run, WallSeconds now) = 0;
};

/// In-process, single-run control plane: the authoritative applier of a
/// run's steering events. `steer()` delivers onto the run's event queue
/// one channel latency later (in order); every applied event lands in the
/// ApplyFn, which the framework uses to mutate state *and* record the
/// replayable log. `schedule_replay()` is the other half: it applies a
/// recorded event at exactly its logged wall time.
class LocalControlPlane : public ControlPlane {
 public:
  using ApplyFn = std::function<void(const SteeringEvent&)>;

  /// Throws std::invalid_argument on a null apply fn or negative latency.
  LocalControlPlane(EventQueue& queue, WallSeconds latency, ApplyFn apply);

  RunId register_run(const std::string& label) override;
  void deregister_run(RunId run) override;
  ClientId attach(RunId run, const std::string& client,
                  const ObserverSpec& spec) override;
  void detach(RunId run, ClientId client) override;
  void steer(RunId run, SteeringEvent event) override;
  /// No observers attach to the in-process plane; observations go to an
  /// external plane (ExperimentConfig::steering.control_plane).
  void observe(RunId, const SteeringObservation&) override {}
  std::vector<SteeringEvent> drain(RunId, WallSeconds) override { return {}; }

  /// Convenience for command senders (the in-run policy): wraps `command`
  /// in a kCommand event and steers it `extra_delay` from now (plus the
  /// channel latency). Throws std::invalid_argument on a malformed command
  /// or a negative delay; nothing is queued then.
  void send_command(SteeringCommand command,
                    WallSeconds extra_delay = WallSeconds(0.0));

  /// Applies `event` at exactly event.wall (no added latency) — the
  /// replay path for recorded logs.
  void schedule_replay(const SteeringEvent& event);

  [[nodiscard]] int events_sent() const { return s_.sent; }
  [[nodiscard]] int events_applied() const { return s_.applied; }
  [[nodiscard]] WallSeconds latency() const { return latency_; }

  /// Registration and delivery bookkeeping. In-flight deliveries are
  /// pending queue events carrying their SteeringEvent by value, so they
  /// rewind with the EventQueue; the counters here make events_sent()/
  /// events_applied() consistent with the rewound stream.
  struct State {
    std::string label;
    bool registered = false;
    std::vector<std::string> names;  // client id -> name (ids are indices)
    // In-order delivery even if latency were ever made variable.
    WallSeconds last_delivery{0.0};
    int sent = 0;
    int applied = 0;
  };
  [[nodiscard]] State snapshot() const { return s_; }
  void restore(const State& s) { s_ = s; }

 private:
  void schedule_apply(WallSeconds at, SteeringEvent event);

  EventQueue& queue_;
  const WallSeconds latency_;
  const ApplyFn apply_;
  State s_;
};

}  // namespace adaptviz

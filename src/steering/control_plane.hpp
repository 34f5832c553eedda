// The steering event stream: the records through which client input
// reaches a run, and their exact-round-trip log format.
//
// ISAAC-style in-situ designs close the loop between a simulation and its
// observers: simulations *register* with a server, observers attach and
// detach while the run is live, and client input (view changes, commands,
// "I need frames more often") flows back to the simulation. Every such
// input is one timestamped `SteeringEvent`:
//
//  * a simulation command (pause, output bounds, ...);
//  * a per-client view change (pan/zoom/field/colormap);
//  * a knob proposal surfaced to the decision algorithms;
//  * an observer attach or detach.
//
// Events reach a run in one of three ways, all delivered by the framework
// (core/framework.hpp) onto the run's event queue: in-run policy commands
// and events drained from a RegistrationServer (serve/registration.hpp)
// apply one channel latency after they arrive; replayed events apply at
// exactly their logged wall time.
//
// Determinism: the stream is RNG-free. The applied stream can be saved to /
// replayed from `steering_log.jsonl` (exact-round-trip JSONL: hexfloat
// doubles, percent-encoded strings); replaying a recorded log reproduces
// the original run bit for bit, because event application is a pure
// function of (virtual wall time, payload) on the run's event queue.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

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

/// One timestamped record on the steering event stream — the unit of the
/// steering_log.jsonl format and the only way client input reaches a run. RNG-free by construction: application is a pure function of
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

}  // namespace adaptviz

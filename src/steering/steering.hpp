// Computational steering: the visualization site talks back.
//
// The paper's stated future work: "We also intend to investigate
// interactive simulation/visualization, so that user input based on the
// visualization can steer the simulation." This module implements that
// reverse path: a scientist (or an automated policy standing in for one)
// inspects frames as they are visualized and issues commands that travel
// back over the WAN to the simulation site, where the framework applies
// them — adjusting the visualization-frequency requirements the decision
// algorithms honour, capping how deep the resolution ladder may refine,
// resizing the moving nest, or pausing/resuming the run entirely.
//
// Commands are tiny (bytes), so the channel is latency-dominated rather
// than bandwidth-dominated; each command is delivered one WAN round-trip
// delay after it is issued.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "core/decision.hpp"

namespace adaptviz {

struct SteeringCommand {
  enum class Kind {
    /// Change the output-interval bounds the decision algorithms work
    /// within (e.g. "I need frames at least every 10 simulated minutes
    /// while the storm is near landfall").
    kSetOutputBounds,
    /// Do not refine below this resolution (budget guard: finer grids mean
    /// larger frames and slower steps).
    kSetResolutionFloor,
    /// Resize the moving nest footprint (degrees each way).
    kSetNestExtent,
    /// Hold the simulation (the scientist wants to catch up / inspect).
    kPause,
    /// Release a previous kPause.
    kResume,
  };

  Kind kind = Kind::kPause;
  DecisionBounds bounds{};            // kSetOutputBounds
  double resolution_floor_km = 0.0;   // kSetResolutionFloor
  double nest_extent_deg = 0.0;       // kSetNestExtent
  /// kPause only: automatically resume this long after the pause lands
  /// (zero = hold until an explicit kResume). A paused simulation produces
  /// no frames, so a frame-driven policy could otherwise never wake it.
  WallSeconds auto_resume_after{0.0};
  /// Free-form annotation carried for the experiment log.
  std::string reason;
};

const char* to_string(SteeringCommand::Kind kind);

/// Rejects malformed commands at the sending boundary, before they can
/// reach the decision algorithms: kSetOutputBounds with non-positive or
/// inverted bounds, negative resolution_floor_km / nest_extent_deg, and a
/// negative auto-resume delay all throw std::invalid_argument.
void validate(const SteeringCommand& command);

/// What a steering policy sees per visualized frame: the progress record
/// plus the headline diagnostics that ride in the frame metadata (a frame
/// carries no field data).
struct SteeringObservation {
  WallSeconds wall_time{};
  SimSeconds sim_time{};
  std::int64_t sequence = 0;
  double min_pressure_hpa = 0.0;
  double resolution_km = 0.0;
  bool nest_active = false;
};

/// A scientist stand-in: invoked at the visualization site for every frame;
/// may return a command to send upstream.
using SteeringPolicy =
    std::function<std::optional<SteeringCommand>(const SteeringObservation&)>;

}  // namespace adaptviz

#include "steering/steering.hpp"

#include <stdexcept>

namespace adaptviz {

const char* to_string(SteeringCommand::Kind kind) {
  switch (kind) {
    case SteeringCommand::Kind::kSetOutputBounds:
      return "set-output-bounds";
    case SteeringCommand::Kind::kSetResolutionFloor:
      return "set-resolution-floor";
    case SteeringCommand::Kind::kSetNestExtent:
      return "set-nest-extent";
    case SteeringCommand::Kind::kPause:
      return "pause";
    case SteeringCommand::Kind::kResume:
      return "resume";
  }
  return "?";
}

void validate(const SteeringCommand& command) {
  switch (command.kind) {
    case SteeringCommand::Kind::kSetOutputBounds:
      if (command.bounds.min_output_interval.seconds() <= 0) {
        throw std::invalid_argument(
            "steering command: non-positive min_output_interval");
      }
      if (command.bounds.min_output_interval >
          command.bounds.max_output_interval) {
        throw std::invalid_argument(
            "steering command: inverted output-interval bounds");
      }
      break;
    case SteeringCommand::Kind::kSetResolutionFloor:
      if (command.resolution_floor_km < 0) {
        throw std::invalid_argument(
            "steering command: negative resolution_floor_km");
      }
      break;
    case SteeringCommand::Kind::kSetNestExtent:
      if (command.nest_extent_deg < 0) {
        throw std::invalid_argument(
            "steering command: negative nest_extent_deg");
      }
      break;
    case SteeringCommand::Kind::kPause:
      if (command.auto_resume_after.seconds() < 0) {
        throw std::invalid_argument(
            "steering command: negative auto_resume_after");
      }
      break;
    case SteeringCommand::Kind::kResume:
      break;
  }
}

}  // namespace adaptviz

#include "steering/control_plane.hpp"

#include <fstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "util/wire.hpp"

namespace adaptviz {

void validate(const ViewCommand& view) {
  if (view.field.empty()) {
    throw std::invalid_argument("view command: empty field");
  }
  if (view.colormap.empty()) {
    throw std::invalid_argument("view command: empty colormap");
  }
  if (!(view.zoom > 0.0)) {
    throw std::invalid_argument("view command: zoom must be > 0");
  }
  if (view.center_lat < -90.0 || view.center_lat > 90.0) {
    throw std::invalid_argument("view command: center_lat outside [-90, 90]");
  }
  if (view.center_lon < -180.0 || view.center_lon > 180.0) {
    throw std::invalid_argument(
        "view command: center_lon outside [-180, 180]");
  }
}

std::string view_key(const ViewCommand& view) {
  static const ViewCommand kDefault{};
  if (view.field == kDefault.field && view.colormap == kDefault.colormap &&
      view.zoom == kDefault.zoom && view.center_lat == kDefault.center_lat &&
      view.center_lon == kDefault.center_lon) {
    return "";
  }
  // Hexfloats: views equal bit-for-bit share a render, nothing else does.
  return wire::percent_encode(view.field) + "/" +
         wire::percent_encode(view.colormap) + "/" + wire::hexfloat(view.zoom) +
         "/" + wire::hexfloat(view.center_lat) + "/" +
         wire::hexfloat(view.center_lon);
}

void validate(const KnobProposal& proposal) {
  if (proposal.max_output_interval.seconds() < 0) {
    throw std::invalid_argument(
        "knob proposal: negative max_output_interval");
  }
  if (proposal.resolution_floor_km < 0) {
    throw std::invalid_argument("knob proposal: negative resolution_floor_km");
  }
}

void validate(const ObserverSpec& spec) {
  if (spec.mode != "live-tail" && spec.mode != "catch-up") {
    throw std::invalid_argument("observer spec: mode must be live-tail or "
                                "catch-up, got '" +
                                spec.mode + "'");
  }
  if (!(spec.downlink_mbps > 0.0)) {
    throw std::invalid_argument("observer spec: downlink_mbps must be > 0");
  }
  if (spec.catchup_start_hours < 0.0) {
    throw std::invalid_argument(
        "observer spec: negative catchup_start_hours");
  }
}

const char* to_string(SteeringEvent::Type type) {
  switch (type) {
    case SteeringEvent::Type::kCommand:
      return "command";
    case SteeringEvent::Type::kView:
      return "view";
    case SteeringEvent::Type::kProposal:
      return "proposal";
    case SteeringEvent::Type::kAttach:
      return "attach";
    case SteeringEvent::Type::kDetach:
      return "detach";
  }
  return "?";
}

SteeringEvent::Type steering_event_type_from(const std::string& name) {
  if (name == "command") return SteeringEvent::Type::kCommand;
  if (name == "view") return SteeringEvent::Type::kView;
  if (name == "proposal") return SteeringEvent::Type::kProposal;
  if (name == "attach") return SteeringEvent::Type::kAttach;
  if (name == "detach") return SteeringEvent::Type::kDetach;
  throw std::runtime_error("steering log: unknown event type '" + name + "'");
}

void validate(const SteeringEvent& event) {
  if (event.wall.seconds() < 0) {
    throw std::invalid_argument("steering event: negative wall time");
  }
  switch (event.type) {
    case SteeringEvent::Type::kCommand:
      validate(event.command);
      break;
    case SteeringEvent::Type::kView:
      validate(event.view);
      break;
    case SteeringEvent::Type::kProposal:
      validate(event.proposal);
      break;
    case SteeringEvent::Type::kAttach:
      if (event.client.empty()) {
        throw std::invalid_argument("steering event: attach needs a client");
      }
      validate(event.attach);
      break;
    case SteeringEvent::Type::kDetach:
      if (event.client.empty()) {
        throw std::invalid_argument("steering event: detach needs a client");
      }
      break;
  }
}

// ---- steering_log.jsonl codec ----
//
// A log line is a flat JSON object whose values are all strings:
// free-form strings travel percent-encoded, enums by name, and doubles and
// durations as hexfloats, whose alphabet ([0-9a-fx.+-p]) needs no
// encoding. All of them survive the line/JSON layer byte-exactly.

namespace {

SteeringCommand::Kind command_kind_from(const std::string& name) {
  if (name == "set-output-bounds") return SteeringCommand::Kind::kSetOutputBounds;
  if (name == "set-resolution-floor") {
    return SteeringCommand::Kind::kSetResolutionFloor;
  }
  if (name == "set-nest-extent") return SteeringCommand::Kind::kSetNestExtent;
  if (name == "pause") return SteeringCommand::Kind::kPause;
  if (name == "resume") return SteeringCommand::Kind::kResume;
  throw std::runtime_error("steering log: unknown command kind '" + name +
                           "'");
}

template <typename T>
std::string encode_token(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return wire::percent_encode(v);
  } else if constexpr (std::is_same_v<T, double>) {
    return wire::hexfloat(v);
  } else if constexpr (std::is_enum_v<T>) {
    return to_string(v);
  } else {
    return wire::hexfloat(v.seconds());
  }
}

template <typename T>
void decode_token(const std::string& s, T& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    out = wire::percent_decode(s);
  } else if constexpr (std::is_same_v<T, SteeringEvent::Type>) {
    out = steering_event_type_from(s);
  } else if constexpr (std::is_same_v<T, SteeringCommand::Kind>) {
    out = command_kind_from(s);
  } else {
    const auto v = wire::parse_double(s);
    if (!v) {
      throw std::runtime_error("steering log: malformed number '" + s + "'");
    }
    out = T(*v);
  }
}

/// The event's wire fields, in wire order; the payload fields follow the
/// type (decoded before the switch reads it). One list drives both
/// directions, so to_jsonl and steering_event_from_jsonl cannot disagree.
template <typename Event, typename Visitor>
void visit_event(Event& e, Visitor&& field) {
  field("wall", e.wall);
  field("client", e.client);
  field("type", e.type);
  switch (e.type) {
    case SteeringEvent::Type::kCommand:
      field("kind", e.command.kind);
      field("bounds_min_s", e.command.bounds.min_output_interval);
      field("bounds_max_s", e.command.bounds.max_output_interval);
      field("floor_km", e.command.resolution_floor_km);
      field("nest_deg", e.command.nest_extent_deg);
      field("auto_resume_s", e.command.auto_resume_after);
      field("reason", e.command.reason);
      break;
    case SteeringEvent::Type::kView:
      field("field", e.view.field);
      field("colormap", e.view.colormap);
      field("zoom", e.view.zoom);
      field("lat", e.view.center_lat);
      field("lon", e.view.center_lon);
      break;
    case SteeringEvent::Type::kProposal:
      field("max_oi_s", e.proposal.max_output_interval);
      field("floor_km", e.proposal.resolution_floor_km);
      field("reason", e.proposal.reason);
      break;
    case SteeringEvent::Type::kAttach:
      field("mode", e.attach.mode);
      field("downlink_mbps", e.attach.downlink_mbps);
      field("catchup_start_h", e.attach.catchup_start_hours);
      break;
    case SteeringEvent::Type::kDetach:
      break;
  }
}

}  // namespace

std::string to_jsonl(const SteeringEvent& e) {
  std::string out;
  visit_event(e, [&out](const char* key, const auto& value) {
    out += out.empty() ? "{\"" : ",\"";
    out += key;
    out += "\":";
    out += wire::json_quote(encode_token(value));
  });
  return out + "}";
}

SteeringEvent steering_event_from_jsonl(const std::string& line) {
  wire::JsonValue root;
  try {
    root = wire::parse_json(line);
  } catch (const std::runtime_error& err) {
    throw std::runtime_error(std::string("steering log: ") + err.what() +
                             " in '" + line + "'");
  }
  if (root.kind != wire::JsonValue::Kind::kObject) {
    throw std::runtime_error("steering log: not an object: '" + line + "'");
  }
  SteeringEvent e;
  std::size_t taken = 0;
  visit_event(e, [&](const char* key, auto& value) {
    const wire::JsonValue* v = root.find(key);
    if (v == nullptr || v->kind != wire::JsonValue::Kind::kString) {
      throw std::runtime_error(std::string("steering log: missing key '") +
                               key + "' in '" + line + "'");
    }
    decode_token(v->string, value);
    ++taken;
  });
  if (taken != root.object.size()) {
    throw std::runtime_error("steering log: unknown key in '" + line + "'");
  }
  return e;
}

void save_steering_log(const std::string& path,
                       const std::vector<SteeringEvent>& events) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("steering log: cannot write '" + path + "'");
  }
  for (const SteeringEvent& e : events) out << to_jsonl(e) << "\n";
  out.flush();
  if (!out) {
    throw std::runtime_error("steering log: write failed for '" + path + "'");
  }
}

std::vector<SteeringEvent> load_steering_log(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("steering log: cannot read '" + path + "'");
  }
  std::vector<SteeringEvent> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    out.push_back(steering_event_from_jsonl(line));
  }
  return out;
}

}  // namespace adaptviz

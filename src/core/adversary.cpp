#include "core/adversary.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/wire.hpp"

namespace adaptviz {

const char* to_string(AdversaryActionKind kind) {
  switch (kind) {
    case AdversaryActionKind::kBandwidthDrop:
      return "bandwidth-drop";
    case AdversaryActionKind::kFailureBurst:
      return "failure-burst";
    case AdversaryActionKind::kDiskShock:
      return "disk-shock";
  }
  return "?";
}

AdversaryActionKind adversary_action_kind_from(const std::string& name) {
  if (name == "bandwidth-drop") return AdversaryActionKind::kBandwidthDrop;
  if (name == "failure-burst") return AdversaryActionKind::kFailureBurst;
  if (name == "disk-shock") return AdversaryActionKind::kDiskShock;
  throw std::runtime_error(
      "adversary: unknown action kind '" + name +
      "' (expected bandwidth-drop | failure-burst | disk-shock)");
}

std::string to_string(const AdversaryAction& action) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%d:%s=%.17g", action.after_decision,
                to_string(action.kind), action.magnitude);
  return buf;
}

AdversaryAction adversary_action_from(const std::string& text) {
  const auto colon = text.find(':');
  const auto eq = text.find('=');
  if (colon == std::string::npos || eq == std::string::npos || eq < colon) {
    throw std::runtime_error("adversary: malformed action '" + text +
                             "' (expected <k>:<kind>=<magnitude>)");
  }
  AdversaryAction a;
  const auto index = wire::parse_int(text.substr(0, colon));
  if (!index || *index < std::numeric_limits<int>::min() ||
      *index > std::numeric_limits<int>::max()) {
    throw std::runtime_error("adversary: bad decision index in '" + text +
                             "'");
  }
  a.after_decision = static_cast<int>(*index);
  a.kind = adversary_action_kind_from(text.substr(colon + 1, eq - colon - 1));
  const auto magnitude = wire::parse_double(text.substr(eq + 1));
  if (!magnitude) {
    throw std::runtime_error("adversary: bad magnitude in '" + text + "'");
  }
  a.magnitude = *magnitude;
  return a;
}

void validate(const AdversaryPlan& plan) {
  int last = 0;
  for (const AdversaryAction& a : plan) {
    if (a.after_decision < 0) {
      throw std::invalid_argument("adversary plan: negative decision index");
    }
    if (a.after_decision < last) {
      throw std::invalid_argument(
          "adversary plan: actions must be sorted by decision index");
    }
    last = a.after_decision;
    switch (a.kind) {
      case AdversaryActionKind::kBandwidthDrop:
        if (!(a.magnitude > 0.0 && a.magnitude <= 1.0)) {
          throw std::invalid_argument(
              "adversary plan: bandwidth-drop magnitude must be in (0, 1]");
        }
        break;
      case AdversaryActionKind::kFailureBurst:
        if (!(a.magnitude >= 0.0 && a.magnitude <= 1.0)) {
          throw std::invalid_argument(
              "adversary plan: failure-burst magnitude must be in [0, 1]");
        }
        break;
      case AdversaryActionKind::kDiskShock:
        if (!(a.magnitude > 0.0 && a.magnitude <= 1.0)) {
          throw std::invalid_argument(
              "adversary plan: disk-shock magnitude must be in (0, 1]");
        }
        break;
    }
  }
}

std::string to_string(const AdversaryPlan& plan) {
  std::string out;
  for (const AdversaryAction& a : plan) {
    if (!out.empty()) out += ' ';
    out += to_string(a);
  }
  return out;
}

AdversaryPlan adversary_plan_from(const std::string& text) {
  AdversaryPlan plan;
  std::istringstream in(text);
  std::string token;
  while (in >> token) plan.push_back(adversary_action_from(token));
  return plan;
}

}  // namespace adaptviz

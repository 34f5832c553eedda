#include "serve/registration.hpp"

#include <stdexcept>
#include <utility>

#include "util/logging.hpp"

namespace adaptviz {

RegistrationServer::RunSlot& RegistrationServer::slot_for(RunId run) {
  auto it = runs_.find(run);
  if (it == runs_.end()) {
    throw std::invalid_argument("RegistrationServer: unknown run id " +
                                std::to_string(run));
  }
  return it->second;
}

void RegistrationServer::enqueue(RunSlot& slot, SteeringEvent event) {
  validate(event);
  if (event.type == SteeringEvent::Type::kAttach) ++slot.observers;
  if (event.type == SteeringEvent::Type::kDetach) --slot.observers;
  ++slot.events;
  slot.inbox.push_back(std::move(event));
}

RegistrationServer::RunId RegistrationServer::register_run(
    const std::string& label) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (label.empty()) {
    throw std::invalid_argument("RegistrationServer: empty run label");
  }
  if (by_label_.count(label) != 0) {
    throw std::invalid_argument("RegistrationServer: label '" + label +
                                "' is already registered");
  }
  const RunId id = next_run_++;
  RunSlot slot;
  slot.label = label;
  // Events addressed to this label before it went live were parked in the
  // pending queue; they become the new run's initial inbox.
  auto pending = pending_by_label_.find(label);
  if (pending != pending_by_label_.end()) {
    for (SteeringEvent& e : pending->second) enqueue(slot, std::move(e));
    pending_by_label_.erase(pending);
  }
  runs_.emplace(id, std::move(slot));
  by_label_[label] = id;
  const int active = static_cast<int>(by_label_.size());
  if (active > peak_active_) peak_active_ = active;
  ADAPTVIZ_LOG_DEBUG("serve", "run '%s' registered (id %lld, %d live)",
                     label.c_str(), static_cast<long long>(id), active);
  return id;
}

void RegistrationServer::deregister_run(RunId run) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = runs_.find(run);
  if (it == runs_.end() || !it->second.active) return;  // idempotent
  it->second.active = false;
  it->second.inbox.clear();
  by_label_.erase(it->second.label);
}

void RegistrationServer::steer(RunId run, SteeringEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  RunSlot& slot = slot_for(run);
  if (!slot.active) {
    throw std::invalid_argument("RegistrationServer: run '" + slot.label +
                                "' has deregistered");
  }
  enqueue(slot, std::move(event));
}

void RegistrationServer::observe(RunId run, const SteeringObservation& obs) {
  std::lock_guard<std::mutex> lock(mutex_);
  RunSlot& slot = slot_for(run);
  slot.last_observation = obs;
  ++slot.observations;
  slot.tail.push_back(obs);
  while (slot.tail.size() > kObservationTail) slot.tail.pop_front();
}

std::vector<SteeringEvent> RegistrationServer::drain(RunId run,
                                                     WallSeconds now) {
  std::lock_guard<std::mutex> lock(mutex_);
  RunSlot& slot = slot_for(run);
  std::vector<SteeringEvent> due;
  // FIFO prefix of events whose earliest-apply time has passed. Later
  // events with earlier walls stay queued behind it — order of submission
  // is order of application, like any command stream.
  while (!slot.inbox.empty() && slot.inbox.front().wall <= now) {
    due.push_back(std::move(slot.inbox.front()));
    slot.inbox.pop_front();
  }
  return due;
}

void RegistrationServer::steer(const std::string& label,
                               SteeringEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_label_.find(label);
  if (it == by_label_.end()) {
    validate(event);
    pending_by_label_[label].push_back(std::move(event));
    return;
  }
  enqueue(slot_for(it->second), std::move(event));
}

void RegistrationServer::attach(const std::string& label,
                                const std::string& client,
                                const ObserverSpec& spec) {
  SteeringEvent e;
  e.client = client;
  e.type = SteeringEvent::Type::kAttach;
  e.attach = spec;
  steer(label, std::move(e));
}

void RegistrationServer::detach(const std::string& label,
                                const std::string& client) {
  SteeringEvent e;
  e.client = client;
  e.type = SteeringEvent::Type::kDetach;
  steer(label, std::move(e));
}

std::vector<RunView> RegistrationServer::runs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RunView> out;
  out.reserve(runs_.size());
  for (const auto& [id, slot] : runs_) {
    RunView v;
    v.id = id;
    v.label = slot.label;
    v.active = slot.active;
    v.inbox = slot.inbox.size();
    v.observers = slot.observers;
    v.events = slot.events;
    v.last_observation = slot.last_observation;
    v.observations = slot.observations;
    out.push_back(std::move(v));
  }
  return out;
}

int RegistrationServer::active_runs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(by_label_.size());
}

int RegistrationServer::peak_active_runs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_active_;
}

std::int64_t RegistrationServer::total_registered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_run_;
}

void RegistrationServer::publish_campaign(const CampaignView& view) {
  std::lock_guard<std::mutex> lock(mutex_);
  campaign_ = view;
}

CampaignView RegistrationServer::campaign() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return campaign_;
}

}  // namespace adaptviz

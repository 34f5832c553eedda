#include "core/application_manager.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/logging.hpp"

namespace adaptviz {

ApplicationManager::ApplicationManager(
    EventQueue& queue, DecisionAlgorithm& algorithm,
    const PerformanceModel& perf, DiskModel& disk, NetworkLink& link,
    BandwidthEstimator& estimator, ApplicationConfiguration& shared_config,
    StatusProvider status, ConfigChangedFn notify, Options options)
    : queue_(queue),
      algorithm_(algorithm),
      perf_(perf),
      disk_(disk),
      link_(link),
      estimator_(estimator),
      config_(shared_config),
      status_(std::move(status)),
      notify_(std::move(notify)),
      options_(std::move(options)),
      s_{.bounds = options_.bounds} {
  if (!status_) throw std::invalid_argument("ApplicationManager: null status");
  if (options_.period.seconds() <= 0) {
    throw std::invalid_argument("ApplicationManager: period must be > 0");
  }
}

void ApplicationManager::start() {
  if (s_.running) return;
  s_.running = true;
  invoke();
  schedule_next();
}

void ApplicationManager::stop() { s_.running = false; }

void ApplicationManager::set_paused(bool paused) {
  if (config_.paused == paused) return;
  config_.paused = paused;
  ++config_.version;
  if (!options_.config_file_path.empty()) {
    config_.save(options_.config_file_path);
  }
  ADAPTVIZ_LOG_INFO("app-manager", "[%s] steering: simulation %s",
                    hh_mm(queue_.now()).c_str(),
                    paused ? "paused" : "resumed");
  if (notify_) notify_();
}

void ApplicationManager::schedule_next() {
  queue_.schedule_after(
      options_.period,
      [this] {
        if (!s_.running) return;
        invoke();
        schedule_next();
      },
      "app-manager.tick");
}

Bandwidth ApplicationManager::measure_bandwidth() {
  if (auto est = estimator_.estimate()) return *est;
  // No frame has crossed the link yet: fall back to an explicit probe (the
  // paper times a message across the network). The probe runs alongside the
  // daemons; its duration is not charged to the decision path.
  const auto probe = link_.probe(queue_.now(), options_.probe_size);
  estimator_.record_probe(probe.measured);
  return probe.measured;
}

void ApplicationManager::invoke() {
  const ApplicationStatus st = status_();
  if (st.finished) return;

  DecisionInput in;
  // Application state travels as one slice: every ResourceSnapshot field,
  // present and future, in a single assignment.
  static_cast<ResourceSnapshot&>(in) = st;
  in.free_disk_percent = disk_.free_percent();
  in.free_disk_bytes = disk_.free_space();
  in.disk_capacity = disk_.capacity();
  in.observed_bandwidth = measure_bandwidth();
  in.io_bandwidth = disk_.io_bandwidth();
  in.current_processors = config_.processors;
  in.current_output_interval = config_.output_interval;
  in.perf = &perf_;
  in.min_processors = options_.min_processors;
  in.max_processors = st.max_usable_processors;
  in.bounds = s_.bounds;
  in.observers = s_.observers;
  if (s_.observers.has_proposal &&
      s_.observers.max_output_interval.seconds() > 0 &&
      s_.observers.max_output_interval < in.bounds.max_output_interval) {
    // The strictest observer proposal tightens the upper bound the
    // algorithms may stretch to; the scientist's floor still wins.
    in.bounds.max_output_interval =
        std::max(s_.observers.max_output_interval,
                 in.bounds.min_output_interval);
    obs::Observability* const obp = obs::current();
    if (obp != nullptr) {
      obp->metrics().counter("manager.observer_proposals").add(1);
    }
  }

  obs::Observability* const o = obs::current();
  const double deliberate_start = o != nullptr ? o->tracer().host_now() : 0.0;
  Decision d = algorithm_.decide(in);
  const double deliberation =
      o != nullptr ? o->tracer().host_now() - deliberate_start : 0.0;

  // Safety net independent of the algorithm: never let the disk run
  // completely full, and clear the flag with hysteresis once transfers have
  // freed enough space.
  if (in.free_disk_percent <= options_.critical_set_percent) d.critical = true;
  if (config_.critical && !d.critical &&
      in.free_disk_percent < options_.critical_clear_percent) {
    d.critical = true;  // hold until clear threshold
  }

  ADAPTVIZ_LOG_INFO("app-manager", "[%s] %s%s%s", hh_mm(queue_.now()).c_str(),
                    d.note.c_str(), d.critical ? " [CRITICAL]" : "",
                    in.link_degraded ? " [LINK DEGRADED]" : "");

  const bool changed = d.processors != config_.processors ||
                       d.output_interval != config_.output_interval ||
                       d.critical != config_.critical;
  config_.processors = d.processors;
  config_.output_interval = d.output_interval;
  config_.critical = d.critical;
  if (changed) ++config_.version;

  s_.decisions.push_back(DecisionRecord{queue_.now(), in, d});
  if (o != nullptr) {
    // Every decision on the record: the inputs seen, the knobs chosen,
    // which algorithm chose them, and how long it deliberated.
    o->metrics().counter("manager.decisions").add(1);
    o->metrics().histogram("manager.deliberation_seconds")
        .observe(deliberation);
    char meta[192];
    std::snprintf(meta, sizeof meta,
                  "algo=%s disk=%.1f%% bw=%.2fmbps procs=%d oi_min=%.1f "
                  "critical=%d changed=%d deliberation=%.3gs",
                  algorithm_.name().c_str(), in.free_disk_percent,
                  in.observed_bandwidth.megabits_per_sec(), d.processors,
                  d.output_interval.as_minutes(), d.critical ? 1 : 0,
                  changed ? 1 : 0, deliberation);
    o->tracer().record("manager.decision", obs::TraceClock::kSim,
                       queue_.now().seconds(), 0.0, meta);
  }
  if (changed && !options_.config_file_path.empty()) {
    config_.save(options_.config_file_path);
  }
  if (changed && notify_) notify_();
}

}  // namespace adaptviz

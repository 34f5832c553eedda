#include "core/simulation_process.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "util/logging.hpp"

namespace adaptviz {

SimulationProcess::SimulationProcess(
    EventQueue& queue, GroundTruthMachine& machine, DiskModel& disk,
    FrameCatalog& catalog, FrameSender& sender,
    const ApplicationConfiguration& shared_config, Options options,
    Callbacks callbacks)
    : queue_(queue),
      machine_(machine),
      disk_(disk),
      catalog_(catalog),
      sender_(sender),
      config_(shared_config),
      options_(options),
      callbacks_(std::move(callbacks)) {
  if (options_.stall_poll.seconds() <= 0) {
    throw std::invalid_argument("SimulationProcess: stall_poll must be > 0");
  }
  if (options_.codec.enabled) {
    codec_ = std::make_unique<FrameFieldCodec>(options_.codec);
  }
}

SimSeconds SimulationProcess::sim_time() const {
  return model_ ? model_->sim_time() : SimSeconds(0.0);
}

WallSeconds SimulationProcess::total_stall_time() const {
  WallSeconds total = s_.stall_time;
  if (s_.stalled) total += queue_.now() - s_.stall_started;
  return total;
}

void SimulationProcess::start(std::unique_ptr<WeatherModel> model) {
  if (s_.running) {
    throw std::logic_error("SimulationProcess: already running");
  }
  if (!model) throw std::invalid_argument("SimulationProcess: null model");
  model_ = std::move(model);
  s_.running = true;
  s_.stalled = false;
  s_.finished = false;
  s_.pending_encoded.reset();
  s_.launch_processors = config_.processors;
  s_.launch_output_interval = config_.output_interval;
  s_.last_signaled_resolution = model_->recommended_resolution_km();
  s_.next_output_due = model_->sim_time() + s_.launch_output_interval;
  ADAPTVIZ_LOG_INFO("simulation",
                    "started: %d procs, OI=%.1f sim-min, res=%.1f km",
                    config_.processors,
                    config_.output_interval.as_minutes(),
                    model_->modeled_resolution_km());
  schedule_step();
}

void SimulationProcess::request_stop(std::function<void(NclFile)> stopped) {
  if (!stopped) throw std::invalid_argument("request_stop: null callback");
  if (stop_pending()) {
    throw std::logic_error("SimulationProcess: stop already pending");
  }
  s_.stop_callback = std::move(stopped);
  if (!s_.running || s_.finished) {
    deliver_stop();
    return;
  }
  // A step in flight completes first; an idle/stalled process is collected
  // at its next poll. Nothing to do here — the loops check stop_pending().
}

void SimulationProcess::deliver_stop() {
  s_.running = false;
  auto cb = std::move(s_.stop_callback);
  s_.stop_callback = nullptr;
  if (!model_) {
    throw std::logic_error("SimulationProcess: stop without a model");
  }
  ADAPTVIZ_LOG_INFO("simulation", "stopped at sim %.1f h (checkpointing)",
                    model_->sim_time().as_hours());
  cb(model_->checkpoint());
}

void SimulationProcess::schedule_step() {
  if (stop_pending()) {
    deliver_stop();
    return;
  }
  if (s_.finished || !s_.running) return;
  if (config_.critical || config_.paused) {
    enter_stall(config_.critical ? "CRITICAL flag set" : "paused by steering");
    return;
  }
  s_.step_in_flight = true;
  const WallSeconds cost = machine_.step_time(
      std::max(1, s_.launch_processors), model_->work_units());
  queue_.schedule_after(
      cost, [this] { complete_step(); }, "simulation.step");
}

void SimulationProcess::complete_step() {
  s_.step_in_flight = false;
  model_->step(options_.pool);
  ++s_.steps;

  if (model_->resolution_change_pending()) {
    const double rec = model_->recommended_resolution_km();
    if (rec < s_.last_signaled_resolution - 1e-9 &&
        callbacks_.on_resolution_signal) {
      s_.last_signaled_resolution = rec;
      ADAPTVIZ_LOG_INFO("simulation",
                        "pressure %.1f hPa: signalling resolution %.1f km",
                        model_->min_pressure_hpa(), rec);
      callbacks_.on_resolution_signal(rec);
    }
  }

  if (model_->sim_time() >= s_.next_output_due - SimSeconds(1e-6)) {
    try_write_frame();
    return;
  }
  finish_or_continue();
}

Bytes SimulationProcess::encode_pending_frame(Bytes raw) {
  // The codec runs on the real compute-grid fields; the measured ratio then
  // scales the *modeled* frame bytes (frame_bytes() models the full 18-var,
  // 27-level WRF output the h/u/v fields stand in for).
  std::vector<FieldView> fields;
  const DomainState& p = model_->parent_state();
  fields.push_back(FieldView{p.h.data().data(), p.h.nx(), p.h.ny()});
  fields.push_back(FieldView{p.u.data().data(), p.u.nx(), p.u.ny()});
  fields.push_back(FieldView{p.v.data().data(), p.v.nx(), p.v.ny()});
  if (model_->nest_active()) {
    const DomainState& n = model_->nest()->state();
    fields.push_back(FieldView{n.h.data().data(), n.h.nx(), n.h.ny()});
    fields.push_back(FieldView{n.u.data().data(), n.u.nx(), n.u.ny()});
    fields.push_back(FieldView{n.v.data().data(), n.v.nx(), n.v.ny()});
  }
  const CodecFrameReport report =
      codec_->encode_frame_fields(fields, options_.pool);
  const double ratio = report.ratio();
  const Bytes encoded(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::llround(raw.as_double() / ratio))));
  s_.codec_saved += raw - encoded;
  obs::count("codec.frames");
  obs::count("codec.bytes_raw", raw.count());
  obs::count("codec.bytes_encoded", encoded.count());
  obs::count("codec.bytes_saved", (raw - encoded).count());
  obs::observe("codec.ratio", ratio);
  obs::observe("codec.encode_ms", report.encode_seconds * 1e3);
  obs::observe("codec.decode_ms", report.decode_seconds * 1e3);
  obs::observe("codec.frame_ms", report.wall_seconds * 1e3);
  return encoded;
}

void SimulationProcess::try_write_frame() {
  const Bytes raw = model_->frame_bytes();
  Bytes size = raw;
  if (codec_) {
    // Encode exactly once per output: a disk-full stall retries this frame
    // without re-rotating the codec's history.
    if (!s_.pending_encoded.has_value()) {
      s_.pending_encoded = encode_pending_frame(raw);
    }
    size = *s_.pending_encoded;
  }
  if (!disk_.allocate(size)) {
    enter_stall("disk full");
    return;
  }
  const WallSeconds tio = disk_.write_time(size);
  queue_.schedule_after(
      tio,
      [this, size, raw] {
        s_.pending_encoded.reset();
        Frame frame;
        frame.sequence = s_.next_sequence++;
        frame.sim_time = model_->sim_time();
        frame.resolution_km = model_->modeled_resolution_km();
        frame.min_pressure_hpa = model_->min_pressure_hpa();
        frame.nest_active = model_->nest_active();
        frame.size = size;
        if (codec_) frame.raw_size = raw;
        catalog_.push(std::move(frame));
        sender_.kick();
        ++s_.frames;
        s_.next_output_due += s_.launch_output_interval;
        finish_or_continue();
      },
      "simulation.write_frame");
}

void SimulationProcess::enter_stall(const char* reason) {
  if (!s_.stalled) {
    s_.stalled = true;
    s_.stall_started = queue_.now();
    ADAPTVIZ_LOG_WARN("simulation", "stalled at wall %s: %s",
                      hh_mm(queue_.now()).c_str(), reason);
  }
  queue_.schedule_after(
      options_.stall_poll, [this] { stall_check(); }, "simulation.stall");
}

void SimulationProcess::stall_check() {
  if (!s_.stalled) return;
  if (stop_pending()) {
    s_.stall_time += queue_.now() - s_.stall_started;
    s_.stalled = false;
    deliver_stop();
    return;
  }
  if (config_.critical || config_.paused) {
    queue_.schedule_after(
        options_.stall_poll, [this] { stall_check(); }, "simulation.stall");
    return;
  }
  // Flag cleared: leave the stall and resume where we left off.
  s_.stall_time += queue_.now() - s_.stall_started;
  s_.stalled = false;
  ADAPTVIZ_LOG_INFO("simulation", "resuming after %.1f min stall",
                    (queue_.now() - s_.stall_started).seconds() / 60.0);
  if (model_->sim_time() >= s_.next_output_due - SimSeconds(1e-6)) {
    try_write_frame();
  } else {
    schedule_step();
  }
}

void SimulationProcess::finish_or_continue() {
  if (model_->sim_time() >= options_.end_time) {
    s_.finished = true;
    s_.running = false;
    ADAPTVIZ_LOG_INFO("simulation", "finished at wall %s",
                      hh_mm(queue_.now()).c_str());
    if (stop_pending()) {
      // A restart raced completion; honour the stop contract anyway.
      auto cb = std::move(s_.stop_callback);
      s_.stop_callback = nullptr;
      cb(model_->checkpoint());
      return;
    }
    if (callbacks_.on_finished) callbacks_.on_finished();
    return;
  }
  schedule_step();
}

SimulationProcess::State SimulationProcess::snapshot() const {
  State s{s_, nullptr, nullptr};
  if (model_) s.model = std::make_shared<const WeatherModel>(*model_);
  if (codec_) s.codec = std::make_shared<const FrameFieldCodec>(*codec_);
  return s;
}

void SimulationProcess::restore(const State& s) {
  s_ = s.live;
  model_ = s.model ? std::make_unique<WeatherModel>(*s.model) : nullptr;
  codec_ = s.codec ? std::make_unique<FrameFieldCodec>(*s.codec) : nullptr;
}

}  // namespace adaptviz

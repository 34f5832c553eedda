#include "core/job_handler.hpp"

#include <stdexcept>

#include "util/logging.hpp"

namespace adaptviz {

JobHandler::JobHandler(EventQueue& queue, SimulationProcess& process,
                       ApplicationConfiguration& shared_config,
                       DiskModel& disk, ModelConfig model_config,
                       ResolutionLadder ladder, Options options)
    : queue_(queue),
      process_(process),
      config_(shared_config),
      disk_(disk),
      ladder_(std::move(ladder)),
      options_(std::move(options)),
      s_{.model_config = std::move(model_config)} {}

void JobHandler::launch_initial() {
  config_.resolution_km = s_.model_config.base_resolution_km;
  s_.active = config_;
  s_.launched = true;
  auto model = std::make_unique<WeatherModel>(s_.model_config, ladder_);
  process_.start(std::move(model));
}

void JobHandler::on_configuration_changed() {
  if (!s_.launched || s_.restarting || process_.finished()) return;
  if (!config_.requires_restart(s_.active)) {
    // Only the CRITICAL flag (or nothing) changed; the simulation process
    // reacts to that in place.
    s_.active = config_;
    return;
  }
  restart();
}

void JobHandler::on_resolution_signal(double new_resolution_km) {
  if (!s_.launched || s_.restarting || process_.finished()) return;
  if (s_.resolution_floor_km > 0.0 &&
      new_resolution_km < s_.resolution_floor_km) {
    new_resolution_km = s_.resolution_floor_km;
    ADAPTVIZ_LOG_INFO("job-handler",
                      "resolution signal clamped to steering floor %.1f km",
                      s_.resolution_floor_km);
  }
  if (new_resolution_km >= config_.resolution_km - 1e-9) return;  // no-op
  config_.resolution_km = new_resolution_km;
  ++config_.version;
  restart();
}

void JobHandler::set_nest_extent(double extent_deg) {
  if (extent_deg <= 0.0) {
    throw std::invalid_argument("set_nest_extent: must be positive");
  }
  s_.model_config.nest_extent_deg = extent_deg;
  if (!s_.launched || s_.restarting || process_.finished()) return;
  ++config_.version;
  restart();
}

void JobHandler::restart() {
  s_.restarting = true;
  ADAPTVIZ_LOG_INFO("job-handler",
                    "restart: %d procs -> %d, OI %.1f -> %.1f sim-min, "
                    "res %.1f -> %.1f km",
                    s_.active.processors, config_.processors,
                    s_.active.output_interval.as_minutes(),
                    config_.output_interval.as_minutes(),
                    s_.active.resolution_km, config_.resolution_km);
  process_.request_stop([this](NclFile checkpoint) {
    // Checkpoint round trip (write + read) at the parallel-I/O rate, plus
    // the scheduler's fixed restart cost. The checkpoint is field data at
    // the modeled output size.
    const Bytes ckpt_size(
        static_cast<std::int64_t>(checkpoint.encoded_size()));
    const WallSeconds io_cost = disk_.write_time(ckpt_size) * 2.0;

    std::string ckpt_path;
    if (!options_.checkpoint_dir.empty()) {
      ckpt_path = options_.checkpoint_dir + "/checkpoint_" +
                  std::to_string(s_.restarts) + ".ncl";
      checkpoint.save(ckpt_path);
      checkpoint = NclFile();  // the file is now the source of truth
    }
    queue_.schedule_after(
        options_.restart_overhead + io_cost,
        [this, checkpoint = std::move(checkpoint),
         ckpt_path = std::move(ckpt_path)] {
          if (process_.finished()) {
            // The run completed while the stop was in flight.
            s_.restarting = false;
            return;
          }
          NclFile reloaded;
          const NclFile& source = ckpt_path.empty()
                                      ? checkpoint
                                      : (reloaded = NclFile::load(ckpt_path));
          auto model = std::make_unique<WeatherModel>(
              WeatherModel::restore(s_.model_config, ladder_, source));
          if (model->modeled_resolution_km() != config_.resolution_km) {
            model->set_modeled_resolution(config_.resolution_km);
          }
          s_.active = config_;
          s_.restarting = false;
          ++s_.restarts;
          process_.start(std::move(model));
        },
        "job-handler.restart");
  });
}

}  // namespace adaptviz

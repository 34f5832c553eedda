// Job handler: schedules and reschedules the simulation.
//
// "The job handler starts, stops and restarts the simulation process
// whenever the application configuration changes. ... The job handler then
// restarts WRF using WRF checkpointed data with the new application
// configuration and continues execution."
//
// Restarts are not free: the handler charges a fixed scheduler/startup
// overhead plus the time to write and read the checkpoint at the disk's
// I/O bandwidth — the cost the paper's framework pays for every adaptation,
// which is why decisions happen every 1.5 hours and not every minute.
#pragma once

#include <functional>
#include <memory>

#include "core/app_config.hpp"
#include "core/simulation_process.hpp"
#include "resources/disk.hpp"
#include "resources/event_queue.hpp"
#include "weather/model.hpp"

namespace adaptviz {

class JobHandler {
 public:
  struct Options {
    /// Queue/launch overhead per restart, on top of checkpoint I/O.
    WallSeconds restart_overhead = WallSeconds(90.0);
    /// When set, checkpoints round-trip through real NCL files in this
    /// directory (checkpoint_<n>.ncl), exactly as a production deployment
    /// would persist them; empty = in-memory hand-off.
    std::string checkpoint_dir;
  };

  JobHandler(EventQueue& queue, SimulationProcess& process,
             ApplicationConfiguration& shared_config, DiskModel& disk,
             ModelConfig model_config, ResolutionLadder ladder,
             Options options);

  /// Builds the initial model from the synthetic analysis and launches the
  /// simulation with the current shared configuration.
  void launch_initial();

  /// Application manager notification: the configuration object changed.
  /// Triggers a checkpoint/restart cycle when restart-worthy fields differ
  /// from the running configuration (CRITICAL toggles do not restart).
  void on_configuration_changed();

  /// Simulation notification: the storm crossed a Table III threshold.
  /// Updates the shared configuration's resolution and restarts.
  void on_resolution_signal(double new_resolution_km);

  /// Steering: do not refine below this resolution (0 = no floor). Signals
  /// requesting finer grids are clamped; an already-finer run is left
  /// untouched.
  void set_resolution_floor(double km) { s_.resolution_floor_km = km; }
  [[nodiscard]] double resolution_floor_km() const {
    return s_.resolution_floor_km;
  }

  /// Steering: change the moving-nest footprint; takes effect through a
  /// checkpoint/restart like any other configuration change.
  void set_nest_extent(double extent_deg);

  [[nodiscard]] int restarts() const { return s_.restarts; }
  [[nodiscard]] bool restart_in_progress() const { return s_.restarting; }

  /// Launch/restart latches plus the steering-mutable knobs (resolution
  /// floor, nest extent via model_config). A restart in flight lives as a
  /// pending queue event whose closure reads these members at fire time.
  struct State {
    /// Configuration the currently running simulation was launched with.
    ApplicationConfiguration active{};
    ModelConfig model_config{};
    double resolution_floor_km = 0.0;
    bool launched = false;
    bool restarting = false;
    int restarts = 0;
  };
  [[nodiscard]] State snapshot() const { return s_; }
  void restore(const State& s) { s_ = s; }

 private:
  void restart();

  EventQueue& queue_;
  SimulationProcess& process_;
  ApplicationConfiguration& config_;
  DiskModel& disk_;
  const ResolutionLadder ladder_;
  const Options options_;
  State s_;
};

}  // namespace adaptviz

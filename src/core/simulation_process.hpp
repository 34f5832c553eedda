// Simulation process: drives the weather model on the cluster.
//
// Event-driven counterpart of the paper's WRF run: each simulation step
// costs ground-truth machine time for the configured processor count; every
// output_interval of simulated time a frame is written to the disk model
// (costing TIO at the parallel-I/O rate) and registered with the frame
// catalog for the sender. The process
//
//  * stalls when the CRITICAL flag is set in the shared application
//    configuration ("the simulation process stalls execution, and
//    periodically checks the application configuration file"),
//  * stalls when the disk cannot take the next frame (continuing without
//    output would leave "gaps" in the visualization — paper Section III-B),
//  * signals the job handler when the cyclone crosses a Table III pressure
//    threshold ("whenever WRF finds the values of its certain variables drop
//    below a certain threshold, it stops and the job handler reschedules
//    it"), and
//  * supports stop-with-checkpoint so the job handler can reschedule it
//    with a new configuration.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "core/app_config.hpp"
#include "dataio/codec.hpp"
#include "dataio/frame.hpp"
#include "resources/cluster.hpp"
#include "resources/disk.hpp"
#include "resources/event_queue.hpp"
#include "transport/sender.hpp"
#include "weather/model.hpp"

namespace adaptviz {

class SimulationProcess {
 public:
  struct Options {
    /// Simulated time at which the run is complete.
    SimSeconds end_time = SimSeconds::hours(60.0);
    /// How often a stalled process re-checks the configuration/disk.
    WallSeconds stall_poll = WallSeconds::minutes(5.0);
    /// Lossless frame codec (off by default). When enabled, every frame's
    /// compute fields are encoded (and roundtrip-verified) for real; the
    /// measured per-frame ratio scales the modeled frame bytes that flow
    /// into disk, WAN, and cache accounting.
    CodecOptions codec{};
    /// Pool the model's storm geometry and the codec's field slots run on
    /// (non-owning; null uses ThreadPool::shared()). Neither the model state
    /// nor the encoded bytes depend on it.
    ThreadPool* pool = nullptr;
  };

  struct Callbacks {
    /// The storm crossed a resolution threshold; argument is the new
    /// Table III resolution. The process keeps running until stopped.
    std::function<void(double)> on_resolution_signal;
    /// The simulation reached end_time.
    std::function<void()> on_finished;
  };

  SimulationProcess(EventQueue& queue, GroundTruthMachine& machine,
                    DiskModel& disk, FrameCatalog& catalog,
                    FrameSender& sender,
                    const ApplicationConfiguration& shared_config,
                    Options options, Callbacks callbacks);

  /// Takes ownership of a model and starts stepping. The model's resolution
  /// must already match the shared configuration.
  void start(std::unique_ptr<WeatherModel> model);

  /// Requests a stop at the next step boundary; `stopped` receives the
  /// checkpoint. No further events fire for this process afterwards.
  void request_stop(std::function<void(NclFile)> stopped);

  [[nodiscard]] bool running() const { return s_.running; }
  [[nodiscard]] bool stalled() const { return s_.stalled; }
  [[nodiscard]] bool finished() const { return s_.finished; }
  [[nodiscard]] const WeatherModel* model() const { return model_.get(); }
  [[nodiscard]] SimSeconds sim_time() const;

  // --- Statistics ---
  [[nodiscard]] std::int64_t steps_executed() const { return s_.steps; }
  [[nodiscard]] std::int64_t frames_written() const { return s_.frames; }
  /// Includes a still-open stall up to the current virtual time.
  [[nodiscard]] WallSeconds total_stall_time() const;

  // --- Codec statistics (identity values when the codec is off) ---
  /// Measured compression ratio of the most recent frame (1.0 before the
  /// first frame or with the codec disabled).
  [[nodiscard]] double codec_last_ratio() const {
    return codec_ ? codec_->last_ratio() : 1.0;
  }
  /// Cumulative raw/encoded ratio across the whole run so far.
  [[nodiscard]] double codec_cumulative_ratio() const {
    return codec_ ? codec_->cumulative_ratio() : 1.0;
  }
  /// Modeled bytes the codec kept off disk and off the wire so far.
  [[nodiscard]] Bytes codec_bytes_saved() const { return s_.codec_saved; }

  /// Every latch and counter of the step/output state machine: all the
  /// process mutates in place apart from the model and the codec.
  struct Live {
    Bytes codec_saved{};
    /// Encoded size of the frame currently being written, kept across a
    /// disk-full stall so the retry does not re-encode (and re-rotate the
    /// codec history for) the same output.
    std::optional<Bytes> pending_encoded;
    bool running = false;
    bool stalled = false;
    bool finished = false;
    bool step_in_flight = false;
    std::function<void(NclFile)> stop_callback;
    /// Knobs snapshotted at start(): processors and output interval only
    /// change through a job-handler restart (as with a real WRF job); the
    /// CRITICAL flag, by contrast, is read live from the shared config.
    int launch_processors = 1;
    SimSeconds launch_output_interval{180.0};
    SimSeconds next_output_due{0.0};
    std::int64_t next_sequence = 0;
    double last_signaled_resolution = 0.0;
    std::int64_t steps = 0;
    std::int64_t frames = 0;
    WallSeconds stall_time{0.0};
    WallSeconds stall_started{0.0};
  };

  /// Deep-copyable process state: the Live latches plus the weather model
  /// (full solver fields + step counter; the solver's mutable scratch
  /// copies along but is recomputed every step, so it carries no
  /// information) and the codec's prediction history. Model and codec ride
  /// as shared immutable copies so the State value itself stays cheap to
  /// copy; restore() materializes fresh mutable instances from them.
  struct State {
    Live live;
    std::shared_ptr<const WeatherModel> model;
    std::shared_ptr<const FrameFieldCodec> codec;
  };
  [[nodiscard]] State snapshot() const;
  void restore(const State& s);

 private:
  void schedule_step();
  void complete_step();
  void try_write_frame();
  /// Runs the codec on the model's current compute fields and returns the
  /// encoded modeled size for a frame whose raw modeled size is `raw`.
  Bytes encode_pending_frame(Bytes raw);
  void enter_stall(const char* reason);
  void stall_check();
  void finish_or_continue();
  [[nodiscard]] bool stop_pending() const {
    return static_cast<bool>(s_.stop_callback);
  }
  void deliver_stop();

  EventQueue& queue_;
  GroundTruthMachine& machine_;
  DiskModel& disk_;
  FrameCatalog& catalog_;
  FrameSender& sender_;
  const ApplicationConfiguration& config_;
  const Options options_;
  const Callbacks callbacks_;

  std::unique_ptr<WeatherModel> model_;
  /// Null when Options::codec.enabled is false.
  std::unique_ptr<FrameFieldCodec> codec_;
  Live s_;
};

}  // namespace adaptviz

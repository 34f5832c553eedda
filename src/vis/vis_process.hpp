// Visualization process at the remote site.
//
// Consumes frames handed over by the frame receiver, charges a render cost
// (the paper used a GeForce 7800 GTX workstation with VisIt's hardware
// acceleration: seconds per frame), records the visualization-progress
// series that Fig. 7 plots (wall-clock time of visualization vs. the
// simulated time the frame represents). The visualization site is modeled
// by that cost and record alone; frame images are drawn by FrameRenderer
// directly (examples/cyclone_aila_tracking, bench_fig34_renders).
#pragma once

#include <functional>
#include <vector>

#include "dataio/frame.hpp"
#include "resources/event_queue.hpp"

namespace adaptviz {

struct VisRecord {
  WallSeconds wall_time{};   // when the frame was visualized
  SimSeconds sim_time{};     // simulated time the frame represents
  std::int64_t sequence = 0;
  Bytes size{};
};

class VisualizationProcess {
 public:
  struct Options {
    /// Render cost model: fixed setup plus per-gigabyte scan cost.
    double fixed_seconds = 1.0;
    double seconds_per_gb = 3.0;
    /// Invoked for every visualized frame (computational steering hooks in
    /// here; see steering/steering.hpp).
    std::function<void(const Frame&, const VisRecord&)> on_frame;
  };

  VisualizationProcess(EventQueue& queue, Options options);

  /// Appends the progress record, fires steering hooks, and returns the
  /// frame's modeled render cost. Serial only (call from the event loop).
  WallSeconds record(const Frame& frame);

  [[nodiscard]] const std::vector<VisRecord>& records() const {
    return s_.records;
  }
  /// Simulated time of the newest visualized frame (Fig. 7's y-axis head).
  [[nodiscard]] SimSeconds latest_visualized_sim_time() const;

  /// The progress series is the process's only mutable state.
  struct State {
    std::vector<VisRecord> records;
  };
  [[nodiscard]] State snapshot() const { return s_; }
  void restore(const State& s) { s_ = s; }

 private:
  EventQueue& queue_;
  const Options options_;
  State s_;
};

}  // namespace adaptviz

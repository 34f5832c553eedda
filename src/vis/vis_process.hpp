// Visualization process at the remote site.
//
// Consumes frames handed over by the frame receiver, charges a render cost
// (the paper used a GeForce 7800 GTX workstation with VisIt's hardware
// acceleration: seconds per frame), records the visualization-progress
// series that Fig. 7 plots (wall-clock time of visualization vs. the
// simulated time the frame represents), and — when frames carry real field
// payloads — renders images to disk.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "dataio/frame.hpp"
#include "resources/event_queue.hpp"
#include "vis/renderer.hpp"

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
    /// When set, frames with payloads are rendered to `output_dir` as
    /// frame_<seq>.ppm.
    bool render_images = false;
    std::string output_dir;
    RenderOptions render_options{};
    /// Invoked for every visualized frame (computational steering hooks in
    /// here; see steering/steering.hpp).
    std::function<void(const Frame&, const VisRecord&)> on_frame;
  };

  VisualizationProcess(EventQueue& queue, Options options);

  /// The heavy half: renders the frame image to disk when `render_images`
  /// is set (no-op otherwise). Touches no process state, so concurrent
  /// calls on different frames are safe — the FrameReceiver runs these on
  /// the shared thread pool, one per busy render slot.
  void render_frame(const Frame& frame) const;

  /// The bookkeeping half: appends the progress record, fires steering
  /// hooks, and returns the frame's modeled render cost. Serial only (call
  /// from the event loop).
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

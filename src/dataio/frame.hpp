// Frames and the simulation-site frame catalog.
//
// "A frame is the simulation output of one time step of simulation and
// corresponds to the smallest unit of simulation output that can be
// visualized" (paper, Table II context). A frame here is the bookkeeping
// the resource models act on: sim time, headline diagnostics and modeled
// byte size (the size the frame would have at the *modeled* grid
// resolution). Its field data never travels with it; renders of real
// cyclone imagery read the model directly (WeatherModel::make_frame).
//
// The catalog is the set of frames currently residing on the simulation
// site's disk, in output order; the frame sender always ships the oldest
// frame first and removal frees the modeled bytes (the paper assumes data
// transferred to the visualization site is removed from the simulation
// site).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "util/units.hpp"

namespace adaptviz {

struct Frame {
  /// Monotone output sequence number (restarts do not reset it).
  std::int64_t sequence = 0;
  /// Simulated weather time this frame snapshots.
  SimSeconds sim_time{};
  /// Modeled grid resolution (km) when the frame was produced.
  double resolution_km = 0.0;
  /// Headline diagnostics riding in the frame metadata (the visualization
  /// site steers on these).
  double min_pressure_hpa = 0.0;
  bool nest_active = false;
  /// Bytes the frame occupies on disk / on the wire at the modeled grid.
  /// With the frame codec enabled this is the *encoded* size — it is what
  /// the disk, the WAN transfer planner, and the serve cache account.
  Bytes size{};
  /// Pre-codec (decoded) size at the modeled grid; zero when the codec is
  /// off. Rendering cost scales with this, not the wire size.
  Bytes raw_size{};

  /// Bytes a consumer touches after decoding: raw_size when the codec
  /// populated it, otherwise size (codec off: the two are the same thing).
  [[nodiscard]] Bytes decoded_bytes() const {
    return raw_size.count() > 0 ? raw_size : size;
  }
};

class FrameCatalog {
 public:
  /// Appends a newly written frame. Sequence numbers must be increasing;
  /// throws std::invalid_argument otherwise.
  void push(Frame frame);

  /// Oldest frame still on disk, or nullopt when empty (peek).
  [[nodiscard]] std::optional<Frame> oldest() const;

  /// Removes and returns the oldest frame; throws std::logic_error if empty.
  Frame pop_oldest();

  /// Returns a frame to the head of the catalog: the path a failed or
  /// abandoned transfer takes (its bytes never left the simulation site's
  /// disk). The frame must precede the current oldest in sequence order;
  /// throws std::invalid_argument otherwise.
  void requeue_front(Frame frame);

  [[nodiscard]] std::size_t count() const { return s_.frames.size(); }
  [[nodiscard]] bool empty() const { return s_.frames.empty(); }
  /// Sum of modeled sizes of resident frames.
  [[nodiscard]] Bytes total_bytes() const { return s_.total; }

  /// The resident-frame queue.
  struct State {
    std::deque<Frame> frames;
    Bytes total{};
  };
  [[nodiscard]] State snapshot() const { return s_; }
  void restore(const State& s) { s_ = s; }

 private:
  State s_;
};

}  // namespace adaptviz

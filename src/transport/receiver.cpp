#include "transport/receiver.hpp"

#include <stdexcept>
#include <string>

#include "obs/obs.hpp"

namespace adaptviz {

FrameReceiver::FrameReceiver(EventQueue& queue, VisualizeFn visualize,
                             int worker_count)
    : queue_(queue),
      visualize_(std::move(visualize)),
      worker_count_(worker_count) {
  if (!visualize_) throw std::invalid_argument("FrameReceiver: null callback");
  if (worker_count < 1) {
    throw std::invalid_argument("FrameReceiver: worker_count must be >= 1");
  }
}

void FrameReceiver::on_frame_arrival(const Frame& frame) {
  ++s_.frames_received;
  obs::count("receiver.frames_received");
  s_.pending.push_back(frame);
  obs::gauge_max("receiver.peak_backlog",
                 static_cast<double>(s_.pending.size()));
  drain();
}

void FrameReceiver::drain() {
  // Dispatch stays serial and in arrival order.
  while (s_.rendering < worker_count_ && !s_.pending.empty()) {
    const Frame frame = std::move(s_.pending.front());
    s_.pending.pop_front();
    ++s_.rendering;
    const WallSeconds cost = visualize_(frame);
    obs::trace_sim("receiver.render_slot", queue_.now().seconds(),
                   cost.seconds(), "seq=" + std::to_string(frame.sequence));
    queue_.schedule_after(
        cost,
        [this] {
          --s_.rendering;
          ++s_.frames_visualized;
          obs::count("receiver.frames_visualized");
          drain();
        },
        "receiver.render");
  }
}

}  // namespace adaptviz

#include "transport/receiver.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace adaptviz {

FrameReceiver::FrameReceiver(EventQueue& queue, VisualizeFn visualize,
                             int worker_count, ThreadPool* pool,
                             RenderFn render)
    : queue_(queue),
      visualize_(std::move(visualize)),
      worker_count_(worker_count),
      pool_(pool),
      render_(std::move(render)) {
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
  while (s_.rendering < worker_count_ && !s_.pending.empty()) {
    // Claim every free render slot up front: these frames are "rendering
    // concurrently" in virtual time, so their real render work may run
    // concurrently on the pool too.
    std::vector<Frame> batch;
    while (static_cast<int>(batch.size()) < worker_count_ - s_.rendering &&
           !s_.pending.empty()) {
      batch.push_back(std::move(s_.pending.front()));
      s_.pending.pop_front();
    }

    if (render_) {
      if (pool_ != nullptr && batch.size() > 1) {
        pool_->parallel_for(
            0, batch.size(), static_cast<int>(batch.size()), /*chunk=*/1,
            [&](std::size_t lo, std::size_t hi) {
              for (std::size_t k = lo; k < hi; ++k) render_(batch[k]);
            });
      } else {
        for (const Frame& frame : batch) render_(frame);
      }
    }

    // Bookkeeping stays serial and in arrival order.
    for (Frame& frame : batch) {
      ++s_.rendering;
      const WallSeconds cost = visualize_(frame);
      obs::trace_sim("receiver.render_slot", queue_.now().seconds(),
                     cost.seconds(),
                     "seq=" + std::to_string(frame.sequence));
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
}

}  // namespace adaptviz

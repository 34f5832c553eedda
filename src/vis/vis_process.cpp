#include "vis/vis_process.hpp"

#include <cstdio>

#include "util/logging.hpp"

namespace adaptviz {

VisualizationProcess::VisualizationProcess(EventQueue& queue, Options options)
    : queue_(queue), options_(std::move(options)) {}

void VisualizationProcess::render_frame(const Frame& frame) const {
  if (options_.render_images && frame.payload != nullptr &&
      !options_.output_dir.empty()) {
    const FrameRenderer renderer(options_.render_options);
    const Image img = renderer.render(*frame.payload, nullptr);
    char name[64];
    std::snprintf(name, sizeof name, "/frame_%06lld.ppm",
                  static_cast<long long>(frame.sequence));
    img.save_ppm(options_.output_dir + name);
  }
}

WallSeconds VisualizationProcess::record(const Frame& frame) {
  s_.records.push_back(VisRecord{queue_.now(), frame.sim_time, frame.sequence,
                               frame.size});
  ADAPTVIZ_LOG_DEBUG("vis", "frame #%lld visualized at wall %s",
                     static_cast<long long>(frame.sequence),
                     hh_mm(queue_.now()).c_str());
  if (options_.on_frame) options_.on_frame(frame, s_.records.back());
  // Rendering touches the decoded fields, so the cost scales with the
  // pre-codec size even when the frame travelled compressed.
  return WallSeconds(options_.fixed_seconds +
                     options_.seconds_per_gb * frame.decoded_bytes().gb());
}

SimSeconds VisualizationProcess::latest_visualized_sim_time() const {
  return s_.records.empty() ? SimSeconds(0.0) : s_.records.back().sim_time;
}

}  // namespace adaptviz

#include "vis/vis_process.hpp"

#include "util/logging.hpp"

namespace adaptviz {

VisualizationProcess::VisualizationProcess(EventQueue& queue, Options options)
    : queue_(queue), options_(std::move(options)) {}

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

// Scene renderer: frame (NCL payload) -> image.
//
// Recreates the paper's VisIt plots in software: terrain background,
// pseudocolor of a chosen diagnostic (perturbation pressure as in Fig. 4,
// wind speed as in Fig. 3, vorticity), iso-contours, oriented wind glyphs,
// the nest outline inside the parent domain, the cyclone track, and an eye
// marker.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dataio/ncl.hpp"
#include "vis/colormap.hpp"
#include "vis/image.hpp"
#include "weather/tracker.hpp"

namespace adaptviz {

enum class RenderField { kPressure, kWindSpeed, kVorticity, kHeight };

struct RenderOptions {
  std::size_t width = 720;
  RenderField field = RenderField::kPressure;
  /// Opacity of the pseudocolor layer over the terrain background.
  double field_alpha = 0.6;
  bool draw_contours = true;
  int contour_levels = 8;
  bool draw_glyphs = true;
  /// Glyph spacing in pixels.
  int glyph_spacing_px = 36;
  /// Overlay wind streamlines (integral curves of the parent wind field).
  bool draw_streamlines = false;
  /// Composite a volume-rendered cloud layer (satellite-style) diagnosed
  /// from the parent state (see vis/volume.hpp).
  bool draw_cloud_volume = false;
  /// Streamline seed spacing in grid cells.
  double streamline_spacing_cells = 6.0;
  bool draw_nest_box = true;
  bool draw_track = true;
  bool draw_eye = true;
};

class FrameRenderer {
 public:
  explicit FrameRenderer(RenderOptions options = {});

  /// Renders a frame produced by WeatherModel::make_frame(). The optional
  /// track is drawn as a polyline up to the frame's simulation time.
  [[nodiscard]] Image render(const NclFile& frame,
                             const std::vector<TrackPoint>* track) const;

  [[nodiscard]] const RenderOptions& options() const { return options_; }

 private:
  RenderOptions options_;
};

}  // namespace adaptviz

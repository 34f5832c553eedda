#include "vis/renderer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/obs.hpp"
#include "vis/contour.hpp"
#include "vis/streamlines.hpp"
#include "vis/volume.hpp"
#include "weather/domain_io.hpp"
#include "weather/geography.hpp"

namespace adaptviz {
namespace {

Field2D diagnostic(const DomainState& s, RenderField field) {
  switch (field) {
    case RenderField::kPressure:
      return s.pressure_field();
    case RenderField::kWindSpeed:
      return s.wind_speed();
    case RenderField::kVorticity:
      return s.vorticity();
    case RenderField::kHeight:
      return s.h;
  }
  return s.h;
}

struct ValueRange {
  double lo, hi;
};

ValueRange robust_range(const Field2D& f) {
  double lo = f.min();
  double hi = f.max();
  if (hi - lo < 1e-12) {
    lo -= 1.0;
    hi += 1.0;
  }
  return {lo, hi};
}

}  // namespace

FrameRenderer::FrameRenderer(RenderOptions options) : options_(options) {}

Image FrameRenderer::render(const NclFile& frame,
                            const std::vector<TrackPoint>* track) const {
  obs::ScopedSpan span("vis.render");
  obs::count("vis.frames_rendered");
  const DomainState parent = decode_domain(frame, "parent");
  const GridSpec& g = parent.grid;
  const std::size_t w = options_.width;
  const std::size_t h = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(
             static_cast<double>(w) * g.extent_lat() / g.extent_lon())));
  Image img(w, h, Rgb{10, 10, 20});

  std::optional<DomainState> nest;
  if (has_domain(frame, "nest")) nest = decode_domain(frame, "nest");

  const Field2D pfield = diagnostic(parent, options_.field);
  // Perturbation pressure uses a diverging map centred on the undisturbed
  // environment: ambient air is near-white, the depression deep blue.
  const Field2D range_field =
      options_.field == RenderField::kPressure ? smooth(pfield, 0) : pfield;
  const ValueRange range =
      options_.field == RenderField::kPressure
          ? ValueRange{kEnvPressureHpa - 35.0, kEnvPressureHpa + 35.0}
          : robust_range(range_field);
  std::optional<Field2D> nfield;
  if (nest) nfield = diagnostic(*nest, options_.field);

  const Colormap fieldmap = options_.field == RenderField::kPressure
                                ? Colormap::diverging_blue_red()
                                : Colormap::viridis();
  const Colormap terrain = Colormap::terrain();

  // Pixel -> lat/lon mapping (y axis flipped: image top = north).
  auto lon_of_px = [&](std::size_t x) {
    return g.lon0() + (static_cast<double>(x) + 0.5) / static_cast<double>(w) *
                          g.extent_lon();
  };
  auto lat_of_px = [&](std::size_t y) {
    return g.lat0() + (1.0 - (static_cast<double>(y) + 0.5) /
                                 static_cast<double>(h)) *
                          g.extent_lat();
  };
  auto px_of_lon = [&](double lon) {
    return static_cast<long>(std::lround((lon - g.lon0()) / g.extent_lon() *
                                         static_cast<double>(w)));
  };
  auto py_of_lat = [&](double lat) {
    return static_cast<long>(std::lround(
        (1.0 - (lat - g.lat0()) / g.extent_lat()) * static_cast<double>(h)));
  };

  // --- Base: terrain + pseudocolor ---
  {
    obs::ScopedSpan base_span("vis.render.base");
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        const LatLon p{lat_of_px(y), lon_of_px(x)};
        const double land = land_fraction(p);
        img.at(x, y) = terrain.sample(0.15 + 0.7 * land);

        // Field value: nest data where available, else parent.
        double v;
        if (nest && nfield && nest->grid.contains(p)) {
          v = nfield->sample(nest->grid.x_of_lon(p.lon),
                             nest->grid.y_of_lat(p.lat));
        } else {
          v = pfield.sample(g.x_of_lon(p.lon), g.y_of_lat(p.lat));
        }
        img.blend(static_cast<long>(x), static_cast<long>(y),
                  fieldmap.map(v, range.lo, range.hi), options_.field_alpha);
      }
    }
  }

  // --- Contours of the parent field ---
  if (options_.draw_contours && options_.contour_levels > 0) {
    std::vector<double> levels;
    for (int k = 1; k <= options_.contour_levels; ++k) {
      levels.push_back(range.lo + (range.hi - range.lo) * k /
                                      (options_.contour_levels + 1));
    }
    const Rgb ink{30, 30, 30};
    for (const ContourSegment& seg : marching_squares(pfield, levels)) {
      // Grid coords -> pixels.
      auto to_px = [&](double gx, double gy, long& px, long& py) {
        const double lon =
            g.lon0() + gx / static_cast<double>(g.nx() - 1) * g.extent_lon();
        const double lat =
            g.lat0() + gy / static_cast<double>(g.ny() - 1) * g.extent_lat();
        px = px_of_lon(lon);
        py = py_of_lat(lat);
      };
      long x0, y0, x1, y1;
      to_px(seg.x0, seg.y0, x0, y0);
      to_px(seg.x1, seg.y1, x1, y1);
      img.draw_line(x0, y0, x1, y1, ink);
    }
  }

  // --- Oriented wind glyphs ---
  if (options_.draw_glyphs) {
    const Rgb ink{240, 240, 240};
    const int sp = std::max(8, options_.glyph_spacing_px);
    for (std::size_t y = sp / 2; y < h; y += sp) {
      for (std::size_t x = sp / 2; x < w; x += sp) {
        const LatLon p{lat_of_px(y), lon_of_px(x)};
        const double u = parent.u.sample(g.x_of_lon(p.lon), g.y_of_lat(p.lat));
        const double v = parent.v.sample(g.x_of_lon(p.lon), g.y_of_lat(p.lat));
        const double speed = std::hypot(u, v);
        if (speed < 0.5) continue;
        const double scale =
            std::min(1.0, speed / 25.0) * (sp * 0.45) / speed;
        const long dx = static_cast<long>(std::lround(u * scale));
        const long dy = static_cast<long>(std::lround(-v * scale));
        img.draw_line(static_cast<long>(x) - dx, static_cast<long>(y) - dy,
                      static_cast<long>(x) + dx, static_cast<long>(y) + dy,
                      ink);
        // Arrow head: a dot at the tip.
        img.set(static_cast<long>(x) + dx, static_cast<long>(y) + dy,
                Rgb{255, 90, 90});
      }
    }
  }

  // --- Volume-rendered cloud layer ---
  if (options_.draw_cloud_volume) {
    composite_volume(img, cloud_volume_from_state(parent));
  }

  // --- Wind streamlines ---
  if (options_.draw_streamlines) {
    const Rgb ink{250, 250, 250};
    auto gx_to_px = [&](double gx) {
      const double lon =
          g.lon0() + gx / static_cast<double>(g.nx() - 1) * g.extent_lon();
      return px_of_lon(lon);
    };
    auto gy_to_py = [&](double gy) {
      const double lat =
          g.lat0() + gy / static_cast<double>(g.ny() - 1) * g.extent_lat();
      return py_of_lat(lat);
    };
    for (const Streamline& line :
         streamline_field(parent.u, parent.v,
                          options_.streamline_spacing_cells,
                          /*min_points=*/8)) {
      for (std::size_t k = 1; k < line.size(); ++k) {
        img.draw_line(gx_to_px(line[k - 1].first),
                      gy_to_py(line[k - 1].second), gx_to_px(line[k].first),
                      gy_to_py(line[k].second), ink);
      }
    }
  }

  // --- Nest outline ---
  if (options_.draw_nest_box && nest) {
    const GridSpec& ng = nest->grid;
    const long x0 = px_of_lon(ng.lon0());
    const long x1 = px_of_lon(ng.lon0() + ng.extent_lon());
    const long y0 = py_of_lat(ng.lat0() + ng.extent_lat());
    const long y1 = py_of_lat(ng.lat0());
    const Rgb box{255, 255, 80};
    img.draw_line(x0, y0, x1, y0, box);
    img.draw_line(x1, y0, x1, y1, box);
    img.draw_line(x1, y1, x0, y1, box);
    img.draw_line(x0, y1, x0, y0, box);
  }

  // --- Track polyline up to the frame time ---
  const double frame_time = attr_double(frame, "sim_time_seconds");
  if (options_.draw_track && track != nullptr && track->size() > 1) {
    const Rgb ink{255, 230, 60};
    for (std::size_t k = 1; k < track->size(); ++k) {
      if ((*track)[k].time.seconds() > frame_time) break;
      img.draw_line(px_of_lon((*track)[k - 1].eye.lon),
                    py_of_lat((*track)[k - 1].eye.lat),
                    px_of_lon((*track)[k].eye.lon),
                    py_of_lat((*track)[k].eye.lat), ink);
    }
  }

  // --- Eye marker ---
  if (options_.draw_eye) {
    const double lat = attr_double(frame, "eye_lat");
    const double lon = attr_double(frame, "eye_lon");
    img.draw_disc(px_of_lon(lon), py_of_lat(lat), 3, Rgb{255, 40, 40});
  }

  return img;
}

}  // namespace adaptviz

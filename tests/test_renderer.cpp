// FrameRenderer and VisualizationProcess tests.
#include <gtest/gtest.h>

#include "vis/renderer.hpp"
#include "vis/vis_process.hpp"
#include "weather/model.hpp"

namespace adaptviz {
namespace {

// One shared model frame for the render tests (deepened enough for a nest).
const NclFile& storm_frame() {
  static const NclFile frame = [] {
    ModelConfig cfg;
    cfg.compute_scale = 10.0;
    WeatherModel m(cfg);
    while (m.sim_time() < SimSeconds::hours(18.0)) m.step();
    return m.make_frame();
  }();
  return frame;
}

TEST(Renderer, ProducesDomainAspectImage) {
  RenderOptions opts;
  opts.width = 300;
  const FrameRenderer renderer(opts);
  const Image img = renderer.render(storm_frame(), nullptr);
  EXPECT_EQ(img.width(), 300u);
  // Parent domain is 60 x 50 degrees -> height = width * 50/60.
  EXPECT_EQ(img.height(), 250u);
}

TEST(Renderer, DrawsNestBoxInYellow) {
  RenderOptions opts;
  opts.width = 300;
  opts.draw_glyphs = false;
  opts.draw_contours = false;
  const FrameRenderer renderer(opts);
  const Image img = renderer.render(storm_frame(), nullptr);
  // Count bright yellow pixels (the nest rectangle).
  int yellow = 0;
  for (std::size_t y = 0; y < img.height(); ++y) {
    for (std::size_t x = 0; x < img.width(); ++x) {
      const Rgb c = img.at(x, y);
      if (c.r > 200 && c.g > 200 && c.b < 120) ++yellow;
    }
  }
  EXPECT_GT(yellow, 50);  // a 9-degree box at this scale is ~45 px a side
}

TEST(Renderer, EyeMarkerPresent) {
  RenderOptions opts;
  opts.width = 300;
  opts.draw_glyphs = false;
  const FrameRenderer renderer(opts);
  const Image img = renderer.render(storm_frame(), nullptr);
  int red = 0;
  for (std::size_t y = 0; y < img.height(); ++y) {
    for (std::size_t x = 0; x < img.width(); ++x) {
      const Rgb c = img.at(x, y);
      if (c.r > 200 && c.g < 90 && c.b < 90) ++red;
    }
  }
  EXPECT_GE(red, 10);  // a radius-3 disc plus glyph tips
}

TEST(Renderer, FieldChoicesAllRender) {
  for (RenderField field :
       {RenderField::kPressure, RenderField::kWindSpeed,
        RenderField::kVorticity, RenderField::kHeight}) {
    RenderOptions opts;
    opts.width = 120;
    opts.field = field;
    const FrameRenderer renderer(opts);
    const Image img = renderer.render(storm_frame(), nullptr);
    // Image is not uniform: the storm shows up.
    const Rgb first = img.at(0, 0);
    bool varied = false;
    for (std::size_t y = 0; y < img.height() && !varied; y += 3) {
      for (std::size_t x = 0; x < img.width() && !varied; x += 3) {
        if (!(img.at(x, y) == first)) varied = true;
      }
    }
    EXPECT_TRUE(varied) << "field " << static_cast<int>(field);
  }
}

TEST(Renderer, TrackOverlayDrawsOnlyPastPoints) {
  std::vector<TrackPoint> track;
  for (int h = 0; h <= 40; h += 2) {
    track.push_back(TrackPoint{SimSeconds::hours(h),
                               LatLon{14.0 + 0.2 * h, 88.5}, 1000.0, 20.0});
  }
  RenderOptions opts;
  opts.width = 200;
  opts.draw_glyphs = false;
  opts.draw_contours = false;
  const FrameRenderer renderer(opts);
  const Image with = renderer.render(storm_frame(), &track);
  const Image without = renderer.render(storm_frame(), nullptr);
  int differing = 0;
  for (std::size_t y = 0; y < with.height(); ++y)
    for (std::size_t x = 0; x < with.width(); ++x)
      if (!(with.at(x, y) == without.at(x, y))) ++differing;
  EXPECT_GT(differing, 10);  // the polyline painted something
}

TEST(Renderer, StreamlineOverlayDrawsInk) {
  RenderOptions base;
  base.width = 160;
  base.field = RenderField::kWindSpeed;
  base.draw_glyphs = false;
  base.draw_contours = false;
  RenderOptions with_lines = base;
  with_lines.draw_streamlines = true;
  const Image plain = FrameRenderer(base).render(storm_frame(), nullptr);
  const Image lined =
      FrameRenderer(with_lines).render(storm_frame(), nullptr);
  int differing = 0;
  for (std::size_t y = 0; y < plain.height(); ++y)
    for (std::size_t x = 0; x < plain.width(); ++x)
      if (!(plain.at(x, y) == lined.at(x, y))) ++differing;
  EXPECT_GT(differing, 100);  // the cyclonic circulation paints many pixels
}

TEST(VisProcess, RecordsProgressAndCost) {
  EventQueue queue;
  VisualizationProcess::Options opts;
  opts.fixed_seconds = 2.0;
  opts.seconds_per_gb = 4.0;
  VisualizationProcess vis(queue, opts);
  Frame f;
  f.sequence = 7;
  f.sim_time = SimSeconds::hours(3.0);
  f.size = Bytes::gigabytes(0.5);
  const WallSeconds cost = vis.record(f);
  EXPECT_NEAR(cost.seconds(), 4.0, 1e-9);
  ASSERT_EQ(vis.records().size(), 1u);
  EXPECT_EQ(vis.records()[0].sequence, 7);
  EXPECT_DOUBLE_EQ(vis.latest_visualized_sim_time().as_hours(), 3.0);
}

}  // namespace
}  // namespace adaptviz

// Streamline tracing for wind-field visualization.
//
// The paper visualizes WRF output with "vector plots employing oriented
// glyphs"; streamlines are the continuous companion: integral curves of the
// wind field, traced here with a midpoint (RK2) integrator in fractional
// grid coordinates. The renderer overlays them on wind-speed views.
#pragma once

#include <vector>

#include "weather/grid.hpp"

namespace adaptviz {

struct StreamlineOptions {
  /// Integration step as a fraction of a grid cell.
  double step_cells = 0.4;
  /// Maximum number of integration steps per line (per direction).
  int max_steps = 600;
  /// Stop when the local speed drops below this (m/s): stagnation.
  double min_speed = 0.2;
};

/// One polyline in fractional grid coordinates.
using Streamline = std::vector<std::pair<double, double>>;

/// Traces a streamline of (u, v) through `seed` (fractional grid coords),
/// integrating both downstream and upstream. Fields must share a shape; the
/// trace stops at the domain edge, at stagnation, or at max_steps.
Streamline trace_streamline(const Field2D& u, const Field2D& v,
                            double seed_x, double seed_y,
                            const StreamlineOptions& options = {});

/// Traces a grid of seeds (spacing in cells) and returns all lines with at
/// least `min_points` vertices, in seed order (row by row, south to north).
std::vector<Streamline> streamline_field(const Field2D& u, const Field2D& v,
                                         double seed_spacing_cells,
                                         std::size_t min_points = 8,
                                         const StreamlineOptions& options = {});

}  // namespace adaptviz

// Moving two-way nest.
//
// WRF nests are finer-resolution domains embedded in the parent; the paper
// uses a 1:3 nesting ratio, spawns the nest at the location of lowest
// pressure and moves it with the eye. This implementation reproduces that:
// the nest integrates its own shallow-water dynamics at parent_resolution/3
// with three substeps per parent step, receives boundary conditions
// interpolated from the parent every substep, and feeds its interior back
// into the parent (two-way coupling by restriction) after each parent step.
// When the eye drifts too far from the nest centre the nest is re-centred,
// reusing overlapping fine data and falling back to parent interpolation
// elsewhere.
//
// Where the two grids read each other depends only on where the nest sits,
// so (as WRF computes its nest interpolation indices when a nest moves)
// the sample coordinates are computed once per placement: at spawn,
// recenter and restore. The parent stays fixed across the nest's substeps,
// so its boundary band is sampled once per parent step and blended in on
// every substep.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "weather/grid.hpp"
#include "weather/state.hpp"

namespace adaptviz {

/// Time (and space) refinement ratio between parent and nest (paper: 1:3).
inline constexpr int kNestRatio = 3;

/// Depth (nest points) of the band the parent's values are blended into.
inline constexpr std::size_t kBoundaryWidth = 3;

/// Depth (nest points) of the rim that feedback leaves out.
inline constexpr int kFeedbackExclude = 4;

class NestDomain {
 public:
  /// Creates a nest of `extent_deg` x `extent_deg` centred as close to
  /// `center` as fits inside the parent (with a 2-parent-cell margin), at
  /// parent resolution / kNestRatio, initialized by interpolation from the
  /// parent.
  NestDomain(const DomainState& parent, LatLon center, double extent_deg);

  [[nodiscard]] const DomainState& state() const { return state_; }
  [[nodiscard]] DomainState& state() { return state_; }
  [[nodiscard]] const GridSpec& grid() const { return state_.grid; }
  [[nodiscard]] LatLon center() const;
  [[nodiscard]] double extent_deg() const { return extent_deg_; }

  /// Samples the parent at the nest's boundary band (the outer
  /// kBoundaryWidth points) for blend_boundary(). `parent` must be on the
  /// grid the nest was placed in.
  void sample_boundary(const DomainState& parent);

  /// Blends the last sample into the boundary band: pure parent at the
  /// edge, pure nest at depth kBoundaryWidth.
  void blend_boundary();

  /// sample_boundary() then blend_boundary().
  void apply_boundary(const DomainState& parent);

  /// Restricts the nest interior onto overlapping parent points (two-way
  /// feedback). The outer kFeedbackExclude points of the nest are excluded.
  /// `parent` must be on the grid the nest was placed in.
  void feedback(DomainState& parent) const;

  /// True when `eye` is farther than `threshold_deg` from the nest centre.
  [[nodiscard]] bool needs_recenter(LatLon eye,
                                    double threshold_deg = 1.25) const;

  /// Rebuilds the nest around `eye`: overlapping area keeps fine data,
  /// the rest comes from the parent.
  void recenter(const DomainState& parent, LatLon eye);

  /// Replaces the nest state wholesale (checkpoint restore). The grid in
  /// `s` must have this nest's resolution.
  void restore_state(DomainState s);

 private:
  [[nodiscard]] static GridSpec make_grid(const GridSpec& parent_grid,
                                          LatLon center, double extent_deg,
                                          double resolution_km);
  void fill_from(const DomainState& src);
  // Recomputes the exchange plan for the current nest grid inside
  // `parent_grid`.
  void plan_exchange(const GridSpec& parent_grid);
  void check_parent(const GridSpec& parent_grid) const;

  DomainState state_;
  double extent_deg_;

  // Where the grids read each other, for this placement. Each coordinate
  // depends on one index only: a nest column's parent x, a nest row's
  // parent y; a covered parent column's three nest x, a covered parent
  // row's three nest y.
  struct Exchange {
    GridSpec parent_grid;
    std::vector<double> band_x, band_y;
    std::vector<std::size_t> cover_i, cover_j;
    std::vector<double> cover_x, cover_y;
  };
  Exchange plan_;
  // The parent sampled at the band, in band order (row-major).
  std::vector<double> band_h_, band_u_, band_v_;
};

}  // namespace adaptviz

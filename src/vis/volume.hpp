// Volume rendering (emission-absorption ray marching).
//
// The paper lists "volume rendering" among the VisIt techniques used on the
// WRF output. The shallow-water state is two-dimensional, so a synthetic
// cloud volume is diagnosed from it the way satellite-style renderings of
// single-layer models do: convective cloud depth grows with the height
// depression (deeper storm -> taller convection, capped at the tropopause)
// and density with the low-level wind speed. The volume is then composited
// front-to-back along sheared parallel rays (a tilted satellite view) with
// the classic emission-absorption model:
//
//     C_out = C_in + T * (1 - exp(-sigma * rho * ds)) * C_cloud
//     T    *= exp(-sigma * rho * ds)
#pragma once

#include "vis/image.hpp"
#include "weather/state.hpp"

namespace adaptviz {

/// Regular (nx, ny, nz) scalar volume, z = 0 at the surface.
class VolumeGrid {
 public:
  VolumeGrid(std::size_t nx, std::size_t ny, std::size_t nz,
             double fill = 0.0);

  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }
  [[nodiscard]] std::size_t nz() const { return nz_; }

  double& at(std::size_t i, std::size_t j, std::size_t k) {
    return data_[(k * ny_ + j) * nx_ + i];
  }
  [[nodiscard]] double at(std::size_t i, std::size_t j, std::size_t k) const {
    return data_[(k * ny_ + j) * nx_ + i];
  }

  /// Trilinear sample at fractional coordinates; zero outside the volume.
  [[nodiscard]] double sample(double x, double y, double z) const;

 private:
  std::size_t nx_, ny_, nz_;
  std::vector<double> data_;
};

struct CloudVolumeOptions {
  std::size_t levels = 16;          // vertical resolution
  double max_density = 1.0;         // at the deepest depression
  /// Height anomaly (m, negative) at which cloud tops reach the model top.
  double saturation_anomaly_m = -150.0;
  /// Depressions shallower than this (m) carry no convection (far-field
  /// tails of the vortex profile are not cloud).
  double min_anomaly_m = 10.0;
};

/// Diagnoses a cloud-density volume from a shallow-water state.
VolumeGrid cloud_volume_from_state(const DomainState& state,
                                   const CloudVolumeOptions& options = {});

struct VolumeRenderOptions {
  /// Oblique parallel projection: cloud tops are displaced this many grid
  /// cells toward the image top (north) relative to the surface
  /// (0 = straight down).
  double shear_cells = 6.0;
  /// Extinction coefficient per unit density per level.
  double extinction = 0.35;
  Rgb cloud_color{245, 245, 248};
};

/// Composites the volume over an existing image (which must map 1 image
/// pixel : (nx/width) grid cells, i.e. the renderer's own geometry; the
/// image is typically a pseudocolor base layer).
void composite_volume(Image& image, const VolumeGrid& volume,
                      const VolumeRenderOptions& options = {});

}  // namespace adaptviz

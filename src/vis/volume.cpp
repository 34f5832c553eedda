#include "vis/volume.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"

namespace adaptviz {

VolumeGrid::VolumeGrid(std::size_t nx, std::size_t ny, std::size_t nz,
                       double fill)
    : nx_(nx), ny_(ny), nz_(nz), data_(nx * ny * nz, fill) {
  if (nx == 0 || ny == 0 || nz == 0) {
    throw std::invalid_argument("VolumeGrid: empty dimension");
  }
}

double VolumeGrid::sample(double x, double y, double z) const {
  if (x < 0 || y < 0 || z < 0 || x > static_cast<double>(nx_ - 1) ||
      y > static_cast<double>(ny_ - 1) || z > static_cast<double>(nz_ - 1)) {
    return 0.0;
  }
  const std::size_t x0 = static_cast<std::size_t>(x);
  const std::size_t y0 = static_cast<std::size_t>(y);
  const std::size_t z0 = static_cast<std::size_t>(z);
  const std::size_t x1 = std::min(x0 + 1, nx_ - 1);
  const std::size_t y1 = std::min(y0 + 1, ny_ - 1);
  const std::size_t z1 = std::min(z0 + 1, nz_ - 1);
  const double fx = x - static_cast<double>(x0);
  const double fy = y - static_cast<double>(y0);
  const double fz = z - static_cast<double>(z0);
  auto lerp = [](double a, double b, double f) { return a + f * (b - a); };
  const double c00 = lerp(at(x0, y0, z0), at(x1, y0, z0), fx);
  const double c10 = lerp(at(x0, y1, z0), at(x1, y1, z0), fx);
  const double c01 = lerp(at(x0, y0, z1), at(x1, y0, z1), fx);
  const double c11 = lerp(at(x0, y1, z1), at(x1, y1, z1), fx);
  return lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz);
}

VolumeGrid cloud_volume_from_state(const DomainState& state,
                                   const CloudVolumeOptions& opt) {
  const GridSpec& g = state.grid;
  VolumeGrid vol(g.nx(), g.ny(), opt.levels);
  const double nz = static_cast<double>(opt.levels - 1);
  for (std::size_t j = 0; j < g.ny(); ++j) {
    for (std::size_t i = 0; i < g.nx(); ++i) {
      // Convection where the layer is depressed; cloud-top fraction of the
      // column grows with the depression depth.
      const double depression = std::max(0.0, -state.h(i, j));
      if (depression <= opt.min_anomaly_m) continue;
      const double top_frac = std::min(
          1.0, depression / std::fabs(opt.saturation_anomaly_m));
      const double density =
          opt.max_density * std::min(1.0, depression /
                                              std::fabs(opt.saturation_anomaly_m));
      const double top_level = top_frac * nz;
      for (std::size_t k = 0; k < opt.levels; ++k) {
        const double z = static_cast<double>(k);
        if (z > top_level) break;
        // Denser at cloud base, thinning toward the anvil.
        vol.at(i, j, k) =
            density * (1.0 - 0.5 * z / std::max(top_level, 1e-9));
      }
    }
  }
  return vol;
}

void composite_volume(Image& image, const VolumeGrid& volume,
                      const VolumeRenderOptions& opt) {
  obs::ScopedSpan span("vis.volume");
  const double sx = static_cast<double>(volume.nx() - 1) /
                    static_cast<double>(image.width() - 1);
  const double sy = static_cast<double>(volume.ny() - 1) /
                    static_cast<double>(image.height() - 1);
  const double nz = static_cast<double>(volume.nz() - 1);

  for (std::size_t py = 0; py < image.height(); ++py) {
    for (std::size_t px = 0; px < image.width(); ++px) {
      const double gx = static_cast<double>(px) * sx;
      // Image rows run north->south; volume j runs south->north.
      const double gy_surface =
          static_cast<double>(volume.ny() - 1) -
          static_cast<double>(py) * sy;

      // Front-to-back from the volume top: the viewer looks down a sheared
      // ray; a cell at level k appears shifted north by shear * (k / nz).
      double transmittance = 1.0;
      double cloud = 0.0;  // accumulated cloud opacity contribution
      for (double k = nz; k >= 0.0; k -= 1.0) {
        const double gy = gy_surface - opt.shear_cells * (k / nz);
        const double rho = volume.sample(gx, gy, k);
        if (rho <= 0.0) continue;
        const double absorb = 1.0 - std::exp(-opt.extinction * rho);
        cloud += transmittance * absorb;
        transmittance *= 1.0 - absorb;
        if (transmittance < 0.01) break;
      }
      if (cloud > 0.003) {
        image.blend(static_cast<long>(px), static_cast<long>(py),
                    opt.cloud_color, std::min(1.0, cloud));
      }
    }
  }
}

}  // namespace adaptviz

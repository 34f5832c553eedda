#include "weather/grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numerics/interpolation.hpp"

namespace adaptviz {

GridSpec::GridSpec(double lon0, double lat0, double extent_lon_deg,
                   double extent_lat_deg, double resolution_km)
    : lon0_(lon0),
      lat0_(lat0),
      ext_lon_(extent_lon_deg),
      ext_lat_(extent_lat_deg),
      res_km_(resolution_km) {
  if (extent_lon_deg <= 0 || extent_lat_deg <= 0 || resolution_km <= 0) {
    throw std::invalid_argument("GridSpec: extents and resolution must be > 0");
  }
  const double res_deg = resolution_km / kKmPerDegree;
  nx_ = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(extent_lon_deg / res_deg)) + 1);
  ny_ = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(extent_lat_deg / res_deg)) + 1);
}

LatLon GridSpec::at(std::size_t i, std::size_t j) const {
  return LatLon{lat_at(j), lon_at(i)};
}

double GridSpec::lat_at(std::size_t j) const {
  const double fy = static_cast<double>(j) / static_cast<double>(ny_ - 1);
  return lat0_ + fy * ext_lat_;
}

double GridSpec::lon_at(std::size_t i) const {
  const double fx = static_cast<double>(i) / static_cast<double>(nx_ - 1);
  return lon0_ + fx * ext_lon_;
}

double GridSpec::x_of_lon(double lon) const {
  return (lon - lon0_) / ext_lon_ * static_cast<double>(nx_ - 1);
}

double GridSpec::y_of_lat(double lat) const {
  return (lat - lat0_) / ext_lat_ * static_cast<double>(ny_ - 1);
}

bool GridSpec::contains(LatLon p) const {
  return p.lon >= lon0_ && p.lon <= lon0_ + ext_lon_ && p.lat >= lat0_ &&
         p.lat <= lat0_ + ext_lat_;
}

Field2D::Field2D(std::size_t nx, std::size_t ny, double fill)
    : nx_(nx), ny_(ny), data_(nx * ny, fill) {
  if (nx == 0 || ny == 0) throw std::invalid_argument("Field2D: empty");
}

void Field2D::fill(double v) { std::fill(data_.begin(), data_.end(), v); }

double Field2D::min() const {
  return *std::min_element(data_.begin(), data_.end());
}

double Field2D::max() const {
  return *std::max_element(data_.begin(), data_.end());
}

double Field2D::mean() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s / static_cast<double>(data_.size());
}

double Field2D::sample(double x, double y) const {
  return bilinear(data_, nx_, ny_, x, y);
}

Field2D smooth(const Field2D& f, int passes) {
  Field2D cur = f;
  Field2D next(f.nx(), f.ny());
  for (int p = 0; p < passes; ++p) {
    for (std::size_t j = 0; j < f.ny(); ++j) {
      for (std::size_t i = 0; i < f.nx(); ++i) {
        const std::size_t im = i > 0 ? i - 1 : i;
        const std::size_t ip = i + 1 < f.nx() ? i + 1 : i;
        const std::size_t jm = j > 0 ? j - 1 : j;
        const std::size_t jp = j + 1 < f.ny() ? j + 1 : j;
        next(i, j) = 0.2 * (cur(i, j) + cur(im, j) + cur(ip, j) + cur(i, jm) +
                            cur(i, jp));
      }
    }
    std::swap(cur, next);
  }
  return cur;
}

}  // namespace adaptviz

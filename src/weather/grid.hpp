// Structured lat-lon grids and 2-D fields for the mesoscale model.
//
// A GridSpec describes a regular lat-lon box with square (in km) spacing —
// the paper's parent domain is 60E-120E, 10S-40N. Field2D is a row-major
// (ny, nx) array of doubles with (i=x/lon, j=y/lat) indexing.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

/// No-alias qualifier for the hot stencil kernels: a pointer declared
/// ADAPTVIZ_RESTRICT promises the compiler that the object it reaches is not
/// written through any other pointer in scope, which is what lets the row
/// kernels in dynamics.cpp vectorize without runtime alias checks.
#if defined(_MSC_VER)
#define ADAPTVIZ_RESTRICT __restrict
#else
#define ADAPTVIZ_RESTRICT __restrict__
#endif

namespace adaptviz {

/// Kilometres per degree of latitude (and of longitude at the equator on the
/// model's Cartesian-like projection).
inline constexpr double kKmPerDegree = 111.2;

struct LatLon {
  double lat = 0.0;
  double lon = 0.0;
};

class GridSpec {
 public:
  GridSpec() = default;
  /// A grid covering [lon0, lon0+extent_lon_deg] x [lat0, lat0+extent_lat_deg]
  /// at `resolution_km` spacing. Point counts are derived (>= 2 each way).
  GridSpec(double lon0, double lat0, double extent_lon_deg,
           double extent_lat_deg, double resolution_km);

  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }
  [[nodiscard]] std::size_t point_count() const { return nx_ * ny_; }
  [[nodiscard]] double resolution_km() const { return res_km_; }
  /// Grid spacing in metres (used by the dynamics).
  [[nodiscard]] double dx_m() const { return res_km_ * 1000.0; }

  [[nodiscard]] double lon0() const { return lon0_; }
  [[nodiscard]] double lat0() const { return lat0_; }
  [[nodiscard]] double extent_lon() const { return ext_lon_; }
  [[nodiscard]] double extent_lat() const { return ext_lat_; }

  /// Geographic coordinates of grid point (i, j): {lat_at(j), lon_at(i)},
  /// so a row kernel can hoist the latitude out of its cell loop.
  [[nodiscard]] LatLon at(std::size_t i, std::size_t j) const;
  [[nodiscard]] double lat_at(std::size_t j) const;
  [[nodiscard]] double lon_at(std::size_t i) const;
  /// Fractional grid coordinates of a geographic point (may be outside).
  [[nodiscard]] double x_of_lon(double lon) const;
  [[nodiscard]] double y_of_lat(double lat) const;
  [[nodiscard]] bool contains(LatLon p) const;

  friend bool operator==(const GridSpec&, const GridSpec&) = default;

 private:
  double lon0_ = 0.0;
  double lat0_ = 0.0;
  double ext_lon_ = 0.0;
  double ext_lat_ = 0.0;
  double res_km_ = 1.0;
  std::size_t nx_ = 2;
  std::size_t ny_ = 2;
};

class Field2D {
 public:
  Field2D() = default;
  Field2D(std::size_t nx, std::size_t ny, double fill = 0.0);

  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[j * nx_ + i];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[j * nx_ + i];
  }

  [[nodiscard]] const std::vector<double>& data() const { return data_; }
  [[nodiscard]] std::vector<double>& data() { return data_; }

  /// Row j as a contiguous raw span of nx() doubles. Distinct rows never
  /// overlap, so a kernel may declare several rows of one field (or rows of
  /// different fields) ADAPTVIZ_RESTRICT and stream over them branch-free.
  [[nodiscard]] double* row(std::size_t j) { return data_.data() + j * nx_; }
  [[nodiscard]] const double* row(std::size_t j) const {
    return data_.data() + j * nx_;
  }

  void fill(double v);
  /// Reshapes to (nx, ny) and zero-fills, reusing the existing allocation
  /// when capacity allows — for scratch fields that alternate between
  /// domain sizes (parent vs. nest) every step.
  void resize(std::size_t nx, std::size_t ny) {
    nx_ = nx;
    ny_ = ny;
    data_.assign(nx * ny, 0.0);
  }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;

  /// Bilinear sample at fractional grid coordinates (clamped at edges).
  [[nodiscard]] double sample(double x, double y) const;

  friend bool operator==(const Field2D&, const Field2D&) = default;

 private:
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  std::vector<double> data_;
};

/// 5-point smoother (one Jacobi pass), used by the tracker to de-noise the
/// pressure field before searching for the eye.
Field2D smooth(const Field2D& f, int passes = 1);

}  // namespace adaptviz

#include "resources/disk.hpp"

#include <stdexcept>

namespace adaptviz {

DiskModel::DiskModel(Bytes capacity, Bandwidth io_bandwidth)
    : capacity_(capacity), io_bw_(io_bandwidth) {
  if (capacity <= Bytes(0)) {
    throw std::invalid_argument("DiskModel: capacity must be positive");
  }
  if (io_bandwidth.bytes_per_sec() <= 0.0) {
    throw std::invalid_argument("DiskModel: I/O bandwidth must be positive");
  }
}

bool DiskModel::allocate(Bytes size) {
  if (size < Bytes(0)) {
    throw std::invalid_argument("DiskModel: negative allocation");
  }
  if (s_.used + size > capacity_) return false;
  s_.used += size;
  if (s_.used > s_.peak) s_.peak = s_.used;
  return true;
}

void DiskModel::release(Bytes size) {
  if (size < Bytes(0)) {
    throw std::invalid_argument("DiskModel: negative release");
  }
  if (size > s_.used) {
    throw std::logic_error("DiskModel: releasing more than used");
  }
  s_.used -= size;
}

Bytes DiskModel::inject_external(Bytes size) {
  if (size < Bytes(0)) {
    throw std::invalid_argument("DiskModel: negative injection");
  }
  const Bytes placed = size <= free_space() ? size : free_space();
  s_.used += placed;
  if (s_.used > s_.peak) s_.peak = s_.used;
  return placed;
}

void DiskModel::release_external(Bytes size) {
  if (size < Bytes(0)) {
    throw std::invalid_argument("DiskModel: negative release");
  }
  s_.used -= size <= s_.used ? size : s_.used;
}

double DiskModel::free_percent() const {
  return 100.0 * free_space().as_double() / capacity_.as_double();
}

WallSeconds DiskModel::write_time(Bytes size) const {
  return transfer_time(size, io_bw_);
}

}  // namespace adaptviz

// Stable-storage model for the simulation site.
//
// Tracks capacity and occupancy; `free_percent()` is the framework's `df`.
// The application manager polls it, the greedy algorithm thresholds on it,
// and the LP's disk constraint consumes its free space. A reservation API
// lets the simulation process check space *before* an I/O burst, mirroring
// the paper's "simulation ... outputs climate data to disks as long as the
// available disk space is sufficient".
#pragma once

#include "util/units.hpp"

namespace adaptviz {

class DiskModel {
 public:
  /// `capacity` must be positive; `io_bandwidth` is the parallel-I/O write
  /// rate that determines the paper's TIO (time to output one frame).
  DiskModel(Bytes capacity, Bandwidth io_bandwidth);

  /// Attempts to place `size` bytes; returns false (and changes nothing)
  /// when it would exceed capacity.
  [[nodiscard]] bool allocate(Bytes size);

  /// Releases bytes (e.g. a frame shipped to the visualization site).
  /// Throws std::logic_error on releasing more than is used.
  void release(Bytes size);

  /// Failure injection: an external tenant dumps `size` bytes onto the
  /// shared disk (the adversary's "disk shock"). Clamped at capacity;
  /// returns the bytes actually placed. The occupancy is permanent until
  /// release_external() frees it — the framework's own accounting never
  /// releases bytes it did not allocate.
  Bytes inject_external(Bytes size);
  /// Frees previously injected external bytes (clamped at used()).
  void release_external(Bytes size);

  /// Mutable occupancy accounting (capacity and I/O rate are construction
  /// constants and not part of the state machine).
  struct State {
    Bytes used{};
    Bytes peak{};
  };
  [[nodiscard]] State snapshot() const { return s_; }
  void restore(const State& s) { s_ = s; }

  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] Bytes used() const { return s_.used; }
  [[nodiscard]] Bytes free_space() const { return capacity_ - s_.used; }
  /// Percentage of the disk that is free, 0..100 (the `df` the paper polls).
  [[nodiscard]] double free_percent() const;
  /// High-water mark of `used()` over the disk's lifetime.
  [[nodiscard]] Bytes peak_used() const { return s_.peak; }

  [[nodiscard]] Bandwidth io_bandwidth() const { return io_bw_; }
  /// Time to write `size` at the disk's I/O bandwidth (the paper's TIO for a
  /// frame-sized write).
  [[nodiscard]] WallSeconds write_time(Bytes size) const;

 private:
  const Bytes capacity_;
  const Bandwidth io_bw_;
  State s_;
};

}  // namespace adaptviz

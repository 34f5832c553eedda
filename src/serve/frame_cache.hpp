// Visualization-site frame cache.
//
// The paper ships every frame to exactly one scientist's VisIt session and
// discards it after rendering. Turning that point-to-point stream into a
// multi-consumer service needs a network data cache at the visualization
// site (Bethel et al., "Using High-Speed WANs and Network Data Caches to
// Enable Remote and Distributed Visualization"): received frames are kept
// in a bounded store so any number of viewer sessions can replay them
// without touching the WAN or the simulation site again.
//
// The cache is bounded in bytes (modeled frame sizes — the same accounting
// the disk model uses) and optionally in frame count, and never exceeds
// either bound: eviction happens *before* an insert is admitted. Two
// eviction policies are provided:
//
//  * LRU — classic recency: serves live-tail fan-out well, but a burst of
//    catch-up replays from one era can flush the rest of the timeline.
//  * Stride thinning — evicts the frame whose removal creates the smallest
//    gap in simulated time, never the first or last resident frame. The
//    cache degrades into a progressively coarser but *full-span* sampling
//    of the cyclone track, so a catch-up viewer joining at any simulated
//    time finds a nearby frame — temporal coverage is the asset worth
//    preserving for a storm-track archive.
//
// Hit/miss/eviction counters feed the telemetry series and the client
// scaling bench.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dataio/frame.hpp"
#include "util/units.hpp"

namespace adaptviz {

enum class EvictionPolicy { kLru, kStrideThinning };

const char* to_string(EvictionPolicy p);
/// Parses "lru" / "stride-thin"; throws std::runtime_error otherwise.
EvictionPolicy eviction_policy_from(const std::string& name);

struct FrameCacheConfig {
  /// Hard byte bound (modeled frame sizes). Resident bytes never exceed it.
  Bytes capacity = Bytes::gigabytes(4.0);
  /// Optional frame-count bound; 0 means bytes-only.
  std::size_t max_frames = 0;
  EvictionPolicy policy = EvictionPolicy::kLru;
  /// Prefix for the cache's obs metric names ("<prefix>.cache_hits", ...).
  /// The single-site serving cache keeps the historical "serve" series; the
  /// edge tree gives each tier its own ("tree.t0", "tree.t1", ...) so
  /// per-tier hit rates and eviction pressure are separable in a snapshot.
  std::string obs_prefix = "serve";
};

struct FrameCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;
  /// Frames larger than the entire cache: refused outright.
  std::int64_t rejected = 0;
  Bytes peak_bytes{};

  [[nodiscard]] double hit_rate() const {
    const std::int64_t total = hits + misses;
    return total == 0 ? 1.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class FrameCache {
 public:
  explicit FrameCache(FrameCacheConfig config);

  /// Admits `frame`, evicting per policy until it fits. Returns false (and
  /// counts a rejection) when the frame alone exceeds the byte capacity.
  /// Re-inserting a resident sequence refreshes its recency and is not a
  /// second insertion.
  bool insert(const Frame& frame);

  /// Cached frame by sequence. Counts a hit (and refreshes LRU recency) or
  /// a miss.
  std::optional<Frame> lookup(std::int64_t sequence);

  /// Residency probe without counter side effects.
  [[nodiscard]] bool contains(std::int64_t sequence) const;

  /// Accounts `n` aggregated hits in one call: the edge tree models a leaf
  /// node's whole viewer population reading a freshly resident frame out of
  /// the leaf cache without materializing one lookup per viewer.
  void record_fanout_hits(std::int64_t n);

  [[nodiscard]] std::size_t frame_count() const { return s_.entries.size(); }
  [[nodiscard]] Bytes bytes_cached() const { return s_.bytes; }
  [[nodiscard]] const FrameCacheStats& stats() const { return s_.stats; }
  [[nodiscard]] const FrameCacheConfig& config() const { return config_; }

  /// Resident sequences in ascending order (tests, coverage inspection).
  [[nodiscard]] std::vector<std::int64_t> resident_sequences() const;

  /// One resident frame plus its recency: the use-clock value of its last
  /// insert or hit (LRU evicts the smallest).
  struct Entry {
    Frame frame;
    std::uint64_t last_use = 0;
  };
  /// Cache contents as plain values: resident entries keyed by sequence
  /// (map order == output order == simulated-time order, which is what
  /// stride thinning walks), the use clock, byte occupancy and counters.
  struct State {
    std::map<std::int64_t, Entry> entries;
    std::uint64_t use_clock = 0;
    Bytes bytes{};
    FrameCacheStats stats{};
  };
  [[nodiscard]] State snapshot() const { return s_; }
  void restore(const State& s) { s_ = s; }

 private:
  void evict_one();
  [[nodiscard]] std::int64_t lru_victim() const;
  [[nodiscard]] std::int64_t stride_victim() const;

  FrameCacheConfig config_;
  // Obs metric names, precomputed so the hot counters don't concatenate
  // strings per lookup.
  std::string obs_hits_;
  std::string obs_misses_;
  std::string obs_insertions_;
  std::string obs_evictions_;
  std::string obs_rejections_;
  std::string obs_peak_mb_;
  State s_;
};

}  // namespace adaptviz

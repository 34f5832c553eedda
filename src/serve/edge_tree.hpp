// Edge-cache distribution tree: tiered frame fan-out beyond one site.
//
// PR 2's serving subsystem stops at a single visualization site: one
// FrameCache, one ViewerSessionManager, every client on a downlink of the
// same cache. That topology tops out when the viewer population no longer
// fits behind one cache — the ROADMAP's "heavy traffic from millions of
// users". The missing layer is the one the LBNL network-data-cache work
// (Bethel et al., "Using High-Speed WANs and Network Data Caches to Enable
// Remote and Distributed Visualization") puts between producer and
// distributed consumers, arranged in the tiered origin → regional → leaf
// topology of the MONARC T0/T1 replication studies:
//
//   sim site (origin, authoritative)
//     └── tier 0: regional edge caches      ── fan_out[0] nodes
//           └── tier 1: leaf session managers ── × fan_out[1] each
//                 └── viewers_per_leaf modeled viewers per leaf
//
// Every parent→child edge is an existing NetworkLink, so PR 3's failure
// injection (LinkSpec::failure_probability, plan_transfer aborting at a
// sampled progress fraction on a dedicated fault stream) and the shared
// retry ladder (transport/retry.hpp, the frame sender's too) apply per
// edge. Each node owns a bounded FrameCache; a miss triggers a
// *fill* from the parent — and fills are single-flight: all downstream
// requests for a frame that is already being fetched coalesce onto the one
// in-flight WAN transfer (counted, so the dedup ratio is measurable). One
// transfer from the origin therefore serves every viewer below that
// subtree — the whole point of the tree.
//
// Leaves are aggregated session managers: rather than materializing one
// event-level session per viewer (PR 2's ViewerSessionManager remains the
// full-fidelity single-site model, benched to 128 clients), a leaf replays
// the entire stream in order through the tree exactly once and fans each
// resident frame out to its `viewers_per_leaf` attached viewers — which is
// how a bench drives 100k+ modeled clients with memory bounded by the node
// caches, not the viewer count.
//
// Byte accounting is codec-aware: each tier carries a `codec_ratio` (PR
// 6's measured raw/encoded ratio) modeling link-level compression on that
// tier's uplinks — wire bytes = frame bytes / ratio; caches hold decoded
// frames. When the experiment's [codec] is already enabled, Frame::size is
// the encoded size and tiers should keep ratio 1.0 (the framework does).
//
// Determinism: the tree is built deterministically from (seed, TreeSpec) —
// node seeds derive from (tier, index) — and every scheduling decision
// happens on the event loop, so delivered-frame series are bitwise
// identical across thread-pool sizes, and across tree *shapes* with equal
// leaf counts (every leaf replays the full stream in order regardless of
// what hangs above it).
//
// Every node is a plain value in the tree's State — a pending fill's
// waiters are indices one tier down, not closures — so snapshot() and
// restore() copy the whole tree, and a [tree] run rewinds like any other.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dataio/frame.hpp"
#include "resources/event_queue.hpp"
#include "resources/network.hpp"
#include "serve/frame_cache.hpp"
#include "transport/retry.hpp"
#include "util/ini.hpp"
#include "util/thread_pool.hpp"

namespace adaptviz {

/// One tier of the distribution tree (tier 0 sits directly below the
/// origin). All nodes of a tier share the same presets; per-node RNG
/// streams keep their links independent.
struct EdgeTierSpec {
  /// Children per parent node: tier 0 has fan_out nodes total, tier 1 has
  /// fan_out[0] * fan_out[1], and so on. Must be >= 1.
  int fan_out = 2;
  /// Parent→child link preset for every node of this tier (each node gets
  /// its own NetworkLink instance with its own noise/fault streams).
  LinkSpec uplink;
  /// Per-node bounded cache for this tier.
  FrameCacheConfig cache;
  /// Measured codec ratio (raw/encoded, >= produced by PR 6's
  /// FrameFieldCodec) applied to this tier's wire transfers; 1.0 = no
  /// link-level compression. Caches store decoded frames either way.
  double codec_ratio = 1.0;
};

/// The whole tree. Construction from (seed, spec) is deterministic.
struct TreeSpec {
  std::vector<EdgeTierSpec> tiers;
  /// Modeled viewer population attached to every leaf node (>= 1). Viewers
  /// read resident frames out of their leaf's cache; only the leaf itself
  /// pulls through the tree.
  std::int64_t viewers_per_leaf = 1;
  /// Fill retry/backoff policy, shared by every node (exponential with
  /// jitter and a cap; a success resets it).
  RetryPolicy retry{};
  /// Leaf i starts replaying at wall time i * join_stagger — the staggered
  /// joins real viewer populations show, and what lets late leaves hit
  /// caches their earlier siblings warmed.
  WallSeconds leaf_join_stagger{5.0};

  [[nodiscard]] bool enabled() const { return !tiers.empty(); }
};

/// Aggregated view of one tier (summed over its nodes).
struct EdgeTierStats {
  int nodes = 0;
  // Cache behaviour (summed FrameCacheStats).
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_evictions = 0;
  std::int64_t cache_insertions = 0;
  /// Largest per-node resident peak in the tier (the bounded-memory gauge;
  /// every node is individually bounded by its configured capacity).
  Bytes peak_node_bytes{};
  // Fill protocol.
  std::int64_t fills = 0;           // upstream fetches actually issued
  std::int64_t fill_coalesced = 0;  // requests that piggybacked on one
  std::int64_t fill_retries = 0;    // re-attempts after an aborted transfer
  std::int64_t fill_failures = 0;   // aborted transfer attempts
  std::int64_t degraded_events = 0; // link_degraded latches (PR 3 semantics)
  int links_degraded = 0;           // nodes currently latched degraded
  // Wire accounting (this tier's uplinks — tier 0 is origin bytes-on-WAN).
  Bytes bytes_filled{};  // successful fill transfers, wire (encoded) bytes
  Bytes bytes_wasted{};  // partial bytes of aborted attempts
  // Frame staleness at fill completion: wall delay behind publish.
  double staleness_sum_s = 0.0;
  double staleness_max_s = 0.0;
  std::int64_t staleness_count = 0;

  [[nodiscard]] Bytes bytes_on_wan() const {
    return bytes_filled + bytes_wasted;
  }
  [[nodiscard]] double hit_rate() const {
    const std::int64_t total = cache_hits + cache_misses;
    return total == 0 ? 1.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
  [[nodiscard]] double mean_staleness_s() const {
    return staleness_count == 0
               ? 0.0
               : staleness_sum_s / static_cast<double>(staleness_count);
  }
};

/// One frame landing in a leaf cache (and thus reaching that leaf's whole
/// viewer population). The per-leaf series is the delivery record the
/// digest/exactly-once guarantees are stated over.
struct LeafDelivery {
  WallSeconds wall_time{};
  SimSeconds sim_time{};
  std::int64_t sequence = 0;
  Bytes size{};
  /// Wall delay behind the origin publish of this frame.
  WallSeconds staleness{};
};

class EdgeTree {
 public:
  /// Optional side-effect work per leaf delivery (e.g. decoding/rendering
  /// at the leaf site); heavy work of concurrent deliveries runs on the
  /// pool and must never feed back into virtual time.
  using RenderFn = std::function<void(const Frame&)>;

  /// Throws std::invalid_argument on a nonsensical spec (zero fan-out,
  /// ratio < 1, bad retry bounds, > 1M nodes).
  EdgeTree(EventQueue& queue, TreeSpec spec, std::uint64_t seed,
           ThreadPool* pool = nullptr, RenderFn render_fn = nullptr);

  /// Origin ingest: the simulation site finished visualizing `frame`; it
  /// is now authoritative and every leaf will (eventually) pull it.
  /// Sequences must be strictly increasing.
  void publish(const Frame& frame);

  /// True when every leaf has replayed to the head and no fill is pending
  /// anywhere — the drain condition.
  [[nodiscard]] bool idle() const;

  [[nodiscard]] int tier_count() const {
    return static_cast<int>(spec_.tiers.size());
  }
  [[nodiscard]] int nodes_in_tier(int tier) const {
    return static_cast<int>(s_.tiers[static_cast<std::size_t>(tier)].size());
  }
  [[nodiscard]] int leaf_count() const {
    return nodes_in_tier(tier_count() - 1);
  }
  [[nodiscard]] std::int64_t modeled_viewers() const {
    return static_cast<std::int64_t>(leaf_count()) * spec_.viewers_per_leaf;
  }
  [[nodiscard]] const TreeSpec& spec() const { return spec_; }

  /// Aggregate stats over one tier's nodes.
  [[nodiscard]] EdgeTierStats tier_stats(int tier) const;
  /// Bytes that crossed the origin's WAN uplinks (tier 0, incl. wasted
  /// partial transfers) — the metric the tree exists to shrink.
  [[nodiscard]] Bytes origin_bytes_on_wan() const {
    return tier_stats(0).bytes_on_wan();
  }
  /// Fetches the origin answered directly (== tier-0 fills + coalesced).
  [[nodiscard]] std::int64_t origin_requests() const {
    return s_.origin_requests;
  }
  [[nodiscard]] std::int64_t frames_published() const {
    return static_cast<std::int64_t>(s_.index.size());
  }
  /// Leaf deliveries × viewers_per_leaf: frames that reached a viewer.
  [[nodiscard]] std::int64_t frames_delivered() const {
    return s_.leaf_frames_delivered * spec_.viewers_per_leaf;
  }
  [[nodiscard]] std::int64_t leaf_frames_delivered() const {
    return s_.leaf_frames_delivered;
  }
  [[nodiscard]] const std::vector<LeafDelivery>& leaf_deliveries(
      int leaf) const {
    return s_.leaves[static_cast<std::size_t>(leaf)].records;
  }

  /// Blocks until every leaf render task submitted to the pool so far has
  /// finished, then forgets their handles. Call after the event queue
  /// drains (or periodically) before reading render side effects.
  void drain_renders();

  /// FNV-1a digest over every leaf's ordered delivery series. With
  /// `include_wall_times` false the digest covers (leaf, sequence, bytes)
  /// only, so it is comparable across tree *shapes* with equal leaf
  /// counts; with true it also pins the exact virtual-time schedule (the
  /// pool-size determinism check).
  [[nodiscard]] std::uint64_t delivery_digest(
      bool include_wall_times = false) const;

  /// Per-node slice of the tier stats above.
  struct NodeStats {
    std::int64_t fills = 0;
    std::int64_t fill_coalesced = 0;
    std::int64_t fill_retries = 0;
    std::int64_t fill_failures = 0;
    std::int64_t degraded_events = 0;
    Bytes bytes_filled{};
    Bytes bytes_wasted{};
    double staleness_sum_s = 0.0;
    double staleness_max_s = 0.0;
    std::int64_t staleness_count = 0;
  };

  /// One node: a bounded cache plus an uplink to its parent, with the fill
  /// protocol's state beside them.
  struct Node {
    FrameCache cache;
    NetworkLink uplink;
    /// Fill retry ladder; `ladder.degraded` is the node's link_degraded
    /// latch.
    RetryLadder ladder;
    /// Pending single-flight fills by sequence. Each waiter is an index one
    /// tier down: the child node that missed, or on the leaf tier the leaf
    /// itself. Non-empty while any fill (including one waiting out a retry
    /// backoff) is pending.
    std::map<std::int64_t, std::vector<int>> waiters{};
    NodeStats stats{};
  };

  /// One leaf's replay cursor and delivery series (leaf i pulls through
  /// node i of the last tier).
  struct Leaf {
    std::size_t cursor = 0;  // next index position to pull
    bool active = false;
    bool in_flight = false;
    std::vector<LeafDelivery> records{};
  };

  /// Everything the tree mutates. Pending transfers, retries and hit
  /// deliveries live as events in the EventQueue and capture only indices
  /// and frames by value, so restoring queue + tree state together resumes
  /// the tree exactly.
  struct State {
    std::vector<std::vector<Node>> tiers;
    std::vector<Leaf> leaves;
    /// Authoritative frame index at the origin (payloads dropped), ordered
    /// by sequence, plus each frame's publish wall time.
    std::vector<Frame> index;
    std::vector<WallSeconds> publish_walls;
    std::int64_t origin_requests = 0;
    std::int64_t leaf_frames_delivered = 0;
    int inactive_leaves = 0;
  };
  [[nodiscard]] State snapshot() const { return s_; }
  void restore(const State& s) { s_ = s; }

  [[nodiscard]] const Node& node(int tier, int index) const {
    return s_.tiers[static_cast<std::size_t>(tier)]
                   [static_cast<std::size_t>(index)];
  }
  /// "tree.t<tier>.n<index>": the node's event-label prefix.
  [[nodiscard]] static std::string node_name(int tier, int index);

 private:
  /// Resolves `sequence` at node (tier, index) for `waiter` one tier down:
  /// a cache hit delivers on the event loop at the same instant; a miss
  /// joins the single-flight fill (starting it if this is the first
  /// waiter).
  void fetch(int tier, int index, std::int64_t sequence, int waiter);
  void start_fill(int tier, int index, std::int64_t sequence);
  void attempt_transfer(int tier, int index, std::int64_t sequence,
                        const Frame& frame);
  void finish_fill(int tier, int index, std::int64_t sequence,
                   const Frame& frame);
  /// Hands `frame`, now resident at `tier`, to one of its waiters.
  void deliver(int tier, int waiter, const Frame& frame);
  [[nodiscard]] Node& node_at(int tier, int index);
  [[nodiscard]] Bytes wire_bytes(int tier, const Frame& frame) const;
  void pump_leaf(int leaf);
  void on_leaf_frame(int leaf, const Frame& frame);
  [[nodiscard]] WallSeconds publish_wall(std::int64_t sequence) const;
  void bump(int tier, const char* suffix, std::int64_t n = 1);
  void update_degraded_gauge(int tier);
  void record_staleness(int tier, double seconds);
  [[nodiscard]] std::string metric(int tier, const char* suffix) const;

  EventQueue& queue_;
  const TreeSpec spec_;
  ThreadPool* const pool_;
  const RenderFn render_fn_;
  State s_;
  /// Scratch, not state: handles of leaf renders in flight on the pool,
  /// joined by drain_renders().
  std::vector<ThreadPool::TaskHandle> pending_renders_;
};

// ---- [tree] INI schema ----
//
//   [tree]
//   fan_out = 4, 8              ; children per node, tier by tier (required)
//   viewers_per_leaf = 3200
//   uplink_mbps = 1000, 200     ; per-tier lists (length 1 = every tier)
//   uplink_latency_ms = 40, 5
//   uplink_efficiency = 1.0
//   cache_gb = 8, 2
//   cache_frames = 0
//   cache_policy = stride-thin  ; lru | stride-thin
//   codec_ratio = 1.0           ; measured raw/encoded applied on the wire
//   failure_rate = 0, 0.1       ; per-tier fill-abort probability
//   retry_initial_seconds = 5
//   retry_multiplier = 2.0
//   retry_cap_seconds = 120
//   retry_jitter = 0.2
//   degrade_after = 5
//   join_stagger_seconds = 5

/// Builds a TreeSpec from the [tree] section. Nonsensical values (zero
/// fan-out, per-tier list whose length matches neither 1 nor the tier
/// count, ratio < 1, negative rates) raise std::runtime_error naming the
/// offending key. Returns a disabled spec when the section is absent.
TreeSpec tree_spec_from_ini(const IniDocument& doc);

}  // namespace adaptviz

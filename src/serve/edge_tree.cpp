#include "serve/edge_tree.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "util/string_util.hpp"
#include "util/wire.hpp"

namespace adaptviz {

namespace {

/// Deterministic per-node seed: a fixed mix of (experiment seed, tier,
/// index) so node RNG streams (link noise, fault draws, retry jitter) are
/// independent of each other and stable across tree rebuilds.
std::uint64_t node_seed(std::uint64_t seed, int tier, int index,
                        std::uint64_t salt) {
  std::uint64_t h = seed ^ salt;
  h ^= (static_cast<std::uint64_t>(tier) + 1) * 0x9e3779b97f4a7c15ULL;
  h ^= (static_cast<std::uint64_t>(index) + 1) * 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 31;
  return h;
}

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a_mix_double(std::uint64_t h, double d) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return fnv1a_mix(h, bits);
}

}  // namespace

// ---------------------------------------------------------------- EdgeTree

EdgeTree::EdgeTree(EventQueue& queue, TreeSpec spec, std::uint64_t seed,
                   ThreadPool* pool, RenderFn render_fn)
    : queue_(queue),
      spec_(std::move(spec)),
      pool_(pool),
      render_fn_(std::move(render_fn)) {
  if (spec_.tiers.empty()) {
    throw std::invalid_argument("EdgeTree: spec has no tiers");
  }
  if (spec_.viewers_per_leaf < 1) {
    throw std::invalid_argument("EdgeTree: viewers_per_leaf must be >= 1");
  }
  if (spec_.leaf_join_stagger.seconds() < 0.0) {
    throw std::invalid_argument("EdgeTree: leaf_join_stagger must be >= 0");
  }
  validate(spec_.retry);
  constexpr std::int64_t kMaxNodes = 1'000'000;
  std::int64_t width = 1;
  for (std::size_t t = 0; t < spec_.tiers.size(); ++t) {
    const EdgeTierSpec& tier = spec_.tiers[t];
    if (tier.fan_out < 1) {
      throw std::invalid_argument("EdgeTree: tier " + std::to_string(t) +
                                  " fan_out must be >= 1");
    }
    if (tier.codec_ratio < 1.0) {
      throw std::invalid_argument("EdgeTree: tier " + std::to_string(t) +
                                  " codec_ratio must be >= 1");
    }
    width *= tier.fan_out;
    if (width > kMaxNodes) {
      throw std::invalid_argument(
          "EdgeTree: tree exceeds " + std::to_string(kMaxNodes) +
          " nodes — model wider viewer populations via viewers_per_leaf");
    }
  }

  // Build tier by tier; node (t, i)'s parent is node (t-1, i / fan_out[t]).
  s_.tiers.resize(spec_.tiers.size());
  width = 1;
  for (std::size_t t = 0; t < spec_.tiers.size(); ++t) {
    const EdgeTierSpec& tier = spec_.tiers[t];
    FrameCacheConfig cache = tier.cache;
    cache.obs_prefix = "tree.t" + std::to_string(t);
    width *= tier.fan_out;
    s_.tiers[t].reserve(static_cast<std::size_t>(width));
    for (std::int64_t i = 0; i < width; ++i) {
      const int ti = static_cast<int>(t);
      const int ii = static_cast<int>(i);
      s_.tiers[t].push_back(Node{
          FrameCache(cache),
          NetworkLink(tier.uplink, node_seed(seed, ti, ii, 0x00edbe1eca11eULL)),
          RetryLadder(node_seed(seed, ti, ii, 0x0000b0ff5a17ULL))});
    }
  }

  // Leaves join staggered — the warm-cache effect a real viewer population
  // shows: leaf 0's pulls fill the shared parents, later leaves hit them.
  s_.leaves.resize(s_.tiers.back().size());
  s_.inactive_leaves = static_cast<int>(s_.leaves.size());
  for (std::size_t i = 0; i < s_.leaves.size(); ++i) {
    queue_.schedule_at(
        spec_.leaf_join_stagger * static_cast<double>(i),
        [this, i] {
          s_.leaves[i].active = true;
          --s_.inactive_leaves;
          pump_leaf(static_cast<int>(i));
        },
        "tree.leaf_join");
  }
}

std::string EdgeTree::node_name(int tier, int index) {
  return "tree.t" + std::to_string(tier) + ".n" + std::to_string(index);
}

EdgeTree::Node& EdgeTree::node_at(int tier, int index) {
  return s_.tiers[static_cast<std::size_t>(tier)]
                 [static_cast<std::size_t>(index)];
}

Bytes EdgeTree::wire_bytes(int tier, const Frame& frame) const {
  // Link-level compression on this tier's uplink: the wire carries
  // size / ratio, the cache holds the full frame either way.
  const auto wire = static_cast<std::int64_t>(
      frame.size.as_double() /
      spec_.tiers[static_cast<std::size_t>(tier)].codec_ratio);
  return Bytes(std::max<std::int64_t>(1, wire));
}

void EdgeTree::fetch(int tier, int index, std::int64_t sequence, int waiter) {
  Node& node = node_at(tier, index);
  if (auto hit = node.cache.lookup(sequence)) {
    // Resident: deliver on the event loop (same virtual instant) so every
    // delivery path is an event and hit chains never recurse.
    queue_.schedule_after(
        WallSeconds(0.0),
        [this, tier, waiter, frame = *std::move(hit)] {
          deliver(tier, waiter, frame);
        },
        node_name(tier, index) + ".hit");
    return;
  }
  // Miss (counted by lookup). Single-flight: the first waiter starts the
  // fill; everyone else coalesces onto the in-flight transfer.
  auto& waiters = node.waiters[sequence];
  waiters.push_back(waiter);
  if (waiters.size() == 1) {
    start_fill(tier, index, sequence);
  } else {
    ++node.stats.fill_coalesced;
    bump(tier, "fill_coalesced");
  }
}

void EdgeTree::start_fill(int tier, int index, std::int64_t sequence) {
  ++node_at(tier, index).stats.fills;
  bump(tier, "fills");
  if (tier > 0) {
    fetch(tier - 1, index / spec_.tiers[static_cast<std::size_t>(tier)].fan_out,
          sequence, index);
    return;
  }
  // The origin is authoritative: every published frame is answerable.
  ++s_.origin_requests;
  auto it = std::lower_bound(
      s_.index.begin(), s_.index.end(), sequence,
      [](const Frame& f, std::int64_t seq) { return f.sequence < seq; });
  if (it == s_.index.end() || it->sequence != sequence) {
    throw std::logic_error("EdgeTree: fetch of an unpublished sequence " +
                           std::to_string(sequence));
  }
  attempt_transfer(tier, index, sequence, *it);
}

void EdgeTree::deliver(int tier, int waiter, const Frame& frame) {
  if (tier + 1 == tier_count()) {
    on_leaf_frame(waiter, frame);
  } else {
    attempt_transfer(tier + 1, waiter, frame.sequence, frame);
  }
}

void EdgeTree::attempt_transfer(int tier, int index, std::int64_t sequence,
                                const Frame& frame) {
  Node& node = node_at(tier, index);
  const Bytes wire = wire_bytes(tier, frame);
  const WallSeconds now = queue_.now();
  const auto attempt = node.uplink.plan_transfer(wire, now);
  if (!attempt.failed) {
    queue_.schedule_at(
        now + attempt.duration,
        [this, tier, index, sequence, frame] {
          finish_fill(tier, index, sequence, frame);
        },
        node_name(tier, index) + ".fill");
    return;
  }
  // Aborted mid-flight: the partial bytes are wasted wire time; retry after
  // the shared backoff ladder (a success resets it).
  ++node.stats.fill_failures;
  node.stats.bytes_wasted += attempt.bytes_moved;
  bump(tier, "fill_failures");
  bump(tier, "wan_bytes", attempt.bytes_moved.count());
  const RetryLadder::Failure step = node.ladder.fail(spec_.retry);
  if (step.latched) {
    ++node.stats.degraded_events;
    bump(tier, "degraded_events");
    update_degraded_gauge(tier);
  }
  queue_.schedule_at(
      now + attempt.duration + step.backoff,
      [this, tier, index, sequence, frame] {
        ++node_at(tier, index).stats.fill_retries;
        bump(tier, "fill_retries");
        attempt_transfer(tier, index, sequence, frame);
      },
      node_name(tier, index) + ".retry");
}

void EdgeTree::finish_fill(int tier, int index, std::int64_t sequence,
                           const Frame& frame) {
  Node& node = node_at(tier, index);
  const Bytes wire = wire_bytes(tier, frame);
  node.stats.bytes_filled += wire;
  bump(tier, "wan_bytes", wire.count());
  if (node.ladder.succeed()) update_degraded_gauge(tier);
  const double staleness = (queue_.now() - publish_wall(sequence)).seconds();
  node.stats.staleness_sum_s += staleness;
  node.stats.staleness_max_s = std::max(node.stats.staleness_max_s, staleness);
  ++node.stats.staleness_count;
  record_staleness(tier, staleness);
  node.cache.insert(frame);
  // Drain every waiter of this single flight. New fetches arriving from a
  // waiter's continuation must start a fresh flight, so detach the list
  // first.
  auto it = node.waiters.find(sequence);
  const std::vector<int> waiters = std::move(it->second);
  node.waiters.erase(it);
  for (const int waiter : waiters) deliver(tier, waiter, frame);
}

void EdgeTree::publish(const Frame& frame) {
  if (!s_.index.empty() && frame.sequence <= s_.index.back().sequence) {
    throw std::invalid_argument(
        "EdgeTree::publish: sequences must be strictly increasing");
  }
  Frame stored = frame;
  stored.payload.reset();  // the tree models bytes; the origin index holds
                           // metadata only so memory stays bounded
  s_.index.push_back(std::move(stored));
  s_.publish_walls.push_back(queue_.now());
  if (auto* o = obs::current()) {
    o->metrics().counter("tree.published").add(1);
  }
  for (std::size_t i = 0; i < s_.leaves.size(); ++i) {
    pump_leaf(static_cast<int>(i));
  }
}

void EdgeTree::pump_leaf(int leaf) {
  Leaf& state = s_.leaves[static_cast<std::size_t>(leaf)];
  if (!state.active || state.in_flight || state.cursor >= s_.index.size()) {
    return;
  }
  state.in_flight = true;
  fetch(tier_count() - 1, leaf, s_.index[state.cursor].sequence, leaf);
}

void EdgeTree::on_leaf_frame(int leaf, const Frame& frame) {
  Leaf& state = s_.leaves[static_cast<std::size_t>(leaf)];
  const WallSeconds now = queue_.now();
  state.records.push_back(LeafDelivery{
      now, frame.sim_time, frame.sequence, frame.size,
      now - publish_wall(frame.sequence)});
  ++state.cursor;
  state.in_flight = false;
  ++s_.leaf_frames_delivered;
  // The leaf's attached viewer population reads the now-resident frame out
  // of the leaf cache: viewers_per_leaf aggregated hits, zero WAN bytes.
  node_at(tier_count() - 1, leaf)
      .cache.record_fanout_hits(spec_.viewers_per_leaf);
  if (auto* o = obs::current()) {
    o->metrics().counter("tree.viewer_frames").add(spec_.viewers_per_leaf);
  }
  if (render_fn_) {
    if (pool_ != nullptr) {
      // Side-effect work (decode/render at the leaf site) runs on the pool;
      // nothing feeds back into virtual time, so the schedule — and every
      // delivery record — is identical for any pool size.
      pending_renders_.push_back(
          pool_->submit([fn = render_fn_, frame] { fn(frame); }));
    } else {
      render_fn_(frame);
    }
  }
  pump_leaf(leaf);
}

void EdgeTree::drain_renders() {
  for (auto& handle : pending_renders_) handle.wait();
  pending_renders_.clear();
}

bool EdgeTree::idle() const {
  if (s_.inactive_leaves != 0) return false;
  for (const Leaf& state : s_.leaves) {
    if (state.in_flight || state.cursor < s_.index.size()) return false;
  }
  for (const auto& tier : s_.tiers) {
    for (const Node& node : tier) {
      if (!node.waiters.empty()) return false;
    }
  }
  return true;
}

WallSeconds EdgeTree::publish_wall(std::int64_t sequence) const {
  auto it = std::lower_bound(
      s_.index.begin(), s_.index.end(), sequence,
      [](const Frame& f, std::int64_t seq) { return f.sequence < seq; });
  return s_.publish_walls[static_cast<std::size_t>(it - s_.index.begin())];
}

EdgeTierStats EdgeTree::tier_stats(int tier) const {
  EdgeTierStats out;
  for (const Node& node : s_.tiers[static_cast<std::size_t>(tier)]) {
    ++out.nodes;
    const FrameCacheStats& cache = node.cache.stats();
    out.cache_hits += cache.hits;
    out.cache_misses += cache.misses;
    out.cache_evictions += cache.evictions;
    out.cache_insertions += cache.insertions;
    out.peak_node_bytes = std::max(out.peak_node_bytes, cache.peak_bytes);
    const NodeStats& stats = node.stats;
    out.fills += stats.fills;
    out.fill_coalesced += stats.fill_coalesced;
    out.fill_retries += stats.fill_retries;
    out.fill_failures += stats.fill_failures;
    out.degraded_events += stats.degraded_events;
    if (node.ladder.degraded) ++out.links_degraded;
    out.bytes_filled += stats.bytes_filled;
    out.bytes_wasted += stats.bytes_wasted;
    out.staleness_sum_s += stats.staleness_sum_s;
    out.staleness_max_s = std::max(out.staleness_max_s, stats.staleness_max_s);
    out.staleness_count += stats.staleness_count;
  }
  return out;
}

std::uint64_t EdgeTree::delivery_digest(bool include_wall_times) const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t leaf = 0; leaf < s_.leaves.size(); ++leaf) {
    h = fnv1a_mix(h, static_cast<std::uint64_t>(leaf));
    for (const LeafDelivery& d : s_.leaves[leaf].records) {
      h = fnv1a_mix(h, static_cast<std::uint64_t>(d.sequence));
      h = fnv1a_mix(h, static_cast<std::uint64_t>(d.size.count()));
      h = fnv1a_mix_double(h, d.sim_time.seconds());
      if (include_wall_times) {
        h = fnv1a_mix_double(h, d.wall_time.seconds());
        h = fnv1a_mix_double(h, d.staleness.seconds());
      }
    }
  }
  return h;
}

std::string EdgeTree::metric(int tier, const char* suffix) const {
  return "tree.t" + std::to_string(tier) + "." + suffix;
}

void EdgeTree::bump(int tier, const char* suffix, std::int64_t n) {
  if (auto* o = obs::current()) {
    o->metrics().counter(metric(tier, suffix)).add(n);
  }
}

void EdgeTree::update_degraded_gauge(int tier) {
  if (auto* o = obs::current()) {
    int degraded = 0;
    for (const Node& node : s_.tiers[static_cast<std::size_t>(tier)]) {
      if (node.ladder.degraded) ++degraded;
    }
    o->metrics()
        .gauge(metric(tier, "links_degraded"))
        .set(static_cast<double>(degraded));
  }
}

void EdgeTree::record_staleness(int tier, double seconds) {
  if (auto* o = obs::current()) {
    o->metrics().histogram(metric(tier, "staleness_s")).observe(seconds);
  }
}

// ------------------------------------------------------------- [tree] INI

namespace {

/// Comma-separated list of finite numbers; blank items are skipped.
std::vector<double> parse_list(const std::string& key,
                               const std::string& value) {
  std::vector<double> out;
  for (const std::string& part : split(value, ',')) {
    const std::string item = trim(part);
    if (item.empty()) continue;
    const auto v = wire::parse_double(item);
    if (!v || !std::isfinite(*v)) {
      throw std::runtime_error("[tree] " + key + ": malformed number '" +
                               item + "'");
    }
    out.push_back(*v);
  }
  return out;
}

/// Per-tier list: a single value broadcasts to every tier; otherwise the
/// list length must equal the tier count.
std::vector<double> tier_list(const IniDocument& doc, const std::string& key,
                              std::size_t tiers, double fallback) {
  const auto raw = doc.get("tree", key);
  if (!raw.has_value()) return std::vector<double>(tiers, fallback);
  const std::vector<double> out = parse_list(key, *raw);
  if (out.empty()) {
    throw std::runtime_error("[tree] " + key + ": empty value");
  }
  if (out.size() == 1) return std::vector<double>(tiers, out.front());
  if (out.size() != tiers) {
    throw std::runtime_error(
        "[tree] " + key + ": expected 1 or " + std::to_string(tiers) +
        " values (one per tier), got " + std::to_string(out.size()));
  }
  return out;
}

}  // namespace

TreeSpec tree_spec_from_ini(const IniDocument& doc) {
  TreeSpec spec;
  if (!doc.has_section("tree")) {
    spec.tiers.clear();
    return spec;
  }
  const auto fan_raw = doc.get("tree", "fan_out");
  if (!fan_raw.has_value()) {
    throw std::runtime_error("[tree] fan_out is required");
  }
  std::vector<int> fan_out;
  for (const double v : parse_list("fan_out", *fan_raw)) {
    if (v < 1.0 || v != std::floor(v)) {
      throw std::runtime_error(
          format("[tree] fan_out: '%g' is not a positive integer", v));
    }
    fan_out.push_back(static_cast<int>(v));
  }
  if (fan_out.empty()) {
    throw std::runtime_error("[tree] fan_out: empty list");
  }
  const std::size_t tiers = fan_out.size();

  const auto mbps = tier_list(doc, "uplink_mbps", tiers, 1000.0);
  const auto latency_ms = tier_list(doc, "uplink_latency_ms", tiers, 50.0);
  const auto efficiency = tier_list(doc, "uplink_efficiency", tiers, 1.0);
  const auto cache_gb = tier_list(doc, "cache_gb", tiers, 4.0);
  const auto cache_frames = tier_list(doc, "cache_frames", tiers, 0.0);
  const auto codec_ratio = tier_list(doc, "codec_ratio", tiers, 1.0);
  const auto failure_rate = tier_list(doc, "failure_rate", tiers, 0.0);
  const EvictionPolicy policy =
      eviction_policy_from(doc.get_or("tree", "cache_policy", "lru"));

  for (std::size_t t = 0; t < tiers; ++t) {
    if (mbps[t] <= 0.0) {
      throw std::runtime_error("[tree] uplink_mbps must be > 0");
    }
    if (latency_ms[t] < 0.0) {
      throw std::runtime_error("[tree] uplink_latency_ms must be >= 0");
    }
    if (efficiency[t] <= 0.0 || efficiency[t] > 1.0) {
      throw std::runtime_error("[tree] uplink_efficiency must be in (0, 1]");
    }
    if (cache_gb[t] <= 0.0) {
      throw std::runtime_error("[tree] cache_gb must be > 0");
    }
    if (cache_frames[t] < 0.0 ||
        cache_frames[t] != std::floor(cache_frames[t])) {
      throw std::runtime_error(
          "[tree] cache_frames must be a non-negative integer");
    }
    if (codec_ratio[t] < 1.0) {
      throw std::runtime_error("[tree] codec_ratio must be >= 1");
    }
    if (failure_rate[t] < 0.0 || failure_rate[t] > 1.0) {
      throw std::runtime_error("[tree] failure_rate must be in [0, 1]");
    }
    EdgeTierSpec tier;
    tier.fan_out = fan_out[t];
    tier.uplink.nominal = Bandwidth::mbps(mbps[t]);
    tier.uplink.latency = WallSeconds(latency_ms[t] / 1000.0);
    tier.uplink.efficiency = efficiency[t];
    tier.uplink.failure_probability = failure_rate[t];
    tier.cache.capacity = Bytes::gigabytes(cache_gb[t]);
    tier.cache.max_frames = static_cast<std::size_t>(cache_frames[t]);
    tier.cache.policy = policy;
    tier.codec_ratio = codec_ratio[t];
    spec.tiers.push_back(std::move(tier));
  }

  if (const auto v = doc.get_int("tree", "viewers_per_leaf")) {
    if (*v < 1) {
      throw std::runtime_error("[tree] viewers_per_leaf must be >= 1");
    }
    spec.viewers_per_leaf = *v;
  }
  spec.retry = retry_policy_from_ini(doc, "tree", spec.retry);
  if (const auto v = doc.get_double("tree", "join_stagger_seconds")) {
    if (*v < 0.0) {
      throw std::runtime_error("[tree] join_stagger_seconds must be >= 0");
    }
    spec.leaf_join_stagger = WallSeconds(*v);
  }
  return spec;
}

}  // namespace adaptviz

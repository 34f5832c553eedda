#include "serve/edge_tree.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
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

// ---------------------------------------------------------------- EdgeNode

EdgeNode::EdgeNode(EdgeTree& tree, EdgeNode* parent, int tier, int index,
                   const EdgeTierSpec& spec, std::uint64_t seed)
    : tree_(tree),
      parent_(parent),
      tier_(tier),
      name_("tree.t" + std::to_string(tier) + ".n" + std::to_string(index)),
      codec_ratio_(spec.codec_ratio),
      uplink_(std::make_unique<NetworkLink>(
          spec.uplink, node_seed(seed, tier, index, 0x00edbe1eca11eULL))),
      jitter_rng_(node_seed(seed, tier, index, 0x0000b0ff5a17ULL)) {
  FrameCacheConfig cache = spec.cache;
  cache.obs_prefix = "tree.t" + std::to_string(tier);
  cache_ = std::make_unique<FrameCache>(std::move(cache));
}

Bytes EdgeNode::wire_bytes(const Frame& frame) const {
  // Link-level compression on this tier's uplink: the wire carries
  // size / ratio, the cache holds the full frame either way.
  const auto wire =
      static_cast<std::int64_t>(frame.size.as_double() / codec_ratio_);
  return Bytes(std::max<std::int64_t>(1, wire));
}

void EdgeNode::fetch(std::int64_t sequence, FrameCallback on_ready) {
  if (auto hit = cache_->lookup(sequence)) {
    // Resident: deliver on the event loop (same virtual instant) so every
    // delivery path is an event and hit chains never recurse.
    tree_.queue_.schedule_after(
        WallSeconds(0.0),
        [cb = std::move(on_ready), frame = *std::move(hit)] { cb(frame); },
        name_ + ".hit");
    return;
  }
  // Miss (counted by lookup). Single-flight: the first waiter starts the
  // fill; everyone else coalesces onto the in-flight transfer.
  auto& waiters = waiters_[sequence];
  waiters.push_back(std::move(on_ready));
  if (waiters.size() == 1) {
    start_fill(sequence);
  } else {
    ++stats_.fill_coalesced;
    tree_.bump(tier_, "fill_coalesced");
  }
}

void EdgeNode::start_fill(std::int64_t sequence) {
  ++stats_.fills;
  tree_.bump(tier_, "fills");
  auto cb = [this, sequence](const Frame& frame) {
    attempt_transfer(sequence, frame);
  };
  if (parent_ != nullptr) {
    parent_->fetch(sequence, std::move(cb));
  } else {
    tree_.origin_fetch(sequence, std::move(cb));
  }
}

void EdgeNode::attempt_transfer(std::int64_t sequence, const Frame& frame) {
  const Bytes wire = wire_bytes(frame);
  const WallSeconds now = tree_.queue_.now();
  const auto attempt = uplink_->plan_transfer(wire, now);
  if (!attempt.failed) {
    tree_.queue_.schedule_at(
        now + attempt.duration,
        [this, sequence, frame] { finish_fill(sequence, frame); },
        name_ + ".fill");
    return;
  }
  // Aborted mid-flight: the partial bytes are wasted wire time; retry after
  // the shared backoff ladder (a success resets it).
  ++stats_.fill_failures;
  stats_.bytes_wasted += attempt.bytes_moved;
  tree_.bump(tier_, "fill_failures");
  tree_.bump(tier_, "wan_bytes", attempt.bytes_moved.count());
  ++consecutive_failures_;
  const RetryPolicy& retry = tree_.spec().retry;
  if (!link_degraded_ && consecutive_failures_ >= retry.degrade_after) {
    link_degraded_ = true;
    ++stats_.degraded_events;
    tree_.bump(tier_, "degraded_events");
    tree_.update_degraded_gauge(tier_);
  }
  tree_.queue_.schedule_at(
      now + attempt.duration +
          backoff(retry, consecutive_failures_, jitter_rng_),
      [this, sequence, frame] {
        ++stats_.fill_retries;
        tree_.bump(tier_, "fill_retries");
        attempt_transfer(sequence, frame);
      },
      name_ + ".retry");
}

void EdgeNode::finish_fill(std::int64_t sequence, const Frame& frame) {
  const Bytes wire = wire_bytes(frame);
  stats_.bytes_filled += wire;
  tree_.bump(tier_, "wan_bytes", wire.count());
  if (consecutive_failures_ != 0 || link_degraded_) {
    consecutive_failures_ = 0;
    if (link_degraded_) {
      link_degraded_ = false;
      tree_.update_degraded_gauge(tier_);
    }
  }
  const double staleness =
      (tree_.queue_.now() - tree_.publish_wall(sequence)).seconds();
  stats_.staleness_sum_s += staleness;
  stats_.staleness_max_s = std::max(stats_.staleness_max_s, staleness);
  ++stats_.staleness_count;
  tree_.record_staleness(tier_, staleness);
  cache_->insert(frame);
  // Drain every waiter of this single flight. New fetches arriving from a
  // waiter's continuation must start a fresh flight, so detach the list
  // first.
  auto it = waiters_.find(sequence);
  std::vector<FrameCallback> waiters = std::move(it->second);
  waiters_.erase(it);
  for (auto& cb : waiters) cb(frame);
}

// ---------------------------------------------------------------- EdgeTree

EdgeTree::EdgeTree(EventQueue& queue, TreeSpec spec, std::uint64_t seed,
                   ThreadPool* pool, RenderFn render_fn)
    : queue_(queue),
      spec_(std::move(spec)),
      pool_(pool),
      render_fn_(std::move(render_fn)),
      seed_(seed) {
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
  tiers_.resize(spec_.tiers.size());
  width = 1;
  for (std::size_t t = 0; t < spec_.tiers.size(); ++t) {
    const EdgeTierSpec& tier = spec_.tiers[t];
    width *= tier.fan_out;
    tiers_[t].reserve(static_cast<std::size_t>(width));
    for (std::int64_t i = 0; i < width; ++i) {
      EdgeNode* parent =
          t == 0 ? nullptr
                 : tiers_[t - 1][static_cast<std::size_t>(i / tier.fan_out)]
                       .get();
      tiers_[t].push_back(std::unique_ptr<EdgeNode>(
          new EdgeNode(*this, parent, static_cast<int>(t),
                       static_cast<int>(i), tier, seed_)));
    }
  }

  // Leaves join staggered — the warm-cache effect a real viewer population
  // shows: leaf 0's pulls fill the shared parents, later leaves hit them.
  leaves_.resize(tiers_.back().size());
  inactive_leaves_ = static_cast<int>(leaves_.size());
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    leaves_[i].node = tiers_.back()[i].get();
    queue_.schedule_at(
        spec_.leaf_join_stagger * static_cast<double>(i),
        [this, i] {
          leaves_[i].active = true;
          --inactive_leaves_;
          pump_leaf(static_cast<int>(i));
        },
        "tree.leaf_join");
  }
}

void EdgeTree::publish(const Frame& frame) {
  if (!index_.empty() && frame.sequence <= index_.back().sequence) {
    throw std::invalid_argument(
        "EdgeTree::publish: sequences must be strictly increasing");
  }
  Frame stored = frame;
  stored.payload.reset();  // the tree models bytes; the origin index holds
                           // metadata only so memory stays bounded
  index_.push_back(std::move(stored));
  publish_walls_.push_back(queue_.now());
  if (auto* o = obs::current()) {
    o->metrics().counter("tree.published").add(1);
  }
  for (std::size_t i = 0; i < leaves_.size(); ++i) {
    pump_leaf(static_cast<int>(i));
  }
}

void EdgeTree::origin_fetch(std::int64_t sequence,
                            EdgeNode::FrameCallback cb) {
  ++origin_requests_;
  auto it = std::lower_bound(
      index_.begin(), index_.end(), sequence,
      [](const Frame& f, std::int64_t seq) { return f.sequence < seq; });
  if (it == index_.end() || it->sequence != sequence) {
    throw std::logic_error("EdgeTree: fetch of an unpublished sequence " +
                           std::to_string(sequence));
  }
  cb(*it);
}

void EdgeTree::pump_leaf(int leaf) {
  LeafState& state = leaves_[static_cast<std::size_t>(leaf)];
  if (!state.active || state.in_flight || state.cursor >= index_.size()) {
    return;
  }
  state.in_flight = true;
  const std::int64_t sequence = index_[state.cursor].sequence;
  state.node->fetch(sequence, [this, leaf](const Frame& frame) {
    on_leaf_frame(leaf, frame);
  });
}

void EdgeTree::on_leaf_frame(int leaf, const Frame& frame) {
  LeafState& state = leaves_[static_cast<std::size_t>(leaf)];
  const WallSeconds now = queue_.now();
  state.records.push_back(LeafDelivery{
      now, frame.sim_time, frame.sequence, frame.size,
      now - publish_wall(frame.sequence)});
  ++state.cursor;
  state.in_flight = false;
  ++leaf_frames_delivered_;
  // The leaf's attached viewer population reads the now-resident frame out
  // of the leaf cache: viewers_per_leaf aggregated hits, zero WAN bytes.
  state.node->cache_->record_fanout_hits(spec_.viewers_per_leaf);
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
  if (inactive_leaves_ != 0) return false;
  for (const LeafState& state : leaves_) {
    if (state.in_flight || state.cursor < index_.size()) return false;
  }
  for (const auto& tier : tiers_) {
    for (const auto& node : tier) {
      if (node->busy()) return false;
    }
  }
  return true;
}

WallSeconds EdgeTree::publish_wall(std::int64_t sequence) const {
  auto it = std::lower_bound(
      index_.begin(), index_.end(), sequence,
      [](const Frame& f, std::int64_t seq) { return f.sequence < seq; });
  return publish_walls_[static_cast<std::size_t>(it - index_.begin())];
}

EdgeTierStats EdgeTree::tier_stats(int tier) const {
  EdgeTierStats out;
  for (const auto& node : tiers_[static_cast<std::size_t>(tier)]) {
    ++out.nodes;
    const FrameCacheStats& cache = node->cache().stats();
    out.cache_hits += cache.hits;
    out.cache_misses += cache.misses;
    out.cache_evictions += cache.evictions;
    out.cache_insertions += cache.insertions;
    out.peak_node_bytes = std::max(out.peak_node_bytes, cache.peak_bytes);
    const EdgeNode::Stats& stats = node->stats();
    out.fills += stats.fills;
    out.fill_coalesced += stats.fill_coalesced;
    out.fill_retries += stats.fill_retries;
    out.fill_failures += stats.fill_failures;
    out.degraded_events += stats.degraded_events;
    if (node->link_degraded()) ++out.links_degraded;
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
  for (std::size_t leaf = 0; leaf < leaves_.size(); ++leaf) {
    h = fnv1a_mix(h, static_cast<std::uint64_t>(leaf));
    for (const LeafDelivery& d : leaves_[leaf].records) {
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
    for (const auto& node : tiers_[static_cast<std::size_t>(tier)]) {
      if (node->link_degraded()) ++degraded;
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

/// Splits a comma-separated value list, trimming whitespace.
std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    std::size_t comma = value.find(',', start);
    if (comma == std::string::npos) comma = value.size();
    std::string item = value.substr(start, comma - start);
    const auto a = item.find_first_not_of(" \t");
    if (a == std::string::npos) {
      item.clear();
    } else {
      const auto b = item.find_last_not_of(" \t");
      item = item.substr(a, b - a + 1);
    }
    if (!item.empty()) out.push_back(std::move(item));
    start = comma + 1;
  }
  return out;
}

double parse_double(const std::string& key, const std::string& item) {
  const auto v = wire::parse_double(item);
  if (!v) {
    throw std::runtime_error("[tree] " + key + ": malformed number '" + item +
                             "'");
  }
  return *v;
}

/// Per-tier list: a single value broadcasts to every tier; otherwise the
/// list length must equal the tier count.
std::vector<double> tier_list(const IniDocument& doc, const std::string& key,
                              std::size_t tiers, double fallback) {
  const auto raw = doc.get("tree", key);
  if (!raw.has_value()) return std::vector<double>(tiers, fallback);
  const auto items = split_list(*raw);
  if (items.empty()) {
    throw std::runtime_error("[tree] " + key + ": empty value");
  }
  std::vector<double> out;
  out.reserve(items.size());
  for (const auto& item : items) out.push_back(parse_double(key, item));
  if (out.size() == 1) return std::vector<double>(tiers, out.front());
  if (out.size() != tiers) {
    throw std::runtime_error(
        "[tree] " + key + ": expected 1 or " + std::to_string(tiers) +
        " values (one per tier), got " + std::to_string(items.size()));
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
  for (const auto& item : split_list(*fan_raw)) {
    const double v = parse_double("fan_out", item);
    if (v < 1.0 || v != std::floor(v)) {
      throw std::runtime_error("[tree] fan_out: '" + item +
                               "' is not a positive integer");
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

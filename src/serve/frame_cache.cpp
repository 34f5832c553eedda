#include "serve/frame_cache.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace adaptviz {

const char* to_string(EvictionPolicy p) {
  switch (p) {
    case EvictionPolicy::kLru:
      return "lru";
    case EvictionPolicy::kStrideThinning:
      return "stride-thin";
  }
  return "?";
}

EvictionPolicy eviction_policy_from(const std::string& name) {
  if (name == "lru") return EvictionPolicy::kLru;
  if (name == "stride-thin") return EvictionPolicy::kStrideThinning;
  throw std::runtime_error("frame cache: unknown eviction policy '" + name +
                           "' (expected lru | stride-thin)");
}

FrameCache::FrameCache(FrameCacheConfig config) : config_(std::move(config)) {
  if (config_.capacity <= Bytes(0)) {
    throw std::invalid_argument("FrameCache: capacity must be > 0");
  }
  obs_hits_ = config_.obs_prefix + ".cache_hits";
  obs_misses_ = config_.obs_prefix + ".cache_misses";
  obs_insertions_ = config_.obs_prefix + ".cache_insertions";
  obs_evictions_ = config_.obs_prefix + ".cache_evictions";
  obs_rejections_ = config_.obs_prefix + ".cache_rejections";
  obs_peak_mb_ = config_.obs_prefix + ".cache_peak_mb";
}

bool FrameCache::insert(const Frame& frame) {
  if (auto it = s_.entries.find(frame.sequence); it != s_.entries.end()) {
    // Already resident: refresh recency only.
    it->second.last_use = ++s_.use_clock;
    return true;
  }
  if (frame.size > config_.capacity) {
    ++s_.stats.rejected;
    obs::count(obs_rejections_.c_str());
    return false;
  }
  // Make room *before* admitting so resident bytes never exceed capacity.
  while (s_.bytes + frame.size > config_.capacity ||
         (config_.max_frames != 0 && s_.entries.size() >= config_.max_frames)) {
    evict_one();
  }
  s_.entries.emplace(frame.sequence, Entry{frame, ++s_.use_clock});
  s_.bytes += frame.size;
  ++s_.stats.insertions;
  s_.stats.peak_bytes = std::max(s_.stats.peak_bytes, s_.bytes);
  obs::count(obs_insertions_.c_str());
  obs::gauge_max(obs_peak_mb_.c_str(), s_.bytes.mb());
  return true;
}

std::optional<Frame> FrameCache::lookup(std::int64_t sequence) {
  auto it = s_.entries.find(sequence);
  if (it == s_.entries.end()) {
    ++s_.stats.misses;
    obs::count(obs_misses_.c_str());
    return std::nullopt;
  }
  ++s_.stats.hits;
  obs::count(obs_hits_.c_str());
  it->second.last_use = ++s_.use_clock;
  return it->second.frame;
}

bool FrameCache::contains(std::int64_t sequence) const {
  return s_.entries.find(sequence) != s_.entries.end();
}

void FrameCache::record_fanout_hits(std::int64_t n) {
  if (n <= 0) return;
  s_.stats.hits += n;
  obs::count(obs_hits_.c_str(), n);
}

std::vector<std::int64_t> FrameCache::resident_sequences() const {
  std::vector<std::int64_t> out;
  out.reserve(s_.entries.size());
  for (const auto& [seq, entry] : s_.entries) out.push_back(seq);
  return out;
}

void FrameCache::evict_one() {
  if (s_.entries.empty()) {
    throw std::logic_error("FrameCache: eviction from an empty cache");
  }
  const std::int64_t victim = config_.policy == EvictionPolicy::kLru
                                  ? lru_victim()
                                  : stride_victim();
  const auto it = s_.entries.find(victim);
  s_.bytes -= it->second.frame.size;
  s_.entries.erase(it);
  ++s_.stats.evictions;
  obs::count(obs_evictions_.c_str());
}

std::int64_t FrameCache::lru_victim() const {
  // Every insert and hit takes a fresh clock value, so the smallest stamp
  // is the unique least recently used entry.
  const auto it = std::min_element(
      s_.entries.begin(), s_.entries.end(), [](const auto& a, const auto& b) {
        return a.second.last_use < b.second.last_use;
      });
  return it->first;
}

std::int64_t FrameCache::stride_victim() const {
  // The frame whose removal closes the smallest simulated-time gap between
  // its neighbours; the first and last resident frames anchor the span and
  // are only evicted when nothing else remains. Ties break toward the lower
  // sequence so eviction order is fully deterministic.
  if (s_.entries.size() <= 2) return s_.entries.begin()->first;
  double best_gap = std::numeric_limits<double>::infinity();
  std::int64_t best_seq = s_.entries.begin()->first;
  auto prev = s_.entries.begin();
  auto cur = std::next(prev);
  for (auto next = std::next(cur); next != s_.entries.end();
       prev = cur, cur = next, ++next) {
    const double gap = (next->second.frame.sim_time -
                        prev->second.frame.sim_time)
                           .seconds();
    if (gap < best_gap) {
      best_gap = gap;
      best_seq = cur->first;
    }
  }
  return best_seq;
}

}  // namespace adaptviz

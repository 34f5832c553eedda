#include "serve/session_manager.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "util/logging.hpp"

namespace adaptviz {

const char* to_string(ViewerMode m) {
  switch (m) {
    case ViewerMode::kLiveTail:
      return "live-tail";
    case ViewerMode::kCatchUp:
      return "catch-up";
  }
  return "?";
}

std::vector<ViewerConfig> make_viewer_fleet(int count, Bandwidth downlink,
                                            double catchup_fraction,
                                            SimSeconds catchup_start,
                                            WallSeconds catchup_join) {
  if (count < 0) throw std::invalid_argument("viewer fleet: count < 0");
  const int catchup = std::clamp(
      static_cast<int>(std::lround(catchup_fraction * count)), 0, count);
  std::vector<ViewerConfig> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    ViewerConfig v;
    char name[32];
    std::snprintf(name, sizeof name, "viewer%03d", i);
    v.name = name;
    v.downlink.nominal = downlink;
    v.mode = i < catchup ? ViewerMode::kCatchUp : ViewerMode::kLiveTail;
    v.catchup_start = catchup_start;
    if (v.mode == ViewerMode::kCatchUp) v.join_wall = catchup_join;
    out.push_back(std::move(v));
  }
  return out;
}

ViewerSessionManager::ViewerSessionManager(EventQueue& queue, Options options,
                                           std::uint64_t seed, ThreadPool* pool,
                                           RenderFn rerender)
    : queue_(queue),
      options_(std::move(options)),
      pool_(pool),
      rerender_fn_(std::move(rerender)),
      seed_(seed),
      s_{.cache = FrameCache(options_.cache)} {
  if (options_.rerender_workers < 1) {
    throw std::invalid_argument(
        "ViewerSessionManager: rerender_workers must be >= 1");
  }
  if (options_.rerender_fixed_seconds < 0 ||
      options_.rerender_seconds_per_gb < 0) {
    throw std::invalid_argument(
        "ViewerSessionManager: re-render costs must be >= 0");
  }
}

ClientId ViewerSessionManager::attach(const ViewerConfig& config) {
  const int idx = viewer_count();
  s_.sessions.push_back(Session{
      .config = config,
      .downlink = NetworkLink(
          config.downlink,
          seed_ + 101 * static_cast<std::uint64_t>(idx + 1))});
  if (config.join_wall <= queue_.now()) {
    s_.sessions.back().active = true;
    pump(idx);
  } else {
    queue_.schedule_at(
        config.join_wall,
        [this, idx] {
          s_.sessions[static_cast<std::size_t>(idx)].active = true;
          pump(idx);
        },
        "serve.join");
  }
  return ClientId{idx};
}

ViewerSessionManager::Session& ViewerSessionManager::session_for(
    ClientId client) {
  if (!client.valid() ||
      client.value >= static_cast<std::int64_t>(s_.sessions.size())) {
    throw std::invalid_argument("ViewerSessionManager: unknown client id " +
                                std::to_string(client.value));
  }
  return s_.sessions[static_cast<std::size_t>(client.value)];
}

const ViewerSessionManager::Session& ViewerSessionManager::session_for(
    ClientId client) const {
  // NOLINTNEXTLINE(cppcoreguidelines-pro-type-const-cast): same validation
  return const_cast<ViewerSessionManager*>(this)->session_for(client);
}

void ViewerSessionManager::detach(ClientId client) {
  Session& s = session_for(client);
  if (s.detached) {
    throw std::invalid_argument("ViewerSessionManager: client " +
                                std::to_string(client.value) +
                                " already detached");
  }
  s.detached = true;
  s.pending.reset();
  obs::count("serve.detaches");
  ADAPTVIZ_LOG_DEBUG("serve", "[%s] %s detached",
                     hh_mm(queue_.now()).c_str(), s.config.name.c_str());
}

void ViewerSessionManager::reattach(ClientId client) {
  Session& s = session_for(client);
  if (!s.detached) return;
  s.detached = false;
  ADAPTVIZ_LOG_DEBUG("serve", "[%s] %s re-attached",
                     hh_mm(queue_.now()).c_str(), s.config.name.c_str());
  if (s.active) pump(static_cast<int>(client.value));
}

bool ViewerSessionManager::attached(ClientId client) const {
  if (!client.valid() ||
      client.value >= static_cast<std::int64_t>(s_.sessions.size())) {
    return false;
  }
  return !s_.sessions[static_cast<std::size_t>(client.value)].detached;
}

std::optional<ClientId> ViewerSessionManager::find_client(
    const std::string& name) const {
  for (std::size_t i = 0; i < s_.sessions.size(); ++i) {
    if (s_.sessions[i].config.name == name) {
      return ClientId{static_cast<std::int64_t>(i)};
    }
  }
  return std::nullopt;
}

int ViewerSessionManager::attached_count() const {
  int n = 0;
  for (const Session& s : s_.sessions) n += s.detached ? 0 : 1;
  return n;
}

void ViewerSessionManager::steer_view(ClientId client,
                                      const ViewCommand& view) {
  Session& s = session_for(client);
  validate(view);
  const std::string key = view_key(view);
  if (key == s.view_key) return;  // same render — nothing to do
  s.view = view;
  s.view_key = key;
  // Nothing on screen yet (not joined, detached, or no frame delivered):
  // the new view simply applies to future renders.
  if (!s.active || s.detached || s.cursor < 0) return;
  const RenderKey rk{s.cursor, key};
  const bool shared = s_.rerender_waiters.count(rk) != 0 ||
                      s_.rerender_in_service.count(rk) != 0;
  if (shared) {
    ++s_.steer_dedup;
    obs::count("serve.steer_dedup");
  } else {
    ++s_.steer_renders;
    obs::count("serve.steer_rerenders");
  }
  s.waiting_rerender = true;
  ++s.stats.rerender_waits;
  request_rerender(static_cast<int>(client.value), rk);
}

void ViewerSessionManager::on_frame(const Frame& frame) {
  if (!s_.index.empty() && frame.sequence <= s_.index.back().sequence) {
    throw std::invalid_argument(
        "ViewerSessionManager: sequences must be increasing");
  }
  Frame m = frame;
  m.payload.reset();  // the index keeps metadata only
  s_.index.push_back(std::move(m));
  s_.cache.insert(frame);
  for (int i = 0; i < viewer_count(); ++i) pump(i);
}

bool ViewerSessionManager::idle() const {
  if (s_.rerendering != 0 || !s_.rerender_fifo.empty()) return false;
  for (const Session& s : s_.sessions) {
    if (s.detached) continue;  // detached clients hold nothing up
    if (!s.active) return false;  // still waiting on its join event
    if (s.in_flight || s.waiting_rerender) return false;
    if (next_sequence(s).has_value()) return false;
  }
  return true;
}

std::optional<std::int64_t> ViewerSessionManager::next_sequence(
    const Session& s) const {
  if (s_.index.empty()) return std::nullopt;
  if (s.config.mode == ViewerMode::kLiveTail) {
    const std::int64_t newest = s_.index.back().sequence;
    if (newest <= s.cursor) return std::nullopt;
    return newest;
  }
  // Catch-up: before the first delivery, locate the start point by
  // simulated time; afterwards, replay strictly in sequence order.
  if (s.cursor < 0) {
    auto it = std::lower_bound(
        s_.index.begin(), s_.index.end(), s.config.catchup_start,
        [](const Frame& f, SimSeconds t) { return f.sim_time < t; });
    if (it == s_.index.end()) return std::nullopt;
    return it->sequence;
  }
  auto it = std::upper_bound(
      s_.index.begin(), s_.index.end(), s.cursor,
      [](std::int64_t seq, const Frame& f) { return seq < f.sequence; });
  if (it == s_.index.end()) return std::nullopt;
  return it->sequence;
}

const Frame& ViewerSessionManager::meta(std::int64_t sequence) const {
  auto it = std::lower_bound(
      s_.index.begin(), s_.index.end(), sequence,
      [](const Frame& f, std::int64_t seq) { return f.sequence < seq; });
  if (it == s_.index.end() || it->sequence != sequence) {
    throw std::logic_error("ViewerSessionManager: unknown sequence");
  }
  return *it;
}

void ViewerSessionManager::pump(int idx) {
  Session& s = s_.sessions[static_cast<std::size_t>(idx)];
  // Per-client backpressure: one frame in flight per downlink, one pending
  // re-render wait. A stalled client parks here without touching anyone
  // else's progress; a detached one receives nothing.
  if (!s.active || s.detached || s.in_flight || s.waiting_rerender) return;
  const std::optional<std::int64_t> seq = next_sequence(s);
  if (!seq.has_value()) return;  // caught up; the next on_frame re-pumps

  if (s.config.mode == ViewerMode::kLiveTail && s.cursor >= 0) {
    // Frames superseded while the downlink was busy are dropped, like any
    // live stream tail; count them.
    auto first = std::upper_bound(
        s_.index.begin(), s_.index.end(), s.cursor,
        [](std::int64_t c, const Frame& f) { return c < f.sequence; });
    auto chosen = std::lower_bound(
        s_.index.begin(), s_.index.end(), *seq,
        [](const Frame& f, std::int64_t c) { return f.sequence < c; });
    s.stats.frames_skipped += chosen - first;
  }

  if (std::optional<Frame> frame = s_.cache.lookup(*seq)) {
    ++s.stats.cache_hits;
    start_transfer(idx, *frame, /*cache_hit=*/true);
  } else {
    s.waiting_rerender = true;
    ++s.stats.rerender_waits;
    // The miss re-renders under the client's current view key, so two
    // clients replaying the same era with the same view share one render.
    request_rerender(idx, RenderKey{*seq, s.view_key});
  }
}

void ViewerSessionManager::start_transfer(int idx, const Frame& frame,
                                          bool cache_hit) {
  Session& s = s_.sessions[static_cast<std::size_t>(idx)];
  s.in_flight = true;
  const WallSeconds duration =
      s.downlink.transfer_duration(frame.size, queue_.now());
  obs::trace_sim("serve.deliver", queue_.now().seconds(), duration.seconds(),
                 "viewer=" + std::to_string(idx) +
                     " seq=" + std::to_string(frame.sequence) +
                     (cache_hit ? " hit=1" : " hit=0"));
  queue_.schedule_after(
      duration,
      [this, idx, sequence = frame.sequence, sim_time = frame.sim_time,
       size = frame.size, cache_hit] {
        Session& session = s_.sessions[static_cast<std::size_t>(idx)];
        session.in_flight = false;
        if (session.detached) {
          // The client left while the frame was on the wire: the delivery
          // is abandoned without a record.
          session.pending.reset();
          return;
        }
        session.cursor = std::max(session.cursor, sequence);
        session.records.push_back(
            DeliveryRecord{queue_.now(), sim_time, sequence, size, cache_hit});
        ++session.stats.frames_delivered;
        session.stats.bytes_delivered += size;
        session.stats.latest_sim_time =
            std::max(session.stats.latest_sim_time, sim_time);
        ++s_.frames_served;
        obs::count("serve.frames_served");
        if (session.pending.has_value()) {
          // A steer re-render finished mid-transfer; deliver it now.
          const Frame next = *session.pending;
          session.pending.reset();
          start_transfer(idx, next, /*cache_hit=*/false);
          return;
        }
        pump(idx);
      },
      "serve.deliver");
}

void ViewerSessionManager::request_rerender(int idx, const RenderKey& key) {
  std::vector<int>& waiters = s_.rerender_waiters[key];
  waiters.push_back(idx);
  // First waiter enqueues the work; later ones piggyback on the same
  // re-render whether it is still queued or already in a slot.
  if (waiters.size() == 1 && s_.rerender_in_service.count(key) == 0) {
    s_.rerender_fifo.push_back(key);
  }
  drain_rerenders();
}

void ViewerSessionManager::drain_rerenders() {
  while (s_.rerendering < options_.rerender_workers &&
         !s_.rerender_fifo.empty()) {
    // Claim every free slot: these re-renders run concurrently in virtual
    // time, so their real work may run concurrently on the pool too
    // (mirrors FrameReceiver::drain).
    std::vector<std::pair<RenderKey, Frame>> batch;
    while (static_cast<int>(batch.size()) <
               options_.rerender_workers - s_.rerendering &&
           !s_.rerender_fifo.empty()) {
      const RenderKey key = s_.rerender_fifo.front();
      s_.rerender_fifo.pop_front();
      batch.emplace_back(key, meta(key.first));
    }
    for (const auto& b : batch) s_.rerender_in_service.insert(b.first);

    if (rerender_fn_) {
      if (pool_ != nullptr && batch.size() > 1) {
        pool_->parallel_for(
            0, batch.size(), static_cast<int>(batch.size()), /*chunk=*/1,
            [&](std::size_t lo, std::size_t hi) {
              for (std::size_t k = lo; k < hi; ++k) {
                rerender_fn_(batch[k].second);
              }
            });
      } else {
        for (const auto& b : batch) rerender_fn_(b.second);
      }
    }

    for (const auto& b : batch) {
      ++s_.rerendering;
      ++s_.rerenders;
      obs::count("serve.rerenders");
      const Frame& f = b.second;
      const WallSeconds cost(
          options_.rerender_fixed_seconds +
          options_.rerender_seconds_per_gb * f.decoded_bytes().gb());
      queue_.schedule_after(
          cost,
          [this, key = b.first, f] {
            --s_.rerendering;
            s_.rerender_in_service.erase(key);
            // Back into the cache: the next session replaying this era
            // hits instead of re-rendering again. Steered (non-default)
            // views are client-specific images and stay out of the
            // default-keyed cache.
            if (key.second.empty()) s_.cache.insert(f);
            std::vector<int> waiters = std::move(s_.rerender_waiters[key]);
            s_.rerender_waiters.erase(key);
            ADAPTVIZ_LOG_DEBUG("serve",
                               "frame #%lld re-rendered for %zu client(s)",
                               static_cast<long long>(f.sequence),
                               waiters.size());
            for (int idx : waiters) {
              Session& session = s_.sessions[static_cast<std::size_t>(idx)];
              session.waiting_rerender = false;
              if (session.detached) continue;  // result dropped
              if (session.in_flight) {
                session.pending = f;  // deliver after the current transfer
                continue;
              }
              start_transfer(idx, f, /*cache_hit=*/false);
            }
            drain_rerenders();
          },
          "serve.rerender");
    }
  }
}

}  // namespace adaptviz

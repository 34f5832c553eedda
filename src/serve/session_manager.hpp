// Multi-client frame serving at the visualization site.
//
// The paper's receiver feeds exactly one VisIt session. The serving
// subsystem fans the received stream out to N viewer clients instead: every
// frame the receiver hands over is published into the bounded FrameCache,
// and each ViewerSession replays cached frames over its *own* downlink at
// its own pace. Two session modes:
//
//  * live-tail — always deliver the newest frame the client has not seen.
//    A slow downlink simply skips intermediate frames (counted), exactly
//    like tailing a live stream; its lag is bounded by one frame.
//  * catch-up — join at an arbitrary simulated time and replay every frame
//    from there forward, in order, until the cursor reaches the live head.
//
// Backpressure is per client: a session has at most one frame in flight on
// its downlink, so a 60 Kbps straggler holds only its own cursor back —
// never the receiver, never the other sessions, and never the WAN transfer
// from the simulation site.
//
// Catch-up sessions are the cache-miss generators: when their cursor points
// at an evicted frame, the frame is re-rendered at the visualization site
// (bounded re-render slots; the heavy work of concurrently-busy slots runs
// on the shared thread pool, mirroring FrameReceiver), re-inserted into the
// cache, and then delivered to every session that was waiting on it. All
// ordering decisions happen on the event loop, so results are bitwise
// identical for any pool size.
//
// The steering event stream (steering/control_plane.hpp) adds the
// interactive loop: sessions are addressed by stable ClientId handles, observers
// detach and re-attach mid-run, and per-client view steering
// (pan/zoom/field/colormap) re-renders the client's current frame through
// the same bounded slots — identical (frame, view) requests from
// different clients are deduped onto a single render.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dataio/frame.hpp"
#include "resources/event_queue.hpp"
#include "resources/network.hpp"
#include "serve/frame_cache.hpp"
#include "steering/control_plane.hpp"
#include "util/thread_pool.hpp"

namespace adaptviz {

enum class ViewerMode { kLiveTail, kCatchUp };

const char* to_string(ViewerMode m);

inline LinkSpec default_viewer_downlink() {
  LinkSpec spec;
  spec.nominal = Bandwidth::mbps(100.0);
  return spec;
}

struct ViewerConfig {
  std::string name = "viewer";
  /// Downlink from the visualization site to this client (per-client link:
  /// campus LAN, home DSL, ...). Latency/outages/fluctuation all apply.
  LinkSpec downlink = default_viewer_downlink();
  ViewerMode mode = ViewerMode::kLiveTail;
  /// Catch-up sessions start replaying at the first frame with
  /// sim_time >= catchup_start; ignored for live-tail.
  SimSeconds catchup_start{0.0};
  /// Wall time the client connects. A catch-up client joining late replays
  /// an era the cache may already have thinned — the cache-miss /
  /// re-render path.
  WallSeconds join_wall{0.0};
};

/// One completed delivery to one client (the viewer-side progress series —
/// the multi-client analogue of the paper's Fig 7 records).
struct DeliveryRecord {
  WallSeconds wall_time{};  // when the last byte reached the client
  SimSeconds sim_time{};    // simulated time of the delivered frame
  std::int64_t sequence = 0;
  Bytes size{};
  /// False when the frame had been evicted and was served via re-render.
  bool cache_hit = true;
};

struct ViewerStats {
  std::int64_t frames_delivered = 0;
  Bytes bytes_delivered{};
  std::int64_t cache_hits = 0;
  std::int64_t rerender_waits = 0;
  /// Live-tail only: frames skipped because a newer one superseded them
  /// before the downlink freed up.
  std::int64_t frames_skipped = 0;
  SimSeconds latest_sim_time{};
};

/// Convenience builder for benches/scenarios: `count` viewers sharing one
/// downlink spec; the first round(count * catchup_fraction) replay from
/// `catchup_start` after connecting at wall time `catchup_join`, the rest
/// live-tail from the start. Names are viewer000, viewer001, ...
std::vector<ViewerConfig> make_viewer_fleet(
    int count, Bandwidth downlink, double catchup_fraction,
    SimSeconds catchup_start, WallSeconds catchup_join = WallSeconds(0.0));

class ViewerSessionManager {
 public:
  /// Heavy re-render work (same contract as FrameReceiver::RenderFn): must
  /// be thread-safe across distinct frames.
  using RenderFn = std::function<void(const Frame&)>;

  struct Options {
    FrameCacheConfig cache{};
    /// Re-render cost model for evicted frames (the visualization site
    /// regenerates the image from its archived fields): fixed setup plus
    /// per-gigabyte scan, like VisualizationProcess.
    double rerender_fixed_seconds = 0.5;
    double rerender_seconds_per_gb = 3.0;
    /// Parallel re-render slots (>= 1); concurrently-busy slots run their
    /// heavy work on the pool.
    int rerender_workers = 1;
  };

  ViewerSessionManager(EventQueue& queue, Options options, std::uint64_t seed,
                       ThreadPool* pool = nullptr, RenderFn rerender = nullptr);

  /// Registers a client and returns its stable handle. Sessions added
  /// mid-run join the stream from the current head (live-tail) or their
  /// catch-up point. Handles are never recycled: the id stays valid after
  /// detach() (for stats/series queries) and reattach() resumes it.
  ClientId attach(const ViewerConfig& config);

  /// The observer leaves mid-run: deliveries stop (an in-flight transfer is
  /// abandoned without a record), re-render results it was waiting on are
  /// dropped, and idle() no longer waits for it. Stats and the delivery
  /// series remain queryable. Throws std::invalid_argument on an unknown
  /// id or one that is already detached.
  void detach(ClientId client);

  /// Resumes a detached session under the same handle: the cursor is kept,
  /// so a live-tail client skips to the head (skips counted) and a
  /// catch-up client continues its replay. No-op when already attached.
  void reattach(ClientId client);

  /// True when the id is valid and the session is currently attached.
  [[nodiscard]] bool attached(ClientId client) const;

  /// Handle lookup by client name (first match); nullopt when unknown.
  [[nodiscard]] std::optional<ClientId> find_client(
      const std::string& name) const;

  /// Per-client view steering (pan/zoom/field/colormap). A change
  /// re-renders the client's current frame under the new view; identical
  /// (frame, view) requests from different clients are deduped onto one
  /// render (steer_dedup() counts the saved renders). Throws
  /// std::invalid_argument on an unknown id or malformed view.
  void steer_view(ClientId client, const ViewCommand& view);

  /// Ingest from the FrameReceiver: publishes into the cache and wakes
  /// every session. Sequences must be strictly increasing.
  void on_frame(const Frame& frame);

  [[nodiscard]] const FrameCache& cache() const { return s_.cache; }
  [[nodiscard]] int viewer_count() const {
    return static_cast<int>(s_.sessions.size());
  }
  /// Currently-attached sessions (viewer_count() minus detached ones).
  [[nodiscard]] int attached_count() const;

  /// Accessors validate the handle at the API boundary:
  /// std::invalid_argument on an unknown id, never UB on a stale index.
  [[nodiscard]] const ViewerConfig& viewer(ClientId client) const {
    return session_for(client).config;
  }
  [[nodiscard]] const ViewerStats& stats(ClientId client) const {
    return session_for(client).stats;
  }
  [[nodiscard]] const std::vector<DeliveryRecord>& deliveries(
      ClientId client) const {
    return session_for(client).records;
  }
  /// The client's current view (default until steered).
  [[nodiscard]] const ViewCommand& view(ClientId client) const {
    return session_for(client).view;
  }

  /// Total deliveries across all clients.
  [[nodiscard]] std::int64_t frames_served() const {
    return s_.frames_served;
  }
  /// Total re-renders performed for evicted frames.
  [[nodiscard]] std::int64_t rerenders() const { return s_.rerenders; }
  /// Steer-driven re-renders actually performed / saved by deduplication.
  [[nodiscard]] std::int64_t steer_renders() const {
    return s_.steer_renders;
  }
  [[nodiscard]] std::int64_t steer_dedup() const { return s_.steer_dedup; }
  /// True when every attached session is caught up and nothing is in
  /// flight — the framework's drain condition.
  [[nodiscard]] bool idle() const;

  /// One pending or in-service render: (sequence, canonical view key).
  /// The default view maps to key "" so cache-miss re-renders behave
  /// exactly as before the control plane existed.
  using RenderKey = std::pair<std::int64_t, std::string>;

  /// One client's session: its own downlink (with its own noise stream),
  /// cursor, latches, view and delivery series.
  struct Session {
    ViewerConfig config;
    NetworkLink downlink;
    std::int64_t cursor = -1;  // last delivered sequence
    bool active = false;       // false until join_wall passes
    bool detached = false;
    bool in_flight = false;
    bool waiting_rerender = false;
    ViewCommand view{};        // current steered view
    std::string view_key{};    // view_key(view), cached ("" = default)
    /// Re-render finished while a transfer was in flight: delivered next.
    std::optional<Frame> pending{};
    ViewerStats stats{};
    std::vector<DeliveryRecord> records{};
  };

  /// Everything the manager mutates, the cache included. Sessions
  /// attached after a snapshot are dropped by restore() — their pending
  /// events rewind with the EventQueue.
  struct State {
    FrameCache cache;
    /// Every frame ever received, payload dropped: the replay index
    /// catch-up cursors walk and the metadata source for re-renders.
    /// Ordered by sequence (== arrival order == simulated-time order).
    std::vector<Frame> index{};
    std::vector<Session> sessions{};
    std::deque<RenderKey> rerender_fifo{};  // pending, FIFO
    std::map<RenderKey, std::vector<int>> rerender_waiters{};
    std::set<RenderKey> rerender_in_service{};
    int rerendering = 0;  // busy re-render slots
    std::int64_t frames_served = 0;
    std::int64_t rerenders = 0;
    std::int64_t steer_renders = 0;
    std::int64_t steer_dedup = 0;
  };
  [[nodiscard]] State snapshot() const { return s_; }
  void restore(const State& s) { s_ = s; }

 private:
  Session& session_for(ClientId client);
  const Session& session_for(ClientId client) const;
  void pump(int idx);
  void start_transfer(int idx, const Frame& frame, bool cache_hit);
  void request_rerender(int idx, const RenderKey& key);
  void drain_rerenders();
  /// Next sequence the session should receive, or nullopt when caught up.
  [[nodiscard]] std::optional<std::int64_t> next_sequence(
      const Session& s) const;
  [[nodiscard]] const Frame& meta(std::int64_t sequence) const;

  EventQueue& queue_;
  const Options options_;
  ThreadPool* const pool_;
  const RenderFn rerender_fn_;
  const std::uint64_t seed_;
  State s_;
};

}  // namespace adaptviz

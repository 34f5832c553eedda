// Frame receiver daemon (visualization site).
//
// "The frame receiver daemon at the remote visualization site receives the
// frames and invokes the visualization process for visualization of the
// frames." The receiver decouples arrival from rendering with a queue: a
// slow render never blocks the link, and the visualization process consumes
// frames in arrival order.
//
// The paper's future work — "We intend to parallelize the visualization
// process as well" — is supported through `worker_count`: up to that many
// frames render concurrently (dispatch stays in arrival order; records are
// appended at dispatch, so the Fig 7 progress series remains ordered).
//
// The render slots are virtual-time constructs of the event queue, but the
// *real* work behind them (image rendering when frames carry payloads) is
// real compute. When a pool and a RenderFn are supplied, the slots map
// onto the persistent thread-pool runtime: every frame dispatched in one
// drain batch has its RenderFn run concurrently on the pool before the
// serial bookkeeping callback fires.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "dataio/frame.hpp"
#include "resources/event_queue.hpp"
#include "util/thread_pool.hpp"

namespace adaptviz {

class FrameReceiver {
 public:
  /// Invoked once per frame when the visualization process is ready for it.
  /// Must return the wall-time cost of visualizing the frame. Always called
  /// serially, in arrival order, on the event-loop thread.
  using VisualizeFn = std::function<WallSeconds(const Frame&)>;

  /// Heavy per-frame work (image rendering). Must be thread-safe across
  /// distinct frames: concurrently-busy render slots run it in parallel on
  /// the pool.
  using RenderFn = std::function<void(const Frame&)>;

  /// `worker_count` parallel render slots (>= 1). When `pool` and `render`
  /// are given, the real work of concurrently-dispatched slots runs on the
  /// pool (render first, then the serial `visualize` bookkeeping).
  FrameReceiver(EventQueue& queue, VisualizeFn visualize,
                int worker_count = 1, ThreadPool* pool = nullptr,
                RenderFn render = nullptr);

  /// Entry point wired into the sender's delivery callback.
  void on_frame_arrival(const Frame& frame);

  [[nodiscard]] std::int64_t frames_received() const {
    return s_.frames_received;
  }
  [[nodiscard]] std::int64_t frames_visualized() const {
    return s_.frames_visualized;
  }
  [[nodiscard]] std::size_t backlog() const { return s_.pending.size(); }
  [[nodiscard]] int workers_busy() const { return s_.rendering; }
  [[nodiscard]] int worker_count() const { return worker_count_; }

  /// Arrival queue + busy render slots + counters. In-flight render
  /// completions are pending EventQueue events whose closures only touch
  /// these counters, so restoring queue + receiver together is exact.
  struct State {
    std::deque<Frame> pending;
    int rendering = 0;  // busy workers
    std::int64_t frames_received = 0;
    std::int64_t frames_visualized = 0;
  };
  [[nodiscard]] State snapshot() const { return s_; }
  void restore(const State& s) { s_ = s; }

 private:
  void drain();

  EventQueue& queue_;
  const VisualizeFn visualize_;
  const int worker_count_;
  ThreadPool* const pool_;
  const RenderFn render_;
  State s_;
};

}  // namespace adaptviz

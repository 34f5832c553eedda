// Discrete-event kernel with a virtual wall clock.
//
// Every actor in the framework (simulation process, frame sender/receiver,
// visualization process, application manager, job handler) advances by
// scheduling callbacks on this queue. Virtual time makes a multi-day
// experiment replay in seconds while preserving every ordering interaction
// (disk filling while a transfer is in flight, the manager waking mid-step,
// and so on).
//
// Determinism: events at equal times run in scheduling order (FIFO), so a
// seeded experiment is bit-reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/units.hpp"

namespace adaptviz {

using EventFn = std::function<void()>;
using EventId = std::uint64_t;

class EventQueue {
 private:
  struct Item {
    WallSeconds time;
    std::uint64_t seq;
    EventId id;
    // Ordered for a min-heap via std::greater-like comparator below.
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.time.seconds() != b.time.seconds()) {
        return a.time.seconds() > b.time.seconds();
      }
      return a.seq > b.seq;
    }
  };

  struct Record {
    EventFn fn;
    std::string label;
  };

 public:
  /// Copyable checkpoint of the queue: clock, id/seq counters, and every
  /// pending event (closures included — they capture either long-lived
  /// component pointers, whose own state is snapshotted alongside, or
  /// frozen by-value data). Restoring on the same component graph resumes
  /// the event stream bit for bit.
  struct State {
    WallSeconds now{0.0};
    std::uint64_t next_seq = 0;
    EventId next_id = 1;
    std::priority_queue<Item, std::vector<Item>, Later> heap;
    std::unordered_map<EventId, Record> records;
    std::unordered_set<EventId> cancelled;
    std::uint64_t executed = 0;
  };

  [[nodiscard]] State snapshot() const { return s_; }
  void restore(const State& s) { s_ = s; }

  /// Current virtual time. Starts at 0.
  [[nodiscard]] WallSeconds now() const { return s_.now; }

  /// Schedules `fn` at absolute time `t` (>= now, else clamped to now).
  /// `label` is for diagnostics only. Returns an id usable with cancel().
  EventId schedule_at(WallSeconds t, EventFn fn, std::string label = {});

  /// Schedules `fn` `dt` after the current time (dt < 0 is clamped to 0).
  EventId schedule_after(WallSeconds dt, EventFn fn, std::string label = {});

  /// Cancels a pending event; cancelling a fired/unknown id is a no-op.
  void cancel(EventId id);

  /// Runs the single earliest pending event; returns false if none remain.
  bool step();

  /// Runs all events with time <= t, then advances the clock to exactly t.
  void run_until(WallSeconds t);

  /// Drains the queue; throws std::runtime_error after `max_events` as a
  /// runaway guard.
  void run_all(std::uint64_t max_events = 100'000'000);

  [[nodiscard]] std::size_t pending() const {
    return s_.heap.size() - s_.cancelled.size();
  }
  [[nodiscard]] std::uint64_t executed() const { return s_.executed; }

 private:
  State s_;
};

}  // namespace adaptviz

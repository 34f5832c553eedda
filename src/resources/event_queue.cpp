#include "resources/event_queue.hpp"

#include <stdexcept>
#include <utility>

namespace adaptviz {

EventId EventQueue::schedule_at(WallSeconds t, EventFn fn, std::string label) {
  if (!fn) throw std::invalid_argument("EventQueue: null event function");
  if (t < s_.now) t = s_.now;
  const EventId id = s_.next_id++;
  s_.heap.push(Item{t, s_.next_seq++, id});
  s_.records.emplace(id, Record{std::move(fn), std::move(label)});
  return id;
}

EventId EventQueue::schedule_after(WallSeconds dt, EventFn fn,
                                   std::string label) {
  if (dt < WallSeconds(0.0)) dt = WallSeconds(0.0);
  return schedule_at(s_.now + dt, std::move(fn), std::move(label));
}

void EventQueue::cancel(EventId id) {
  if (s_.records.contains(id)) s_.cancelled.insert(id);
}

bool EventQueue::step() {
  while (!s_.heap.empty()) {
    const Item item = s_.heap.top();
    s_.heap.pop();
    const auto cit = s_.cancelled.find(item.id);
    if (cit != s_.cancelled.end()) {
      s_.cancelled.erase(cit);
      s_.records.erase(item.id);
      continue;
    }
    auto rit = s_.records.find(item.id);
    // The record must exist: ids leave s_.records only via this function.
    EventFn fn = std::move(rit->second.fn);
    s_.records.erase(rit);
    s_.now = item.time;
    ++s_.executed;
    fn();
    return true;
  }
  return false;
}

void EventQueue::run_until(WallSeconds t) {
  while (!s_.heap.empty()) {
    // Skip over cancelled heads without advancing time.
    const Item item = s_.heap.top();
    if (s_.cancelled.contains(item.id)) {
      s_.heap.pop();
      s_.cancelled.erase(item.id);
      s_.records.erase(item.id);
      continue;
    }
    if (item.time > t) break;
    step();
  }
  if (s_.now < t) s_.now = t;
}

void EventQueue::run_all(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (step()) {
    if (++n > max_events) {
      throw std::runtime_error("EventQueue: runaway event loop");
    }
  }
}

}  // namespace adaptviz

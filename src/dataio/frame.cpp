#include "dataio/frame.hpp"

#include <stdexcept>

namespace adaptviz {

void FrameCatalog::push(Frame frame) {
  if (!s_.frames.empty() && frame.sequence <= s_.frames.back().sequence) {
    throw std::invalid_argument("FrameCatalog: non-increasing sequence");
  }
  if (frame.size < Bytes(0)) {
    throw std::invalid_argument("FrameCatalog: negative frame size");
  }
  s_.total += frame.size;
  s_.frames.push_back(std::move(frame));
}

void FrameCatalog::requeue_front(Frame frame) {
  if (!s_.frames.empty() && frame.sequence >= s_.frames.front().sequence) {
    throw std::invalid_argument(
        "FrameCatalog: requeued frame must precede the current head");
  }
  if (frame.size < Bytes(0)) {
    throw std::invalid_argument("FrameCatalog: negative frame size");
  }
  s_.total += frame.size;
  s_.frames.push_front(std::move(frame));
}

std::optional<Frame> FrameCatalog::oldest() const {
  if (s_.frames.empty()) return std::nullopt;
  return s_.frames.front();
}

Frame FrameCatalog::pop_oldest() {
  if (s_.frames.empty()) throw std::logic_error("FrameCatalog: empty");
  Frame f = std::move(s_.frames.front());
  s_.frames.pop_front();
  s_.total -= f.size;
  return f;
}

}  // namespace adaptviz

#include "obs/obs.hpp"

#include <atomic>

#include "runtime/run_context.hpp"

namespace adaptviz::obs {

namespace {
std::atomic<std::uint64_t> g_epoch{0};
}  // namespace

Observability::Observability()
    : epoch_(g_epoch.fetch_add(1, std::memory_order_relaxed) + 1) {}

Observability* current() noexcept {
  const RunContext* context = current_run_context();
  return context != nullptr ? context->observability : nullptr;
}

}  // namespace adaptviz::obs

// Fork-join row parallelism (OpenMP `parallel for`-style).
//
// Used by the dynamical core and the renderer to split grid rows across
// workers. The partition is deterministic and each worker writes only its
// own rows, so results are bitwise identical to the serial loop for any
// worker count.
//
// A thin veneer over the persistent pool (util/thread_pool.hpp,
// ThreadPool::shared()): no threads are spawned per call, and the callable
// is passed by reference with no std::function allocation.
#pragma once

#include <cstddef>

#include "util/thread_pool.hpp"

namespace adaptviz {

/// Runs body(row_begin, row_end) over a static partition of [begin, end)
/// across `threads` workers (the calling thread is one of them), on the
/// shared persistent pool. threads <= 1 or a tiny range degenerates to a
/// direct call. Non-allocating: the callable is passed by reference.
template <typename Body>
void parallel_for_rows(std::size_t begin, std::size_t end, int threads,
                       Body&& body) {
  ThreadPool::shared().parallel_for(begin, end, threads, body);
}

}  // namespace adaptviz

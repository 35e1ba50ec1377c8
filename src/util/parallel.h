// Ordered parallel loop over independent work items.
//
// A single bound's barrier windows (dag/windows.h) are independent LPs,
// so they can be solved on every CPU the process may use - but the
// stitched result must not depend on which thread finished first.
// ordered_parallel_for splits the two halves: `solve(i)` runs on any
// thread and writes only item i's own slot; `stitch(i)` runs on the
// calling thread, in index order, after every solve it needs is done.
// With one thread the loop is the plain serial `solve(0), stitch(0),
// solve(1), ...`, so a serial caller pays for nothing it does not use.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace powerlim::util {

/// CPUs in this process's affinity mask (sched_getaffinity); at least 1.
unsigned affinity_cpus();

/// Runs `solve(i)` for i in [0, n), then `stitch(i)` in index order on the
/// calling thread. `solve` returns false when no item after i is needed
/// (a failed window); the loop then stops after stitching that item, just
/// as the serial loop would. An exception thrown by `solve(i)` is rethrown
/// on the calling thread when the stitch order reaches i, so the caller
/// sees the same failure the serial loop would have raised first.
///
/// When `parallel` is set the solves run on up to affinity_cpus() threads
/// (the caller included), each claiming the next unclaimed index; items
/// past the first stopping one may still be solved, but are never
/// stitched. `solve` must therefore touch only item i's own state. If a
/// thread cannot be started, the threads that did start and the caller
/// solve the remaining items.
template <typename Solve, typename Stitch>
void ordered_parallel_for(std::size_t n, bool parallel, Solve&& solve,
                          Stitch&& stitch) {
  const std::size_t threads =
      parallel ? std::min<std::size_t>(affinity_cpus(), n) : 1;
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      const bool more = solve(i);
      stitch(i);
      if (!more) return;
    }
    return;
  }

  std::vector<char> more(n, 1);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> stop{false};
  // Indices are claimed in increasing order, so every index below the
  // first stopping one is claimed (and finished) before the join.
  const auto work = [&] {
    while (!stop) {
      const std::size_t i = cursor++;
      if (i >= n) return;
      try {
        more[i] = solve(i) ? 1 : 0;
      } catch (...) {
        errors[i] = std::current_exception();
        more[i] = 0;
      }
      if (!more[i]) stop = true;
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) {
    try {
      pool.emplace_back(work);
    } catch (const std::exception&) {
      break;  // no thread to be had: the caller's work() picks up the rest
    }
  }
  work();
  for (std::thread& t : pool) t.join();

  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
    stitch(i);
    if (!more[i]) return;
  }
}

}  // namespace powerlim::util

// Ordered parallel loop over independent work items.
//
// The barrier windows of one trace (dag/windows.h) are independent LPs,
// so they can be solved on every CPU the process may use - but the
// stitched result must not depend on which thread finished first.
// ordered_parallel_for splits the two halves: `solve(i)` runs on any
// thread and writes only item i's own slot; `stitch(i)` runs on the
// calling thread, in index order, as soon as items 0..i are all solved,
// so a stitched slot's memory is released while later items still solve.
// With one thread the loop is the plain serial `solve(0), stitch(0),
// solve(1), ...`, so a serial caller pays for nothing it does not use.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace powerlim::util {

/// CPUs in this process's affinity mask (sched_getaffinity); at least 1.
unsigned affinity_cpus();

/// Called once per parallel region; the first call pins the allocator's
/// mmap threshold (glibc: 128 KiB, the default starting value). glibc
/// otherwise raises that threshold each time a large block is freed, after
/// which every thread's freed solver buffers stay resident in its arena
/// instead of going back to the system.
void prepare_parallel_region();

/// Runs `solve(i)` for i in [0, n) and `stitch(i)` in index order on the
/// calling thread. `solve` returns false when no item after i is needed
/// (a failed window); the loop then stops after stitching that item, just
/// as the serial loop would. An exception thrown by `solve(i)` is rethrown
/// on the calling thread when the stitch order reaches i, so the caller
/// sees the same failure the serial loop would have raised first.
///
/// When `parallel` is set the solves run on up to affinity_cpus() worker
/// threads, each claiming the next unclaimed index, while the calling
/// thread stitches every finished index-order prefix as soon as it is
/// ready. Items past the first stopping one may still be solved, but are
/// never stitched. `solve` must therefore touch only item i's own state.
/// If no worker thread can be started, the caller solves the items itself.
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
  prepare_parallel_region();

  // done/more/errors are guarded by `mu`; the caller waits on `ready`.
  std::mutex mu;
  std::condition_variable ready;
  std::vector<char> done(n, 0);
  std::vector<char> more(n, 1);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> stop{false};
  // Indices are claimed in increasing order, so every index below the
  // first stopping one is claimed, and hence finished, at some point.
  const auto work = [&] {
    while (!stop) {
      const std::size_t i = cursor++;
      if (i >= n) return;
      bool keep_going = false;
      std::exception_ptr error;
      try {
        keep_going = solve(i);
      } catch (...) {
        error = std::current_exception();
      }
      if (!keep_going) stop = true;
      {
        const std::lock_guard<std::mutex> lock(mu);
        more[i] = keep_going ? 1 : 0;
        errors[i] = std::move(error);
        done[i] = 1;
      }
      ready.notify_one();
    }
  };

  // Joins the workers on every way out of this scope, a throwing stitch
  // or rethrown solve included, so no std::thread outlives the slots.
  struct Pool {
    std::atomic<bool>& stop;
    std::vector<std::thread> threads;
    ~Pool() {
      stop = true;
      for (std::thread& t : threads) t.join();
    }
  } pool{stop, {}};
  pool.threads.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    try {
      pool.threads.emplace_back(work);
    } catch (const std::exception&) {
      break;  // no more threads to be had; the started ones share the rest
    }
  }
  if (pool.threads.empty()) work();

  for (std::size_t i = 0; i < n; ++i) {
    bool keep_going = false;
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(mu);
      ready.wait(lock, [&] { return done[i] != 0; });
      keep_going = more[i] != 0;
      error = std::move(errors[i]);
    }
    if (error) std::rethrow_exception(error);
    stitch(i);
    if (!keep_going) return;
  }
}

}  // namespace powerlim::util

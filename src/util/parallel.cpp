#include "util/parallel.h"

#include <sched.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace powerlim::util {

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

void prepare_parallel_region() {
#if defined(__GLIBC__)
  // With the dynamic threshold, freed per-window LP buffers of a few
  // hundred KB stay in the worker threads' arenas: an in-process sweep of
  // lulesh 32x20 at 30-80 W/socket peaked at 21.1 MB instead of 16.7 MB
  // (4 vCPUs).
  // Runs once, before the first region starts its threads; glibc's
  // mallopt takes the main arena's lock while it updates the threshold.
  static std::once_flag pinned;
  std::call_once(pinned, [] {
    (void)mallopt(M_MMAP_THRESHOLD, 128 * 1024);  // NOLINT(concurrency-mt-unsafe)
  });
#endif
}

}  // namespace powerlim::util

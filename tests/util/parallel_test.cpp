#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace powerlim::util {
namespace {

/// Runs the loop over n items; `fail` makes solve(i) return false, `bad`
/// makes it throw "item i". Returns the stitched indices.
std::vector<std::size_t> run(std::size_t n, bool parallel,
                             const std::vector<std::size_t>& fail,
                             const std::vector<std::size_t>& bad) {
  std::vector<std::size_t> slot(n, 0);
  std::vector<std::size_t> stitched;
  ordered_parallel_for(
      n, parallel,
      [&](std::size_t i) {
        for (std::size_t b : bad) {
          if (i == b) throw std::runtime_error("item " + std::to_string(i));
        }
        slot[i] = i + 1;
        for (std::size_t f : fail) {
          if (i == f) return false;
        }
        return true;
      },
      [&](std::size_t i) {
        EXPECT_EQ(slot[i], i + 1);
        stitched.push_back(i);
      });
  return stitched;
}

std::vector<std::size_t> iota(std::size_t n) {
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

TEST(OrderedParallelFor, StitchesEveryItemInOrder) {
  for (const bool parallel : {false, true}) {
    EXPECT_EQ(run(200, parallel, {}, {}), iota(200));
    EXPECT_TRUE(run(0, parallel, {}, {}).empty());
  }
}

TEST(OrderedParallelFor, StopsAfterTheFirstFailingItem) {
  for (const bool parallel : {false, true}) {
    EXPECT_EQ(run(200, parallel, {150, 37}, {}), iota(38));
  }
}

TEST(OrderedParallelFor, RethrowsTheLowestThrowingItem) {
  for (const bool parallel : {false, true}) {
    try {
      (void)run(200, parallel, {}, {170, 40});
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "item 40");
    }
  }
}

TEST(OrderedParallelFor, AnEarlierFailureHidesALaterThrow) {
  for (const bool parallel : {false, true}) {
    EXPECT_EQ(run(200, parallel, {10}, {30}), iota(11));
  }
}

TEST(OrderedParallelFor, SerialInterleavesSolveAndStitch) {
  std::vector<std::string> events;
  ordered_parallel_for(
      3, false,
      [&](std::size_t i) {
        events.push_back("solve " + std::to_string(i));
        return true;
      },
      [&](std::size_t i) { events.push_back("stitch " + std::to_string(i)); });
  EXPECT_EQ(events,
            (std::vector<std::string>{"solve 0", "stitch 0", "solve 1",
                                      "stitch 1", "solve 2", "stitch 2"}));
}

TEST(OrderedParallelFor, StitchesTheFirstItemBeforeTheLastSolveReturns) {
  // The last item's solve waits for stitch(0): a loop that stitched only
  // after every solve returned would time the wait out. With one CPU the
  // serial path stitches item 0 long before item n-1 is solved.
  constexpr std::size_t n = 8;
  std::mutex mu;
  std::condition_variable cv;
  bool first_stitched = false;
  bool seen_in_time = false;
  std::vector<std::size_t> stitched;
  ordered_parallel_for(
      n, true,
      [&](std::size_t i) {
        if (i == n - 1) {
          std::unique_lock<std::mutex> lock(mu);
          seen_in_time = cv.wait_for(lock, std::chrono::seconds(30),
                                     [&] { return first_stitched; });
        }
        return true;
      },
      [&](std::size_t i) {
        {
          const std::lock_guard<std::mutex> lock(mu);
          if (i == 0) first_stitched = true;
          stitched.push_back(i);
        }
        cv.notify_all();
      });
  EXPECT_TRUE(seen_in_time);
  EXPECT_EQ(stitched, iota(n));
}

TEST(OrderedParallelFor, EagerStitchKeepsOrderWhenTheFirstItemIsSlowest) {
  // Item 0 finishes last, so every later item is ready before the stitch
  // can start; they must still be stitched in index order.
  for (const bool parallel : {false, true}) {
    const bool spread = parallel && affinity_cpus() > 1;
    std::atomic<std::size_t> solved{0};
    std::vector<std::size_t> stitched;
    ordered_parallel_for(
        6, parallel,
        [&](std::size_t i) {
          if (i == 0) {
            const auto give_up =
                std::chrono::steady_clock::now() + std::chrono::seconds(5);
            while (spread && solved < 5 &&
                   std::chrono::steady_clock::now() < give_up) {
              std::this_thread::yield();
            }
          }
          ++solved;
          return true;
        },
        [&](std::size_t i) { stitched.push_back(i); });
    EXPECT_EQ(stitched, iota(6));
  }
}

TEST(OrderedParallelFor, AThrowingStitchStopsTheLoopAndJoinsItsThreads) {
  for (const bool parallel : {false, true}) {
    std::atomic<int> running{0};
    std::vector<std::size_t> stitched;
    try {
      ordered_parallel_for(
          200, parallel,
          [&](std::size_t) {
            ++running;
            std::this_thread::yield();
            --running;
            return true;
          },
          [&](std::size_t i) {
            if (i == 5) throw std::runtime_error("stitch 5");
            stitched.push_back(i);
          });
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "stitch 5");
    }
    // Every worker was joined before the exception left the loop.
    EXPECT_EQ(running.load(), 0);
    EXPECT_EQ(stitched, iota(5));
  }
}

TEST(OrderedParallelFor, AffinityCpusIsPositive) {
  EXPECT_GE(affinity_cpus(), 1u);
}

}  // namespace
}  // namespace powerlim::util

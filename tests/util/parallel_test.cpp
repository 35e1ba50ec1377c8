#include "util/parallel.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
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

TEST(OrderedParallelFor, AffinityCpusIsPositive) {
  EXPECT_GE(affinity_cpus(), 1u);
}

}  // namespace
}  // namespace powerlim::util

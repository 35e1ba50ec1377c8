#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "apps/benchmarks.h"
#include "apps/random_app.h"
#include "core/windowed.h"
#include "dag/windows.h"
#include "machine/power_model.h"
#include "util/deadline.h"

namespace powerlim::core {
namespace {

const machine::PowerModel kModel{machine::SocketSpec{}};
const machine::ClusterSpec kCluster{};

TEST(WindowSweeper, MatchesOneShotSolve) {
  const dag::TaskGraph g = apps::make_bt({.ranks = 4, .iterations = 4});
  const WindowSweeper sweeper(g, kModel, kCluster);
  for (double socket : {30.0, 45.0, 70.0}) {
    const double cap = 4 * socket;
    const auto a = sweeper.solve({.power_cap = cap});
    const auto b = solve_windowed_lp(g, kModel, kCluster, {.power_cap = cap});
    ASSERT_EQ(a.status, b.status) << socket;
    if (!a.optimal()) continue;
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    EXPECT_DOUBLE_EQ(a.energy_joules, b.energy_joules);
    EXPECT_DOUBLE_EQ(a.power_price_s_per_watt, b.power_price_s_per_watt);
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      EXPECT_DOUBLE_EQ(a.schedule.duration[e], b.schedule.duration[e]);
      EXPECT_DOUBLE_EQ(a.schedule.power[e], b.schedule.power[e]);
    }
  }
}

TEST(WindowSweeper, MetadataMatchesGraph) {
  const dag::TaskGraph g = apps::make_comd({.ranks = 4, .iterations = 5});
  const WindowSweeper sweeper(g, kModel, kCluster);
  EXPECT_EQ(sweeper.num_windows(), 5u);
  EXPECT_GT(sweeper.min_feasible_power(), 0.0);
  EXPECT_GT(sweeper.unconstrained_makespan(), 0.0);
  // Solving at a huge cap reaches the unconstrained optimum.
  const auto res = sweeper.solve({.power_cap = 1e6});
  ASSERT_TRUE(res.optimal());
  EXPECT_NEAR(res.makespan, sweeper.unconstrained_makespan(),
              1e-9 * res.makespan);
}

TEST(WindowSweeper, InfeasibleCapReported) {
  const dag::TaskGraph g = apps::make_comd({.ranks = 3, .iterations = 3});
  const WindowSweeper sweeper(g, kModel, kCluster);
  const auto res =
      sweeper.solve({.power_cap = sweeper.min_feasible_power() * 0.8});
  EXPECT_EQ(res.status, lp::SolveStatus::kInfeasible);
}

TEST(WindowSweeper, SweepFasterThanRepeatedOneShots) {
  // The point of the class: a 10-cap sweep amortizes the build.
  const dag::TaskGraph g = apps::make_lulesh({.ranks = 6, .iterations = 6});
  std::vector<double> caps;
  for (double s = 32.0; s < 80.0; s += 5.0) caps.push_back(6 * s);

  const auto t0 = std::chrono::steady_clock::now();
  const WindowSweeper sweeper(g, kModel, kCluster);
  for (double cap : caps) (void)sweeper.solve({.power_cap = cap});
  const auto t1 = std::chrono::steady_clock::now();
  for (double cap : caps) {
    (void)solve_windowed_lp(g, kModel, kCluster, {.power_cap = cap});
  }
  const auto t2 = std::chrono::steady_clock::now();
  const double sweep_s = std::chrono::duration<double>(t1 - t0).count();
  const double oneshot_s = std::chrono::duration<double>(t2 - t1).count();
  // Not a tight perf bound (CI noise); the sweep must at least not lose.
  EXPECT_LT(sweep_s, oneshot_s * 1.2);
}

TEST(WindowSweeper, MoveSemantics) {
  const dag::TaskGraph g = apps::make_comd({.ranks = 2, .iterations = 2});
  WindowSweeper a(g, kModel, kCluster);
  const double min_power = a.min_feasible_power();
  WindowSweeper b = std::move(a);
  EXPECT_DOUBLE_EQ(b.min_feasible_power(), min_power);
  const auto res = b.solve({.power_cap = min_power * 1.5});
  EXPECT_TRUE(res.optimal());
}

// --- Parallel windows: the stitched result must be the serial one ---

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bit-for-bit equality of every field of two windowed results.
void expect_identical(const WindowedLpResult& a, const WindowedLpResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.failed_window, b.failed_window);
  EXPECT_EQ(bits(a.makespan), bits(b.makespan));
  EXPECT_EQ(bits(a.energy_joules), bits(b.energy_joules));
  EXPECT_EQ(bits(a.peak_event_power), bits(b.peak_event_power));
  EXPECT_EQ(bits(a.power_price_s_per_watt), bits(b.power_price_s_per_watt));
  EXPECT_EQ(bits(a.min_feasible_power), bits(b.min_feasible_power));
  EXPECT_EQ(bits(a.primal_infeasibility), bits(b.primal_infeasibility));
  EXPECT_EQ(bits(a.lu_fill_ratio), bits(b.lu_fill_ratio));
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.degenerate_pivots, b.degenerate_pivots);
  EXPECT_EQ(a.refactor_count, b.refactor_count);
  EXPECT_EQ(a.eta_nonzeros, b.eta_nonzeros);
  EXPECT_EQ(a.bland_engaged, b.bland_engaged);
  ASSERT_EQ(a.vertex_time.size(), b.vertex_time.size());
  for (std::size_t v = 0; v < a.vertex_time.size(); ++v) {
    EXPECT_EQ(bits(a.vertex_time[v]), bits(b.vertex_time[v])) << v;
  }
  ASSERT_EQ(a.schedule.shares.size(), b.schedule.shares.size());
  ASSERT_EQ(a.frontiers.size(), b.frontiers.size());
  for (std::size_t e = 0; e < a.schedule.shares.size(); ++e) {
    EXPECT_EQ(bits(a.schedule.duration[e]), bits(b.schedule.duration[e]));
    EXPECT_EQ(bits(a.schedule.power[e]), bits(b.schedule.power[e]));
    ASSERT_EQ(a.schedule.shares[e].size(), b.schedule.shares[e].size()) << e;
    for (std::size_t k = 0; k < a.schedule.shares[e].size(); ++k) {
      EXPECT_EQ(a.schedule.shares[e][k].config_index,
                b.schedule.shares[e][k].config_index);
      EXPECT_EQ(bits(a.schedule.shares[e][k].fraction),
                bits(b.schedule.shares[e][k].fraction));
    }
    ASSERT_EQ(a.frontiers[e].size(), b.frontiers[e].size()) << e;
    for (std::size_t k = 0; k < a.frontiers[e].size(); ++k) {
      EXPECT_EQ(bits(a.frontiers[e][k].duration),
                bits(b.frontiers[e][k].duration));
      EXPECT_EQ(bits(a.frontiers[e][k].power), bits(b.frontiers[e][k].power));
    }
  }
  ASSERT_EQ(a.window_duals.size(), b.window_duals.size());
  for (std::size_t w = 0; w < a.window_duals.size(); ++w) {
    ASSERT_EQ(a.window_duals[w].size(), b.window_duals[w].size()) << w;
    for (std::size_t i = 0; i < a.window_duals[w].size(); ++i) {
      EXPECT_EQ(bits(a.window_duals[w][i]), bits(b.window_duals[w][i]));
    }
  }
}

void expect_same_warm(const WindowSweeper& a, const WindowSweeper& b) {
  const std::vector<lp::WarmStart> wa = a.warm_starts();
  const std::vector<lp::WarmStart> wb = b.warm_starts();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t w = 0; w < wa.size(); ++w) {
    EXPECT_EQ(wa[w].basis, wb[w].basis) << w;
    EXPECT_EQ(wa[w].status, wb[w].status) << w;
  }
}

/// The four paper apps at test scale.
std::vector<std::pair<std::string, dag::TaskGraph>> four_apps() {
  std::vector<std::pair<std::string, dag::TaskGraph>> apps;
  apps.emplace_back("comd", apps::make_comd({.ranks = 4, .iterations = 6}));
  apps.emplace_back("lulesh", apps::make_lulesh({.ranks = 4, .iterations = 5}));
  apps.emplace_back("sp", apps::make_sp({.ranks = 4, .iterations = 5}));
  apps.emplace_back("bt", apps::make_bt({.ranks = 4, .iterations = 5}));
  return apps;
}

TEST(ParallelWindows, IdenticalToSerialOnFourApps) {
  for (const auto& [name, g] : four_apps()) {
    SCOPED_TRACE(name);
    const WindowSweeper serial(g, kModel, kCluster);
    const WindowSweeper parallel(g, kModel, kCluster);
    // Several caps in a row, so later solves start from warm slots that
    // the parallel path filled on other threads.
    for (const double socket : {40.0, 55.0, 70.0, 55.0}) {
      const LpScheduleOptions o{.power_cap = 4 * socket};
      const WindowedLpResult a = serial.solve(o, WindowThreads::kSerial);
      const WindowedLpResult b = parallel.solve(o, WindowThreads::kPerCpu);
      ASSERT_TRUE(a.optimal()) << socket;
      expect_identical(a, b);
      expect_same_warm(serial, parallel);
    }
  }
}

TEST(ParallelWindows, FreeFunctionsMatchTheSweeper) {
  const dag::TaskGraph g = apps::make_comd({.ranks = 3, .iterations = 4});
  const WindowSweeper sweeper(g, kModel, kCluster);
  expect_identical(solve_windowed_lp(g, kModel, kCluster, {.power_cap = 150}),
                   sweeper.solve({.power_cap = 150}, WindowThreads::kPerCpu));
  const WindowedLpResult energy =
      solve_windowed_energy_lp(g, kModel, kCluster, 0.1);
  const WindowedLpResult wide = sweeper.solve(
      [](const LpFormulation& form) {
        return LpScheduleOptions{
            .power_cap = lp::kInfinity,
            .objective = LpObjective::kEnergy,
            .max_makespan = 1.1 * form.unconstrained_makespan()};
      },
      WindowThreads::kPerCpu);
  ASSERT_TRUE(energy.optimal());
  expect_identical(energy, wide);
}

/// Per-window cheapest-event power of `g`, in window order.
std::vector<double> window_min_power(const dag::TaskGraph& g) {
  std::vector<double> out;
  for (const dag::Window& win : dag::split_at_barriers(g)) {
    out.push_back(LpFormulation(win.graph, kModel, kCluster)
                      .min_feasible_power());
  }
  return out;
}

TEST(ParallelWindows, MiddleWindowInfeasibleStopsLikeSerial) {
  // A trace whose windows need different minimum power: a cap between the
  // first windows' needs and a later window's makes that window the
  // lowest infeasible one.
  const dag::TaskGraph g = apps::make_random_app(
      {.ranks = 4, .iterations = 8, .seed = 7, .p2p_probability = 0.0});
  const std::vector<double> need = window_min_power(g);
  // k: the first window that needs more than every window before it.
  std::size_t k = 1;
  double before = need[0];
  for (; k < need.size() && need[k] <= before; ++k) {
    before = std::max(before, need[k]);
  }
  ASSERT_LT(k + 1, need.size()) << "no middle window needs more power";
  const double cap = 0.5 * (before + need[k]);

  const WindowSweeper serial(g, kModel, kCluster);
  const WindowSweeper parallel(g, kModel, kCluster);
  // Warm every slot first, so "slots past the failure are untouched" is
  // observable: they must keep the previous cap's basis.
  const double roomy = 2.0 * serial.min_feasible_power();
  ASSERT_TRUE(serial.solve({.power_cap = roomy}).optimal());
  ASSERT_TRUE(parallel.solve({.power_cap = roomy}).optimal());
  const std::vector<lp::WarmStart> warm_before = serial.warm_starts();

  const WindowedLpResult a =
      serial.solve({.power_cap = cap}, WindowThreads::kSerial);
  const WindowedLpResult b =
      parallel.solve({.power_cap = cap}, WindowThreads::kPerCpu);
  EXPECT_EQ(a.status, lp::SolveStatus::kInfeasible);
  EXPECT_EQ(a.failed_window, static_cast<int>(k));
  EXPECT_EQ(a.window_duals.size(), k + 1);
  expect_identical(a, b);
  expect_same_warm(serial, parallel);
  const std::vector<lp::WarmStart> warm_after = parallel.warm_starts();
  for (std::size_t w = k + 1; w < warm_after.size(); ++w) {
    EXPECT_EQ(warm_after[w].basis, warm_before[w].basis) << w;
  }
}

TEST(ParallelWindows, MiddleWindowFailureKeepsTheWholeTraceMinimumPower) {
  // Formulations are built per solve and dropped at stitch; the sweeper's
  // minimum feasible power must still cover every window, including the
  // ones a failed solve never reached.
  const dag::TaskGraph g = apps::make_random_app(
      {.ranks = 4, .iterations = 8, .seed = 7, .p2p_probability = 0.0});
  const std::vector<double> need = window_min_power(g);
  // k: the first window that needs more than every window before it; the
  // cap sits between, so k is the lowest failing window.
  std::size_t k = 1;
  double before = need[0];
  for (; k < need.size() && need[k] <= before; ++k) {
    before = std::max(before, need[k]);
  }
  ASSERT_LT(k + 1, need.size()) << "no middle window needs more power";
  const double cap = 0.5 * (before + need[k]);
  const double worst = *std::max_element(need.begin(), need.end());
  // The neediest window lies past k, so only a window the failed solve
  // never reached can supply the reported minimum.
  ASSERT_GT(worst, need[k]);

  for (const WindowThreads threads :
       {WindowThreads::kSerial, WindowThreads::kPerCpu}) {
    const WindowSweeper sweeper(g, kModel, kCluster);
    EXPECT_EQ(bits(sweeper.min_feasible_power()), bits(worst));
    // The first solve takes the constructor's formulations, the second
    // builds its own; both stop at window k.
    for (int pass = 0; pass < 2; ++pass) {
      const WindowedLpResult res = sweeper.solve({.power_cap = cap}, threads);
      EXPECT_EQ(res.status, lp::SolveStatus::kInfeasible) << pass;
      EXPECT_EQ(res.failed_window, static_cast<int>(k)) << pass;
      EXPECT_EQ(bits(res.min_feasible_power), bits(worst)) << pass;
    }
  }
}

TEST(ParallelWindows, OnDemandFormulationsMatchTheConstructorOnes) {
  // A sweeper's first solve reuses the formulations its constructor built;
  // later solves build fresh ones. Same cap, cold both times: the results
  // must be bit-identical, frontiers included.
  const dag::TaskGraph g = apps::make_lulesh({.ranks = 4, .iterations = 5});
  for (const WindowThreads threads :
       {WindowThreads::kSerial, WindowThreads::kPerCpu}) {
    const WindowSweeper sweeper(g, kModel, kCluster);
    const LpScheduleOptions o{.power_cap = 4 * 50.0};
    const WindowedLpResult first = sweeper.solve(o, threads);
    ASSERT_TRUE(first.optimal());
    sweeper.clear_warm_starts();
    const WindowedLpResult again = sweeper.solve(o, threads);
    expect_identical(first, again);
  }
}

TEST(ParallelWindows, ExpiredDeadlineFailsTheFirstWindow) {
  const dag::TaskGraph g = apps::make_comd({.ranks = 4, .iterations = 6});
  const WindowSweeper sweeper(g, kModel, kCluster);
  LpScheduleOptions o{.power_cap = 4 * 50.0};
  o.simplex.deadline = util::Deadline::after(0.0);
  const WindowedLpResult a = sweeper.solve(o, WindowThreads::kSerial);
  const WindowedLpResult b = sweeper.solve(o, WindowThreads::kPerCpu);
  EXPECT_EQ(a.status, lp::SolveStatus::kDeadlineExceeded);
  EXPECT_EQ(a.failed_window, 0);
  expect_identical(a, b);
}

TEST(ParallelWindows, ThrowingWindowReachesTheCaller) {
  const dag::TaskGraph g = apps::make_comd({.ranks = 4, .iterations = 6});
  const WindowSweeper sweeper(g, kModel, kCluster);
  // Windows 2 and 4 throw; the caller must see window 2's exception, as
  // the serial loop would, and never std::terminate.
  std::vector<double> span;
  for (const dag::Window& win : dag::split_at_barriers(g)) {
    span.push_back(
        LpFormulation(win.graph, kModel, kCluster).unconstrained_makespan());
  }
  for (const std::size_t bad : {2u, 4u}) {
    ASSERT_EQ(std::count(span.begin(), span.end(), span[bad]), 1) << bad;
  }
  for (const WindowThreads threads :
       {WindowThreads::kSerial, WindowThreads::kPerCpu}) {
    const auto make = [&](const LpFormulation& form) {
      LpScheduleOptions o{.power_cap = 4 * 50.0};
      for (const std::size_t bad : {2u, 4u}) {
        if (form.unconstrained_makespan() == span[bad]) {
          o.mutate_model = [bad](lp::Model&) {
            throw std::runtime_error("window " + std::to_string(bad));
          };
        }
      }
      return o;
    };
    try {
      (void)sweeper.solve(make, threads);
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "window 2");
    }
  }
}

}  // namespace
}  // namespace powerlim::core

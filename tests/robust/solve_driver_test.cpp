// SolveDriver behavior on healthy inputs: clean solves, pre-checks,
// report structure. Ladder-under-fault behavior lives in
// fault_injection_test.cpp.
#include "robust/solve_driver.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <regex>
#include <stdexcept>
#include <string>
#include <utility>

#include "apps/benchmarks.h"
#include "core/windowed.h"
#include "dag/windows.h"
#include "machine/power_model.h"
#include "robust/fault_injection.h"

namespace powerlim::robust {
namespace {

const machine::PowerModel kModel{machine::SocketSpec{}};
const machine::ClusterSpec kCluster{};

dag::TaskGraph small_graph() {
  return apps::make_comd({.ranks = 2, .iterations = 3, .seed = 17});
}

TEST(SolveDriver, CleanSolveIsOkOnFirstRung) {
  const dag::TaskGraph g = small_graph();
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome res = driver.solve(2 * 60.0);
  ASSERT_TRUE(res.ok()) << res.report.detail;
  ASSERT_EQ(res.report.attempts.size(), 1u);
  EXPECT_EQ(res.report.attempts[0].rung, "warm");
  EXPECT_EQ(res.report.attempts[0].outcome, StatusCode::kOk);
  EXPECT_FALSE(res.report.attempts[0].injected);
  EXPECT_GT(res.report.attempts[0].iterations, 0);
  EXPECT_FALSE(res.report.degraded);
  EXPECT_GT(res.report.bound_seconds, 0.0);
  EXPECT_TRUE(res.report.usable());

  // The driver's bound is the plain windowed solve's bound.
  const auto plain =
      core::solve_windowed_lp(g, kModel, kCluster, {.power_cap = 2 * 60.0});
  ASSERT_TRUE(plain.optimal());
  EXPECT_NEAR(res.report.bound_seconds, plain.makespan,
              1e-9 * plain.makespan);
}

TEST(SolveDriver, ReplayValidationRunsAndPasses) {
  const dag::TaskGraph g = small_graph();
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome res = driver.solve(2 * 55.0);
  ASSERT_TRUE(res.ok()) << res.report.detail;
  EXPECT_TRUE(res.report.replay.checked);
  EXPECT_TRUE(res.report.replay.check.ok);
  EXPECT_GT(res.report.replay.check.max_windowed_power, 0.0);
  ASSERT_TRUE(res.simulated.has_value());
  EXPECT_GT(res.simulated->makespan, 0.0);
}

TEST(SolveDriver, InfeasibleCapIsTerminalWithoutLadder) {
  const dag::TaskGraph g = small_graph();
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome res = driver.solve(2 * 5.0);  // far below idle
  EXPECT_EQ(res.report.verdict, StatusCode::kInfeasibleCap);
  EXPECT_TRUE(res.report.attempts.empty());  // pre-check, no solve burned
  EXPECT_FALSE(res.report.degraded);
  EXPECT_FALSE(res.report.usable());
  EXPECT_NE(res.report.detail.find("needs at least"), std::string::npos);
  EXPECT_GT(res.report.min_feasible_power_watts, 0.0);
}

TEST(SolveDriver, NonFiniteAndNonPositiveCapsAreBadInput) {
  const dag::TaskGraph g = small_graph();
  const SolveDriver driver(g, kModel, kCluster);
  for (const double cap : {std::nan(""), -10.0, 0.0}) {
    const SolveOutcome res = driver.solve(cap);
    EXPECT_EQ(res.report.verdict, StatusCode::kBadInput) << cap;
    EXPECT_FALSE(res.report.usable()) << cap;
  }
}

TEST(SolveDriver, SweepReturnsOneOutcomePerCapInOrder) {
  const dag::TaskGraph g = small_graph();
  const SolveDriver driver(g, kModel, kCluster);
  const std::vector<double> caps = {2 * 10.0, 2 * 45.0, 2 * 60.0};
  const auto outcomes = driver.sweep(caps);
  ASSERT_EQ(outcomes.size(), caps.size());
  for (std::size_t i = 0; i < caps.size(); ++i) {
    EXPECT_DOUBLE_EQ(outcomes[i].report.job_cap_watts, caps[i]);
  }
  EXPECT_EQ(outcomes[0].report.verdict, StatusCode::kInfeasibleCap);
  EXPECT_TRUE(outcomes[1].ok());
  EXPECT_TRUE(outcomes[2].ok());
  // Higher cap, no worse bound.
  EXPECT_LE(outcomes[2].report.bound_seconds,
            outcomes[1].report.bound_seconds + 1e-9);
}

TEST(SolveDriver, RepeatedSolvesWarmStartAndAgree) {
  const dag::TaskGraph g = small_graph();
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome first = driver.solve(2 * 50.0);
  const SolveOutcome second = driver.solve(2 * 50.0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(first.report.bound_seconds, second.report.bound_seconds);
  // The warm-started re-solve must not be more expensive than cold.
  EXPECT_LE(second.report.attempts[0].iterations,
            first.report.attempts[0].iterations);
}

TEST(SolveDriver, ReportSerializesToJson) {
  const dag::TaskGraph g = small_graph();
  const SolveDriver driver(g, kModel, kCluster);
  const SolveOutcome res = driver.solve(2 * 60.0);
  ASSERT_TRUE(res.ok());
  const std::string json = res.report.to_json();
  for (const char* needle :
       {"\"job_cap_watts\":", "\"verdict\":\"ok\"", "\"rung\":\"warm\"",
        "\"outcome\":\"ok\"", "\"iterations\":", "\"degenerate_pivots\":",
        "\"refactor_count\":", "\"bland_engaged\":",
        "\"primal_infeasibility\":", "\"replay\":{\"checked\":true",
        "\"degraded\":false"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }
}

TEST(SolveDriver, ReportsToJsonMakesAnArray) {
  const dag::TaskGraph g = small_graph();
  const SolveDriver driver(g, kModel, kCluster);
  std::vector<RunReport> reports;
  for (const auto& o : driver.sweep({2 * 10.0, 2 * 60.0})) {
    reports.push_back(o.report);
  }
  const std::string json = reports_to_json(reports);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"verdict\":\"infeasible-cap\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"ok\""), std::string::npos);
}

// --- Parallel windows: a single bound's report is the serial one ---

/// The report minus its only timing field.
std::string without_wall(const RunReport& rep) {
  return std::regex_replace(rep.to_json(), std::regex("\"wall_ms\":[^,]*,"),
                            "");
}

/// Solves `cap` with serial and with per-CPU windows; the RunReports must
/// match byte for byte (modulo wall_ms) and the bounds bit for bit.
std::pair<SolveOutcome, SolveOutcome> solve_both(const dag::TaskGraph& g,
                                                 double cap,
                                                 SolveDriverOptions opt = {}) {
  opt.window_threads = core::WindowThreads::kSerial;
  const SolveOutcome serial = SolveDriver(g, kModel, kCluster, opt).solve(cap);
  opt.window_threads = core::WindowThreads::kPerCpu;
  const SolveOutcome wide = SolveDriver(g, kModel, kCluster, opt).solve(cap);
  EXPECT_EQ(without_wall(serial.report), without_wall(wide.report));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.report.bound_seconds),
            std::bit_cast<std::uint64_t>(wide.report.bound_seconds));
  return {serial, wide};
}

TEST(ParallelWindows, ReportMatchesSerialOnFourApps) {
  const std::vector<std::pair<const char*, dag::TaskGraph>> apps = {
      {"comd", apps::make_comd({.ranks = 4, .iterations = 6})},
      {"lulesh", apps::make_lulesh({.ranks = 4, .iterations = 5})},
      {"sp", apps::make_sp({.ranks = 4, .iterations = 5})},
      {"bt", apps::make_bt({.ranks = 4, .iterations = 5})}};
  for (const auto& [name, g] : apps) {
    SCOPED_TRACE(name);
    const auto [serial, wide] = solve_both(g, 4 * 55.0);
    EXPECT_TRUE(serial.ok()) << serial.report.detail;
    EXPECT_TRUE(serial.report.certificate.ok);
  }
}

TEST(ParallelWindows, ExpiredDeadlineMatchesSerial) {
  SolveDriverOptions opt;
  opt.deadline = util::Deadline::after(0.0);
  const auto [serial, wide] =
      solve_both(apps::make_comd({.ranks = 4, .iterations = 6}), 4 * 50.0,
                 opt);
  EXPECT_EQ(serial.report.verdict, StatusCode::kDeadlineExceeded);
}

TEST(ParallelWindows, CoefficientNoiseMatchesSerial) {
  FaultPlan plan;
  plan.seed = 11;
  plan.coefficient_noise_magnitude = 8.0;
  const ScopedFaultPlan scope(plan);
  const auto [serial, wide] =
      solve_both(apps::make_comd({.ranks = 4, .iterations = 6}), 4 * 60.0);
  EXPECT_TRUE(serial.report.fault_active);
}

TEST(ParallelWindows, ThrowingWindowDegradesLikeSerial) {
  // Every window whose LP has as many rows as window 2's throws, naming
  // its own coefficients; the attempt must record the lowest such window's
  // message, as the serial loop does, instead of std::terminate.
  const dag::TaskGraph g = apps::make_comd({.ranks = 4, .iterations = 6});
  const double cap = 4 * 55.0;
  const std::vector<dag::Window> windows = dag::split_at_barriers(g);
  ASSERT_GT(windows.size(), 3u);
  const std::size_t rows = core::LpFormulation(windows[2].graph, kModel,
                                               kCluster)
                               .build_model({.power_cap = cap})
                               .model.num_constraints();
  SolveDriverOptions opt;
  opt.lp.mutate_model = [rows](lp::Model& m) {
    if (m.num_constraints() != rows) return;
    double sum = 0.0;
    for (std::size_t i = 0; i < m.num_constraints(); ++i) {
      const lp::Model::RowView row = m.row(static_cast<int>(i));
      for (std::size_t t = 0; t < row.size; ++t) sum += row.coeff[t];
    }
    throw std::runtime_error("boom " + std::to_string(sum));
  };
  const auto [serial, wide] = solve_both(g, cap, opt);
  ASSERT_FALSE(serial.report.attempts.empty());
  EXPECT_EQ(serial.report.attempts[0].outcome, StatusCode::kInternal);
  EXPECT_EQ(serial.report.attempts[0].detail.rfind("boom ", 0), 0u);
  EXPECT_TRUE(serial.report.degraded);
}

TEST(ParallelWindows, CertificateFailureMatchesSerial) {
  FaultPlan plan;
  plan.corrupt_solution_epsilon = 1e-3;
  const ScopedFaultPlan scope(plan);
  const auto [serial, wide] =
      solve_both(apps::make_comd({.ranks = 4, .iterations = 6}), 4 * 55.0);
  EXPECT_EQ(serial.report.verdict, StatusCode::kCertificateFailed);
  EXPECT_TRUE(serial.report.certificate.checked);
  EXPECT_FALSE(serial.report.certificate.ok);
  EXPECT_FALSE(serial.report.certificate.detail.empty());
  EXPECT_EQ(serial.report.certificate.detail, wide.report.certificate.detail);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.report.certificate.max_violation),
            std::bit_cast<std::uint64_t>(wide.report.certificate.max_violation));
}

}  // namespace
}  // namespace powerlim::robust

// Shared pieces of the powerlim end-to-end benchmark: run configuration,
// the span tracer, the metric sink, and small statistics helpers.
//
// The benchmark drives powerlim only through the public functions of its
// modules (dag, check, core, lp, sim, robust, serve). Every timing the
// traced run reports is a span recorded here, around such a call; the
// program itself is never instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dag/graph.h"
#include "machine/machine.h"
#include "machine/power_model.h"

namespace powerbench {

namespace dag = powerlim::dag;
namespace machine = powerlim::machine;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Everything one run needs, from the command line. The workload
/// parameters are constants of each workload (workloads.cpp).
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Work directory inside the checkout (daemon state, journals).
  std::string work_dir;
};

/// Per-run accounting of operations and output checks.
struct Tally {
  long attempted = 0;
  /// Operations whose output check failed or that errored outright.
  long failed = 0;
  /// Operations that ended certified ok (verdict ok, certificate and
  /// replay both passed).
  long certified = 0;
  /// Certified operations that also met the latency limit.
  long good = 0;
  /// First few check failures, echoed to stderr.
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    ++failed;
    if (problems.size() < 8) problems.push_back(why);
  }
};

/// Ordered name -> (value, unit) metric sink.
struct Metrics {
  std::vector<std::string> order;
  std::map<std::string, std::pair<double, std::string>> values;

  void set(const std::string& name, double value, const std::string& unit) {
    if (!values.count(name)) order.push_back(name);
    values[name] = {value, unit};
  }
};

// ---------------------------------------------------------------------------
// Tracing.

/// One timed call: name, start/end (ms since the tracer's epoch), the
/// span that enclosed it (-1: none) and the operation it served (-1:
/// set-up / not tied to one operation).
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  long request = -1;
  double duration() const { return end_ms - start_ms; }
};

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per call; spans are kept until the run ends and summarized
/// there (self time = duration minus the time covered by child spans).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Opens a span nested in the innermost open one.
  int begin(const std::string& name, long request = -1);
  void end(int id);

  /// Stores a span timed elsewhere (e.g. by a client thread), with
  /// start/end given in ms after `base`.
  void record(const std::string& name, Clock::time_point base,
              double start_ms, double end_ms, long request);

  /// Per span name: calls, total time, and self time (duration minus
  /// the time covered by child spans).
  struct Summary {
    int count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Summary> summarize() const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, long request = -1)
      : t_(t), id_(t.enabled() ? t.begin(name, request) : -1) {}
  ~Scope() {
    if (id_ >= 0) t_.end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// A Scope that also adds its wall time to `*acc` (works whether or not
/// the tracer records).
class Timed {
 public:
  Timed(Tracer& t, const std::string& name, double* acc, long request = -1)
      : scope_(t, name, request), acc_(acc), t0_(Clock::now()) {}
  ~Timed() { *acc_ += ms_between(t0_, Clock::now()); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Scope scope_;
  double* acc_;
  Clock::time_point t0_;
};

// ---------------------------------------------------------------------------
// Statistics.

/// Linear-interpolated percentile (q in [0, 100]); 0 for no samples.
double percentile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 50.0);
}

/// Peak resident set so far of this process or any waited-for
/// descendant, MB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Shared model and checks.

const machine::PowerModel& power_model();
const machine::ClusterSpec& cluster();

/// The RunReport JSON with designated telemetry neutralized (timings,
/// solver counters, worker/transport/service blocks), so rows produced
/// on different paths compare byte for byte.
std::string strip_telemetry(const std::string& report_json);

/// True when a report JSON proves a passed certificate and a valid
/// replay (what every `ok` row must carry).
bool report_certified(const std::string& report_json);

/// First integer/real field `key` in a report JSON (0 when absent).
double json_number(const std::string& json, const std::string& key,
                   std::size_t from = 0);

/// Result of the traced per-layer decomposition of a set of caps on one
/// trace (layers.cpp). Counts and times are totals over the solved caps;
/// caps whose rebuild did not finish only count in `caps`/`unsolved`.
struct LayerTotals {
  int caps = 0;
  /// Caps whose rebuilt solve did not finish (deadline or failure).
  int unsolved = 0;
  long pivots = 0;
  long refactors = 0;
  long degenerate = 0;
  /// Per-window LP model builds (core::LpFormulation::build_model).
  double model_ms = 0.0;
  double solve_ms = 0.0;
  double pricing_ms = 0.0;
  double ftran_ms = 0.0;
  double btran_ms = 0.0;
  double ratio_ms = 0.0;
  double update_ms = 0.0;
  double factor_ms = 0.0;
  double certificate_ms = 0.0;
  double replay_ms = 0.0;
  int replay_violations = 0;
  /// Cold pivots per cap (keyed by job cap), for warm/cold ratios.
  std::map<double, long> cold_pivots;
  /// Rebuilt makespan per cap (optimal caps only).
  std::map<double, double> makespan;
  /// Per cap: lp solve + replay + certificate ms, the children of one
  /// SolveDriver::solve.
  std::map<double, double> child_ms;

  /// Adds the totals of `o` (not its per-cap maps: caps of different
  /// traces share job-cap values).
  void add(const LayerTotals& o);
};

/// Parses `trace_text` and lints it the way `powerlim bound` does,
/// under spans "dag.parse" and "check.lint", adding their wall times to
/// `*parse_ms` / `*lint_ms`; returns the graph.
dag::TaskGraph parse_and_lint(Tracer& tr, const std::string& trace_text,
                              double* parse_ms, double* lint_ms);

/// Re-solves each cap of `graph` cold, one window at a time, through
/// dag::split_at_barriers -> core::LpFormulation::build_model ->
/// lp::solve_lp (collect_timing), then certifies and replays the
/// stitched result - the same work SolveDriver does, exposed layer by
/// layer. Caps whose rebuild does not finish within `deadline_ms` are
/// counted in `caps` but contribute no pivots.
LayerTotals rebuild_layers(Tracer& tr, const dag::TaskGraph& graph,
                           const std::vector<double>& job_caps,
                           double deadline_ms);

}  // namespace powerbench

// powerbench: the powerlim end-to-end benchmark driver.
//
//   powerbench --workload NAME --seed N --seconds S --trace 0|1
//              --work-dir DIR
//
// --trace 0 measures the workload and prints its end-to-end metrics.
// --trace 1 measures it twice, untraced and traced, then decomposes the
// same work layer by layer; it prints the per-layer metrics and the
// tracing overhead (traced minus untraced). Either way the last stdout
// line is one JSON object: correct, attempted, failed, metrics.
// run.py builds this binary and runs it with a work directory under
// .bench_run/ in the checkout.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"
#include "workloads.h"

using namespace powerbench;

namespace {

/// Every per-layer metric, with its unit. A workload that bypasses a
/// layer reports that layer's metrics as 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"dag.parse_ms", "ms"},
    {"dag.windows", "count"},
    {"check.lint_ms", "ms"},
    {"core.build_ms", "ms"},
    {"core.build_model_ms", "ms"},
    {"lp.solve_ms", "ms"},
    {"lp.pivots", "count"},
    {"lp.refactors", "count"},
    {"lp.degenerate_pivots", "count"},
    {"lp.us_per_pivot", "us"},
    {"lp.pricing_ms", "ms"},
    {"lp.ftran_ms", "ms"},
    {"lp.btran_ms", "ms"},
    {"lp.ratio_ms", "ms"},
    {"lp.update_ms", "ms"},
    {"lp.factor_ms", "ms"},
    {"lp.warm_pivot_ratio", "ratio"},
    {"check.certificate_ms", "ms"},
    {"sim.replay_ms", "ms"},
    {"sim.replay_violations", "count"},
    {"degraded_fraction", "ratio"},
    {"robust.ladder_attempts", "count"},
    {"robust.first_rung_fraction", "ratio"},
    {"robust.driver_self_ms", "ms"},
    {"robust.journal_append_ms", "ms"},
    {"robust.fanout_overhead_ms", "ms"},
    {"robust.remote_fraction", "ratio"},
    {"robust.certificate_rejects", "count"},
    {"serve.daemon_total_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.executor_ms", "ms"},
    {"serve.transport_ms", "ms"},
    {"serve.hit_p50_ms", "ms"},
    {"serve.fresh_p50_ms", "ms"},
    {"serve.overloaded", "count"},
    {"serve.errors", "count"},
    {"serve.gen_lag_ms", "ms"},
    {"batch_s", "s"},
    {"trace.overhead_batch_pct", "%"},
    {"trace.overhead_op_p50_pct", "%"},
    {"trace.spans", "count"},
};

Config parse_args(int argc, char** argv) {
  Config c;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") c.workload = v;
    else if (k == "--seed") c.seed = std::stoull(v);
    else if (k == "--seconds") c.seconds = std::stod(v);
    else if (k == "--trace") c.trace = v == "1";
    else if (k == "--work-dir") c.work_dir = v;
    else throw std::invalid_argument("unknown option " + k);
  }
  if (c.workload.empty() || c.work_dir.empty() || c.seconds <= 0) {
    throw std::invalid_argument("need --workload, --work-dir, --seconds > 0");
  }
  return c;
}

Metrics end_to_end(const Outcome& o) {
  Metrics m;
  const double n = static_cast<double>(std::max(1L, o.tally.attempted));
  m.set("setup_s", median(o.setup_s), "s");
  m.set("op_p50_ms", percentile(o.op_ms, 50.0), "ms");
  m.set("op_tail_ms", percentile(o.op_ms, o.tail_q), "ms");
  m.set("certified_fraction", o.tally.certified / n, "ratio");
  m.set("goodput_fraction", o.tally.good / n, "ratio");
  m.set("peak_rss_mb", o.peak_rss_mb, "MB");
  return m;
}

double pct_change(double traced, double base) {
  return base > 0 ? 100.0 * (traced - base) / base : 0.0;
}

void print_result(bool correct, long attempted, long failed,
                  const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < m.order.size(); ++i) {
    const auto& [value, unit] = m.values.at(m.order[i]);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.order[i].c_str(),
                std::isfinite(value) ? value : 0.0, unit.c_str());
  }
  std::printf("}}\n");
}

/// The traced run's span table, to stderr: calls, total and self ms.
void report_spans(const Tracer& tracer) {
  std::fprintf(stderr, "%-28s %8s %12s %12s\n", "span", "calls", "total_ms",
               "self_ms");
  for (const auto& [name, s] : tracer.summarize()) {
    std::fprintf(stderr, "%-28s %8d %12.3f %12.3f\n", name.c_str(), s.count,
                 s.total_ms, s.self_ms);
  }
}

void report_problems(const Outcome& o) {
  for (const std::string& p : o.tally.problems) {
    std::cerr << "check failed: " << p << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config cfg = parse_args(argc, argv);
    std::filesystem::create_directories(cfg.work_dir);
    Tracer untraced(false);
    const Outcome base = run_workload(cfg, untraced, nullptr);
    report_problems(base);
    long attempted = base.tally.attempted;
    long failed = base.tally.failed;
    Metrics out = end_to_end(base);
    if (cfg.trace) {
      Tracer tracer(true);
      Metrics layers;
      for (const auto& [name, unit] : kLayerMetrics) layers.set(name, 0, unit);
      const Outcome traced = run_workload(cfg, tracer, &layers);
      report_problems(traced);
      attempted += traced.tally.attempted;
      failed += traced.tally.failed;
      Metrics e2e = end_to_end(traced);
      layers.set("degraded_fraction",
                 1.0 - e2e.values["certified_fraction"].first, "ratio");
      // The untraced batch wall: on paper-sweep its seed spread (how many
      // LULESH caps run into their deadline) is wider than a bound could
      // hold, so it is reported here rather than as an end-to-end metric.
      layers.set("batch_s", median(base.batch_s), "s");
      layers.set("trace.overhead_batch_pct",
                 pct_change(median(traced.batch_s), median(base.batch_s)),
                 "%");
      layers.set("trace.overhead_op_p50_pct",
                 pct_change(e2e.values["op_p50_ms"].first,
                            out.values["op_p50_ms"].first),
                 "%");
      layers.set("trace.spans", static_cast<double>(tracer.spans().size()),
                 "count");
      report_spans(tracer);
      out = layers;
    }
    std::filesystem::remove_all(cfg.work_dir);
    print_result(failed == 0, attempted, failed, out);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "powerbench: " << e.what() << "\n";
    return 1;
  }
}

// Workload entry point (workloads.cpp).
#pragma once

#include <vector>

#include "bench.h"

namespace powerbench {

/// What one measured phase of a workload produced.
struct Outcome {
  /// Wall of each set-up repetition, s.
  std::vector<double> setup_s;
  /// Wall of each batch: one bound, one paper sweep, one fan-out sweep,
  /// or (serve-mix) the whole open-loop schedule, s.
  std::vector<double> batch_s;
  /// Latency of each operation (bound / cap / request), ms.
  std::vector<double> op_ms;
  /// Percentile reported as op_tail_ms.
  double tail_q = 75.0;
  /// peak_rss_mb() when the measured phase ended, before any reference
  /// computation of the output checks.
  double peak_rss_mb = 0.0;
  Tally tally;
};

/// Runs `cfg.workload` once. With a non-null `layers`, also runs the
/// traced per-layer decomposition and stores its metrics there.
Outcome run_workload(const Config& cfg, Tracer& tr, Metrics* layers);

}  // namespace powerbench

// powerlint: allow-file(float-in-exact) -- this TU converts solver doubles to Dyadic at its edges (from_double on ingest, to_double only for report text); the comparison path is exact throughout
#include "check/certificate.h"

#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "check/rational.h"
#include "core/lp_formulation.h"
#include "dag/windows.h"
#include "lp/model.h"
#include "util/parallel.h"

namespace powerlim::check {

namespace {

using core::LpFormulation;

/// Fixed rule order so reports are deterministic.
const char* const kRules[] = {"structure",      "frontier-membership",
                              "share-weights",  "precedence",
                              "event-cap",      "event-order",
                              "objective",      "weak-duality"};

/// Aggregates per-rule verdicts across windows.
class Rules {
 public:
  Rules() {
    for (const char* rule : kRules) checks_.push_back({rule, true, 0.0, ""});
  }

  void fail(const std::string& rule, double violation, std::string detail) {
    CertificateCheck& c = find(rule);
    if (c.ok || violation > c.violation) c.violation = violation;
    if (c.ok) c.detail = std::move(detail);
    c.ok = false;
  }

  bool ok(const std::string& rule) { return find(rule).ok; }

  CertificateVerdict finish(bool duality_checked, double duality_gap) {
    CertificateVerdict v;
    v.checked = true;
    v.duality_checked = duality_checked;
    v.duality_gap = duality_gap;
    v.ok = true;
    for (CertificateCheck& c : checks_) {
      if (!c.ok) {
        if (v.detail.empty()) v.detail = "[" + c.rule + "] " + c.detail;
        v.ok = false;
      }
      if (c.rule != "weak-duality") {
        v.max_violation = std::max(v.max_violation, c.violation);
      }
    }
    v.checks = std::move(checks_);
    return v;
  }

 private:
  CertificateCheck& find(const std::string& rule) {
    for (CertificateCheck& c : checks_) {
      if (c.rule == rule) return c;
    }
    checks_.push_back({rule, true, 0.0, ""});
    return checks_.back();
  }

  std::vector<CertificateCheck> checks_;
};

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

bool same_config(const machine::Config& a, const machine::Config& b) {
  // Bitwise-equal doubles: both sides come from the same deterministic
  // model evaluation, so any difference means tampering or corruption.
  return a.ghz == b.ghz && a.threads == b.threads &&
         a.duration == b.duration && a.power == b.power;
}

/// One rule failure found by a window's checks.
struct Failure {
  std::string rule;
  double violation = 0.0;
  std::string detail;
};

/// What the checks of one window found. Filled on any thread, then merged
/// into the verdict in window order, so the verdict is the serial one.
struct WindowFindings {
  /// Failures in check order (weak-duality ones last).
  std::vector<Failure> failures;
  /// The solver supplied duals for this window.
  bool has_duals = false;
  /// The window's Lagrangian bound was computed: `gap` and `obj` count
  /// toward the whole-trace duality gap.
  bool duality_bounded = false;
  Dyadic gap;
  Dyadic obj;

  void fail(std::string rule, double violation, std::string detail) {
    failures.push_back({std::move(rule), violation, std::move(detail)});
  }
};

}  // namespace

struct CertificateChecker::Impl {
  const dag::TaskGraph* graph;
  const machine::PowerModel* model;
  const machine::ClusterSpec* cluster;
  CertificateOptions options;
  std::vector<dag::Window> windows;

  /// Checks window `w` of `result`: frontier membership, share weights,
  /// precedence, event cap and order, and that window's weak duality.
  /// Builds its own hook-free formulation of the window (frontiers and
  /// event order re-derived from the machine model) and reads only that
  /// and `result`, so windows may be checked on any thread.
  WindowFindings check_window(std::size_t w,
                              const core::WindowedLpResult& result,
                              const Dyadic& tol, const Dyadic& cap,
                              double effective_cap_watts) const;
};

WindowFindings CertificateChecker::Impl::check_window(
    std::size_t w, const core::WindowedLpResult& result, const Dyadic& tol,
    const Dyadic& cap, double effective_cap_watts) const {
  const Dyadic zero;
  WindowFindings f;
  const dag::Window& win = windows[w];
  const LpFormulation form(win.graph, *model, *cluster);

  // Blended per-edge duration and power (by window edge id), recomputed
  // exactly from the independent frontiers (never from
  // result.schedule.duration/power).
  std::vector<Dyadic> edge_duration(win.graph.num_edges());
  std::vector<Dyadic> edge_power(win.graph.num_edges());

  // Frontier membership + share weights + blended values per edge.
  for (std::size_t we = 0; we < win.graph.num_edges(); ++we) {
    const int orig = win.edge_map[we];
    const dag::Edge& e = graph->edge(orig);
    const std::vector<machine::Config>& truth = form.frontiers()[we];
    const std::vector<machine::Config>& claimed = result.frontiers[orig];
    if (!e.is_task()) {
      edge_duration[we] =
          Dyadic::from_double(cluster->message_seconds(e.bytes));
      continue;
    }
    if (claimed.size() != truth.size()) {
      f.fail("frontier-membership",
             std::abs(static_cast<double>(claimed.size()) -
                      static_cast<double>(truth.size())),
             "task " + std::to_string(orig) + " frontier has " +
                 std::to_string(claimed.size()) + " points, expected " +
                 std::to_string(truth.size()));
    } else {
      for (std::size_t k = 0; k < truth.size(); ++k) {
        if (!same_config(claimed[k], truth[k])) {
          f.fail("frontier-membership", 0.0,
                 "task " + std::to_string(orig) + " frontier point " +
                     std::to_string(k) +
                     " differs from the machine model's frontier");
          break;
        }
      }
    }

    Dyadic sum;
    Dyadic dur;
    Dyadic pow;
    bool shares_ok = true;
    for (const core::ConfigShare& s : result.schedule.shares[orig]) {
      if (s.config_index < 0 ||
          s.config_index >= static_cast<int>(truth.size())) {
        f.fail("share-weights", 0.0,
               "task " + std::to_string(orig) +
                   " references config index " +
                   std::to_string(s.config_index) +
                   " outside its frontier");
        shares_ok = false;
        break;
      }
      if (!std::isfinite(s.fraction)) {
        f.fail("share-weights", 0.0,
               "task " + std::to_string(orig) +
                   " has a non-finite share fraction");
        shares_ok = false;
        break;
      }
      const Dyadic frac = Dyadic::from_double(s.fraction);
      if (frac < zero - tol || frac > Dyadic::from_int(1) + tol) {
        f.fail("share-weights", std::abs(s.fraction),
               "task " + std::to_string(orig) +
                   " share fraction " + fmt(s.fraction) +
                   " outside [0, 1]");
      }
      sum += frac;
      const machine::Config& cfg = truth[s.config_index];
      dur += frac * Dyadic::from_double(cfg.duration);
      pow += frac * Dyadic::from_double(cfg.power);
    }
    if (!shares_ok) continue;
    const Dyadic dev = (sum - Dyadic::from_int(1)).abs();
    if (result.schedule.shares[orig].empty() || dev > tol) {
      f.fail("share-weights", dev.to_double(),
             "task " + std::to_string(orig) +
                 " share weights sum to " + fmt(sum.to_double()) +
                 ", not 1");
    }
    edge_duration[we] = dur;
    edge_power[we] = pow;
  }

  // Precedence: v_dst - v_src >= blended duration, for every edge.
  for (std::size_t we = 0; we < win.graph.num_edges(); ++we) {
    const int orig = win.edge_map[we];
    const dag::Edge& e = graph->edge(orig);
    const Dyadic lhs = Dyadic::from_double(result.vertex_time[e.dst]) -
                       Dyadic::from_double(result.vertex_time[e.src]);
    const Dyadic slack = lhs - edge_duration[we];
    if (slack < -tol) {
      f.fail("precedence", (-slack).to_double(),
             (e.is_task() ? "task " : "message ") +
                 std::to_string(orig) + " finishes " +
                 fmt((-slack).to_double()) +
                 " s before its duration allows");
    }
  }

  // Power cap at every event: the task-activity sets are re-derived by
  // this checker's own formulation of the window.
  const core::EventOrder& events = form.events();
  for (std::size_t g = 0; g < events.num_groups(); ++g) {
    Dyadic total;
    for (int weid : events.active_tasks[g]) {
      total += edge_power[weid];
    }
    const Dyadic excess = total - cap;
    if (excess > tol) {
      f.fail("event-cap", excess.to_double(),
             "window " + std::to_string(w) + " event " +
                 std::to_string(g) + " draws " +
                 fmt(total.to_double()) + " W, " +
                 fmt(excess.to_double()) + " W over the cap");
    }
  }

  // Event order: group leaders non-decreasing, members pinned to their
  // leader, nothing before the window's start.
  const Dyadic offset = Dyadic::from_double(
      result.vertex_time[win.vertex_map[win.graph.init_vertex()]]);
  Dyadic prev_leader;
  for (std::size_t g = 0; g < events.num_groups(); ++g) {
    const Dyadic leader = Dyadic::from_double(
        result.vertex_time[win.vertex_map[events.groups[g].front()]]);
    if (g > 0 && leader < prev_leader - tol) {
      f.fail("event-order", (prev_leader - leader).to_double(),
             "window " + std::to_string(w) + " event " +
                 std::to_string(g) + " fires before its predecessor");
    }
    if (leader < offset - tol) {
      f.fail("event-order", (offset - leader).to_double(),
             "window " + std::to_string(w) + " event " +
                 std::to_string(g) + " fires before the window opens");
    }
    for (std::size_t m = 1; m < events.groups[g].size(); ++m) {
      const Dyadic member = Dyadic::from_double(
          result.vertex_time[win.vertex_map[events.groups[g][m]]]);
      if ((member - leader).abs() > tol) {
        f.fail("event-order", (member - leader).abs().to_double(),
               "window " + std::to_string(w) +
                   " simultaneous vertices drifted apart at event " +
                   std::to_string(g));
      }
    }
    prev_leader = leader;
  }

  // Weak duality for this window (LP solves only; see header).
  if (w >= result.window_duals.size() || result.window_duals[w].empty()) {
    return f;
  }
  f.has_duals = true;
  const std::vector<double>& duals = result.window_duals[w];
  core::LpScheduleOptions build_options;
  build_options.power_cap = effective_cap_watts;
  const core::BuiltModel built = form.build_model(build_options);
  const lp::Model& m = built.model;
  if (duals.size() != m.num_constraints()) {
    f.fail("weak-duality", 0.0,
           "window " + std::to_string(w) + " has " +
               std::to_string(duals.size()) +
               " duals for " + std::to_string(m.num_constraints()) +
               " constraint rows");
  } else {
    // Window-local primal point x: vertex times rebased to the
    // window, share fractions (absent shares are zero).
    std::vector<Dyadic> x(m.num_variables());
    for (std::size_t j = 0; j < built.vertex_var.size(); ++j) {
      x[built.vertex_var[j].index] =
          Dyadic::from_double(
              result.vertex_time[win.vertex_map[j]]) -
          offset;
    }
    for (std::size_t we = 0; we < win.graph.num_edges(); ++we) {
      const int orig = win.edge_map[we];
      for (const core::ConfigShare& s :
           result.schedule.shares[orig]) {
        if (s.config_index >= 0 &&
            s.config_index <
                static_cast<int>(built.share_var[we].size())) {
          x[built.share_var[we][s.config_index].index] =
              Dyadic::from_double(s.fraction);
        }
      }
    }
    Dyadic obj;
    std::vector<Dyadic> z(m.num_variables());
    for (std::size_t j = 0; j < m.num_variables(); ++j) {
      const double cj = m.objective_coeff(static_cast<int>(j));
      if (cj != 0.0) {
        const Dyadic d = Dyadic::from_double(cj);
        obj += d * x[j];
        z[j] = d;
      }
    }
    // g(y) = sum_i y_i * picked_row_bound + box-min of (c - A'y)'x.
    // Sign-inconsistent duals are zeroed: any multiplier vector gives
    // a valid Lagrangian bound, so sanitizing never produces a false
    // certificate - only (deservedly) a weak one.
    Dyadic g;
    for (std::size_t i = 0; i < m.num_constraints(); ++i) {
      double yi = duals[i];
      if (!std::isfinite(yi)) yi = 0.0;
      if (yi > 0.0 && !lp::is_finite_bound(m.row_lb(i))) yi = 0.0;
      if (yi < 0.0 && !lp::is_finite_bound(m.row_ub(i))) yi = 0.0;
      if (yi == 0.0) continue;
      const Dyadic y = Dyadic::from_double(yi);
      g += y * Dyadic::from_double(yi > 0.0 ? m.row_lb(i)
                                            : m.row_ub(i));
      const lp::Model::RowView row = m.row(static_cast<int>(i));
      for (std::size_t t = 0; t < row.size; ++t) {
        z[row.idx[t]] -= y * Dyadic::from_double(row.coeff[t]);
      }
    }
    // Vertex-time variables have no finite upper bound in the model,
    // but every feasible point keeps them at or below the Finalize
    // time (event-order rows), so boxing them at H > the claimed
    // window makespan preserves the optimum (FORMULATION.md).
    const double claimed_span =
        result.vertex_time[win.vertex_map[win.graph.finalize_vertex()]] -
        result.vertex_time[win.vertex_map[win.graph.init_vertex()]];
    const Dyadic box =
        Dyadic::from_double(2.0 * std::max(0.0, claimed_span) + 1.0);
    bool bound_ok = true;
    for (std::size_t j = 0; j < m.num_variables(); ++j) {
      const int s = z[j].sign();
      if (s == 0) continue;
      if (s > 0) {
        const double lb = m.variable_lb(static_cast<int>(j));
        if (!lp::is_finite_bound(lb)) {
          f.fail("weak-duality", 0.0,
                 "variable with infinite lower bound");
          bound_ok = false;
          break;
        }
        g += z[j] * Dyadic::from_double(lb);
      } else {
        const double ub = m.variable_ub(static_cast<int>(j));
        g += z[j] * (lp::is_finite_bound(ub) ? Dyadic::from_double(ub)
                                             : box);
      }
    }
    if (bound_ok) {
      Dyadic gap = obj - g;
      if (gap.sign() < 0) gap = Dyadic();
      f.duality_bounded = true;
      f.gap = gap;
      f.obj = obj;
    }
  }
  return f;
}

CertificateChecker::CertificateChecker(const dag::TaskGraph& graph,
                                       const machine::PowerModel& model,
                                       const machine::ClusterSpec& cluster,
                                       CertificateOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->graph = &graph;
  impl_->model = &model;
  impl_->cluster = &cluster;
  impl_->options = options;
  impl_->windows = dag::split_at_barriers(graph);
}

CertificateChecker::~CertificateChecker() = default;
CertificateChecker::CertificateChecker(CertificateChecker&&) noexcept =
    default;
CertificateChecker& CertificateChecker::operator=(
    CertificateChecker&&) noexcept = default;

CertificateVerdict CertificateChecker::verify(
    const core::WindowedLpResult& result, double job_cap_watts,
    double effective_cap_watts, core::WindowThreads threads) const {
  const Impl& im = *impl_;
  const dag::TaskGraph& graph = *im.graph;
  Rules rules;

  // Structure: the result must be shaped like this graph at all, or no
  // deeper check is meaningful.
  if (!result.optimal()) {
    rules.fail("structure", 0.0, "solution status is not optimal");
  }
  if (result.vertex_time.size() != graph.num_vertices() ||
      result.schedule.shares.size() != graph.num_edges() ||
      result.frontiers.size() != graph.num_edges()) {
    rules.fail("structure", 0.0,
               "solution arrays do not match the trace's shape");
  }
  for (double t : result.vertex_time) {
    if (!std::isfinite(t)) {
      rules.fail("structure", 0.0, "non-finite vertex time");
      break;
    }
  }
  if (!std::isfinite(result.makespan)) {
    rules.fail("structure", 0.0, "non-finite makespan");
  }
  if (!rules.ok("structure")) return rules.finish(false, 0.0);

  const Dyadic tol = Dyadic::from_double(im.options.feasibility_tol);
  const Dyadic cap = Dyadic::from_double(job_cap_watts);

  // Windows are checked independently (on several threads when asked)
  // and merged in window order. A window's weak-duality findings count
  // only while no earlier window failed that rule, as in a serial pass.
  bool duals_available = !result.window_duals.empty();
  Dyadic total_gap;
  Dyadic total_obj;
  std::vector<WindowFindings> found(im.windows.size());
  util::ordered_parallel_for(
      im.windows.size(), threads == core::WindowThreads::kPerCpu,
      [&](std::size_t w) {
        found[w] = im.check_window(w, result, tol, cap, effective_cap_watts);
        return true;
      },
      [&](std::size_t w) {
        const WindowFindings f = std::move(found[w]);
        const bool duality_live = rules.ok("weak-duality");
        for (const Failure& x : f.failures) {
          if (x.rule == "weak-duality" && !duality_live) continue;
          rules.fail(x.rule, x.violation, x.detail);
        }
        if (!f.has_duals) duals_available = false;
        if (duality_live && f.duality_bounded) {
          total_gap += f.gap;
          total_obj += f.obj;
        }
      });

  // Objective consistency: the reported makespan is the Finalize time,
  // and the job starts at t = 0.
  const Dyadic t_init =
      Dyadic::from_double(result.vertex_time[graph.init_vertex()]);
  if (t_init.abs() > tol) {
    rules.fail("objective", t_init.abs().to_double(),
               "Init fires at " + fmt(t_init.to_double()) + " s, not 0");
  }
  const Dyadic t_fin =
      Dyadic::from_double(result.vertex_time[graph.finalize_vertex()]);
  const Dyadic obj_dev =
      (Dyadic::from_double(result.makespan) - t_fin).abs();
  if (obj_dev > tol) {
    rules.fail("objective", obj_dev.to_double(),
               "reported makespan " + fmt(result.makespan) +
                   " s differs from the Finalize time " +
                   fmt(t_fin.to_double()) + " s");
  }

  // Aggregate weak duality across windows: the whole-trace bound is the
  // sum of window bounds, so gaps add.
  double rel_gap = 0.0;
  bool duality_checked = false;
  if (duals_available && rules.ok("weak-duality")) {
    duality_checked = true;
    const Dyadic scale =
        dyadic_max(Dyadic::from_int(1), total_obj.abs());
    const Dyadic limit =
        Dyadic::from_double(im.options.duality_gap_tol) * scale;
    const double scale_d = scale.to_double();
    rel_gap = scale_d > 0.0 ? total_gap.to_double() / scale_d : 0.0;
    if (total_gap > limit) {
      rules.fail("weak-duality", rel_gap,
                 "certified duality gap " + fmt(total_gap.to_double()) +
                     " s exceeds " + fmt(im.options.duality_gap_tol) +
                     " relative tolerance");
    }
  } else if (im.options.require_duals && rules.ok("weak-duality")) {
    rules.fail("weak-duality", 0.0,
               "solver provided no duals but require_duals is set");
  }

  return rules.finish(duality_checked, rel_gap);
}

CertificateVerdict verify_certificate(const dag::TaskGraph& graph,
                                      const machine::PowerModel& model,
                                      const machine::ClusterSpec& cluster,
                                      const core::WindowedLpResult& result,
                                      double job_cap_watts,
                                      const CertificateOptions& options) {
  const CertificateChecker checker(graph, model, cluster, options);
  return checker.verify(result, job_cap_watts, job_cap_watts);
}

}  // namespace powerlim::check

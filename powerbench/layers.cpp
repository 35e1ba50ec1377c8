// Tracer, statistics and the traced per-layer decomposition.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <regex>
#include <sstream>

#include "bench.h"
#include "check/certificate.h"
#include "check/lint.h"
#include "core/lp_formulation.h"
#include "core/schedule.h"
#include "dag/trace_io.h"
#include "dag/windows.h"
#include "lp/simplex.h"
#include "sim/replay.h"

namespace powerbench {

using namespace powerlim;

int Tracer::begin(const std::string& name, long request) {
  Span s;
  s.name = name;
  s.start_ms = ms_between(epoch_, Clock::now());
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[id].end_ms = ms_between(epoch_, Clock::now());
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::record(const std::string& name, Clock::time_point base,
                    double start_ms, double end_ms, long request) {
  if (!enabled_) return;
  const double offset = ms_between(epoch_, base);
  spans_.push_back({name, offset + start_ms, offset + end_ms, -1, request});
}

std::map<std::string, Tracer::Summary> Tracer::summarize() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[s.parent] += s.duration();
  }
  std::map<std::string, Summary> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Summary& sum = out[spans_[i].name];
    ++sum.count;
    sum.total_ms += spans_[i].duration();
    sum.self_ms += spans_[i].duration() - child[i];
  }
  return out;
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double peak_rss_mb() {
  struct rusage self = {};
  struct rusage kids = {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
         1024.0;
}

const machine::PowerModel& power_model() {
  static const machine::PowerModel m{machine::SocketSpec{}};
  return m;
}

const machine::ClusterSpec& cluster() {
  static const machine::ClusterSpec c;
  return c;
}

std::string strip_telemetry(const std::string& json) {
  static const std::vector<std::pair<std::regex, std::string>> kRules = {
      {std::regex("\"wall_ms\":[0-9.eE+-]+"), "\"wall_ms\":0"},
      {std::regex("\"(worker|transport|service)\":\\{[^}]*\\}"),
       "\"$1\":{}"},
      {std::regex("\"(iterations|degenerate_pivots|refactor_count|"
                  "eta_nonzeros)\":[0-9]+"),
       "\"$1\":0"},
      {std::regex("\"(lu_fill_ratio|primal_infeasibility|duality_gap|"
                  "violation_watts)\":[0-9.eE+-]+"),
       "\"$1\":0"},
  };
  std::string s = json;
  for (const auto& [re, with] : kRules) s = std::regex_replace(s, re, with);
  return s;
}

bool report_certified(const std::string& json) {
  return json.find("\"verdict\":\"ok\"") != std::string::npos &&
         json.find("\"replay\":{\"checked\":true,\"ok\":true") !=
             std::string::npos &&
         json.find("\"certificate\":{\"checked\":true,\"ok\":true") !=
             std::string::npos;
}

double json_number(const std::string& json, const std::string& key,
                   std::size_t from) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

void LayerTotals::add(const LayerTotals& o) {
  caps += o.caps;
  unsolved += o.unsolved;
  pivots += o.pivots;
  refactors += o.refactors;
  degenerate += o.degenerate;
  model_ms += o.model_ms;
  solve_ms += o.solve_ms;
  pricing_ms += o.pricing_ms;
  ftran_ms += o.ftran_ms;
  btran_ms += o.btran_ms;
  ratio_ms += o.ratio_ms;
  update_ms += o.update_ms;
  factor_ms += o.factor_ms;
  certificate_ms += o.certificate_ms;
  replay_ms += o.replay_ms;
  replay_violations += o.replay_violations;
}

dag::TaskGraph parse_and_lint(Tracer& tr, const std::string& trace_text,
                              double* parse_ms, double* lint_ms) {
  dag::TaskGraph graph = [&] {
    const Timed t(tr, "dag.parse", parse_ms);
    std::istringstream in(trace_text);
    return dag::read_trace(in, "powerbench");
  }();
  const Timed t(tr, "check.lint", lint_ms);
  check::LintReport report = check::lint_trace(graph);
  report.merge(check::lint_machine(cluster()));
  if (report.ok()) report.merge(check::lint_configs(graph, power_model()));
  if (!report.ok()) {
    throw std::runtime_error("generated trace failed lint: " +
                             report.to_string());
  }
  return graph;
}

LayerTotals rebuild_layers(Tracer& tr, const dag::TaskGraph& graph,
                           const std::vector<double>& job_caps,
                           double deadline_ms) {
  LayerTotals out;
  const std::vector<dag::Window> windows = [&] {
    const Scope t(tr, "dag.split_at_barriers");
    return dag::split_at_barriers(graph);
  }();
  std::vector<std::unique_ptr<core::LpFormulation>> forms;
  {
    const Scope t(tr, "core.formulation");
    for (const dag::Window& w : windows) {
      forms.push_back(std::make_unique<core::LpFormulation>(
          w.graph, power_model(), cluster()));
    }
  }
  std::unique_ptr<check::CertificateChecker> checker;

  for (std::size_t ci = 0; ci < job_caps.size(); ++ci) {
    const double cap = job_caps[ci];
    const long req = static_cast<long>(ci);
    // Parent of the cap's spans; its self time is the stitching.
    const Scope cap_span(tr, "rebuild.cap", req);
    ++out.caps;
    core::LpScheduleOptions opt;
    opt.power_cap = cap;
    opt.simplex.collect_timing = true;
    opt.simplex.deadline = util::Deadline::after(deadline_ms / 1000.0);

    core::WindowedLpResult res;
    res.schedule.shares.assign(graph.num_edges(), {});
    res.schedule.duration.assign(graph.num_edges(), 0.0);
    res.schedule.power.assign(graph.num_edges(), 0.0);
    res.vertex_time.assign(graph.num_vertices(), 0.0);
    res.frontiers.resize(graph.num_edges());
    LayerTotals cap_totals;
    bool optimal = true;
    double offset = 0.0;
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const dag::Window& win = windows[w];
      const core::LpFormulation& form = *forms[w];
      const core::BuiltModel built = [&] {
        const Timed t(tr, "core.build_model", &cap_totals.model_ms, req);
        return form.build_model(opt);
      }();
      lp::WarmStart cold;
      lp::Solution sol;
      try {
        const Timed t(tr, "lp.solve", &cap_totals.solve_ms, req);
        sol = lp::solve_lp(built.model, opt.simplex, &cold);
      } catch (const std::exception&) {
        // A numerical failure; SolveDriver records it as an internal
        // error and walks its ladder. Here the cap is just unsolved.
        optimal = false;
        break;
      }
      const lp::SimplexStats& st = sol.stats;
      cap_totals.pivots += st.iterations;
      cap_totals.refactors += st.refactor_count;
      cap_totals.degenerate += st.degenerate_pivots;
      cap_totals.pricing_ms += st.pricing_ns / 1e6;
      cap_totals.ftran_ms += st.ftran_ns / 1e6;
      cap_totals.btran_ms += st.btran_ns / 1e6;
      cap_totals.ratio_ms += st.ratio_ns / 1e6;
      cap_totals.update_ms += st.update_ns / 1e6;
      cap_totals.factor_ms += st.factor_ns / 1e6;
      if (!sol.optimal()) {
        optimal = false;
        break;
      }
      // Stitch the window back onto original ids, as WindowSweeper does.
      const dag::TaskGraph& wg = win.graph;
      for (std::size_t v = 0; v < wg.num_vertices(); ++v) {
        res.vertex_time[win.vertex_map[v]] =
            offset + sol.values[built.vertex_var[v].index];
      }
      core::TaskSchedule ws;
      ws.shares.assign(wg.num_edges(), {});
      ws.duration.assign(wg.num_edges(), 0.0);
      ws.power.assign(wg.num_edges(), 0.0);
      for (const dag::Edge& e : wg.edges()) {
        if (!e.is_task()) {
          ws.duration[e.id] = cluster().message_seconds(e.bytes);
          continue;
        }
        double total = 0.0;
        for (std::size_t k = 0; k < built.share_var[e.id].size(); ++k) {
          const double frac = sol.values[built.share_var[e.id][k].index];
          if (frac > 1e-9) {
            ws.shares[e.id].push_back({static_cast<int>(k), frac});
            total += frac;
          }
        }
        for (core::ConfigShare& s : ws.shares[e.id]) s.fraction /= total;
      }
      core::blend(ws, form.frontiers());
      for (std::size_t e = 0; e < wg.num_edges(); ++e) {
        const int orig = win.edge_map[e];
        res.schedule.shares[orig] = ws.shares[e];
        res.schedule.duration[orig] = ws.duration[e];
        res.schedule.power[orig] = ws.power[e];
        res.frontiers[orig] = form.frontiers()[e];
      }
      res.window_duals.push_back(sol.duals);
      offset += sol.values[built.vertex_var[wg.finalize_vertex()].index];
    }
    if (!optimal) {
      // Timed out or failed: the per-cap layer figures describe solved
      // caps only, so this one adds nothing but its count.
      ++out.unsolved;
      continue;
    }
    res.status = lp::SolveStatus::kOptimal;
    res.makespan = offset;

    {
      const Timed t(tr, "sim.replay", &cap_totals.replay_ms, req);
      sim::ReplayOptions ro;
      ro.engine.cluster = cluster();
      ro.engine.idle_power = power_model().idle_power();
      const sim::SimResult sim = sim::replay_schedule(
          graph, res.schedule, res.frontiers, ro, &res.vertex_time);
      if (!sim::check_cap(sim, cap).ok) ++cap_totals.replay_violations;
    }
    {
      const Timed t(tr, "check.certificate", &cap_totals.certificate_ms, req);
      if (!checker) {
        checker = std::make_unique<check::CertificateChecker>(
            graph, power_model(), cluster());
      }
      const check::CertificateVerdict v = checker->verify(res, cap, cap);
      if (!(v.checked && v.ok)) {
        throw std::runtime_error("rebuilt solve failed its certificate: " +
                                 v.detail);
      }
    }
    out.cold_pivots[cap] = cap_totals.pivots;
    out.makespan[cap] = res.makespan;
    out.child_ms[cap] = cap_totals.solve_ms + cap_totals.replay_ms +
                        cap_totals.certificate_ms;
    out.add(cap_totals);
  }
  return out;
}

}  // namespace powerbench

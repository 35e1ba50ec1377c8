#include "core/windowed.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "dag/windows.h"
#include "util/parallel.h"

namespace powerlim::core {

WindowedLpResult solve_windowed_lp(const dag::TaskGraph& graph,
                                   const machine::PowerModel& model,
                                   const machine::ClusterSpec& cluster,
                                   const LpScheduleOptions& options) {
  return WindowSweeper(graph, model, cluster).solve(options);
}

WindowedLpResult solve_windowed_energy_lp(const dag::TaskGraph& graph,
                                          const machine::PowerModel& model,
                                          const machine::ClusterSpec& cluster,
                                          double slowdown_allowance,
                                          double power_cap) {
  if (slowdown_allowance < 0.0) {
    throw std::invalid_argument("solve_windowed_energy_lp: allowance < 0");
  }
  return WindowSweeper(graph, model, cluster)
      .solve([&](const LpFormulation& form) {
        LpScheduleOptions o;
        o.power_cap = power_cap;
        o.objective = LpObjective::kEnergy;
        o.max_makespan =
            (1.0 + slowdown_allowance) * form.unconstrained_makespan();
        return o;
      });
}

struct WindowSweeper::Impl {
  const dag::TaskGraph* graph;
  const machine::PowerModel* model;
  const machine::ClusterSpec* cluster;
  const FormulationHooks* hooks;
  std::vector<dag::Window> windows;
  /// Per-window cap-independent scalars, kept so the formulations
  /// themselves need not outlive a solve.
  std::vector<double> min_power;
  std::vector<double> span;
  /// The constructor's formulations, handed to the first solve so a
  /// single-cap driver builds each window once; every later solve builds
  /// each window's formulation on the thread that solves it.
  mutable std::vector<std::unique_ptr<LpFormulation>> first_forms;
  /// Per-window warm-start slots: a logically-invisible cache, hence
  /// mutable (solve() is const).
  mutable std::vector<lp::WarmStart> warm;
};

WindowSweeper::WindowSweeper(const dag::TaskGraph& graph,
                             const machine::PowerModel& model,
                             const machine::ClusterSpec& cluster,
                             const FormulationHooks* hooks)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.graph = &graph;
  im.model = &model;
  im.cluster = &cluster;
  im.hooks = hooks;
  im.windows = dag::split_at_barriers(graph);
  for (const dag::Window& win : im.windows) {
    im.first_forms.push_back(
        std::make_unique<LpFormulation>(win.graph, model, cluster, hooks));
    im.min_power.push_back(im.first_forms.back()->min_feasible_power());
    im.span.push_back(im.first_forms.back()->unconstrained_makespan());
  }
  im.warm.resize(im.windows.size());
}

void WindowSweeper::clear_warm_starts() const {
  for (lp::WarmStart& w : impl_->warm) w.clear();
}

std::vector<lp::WarmStart> WindowSweeper::warm_starts() const {
  return impl_->warm;
}

void WindowSweeper::restore_warm_starts(
    std::vector<lp::WarmStart> warm) const {
  if (warm.size() != impl_->warm.size()) return;
  impl_->warm = std::move(warm);
}

WindowSweeper::~WindowSweeper() = default;
WindowSweeper::WindowSweeper(WindowSweeper&&) noexcept = default;
WindowSweeper& WindowSweeper::operator=(WindowSweeper&&) noexcept = default;

std::size_t WindowSweeper::num_windows() const {
  return impl_->windows.size();
}

double WindowSweeper::min_feasible_power() const {
  double worst = 0.0;
  for (double p : impl_->min_power) worst = std::max(worst, p);
  return worst;
}

double WindowSweeper::unconstrained_makespan() const {
  double total = 0.0;
  for (double s : impl_->span) total += s;
  return total;
}

WindowedLpResult WindowSweeper::solve(const LpScheduleOptions& options,
                                      WindowThreads threads) const {
  return solve([&options](const LpFormulation&) { return options; },
               threads);
}

WindowedLpResult WindowSweeper::solve(const WindowOptions& make_options,
                                      WindowThreads threads) const {
  const Impl& im = *impl_;
  const dag::TaskGraph& graph = *im.graph;
  WindowedLpResult out;
  out.schedule.shares.assign(graph.num_edges(), {});
  out.schedule.duration.assign(graph.num_edges(), 0.0);
  out.schedule.power.assign(graph.num_edges(), 0.0);
  out.vertex_time.assign(graph.num_vertices(), 0.0);
  out.frontiers.resize(graph.num_edges());
  out.min_feasible_power = min_feasible_power();

  // A window's solve writes only its own slot (its formulation, result
  // and a private copy of its warm start), so it may run on any thread.
  // The stitch reads the slots back in window order, commits each warm
  // start only when it stitches that window (slots past a failure stay
  // untouched), and frees the slot, so a finished window's formulation
  // does not outlive its stitch.
  struct Slot {
    std::unique_ptr<LpFormulation> form;
    LpScheduleResult res;
    lp::WarmStart warm;
    bool warmed = false;
  };
  std::vector<Slot> slots(im.windows.size());
  if (!im.first_forms.empty()) {
    for (std::size_t w = 0; w < slots.size(); ++w) {
      slots[w].form = std::move(im.first_forms[w]);
    }
    im.first_forms.clear();
  }
  double offset = 0.0;
  util::ordered_parallel_for(
      im.windows.size(), threads == WindowThreads::kPerCpu,
      [&](std::size_t w) {
        Slot& slot = slots[w];
        if (!slot.form) {
          slot.form = std::make_unique<LpFormulation>(
              im.windows[w].graph, *im.model, *im.cluster, im.hooks);
        }
        LpScheduleOptions o = make_options(*slot.form);
        o.warm = nullptr;
        if (!o.discrete) {
          slot.warm = im.warm[w];
          slot.warmed = true;
          o.warm = &slot.warm;
        }
        slot.res = slot.form->solve(o);
        return slot.res.optimal();
      },
      [&](std::size_t w) {
        // What outlives the loop (warm starts, result vectors) is copied
        // here, on the calling thread, rather than moved: glibc frees a
        // block into the arena it came from, and a long-lived block
        // allocated on a worker thread keeps that worker's arena pages
        // resident after the loop (~1.6 MB of paper-sweep's peak RSS).
        Slot slot = std::move(slots[w]);
        if (slot.warmed) im.warm[w] = slot.warm;
        LpScheduleResult& res = slot.res;
        out.iterations += res.iterations;
        out.energy_joules += res.energy_joules;
        out.power_price_s_per_watt += res.power_price_s_per_watt;
        out.degenerate_pivots += res.degenerate_pivots;
        out.refactor_count += res.refactor_count;
        out.bland_engaged = out.bland_engaged || res.bland_engaged;
        out.primal_infeasibility =
            std::max(out.primal_infeasibility, res.primal_infeasibility);
        out.eta_nonzeros += res.eta_nonzeros;
        out.lu_fill_ratio = std::max(out.lu_fill_ratio, res.lu_fill_ratio);
        out.window_duals.push_back(res.row_duals);
        if (!res.optimal()) {
          out.status = res.status;
          out.failed_window = static_cast<int>(w);
          return;
        }
        const dag::Window& win = im.windows[w];
        for (std::size_t wv = 0; wv < win.graph.num_vertices(); ++wv) {
          out.vertex_time[win.vertex_map[wv]] = offset + res.vertex_time[wv];
        }
        for (std::size_t we = 0; we < win.graph.num_edges(); ++we) {
          const int orig = win.edge_map[we];
          out.schedule.shares[orig] = res.schedule.shares[we];
          out.schedule.duration[orig] = res.schedule.duration[we];
          out.schedule.power[orig] = res.schedule.power[we];
          out.frontiers[orig] = slot.form->frontiers()[we];
        }
        for (double p : res.event_power) {
          out.peak_event_power = std::max(out.peak_event_power, p);
        }
        offset += res.makespan;
      });
  if (out.failed_window < 0) {
    out.makespan = offset;
    out.status = lp::SolveStatus::kOptimal;
  }
  return out;
}

}  // namespace powerlim::core

// The four workloads. Each one sets up, measures for Config::seconds,
// checks every output it produced, and - when its tracer records - adds
// the per-layer numbers of its traced decomposition to `layers`. Their
// parameters are the k* constants of each section (workloads.json
// describes them).
#include "workloads.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "apps/benchmarks.h"
#include "core/windowed.h"
#include "dag/trace_io.h"
#include "robust/journal.h"
#include "robust/pipeline.h"
#include "robust/remote_worker.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/socket_io.h"

namespace powerbench {

using namespace powerlim;
namespace fs = std::filesystem;

namespace {

/// Per-cap wall budget of the traced cold rebuild of a 32x20 trace, ms:
/// the LULESH caps need more than paper-sweep's per-cap deadline to reach
/// their replay.
constexpr double kRebuildDeadlineMs = 6000.0;

/// Socket caps of the paper grid, W: 30..80 in 5 W steps.
std::vector<double> paper_socket_caps() {
  std::vector<double> caps;
  for (int w = 30; w <= 80; w += 5) caps.push_back(w);
  return caps;
}

std::vector<double> job_caps(const std::vector<double>& socket_caps,
                             int ranks) {
  std::vector<double> out;
  for (double w : socket_caps) out.push_back(w * ranks);
  return out;
}

std::string to_text(const dag::TaskGraph& graph) {
  std::ostringstream os;
  dag::write_trace(os, graph);
  return os.str();
}

double seconds_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now()) / 1000.0;
}

/// Medians of repeated set-ups (parse + lint + formulation build).
struct SetupTimes {
  double parse_ms = 0.0;
  double lint_ms = 0.0;
  double build_ms = 0.0;
  int windows = 0;
};

/// One set-up of one trace, as `powerlim bound`/`sweep` do it: parse,
/// lint gate, then the windowed formulation build (timed around the
/// WindowSweeper constructor, which SolveDriver builds on first solve).
SetupTimes setup_once(Tracer& tr, const std::string& text,
                      std::optional<dag::TaskGraph>* graph_out) {
  SetupTimes t;
  dag::TaskGraph g = parse_and_lint(tr, text, &t.parse_ms, &t.lint_ms);
  {
    const Timed s(tr, "core.build", &t.build_ms);
    const core::WindowSweeper sweeper(g, power_model(), cluster());
    t.windows = static_cast<int>(sweeper.num_windows());
  }
  if (graph_out) graph_out->emplace(std::move(g));
  return t;
}

void set_setup_layers(Metrics* layers, const std::vector<SetupTimes>& reps) {
  std::vector<double> p, l, b;
  for (const SetupTimes& s : reps) {
    p.push_back(s.parse_ms);
    l.push_back(s.lint_ms);
    b.push_back(s.build_ms);
  }
  layers->set("dag.parse_ms", median(p), "ms");
  layers->set("dag.windows", reps.empty() ? 0 : reps.front().windows,
              "count");
  layers->set("check.lint_ms", median(l), "ms");
  layers->set("core.build_ms", median(b), "ms");
}

/// Per-cap lp/certificate/replay layers of a rebuilt decomposition.
void set_rebuild_layers(Metrics* layers, const LayerTotals& t) {
  const double solved = std::max(1, t.caps - t.unsolved);
  layers->set("core.build_model_ms", t.model_ms / solved, "ms");
  layers->set("lp.solve_ms", t.solve_ms / solved, "ms");
  layers->set("lp.pivots", static_cast<double>(t.pivots) / solved, "count");
  layers->set("lp.refactors", static_cast<double>(t.refactors) / solved,
              "count");
  layers->set("lp.degenerate_pivots",
              static_cast<double>(t.degenerate) / solved, "count");
  layers->set("lp.us_per_pivot",
              t.pivots > 0 ? t.solve_ms * 1000.0 / t.pivots : 0.0, "us");
  layers->set("lp.pricing_ms", t.pricing_ms / solved, "ms");
  layers->set("lp.ftran_ms", t.ftran_ms / solved, "ms");
  layers->set("lp.btran_ms", t.btran_ms / solved, "ms");
  layers->set("lp.ratio_ms", t.ratio_ms / solved, "ms");
  layers->set("lp.update_ms", t.update_ms / solved, "ms");
  layers->set("lp.factor_ms", t.factor_ms / solved, "ms");
  layers->set("check.certificate_ms", t.certificate_ms / solved, "ms");
  layers->set("sim.replay_ms", t.replay_ms / solved, "ms");
  layers->set("sim.replay_violations", t.replay_violations, "count");
}

/// Pivots of the first ladder attempt in a report (the warm rung, or the
/// cold start of a fresh driver).
long first_attempt_pivots(const std::string& report_json) {
  const std::size_t at = report_json.find("\"attempts\":[");
  if (at == std::string::npos) return 0;
  return static_cast<long>(json_number(report_json, "iterations", at));
}

/// Driver-side layers of caps settled by SolveDriver, read from their
/// RunReport JSON: ladder attempts and first-rung success, the pivots
/// spent per cap over the same cap's cold rebuild, and the driver's self
/// time (its wall minus the rebuilt lp, replay and certificate time).
struct DriverLayers {
  long caps = 0;
  long attempts = 0;
  long ok_attempts = 0;
  long pivots = 0;
  long cold_pivots = 0;
  double self_ms = 0.0;
  long self_caps = 0;

  /// `paired`: the report's solve ran close in time to the rebuild `t`,
  /// so its pivots and wall compare with it (a journal hit's report is
  /// from an older solve and is not).
  void add(double cap, const std::string& report_json, const LayerTotals& t,
           bool paired) {
    ++caps;
    for (std::size_t at = 0;
         (at = report_json.find("\"rung\":", at)) != std::string::npos;
         ++at) {
      ++attempts;
    }
    for (std::size_t at = 0;
         (at = report_json.find("\"outcome\":\"ok\"", at)) !=
         std::string::npos;
         ++at) {
      ++ok_attempts;
    }
    if (!paired || !t.cold_pivots.count(cap) ||
        report_json.find("\"verdict\":\"ok\"") == std::string::npos) {
      return;
    }
    pivots += first_attempt_pivots(report_json);
    cold_pivots += t.cold_pivots.at(cap);
    self_ms += json_number(report_json, "wall_ms") - t.child_ms.at(cap);
    ++self_caps;
  }

  /// `setup_ms`: one-time driver work (lint, build) inside each wall.
  void set(Metrics* layers, double setup_ms = 0.0) const {
    layers->set("robust.ladder_attempts",
                caps ? static_cast<double>(attempts) / caps : 0.0, "count");
    layers->set("robust.first_rung_fraction",
                attempts ? static_cast<double>(ok_attempts) / attempts : 0.0,
                "ratio");
    layers->set("lp.warm_pivot_ratio",
                cold_pivots ? static_cast<double>(pivots) / cold_pivots : 0.0,
                "ratio");
    layers->set("robust.driver_self_ms",
                self_caps ? self_ms / self_caps - setup_ms : 0.0, "ms");
  }
};

/// Times SweepJournal::append of `entries` into a fresh journal under
/// `dir` - the append a journaled sweep or a daemon executor makes per
/// settled cap. Returns the mean ms per append.
double time_journal_appends(Tracer& tr, const std::string& path,
                            const std::vector<robust::JournalEntry>& entries) {
  fs::remove(path);
  auto opened = robust::SweepJournal::open(path);
  if (!opened.ok()) throw std::runtime_error("cannot open " + path);
  robust::SweepJournal journal = std::move(opened).value();
  double total = 0.0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Timed t(tr, "robust.journal_append", &total, static_cast<long>(i));
    if (!journal.append(entries[i]).ok()) {
      throw std::runtime_error("journal append failed");
    }
  }
  fs::remove(path);
  return entries.empty() ? 0.0 : total / static_cast<double>(entries.size());
}

// ---------------------------------------------------------------------------
// Child processes (daemon, serve-worker).

util::CancelToken g_child_cancel;
extern "C" void on_child_term(int) { g_child_cancel.cancel(); }

/// A forked helper process, stopped (SIGTERM, then SIGKILL after 5 s)
/// and reaped when it goes out of scope.
class Child {
 public:
  Child() = default;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child() { stop(); }

  /// Forks `body` (its return value is the exit code) and waits for it
  /// to write a port number into `port_file`.
  template <class Body>
  bool start(const std::string& port_file, Body body) {
    fs::remove(port_file);
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      struct sigaction sa = {};
      sa.sa_handler = on_child_term;
      sigemptyset(&sa.sa_mask);
      sigaction(SIGTERM, &sa, nullptr);
      ::_exit(body());
    }
    const auto t0 = Clock::now();
    while (seconds_since(t0) < 30.0) {
      std::ifstream f(port_file);
      int port = 0;
      if (f >> port && port > 0) {
        endpoint.host = "127.0.0.1";
        endpoint.port = port;
        return true;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      ::usleep(100);
    }
    return false;
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(t0) > 5.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(2000);
    }
    pid_ = -1;
  }

  util::Endpoint endpoint;

 private:
  pid_t pid_ = -1;
};

// ---------------------------------------------------------------------------
// bound-large: one cold certified `bound` of comd 64x200 at 50 W/socket.

constexpr double kBoundSocketWatts = 50.0;
constexpr int kBoundSetupReps = 5;
/// goodput_fraction counts bounds certified within this wall, ms.
constexpr double kBoundLatencyLimitMs = 10000.0;
/// The certified bound at kBoundReferenceSeed, s, and its tolerance.
constexpr double kBoundReferenceSeconds = 327.9019;
constexpr std::uint64_t kBoundReferenceSeed = 17;
constexpr double kBoundReferenceTol = 5e-5;
/// One cold rebuild of the whole 64x200 trace takes seconds.
constexpr double kBoundRebuildDeadlineMs = 60000.0;

Outcome bound_large(const Config& cfg, Tracer& tr, Metrics* layers) {
  Outcome out;
  const std::string text = to_text(apps::make_comd(
      {.ranks = 64, .iterations = 200, .seed = cfg.seed}));
  std::optional<dag::TaskGraph> parsed;
  std::vector<SetupTimes> setups;
  for (int r = 0; r < kBoundSetupReps; ++r) {
    const auto t0 = Clock::now();
    setups.push_back(setup_once(tr, text, &parsed));
    out.setup_s.push_back(seconds_since(t0));
  }
  const dag::TaskGraph& graph = *parsed;
  const double cap = kBoundSocketWatts * graph.num_ranks();

  std::vector<std::string> reports;
  double first_bound = -1.0;
  const auto t0 = Clock::now();
  while (out.batch_s.empty() || seconds_since(t0) < cfg.seconds) {
    const long op = out.tally.attempted++;
    double wall_ms = 0.0;
    robust::SolveOutcome res;
    {
      const Timed s(tr, "robust.SolveDriver.solve", &wall_ms, op);
      const robust::SolveDriver driver(graph, power_model(), cluster());
      res = driver.solve(cap);
    }
    out.batch_s.push_back(wall_ms / 1000.0);
    out.op_ms.push_back(wall_ms);
    const std::string json = res.report.to_json();
    reports.push_back(json);
    const double bound = res.report.bound_seconds;
    if (!report_certified(json)) {
      out.tally.fail("bound not certified: " + res.report.detail);
      continue;
    }
    if (first_bound < 0) first_bound = bound;
    if (bound != first_bound) {
      out.tally.fail("bound differs between repeats");
      continue;
    }
    if (cfg.seed == kBoundReferenceSeed &&
        std::abs(bound - kBoundReferenceSeconds) > kBoundReferenceTol) {
      std::ostringstream msg;
      msg.precision(10);
      msg << "bound " << bound << " != reference " << kBoundReferenceSeconds;
      out.tally.fail(msg.str());
      continue;
    }
    ++out.tally.certified;
    if (wall_ms <= kBoundLatencyLimitMs) ++out.tally.good;
  }
  out.peak_rss_mb = peak_rss_mb();

  if (layers) {
    set_setup_layers(layers, setups);
    const LayerTotals t =
        rebuild_layers(tr, graph, {cap}, kBoundRebuildDeadlineMs);
    set_rebuild_layers(layers, t);
    // Only the last bound ran right before the rebuild; a fresh driver's
    // wall also holds its one-time lint and build.
    DriverLayers driver;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      driver.add(cap, reports[i], t, i + 1 == reports.size());
    }
    driver.set(layers, layers->values["check.lint_ms"].first +
                           layers->values["core.build_ms"].first);
    // The rebuilt windows must be the program's own cold solve.
    const long driver_pivots = first_attempt_pivots(reports.front());
    const long rebuilt = t.cold_pivots.count(cap) ? t.cold_pivots.at(cap) : 0;
    if (rebuilt != driver_pivots) {
      out.tally.fail("rebuilt lp.pivots " + std::to_string(rebuilt) +
                     " != SolveDriver cold pivots " +
                     std::to_string(driver_pivots));
    }
    if (t.makespan.count(cap) &&
        std::abs(t.makespan.at(cap) - first_bound) > 1e-6 * first_bound) {
      out.tally.fail("rebuilt makespan differs from the bound");
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// paper-sweep: four apps x 32x20 x 11 caps, serial, journaled, warm.

constexpr int kPaperSetupReps = 5;
/// Per-cap wall budget of the sweeps (SolveDriver cap_deadline_ms).
constexpr double kCapDeadlineMs = 3000.0;
/// goodput_fraction counts caps certified within this solve wall, ms.
constexpr double kPaperLatencyLimitMs = 3000.0;

struct PaperApp {
  const char* name;
  std::string text;
  std::optional<dag::TaskGraph> graph;
};

std::vector<PaperApp> paper_apps(std::uint64_t seed) {
  const int r = 32;
  const int it = 20;
  std::vector<PaperApp> out;
  out.push_back({"comd", to_text(apps::make_comd(
                             {.ranks = r, .iterations = it, .seed = seed})),
                 std::nullopt});
  out.push_back({"lulesh", to_text(apps::make_lulesh(
                               {.ranks = r, .iterations = it, .seed = seed})),
                 std::nullopt});
  out.push_back({"sp", to_text(apps::make_sp(
                           {.ranks = r, .iterations = it, .seed = seed})),
                 std::nullopt});
  out.push_back({"bt", to_text(apps::make_bt(
                           {.ranks = r, .iterations = it, .seed = seed})),
                 std::nullopt});
  return out;
}

Outcome paper_sweep(const Config& cfg, Tracer& tr, Metrics* layers) {
  Outcome out;
  std::vector<PaperApp> apps = paper_apps(cfg.seed);
  // One set-up (all four apps) before the sweeps parses the graphs; the
  // other repetitions run between app sweeps, outside every timed
  // region, so their median spans the run rather than one busy second.
  std::vector<SetupTimes> setups;
  auto set_up = [&] {
    const auto t0 = Clock::now();
    SetupTimes sum;
    for (PaperApp& a : apps) {
      const SetupTimes s = setup_once(tr, a.text, &a.graph);
      sum.parse_ms += s.parse_ms;
      sum.lint_ms += s.lint_ms;
      sum.build_ms += s.build_ms;
      sum.windows += s.windows;
    }
    out.setup_s.push_back(seconds_since(t0));
    setups.push_back(sum);
  };
  set_up();

  robust::ResilientSweepOptions ropt;
  ropt.driver.cap_deadline_ms = kCapDeadlineMs;
  // First sweep's rows per app, and (traced) the rebuild of each app,
  // made right after its sweep so both see the same machine load.
  std::vector<std::vector<robust::SweepRow>> first_rows(apps.size());
  std::vector<LayerTotals> rebuilt(apps.size());
  std::vector<std::vector<double>> first_bounds(apps.size());
  const auto t0 = Clock::now();
  long sweep_no = 0;
  while (out.batch_s.empty() || seconds_since(t0) < cfg.seconds) {
    double sweep_s = 0.0;
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
      const PaperApp& a = apps[ai];
      ropt.journal_path = cfg.work_dir + "/" + a.name + ".journal";
      fs::remove(ropt.journal_path);
      auto settle = Clock::now();
      ropt.on_row = [&](const robust::SweepRow&) {
        const auto now = Clock::now();
        out.op_ms.push_back(ms_between(settle, now));
        settle = now;
      };
      const std::vector<double> caps =
          job_caps(paper_socket_caps(), a.graph->num_ranks());
      const auto app_start = Clock::now();
      robust::Result<robust::ResilientSweepResult> swept = [&] {
        const Scope s(tr, "robust.resilient_sweep", sweep_no);
        return robust::resilient_sweep(*a.graph, power_model(), cluster(),
                                       caps, ropt);
      }();
      sweep_s += seconds_since(app_start);
      fs::remove(ropt.journal_path);
      out.tally.attempted += static_cast<long>(caps.size());
      if (!swept.ok() || swept->rows.size() != caps.size()) {
        out.tally.fail(std::string(a.name) + ": sweep did not finish");
        continue;
      }
      // Every ok row proves itself; degraded rows still carry a bound;
      // the certified bound never rises as the cap grows.
      double prev_ok = INFINITY;
      std::vector<double> bounds;
      for (const robust::SweepRow& row : swept->rows) {
        bounds.push_back(row.bound_seconds);
        const std::string where = std::string(a.name) + " @ " +
                                  std::to_string(row.job_cap_watts) + " W";
        if (row.verdict == robust::StatusCode::kOk) {
          if (!report_certified(row.report_json)) {
            out.tally.fail(where + ": ok row without certificate/replay");
          } else if (row.bound_seconds > prev_ok * (1 + 1e-9)) {
            out.tally.fail(where + ": bound rises with the cap");
          } else {
            ++out.tally.certified;
            if (json_number(row.report_json, "wall_ms") <=
                kPaperLatencyLimitMs) {
              ++out.tally.good;
            }
            prev_ok = row.bound_seconds;
          }
        } else if (!row.degraded || row.bound_seconds < 0) {
          out.tally.fail(where + ": neither ok nor degraded with a bound");
        }
      }
      if (first_bounds[ai].empty()) {
        first_bounds[ai] = bounds;
      } else if (first_bounds[ai] != bounds) {
        out.tally.fail(std::string(a.name) + ": bounds differ between sweeps");
      }
      if (sweep_no == 0) {
        first_rows[ai] = swept->rows;
        if (layers) {
          rebuilt[ai] = rebuild_layers(tr, *a.graph, caps, kRebuildDeadlineMs);
        }
      }
      if (static_cast<int>(out.setup_s.size()) < kPaperSetupReps) set_up();
    }
    out.batch_s.push_back(sweep_s);
    ++sweep_no;
  }
  out.peak_rss_mb = peak_rss_mb();

  if (layers) {
    set_setup_layers(layers, setups);
    LayerTotals all;
    DriverLayers driver;
    std::vector<robust::JournalEntry> entries;
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
      all.add(rebuilt[ai]);
      for (const robust::SweepRow& row : first_rows[ai]) {
        driver.add(row.job_cap_watts, row.report_json, rebuilt[ai], true);
        entries.push_back({row.job_cap_watts, row.verdict, row.degraded,
                           row.bound_seconds, row.fallback, row.report_json});
      }
    }
    set_rebuild_layers(layers, all);
    driver.set(layers);
    layers->set("robust.journal_append_ms",
                time_journal_appends(tr, cfg.work_dir + "/append.journal",
                                     entries),
                "ms");
  }
  return out;
}

// ---------------------------------------------------------------------------
// serve-mix: open-loop single-cap bounds against a loopback powerlimd.

/// Hot caps (W/socket) proven into the daemon journal during set-up.
const std::vector<double> kHotSocketCaps = {40.0, 50.0, 60.0, 70.0};
constexpr int kServeRanks = 32;
constexpr int kServeIterations = 20;
/// Client connections, one thread each: the load generator is one
/// process with at most four connections (a 4-core box).
constexpr int kServeConnections = 4;
constexpr int kServeSetupReps = 3;
/// Offered load, requests/s, and its mix: every kServeFreshEvery-th
/// request asks for a fresh cap, the others repeat a hot cap (80% reads).
/// Fresh caps are evenly spaced and a fresh solve (~180 ms) is in flight
/// for at most one of the four reads between two of them, so the median
/// request is a read on every run. When solves overlap about half of the
/// reads (16 requests/s), the median jumps between the "read alone" and
/// "read beside a solve" latencies from run to run.
constexpr double kServeRate = 5.0;
constexpr int kServeFreshEvery = 5;
/// goodput_fraction counts requests certified within this latency, ms.
constexpr double kServeLatencyLimitMs = 1000.0;

struct ServeCall {
  double due_ms = 0.0;
  double cap = 0.0;
  bool hit = false;
  // Filled by the client thread.
  double sent_ms = 0.0;
  double done_ms = 0.0;
  serve::CollectStatus status = serve::CollectStatus::kDisconnected;
  serve::ServeDone done;
  std::vector<serve::ServeRow> rows;
  std::string problem;
};

/// The request schedule: one request every 1/rate s; every
/// kServeFreshEvery-th asks for a fresh seed-derived cap that is never a
/// hot cap and never repeats within the run, the others for a
/// seed-chosen hot cap.
std::vector<ServeCall> serve_schedule(const Config& cfg) {
  std::mt19937_64 rng(cfg.seed * 0x9E3779B97F4A7C15ULL + 11);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::set<long> used;
  for (double w : kHotSocketCaps) used.insert(std::lround(w * 1000));
  const int n = std::max(
      1, static_cast<int>(std::lround(cfg.seconds * kServeRate)));
  std::vector<ServeCall> calls(n);
  for (int i = 0; i < n; ++i) {
    ServeCall& c = calls[i];
    c.due_ms = 1000.0 * i / kServeRate;
    c.hit = i % kServeFreshEvery != kServeFreshEvery - 1;
    double watts = 0.0;
    if (c.hit) {
      watts = kHotSocketCaps[rng() % kHotSocketCaps.size()];
    } else {
      for (;;) {
        const long milli = 30000 + static_cast<long>(unit(rng) * 50000);
        bool clear = !used.count(milli);
        for (double h : kHotSocketCaps) {
          clear = clear && std::abs(milli - h * 1000) >= 500;
        }
        if (clear) {
          used.insert(milli);
          watts = milli / 1000.0;
          break;
        }
      }
    }
    c.cap = watts * kServeRanks;
  }
  return calls;
}

bool serve_daemon(Child& daemon, const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  return daemon.start(dir + "/port", [dir] {
    serve::ServeOptions so;
    so.listen = "127.0.0.1:0";
    so.port_file = dir + "/port";
    so.state_dir = dir + "/state";
    so.max_active = 2;
    so.workers = 2;
    so.cancel = &g_child_cancel;
    std::ostringstream sink;
    return serve::serve(so, power_model(), cluster(), sink, sink);
  });
}

serve::ServeRequest bound_request(const std::string& id, double cap,
                                  const std::string& text) {
  serve::ServeRequest r;
  r.id = id;
  r.kind = "bound";
  r.caps = {cap};
  r.trace_text = text;
  return r;
}

Outcome serve_mix(const Config& cfg, Tracer& tr, Metrics* layers) {
  Outcome out;
  out.tail_q = 95.0;
  const dag::TaskGraph graph = apps::make_comd(
      {.ranks = kServeRanks, .iterations = kServeIterations,
       .seed = cfg.seed});
  const std::string text = to_text(graph);
  const std::vector<double> hot = job_caps(kHotSocketCaps, kServeRanks);

  // Set-up: daemon spawn -> ready, with every hot cap proven.
  Child daemon;
  for (int r = 0; r < kServeSetupReps; ++r) {
    daemon.stop();
    const auto t0 = Clock::now();
    const Scope s(tr, "serve.setup", r);
    if (!serve_daemon(daemon, cfg.work_dir + "/daemon")) {
      throw std::runtime_error("powerlimd did not start");
    }
    serve::ServeClient client;
    if (!client.connect(daemon.endpoint).ok()) {
      throw std::runtime_error("cannot connect to powerlimd");
    }
    for (std::size_t i = 0; i < hot.size(); ++i) {
      const std::string id = "hot" + std::to_string(i);
      if (!client.submit(bound_request(id, hot[i], text)).ok() ||
          client.collect(id).status != serve::CollectStatus::kDone) {
        throw std::runtime_error("powerlimd failed to prove a hot cap");
      }
    }
    out.setup_s.push_back(seconds_since(t0));
  }

  std::vector<ServeCall> calls = serve_schedule(cfg);
  std::vector<std::unique_ptr<serve::ServeClient>> clients;
  for (int i = 0; i < kServeConnections; ++i) {
    clients.push_back(std::make_unique<serve::ServeClient>());
    if (!clients.back()->connect(daemon.endpoint).ok()) {
      throw std::runtime_error("cannot connect to powerlimd");
    }
  }
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  auto client_loop = [&](serve::ServeClient& client) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= calls.size()) return;
      ServeCall& c = calls[i];
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(c.due_ms)));
      c.sent_ms = ms_between(start, Clock::now());
      const std::string id = "q" + std::to_string(i);
      if (!client.submit(bound_request(id, c.cap, text)).ok()) {
        c.problem = "submit failed";
      } else {
        serve::CollectResult res = client.collect(id, 60.0);
        c.status = res.status;
        c.done = res.done;
        c.rows = std::move(res.rows);
        if (res.status != serve::CollectStatus::kDone) {
          c.problem = std::string("request ") + serve::to_string(res.status) +
                      " " + res.error_detail + res.overloaded.reason;
        }
      }
      c.done_ms = ms_between(start, Clock::now());
    }
  };
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back(client_loop, std::ref(*client));
  }
  for (std::thread& t : threads) t.join();
  clients.clear();
  daemon.stop();
  out.peak_rss_mb = peak_rss_mb();

  // Every reply must equal the offline row for its cap: the same caps
  // swept without the daemon, cold, four forked SolveDrivers at a time,
  // with the daemon executor's driver settings (a cancel token, no cap
  // deadline) so the ladder blocks compare too.
  std::set<double> distinct;
  for (const ServeCall& c : calls) distinct.insert(c.cap);
  util::CancelToken never_cancelled;
  robust::ResilientSweepOptions ref_opt;
  ref_opt.driver.cancel = &never_cancelled;
  ref_opt.workers = 4;
  const auto ref = robust::resilient_sweep(
      graph, power_model(), cluster(),
      std::vector<double>(distinct.begin(), distinct.end()), ref_opt);
  if (!ref.ok() || ref->rows.size() != distinct.size()) {
    throw std::runtime_error("offline reference sweep failed");
  }
  std::map<double, std::string> offline;
  for (const robust::SweepRow& row : ref->rows) {
    offline[row.job_cap_watts] = strip_telemetry(row.report_json);
  }
  double last_done = 0.0;
  std::vector<double> hit_ms, fresh_ms, lag_ms, total_ms, wait_ms, exec_ms,
      transport_ms;
  long overloaded = 0;
  long errors = 0;
  std::vector<const ServeCall*> served;
  std::vector<robust::JournalEntry> fresh_entries;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const ServeCall& c = calls[i];
    ++out.tally.attempted;
    const double latency = c.done_ms - c.due_ms;
    out.op_ms.push_back(latency);
    lag_ms.push_back(c.sent_ms - c.due_ms);
    last_done = std::max(last_done, c.done_ms);
    tr.record("serve.request", start, c.sent_ms, c.done_ms,
              static_cast<long>(i));
    if (!c.problem.empty()) {
      (c.status == serve::CollectStatus::kOverloaded ? overloaded : errors)++;
      out.tally.fail("q" + std::to_string(i) + ": " + c.problem);
      continue;
    }
    if (c.done.status != "ok" || c.rows.size() != 1) {
      ++errors;
      out.tally.fail("q" + std::to_string(i) + ": reply " + c.done.status);
      continue;
    }
    const robust::JournalEntry& e = c.rows.front().entry;
    if (!report_certified(e.report_json) ||
        strip_telemetry(e.report_json) != offline[c.cap]) {
      out.tally.fail("q" + std::to_string(i) +
                     ": row differs from the offline SolveDriver row");
      continue;
    }
    ++out.tally.certified;
    if (latency <= kServeLatencyLimitMs) ++out.tally.good;
    (c.hit ? hit_ms : fresh_ms).push_back(latency);
    total_ms.push_back(c.done.total_ms);
    wait_ms.push_back(c.done.queue_wait_ms);
    transport_ms.push_back(c.done_ms - c.sent_ms - c.done.total_ms);
    served.push_back(&c);
    if (!c.hit) {
      exec_ms.push_back(c.done.solve_ms);
      fresh_entries.push_back(e);
    }
  }
  out.batch_s.push_back((last_done - calls.front().due_ms) / 1000.0);

  if (layers) {
    std::vector<SetupTimes> setups;
    for (int r = 0; r < kServeSetupReps; ++r) {
      setups.push_back(setup_once(tr, text, nullptr));
    }
    set_setup_layers(layers, setups);
    std::vector<double> fresh_caps;
    for (const robust::JournalEntry& e : fresh_entries) {
      fresh_caps.push_back(e.job_cap_watts);
    }
    const LayerTotals t =
        rebuild_layers(tr, graph, fresh_caps, kRebuildDeadlineMs);
    set_rebuild_layers(layers, t);
    DriverLayers driver;
    for (const ServeCall* c : served) {
      driver.add(c->cap, c->rows.front().entry.report_json, t, !c->hit);
    }
    driver.set(layers);
    layers->set("robust.journal_append_ms",
                time_journal_appends(tr, cfg.work_dir + "/append.journal",
                                     fresh_entries),
                "ms");
    layers->set("serve.daemon_total_ms", median(total_ms), "ms");
    layers->set("serve.queue_wait_ms", median(wait_ms), "ms");
    layers->set("serve.executor_ms", median(exec_ms), "ms");
    layers->set("serve.transport_ms", median(transport_ms), "ms");
    layers->set("serve.hit_p50_ms", median(hit_ms), "ms");
    layers->set("serve.fresh_p50_ms", median(fresh_ms), "ms");
    layers->set("serve.overloaded", overloaded, "count");
    layers->set("serve.errors", errors, "count");
    layers->set("serve.gen_lag_ms", percentile(lag_ms, 95.0), "ms");
  }
  return out;
}

// ---------------------------------------------------------------------------
// sweep-fanout: resilient_sweep over 2 local fork workers + 1 remote.

constexpr int kFanoutLocalWorkers = 2;
/// goodput_fraction counts caps certified within this time from their
/// sweep's start, ms.
constexpr double kFanoutLatencyLimitMs = 3000.0;

bool serve_worker(Child& worker, const std::string& dir) {
  fs::create_directories(dir);
  return worker.start(dir + "/worker.port", [dir] {
    robust::ServeWorkerOptions wo;
    util::parse_endpoint("127.0.0.1:0", &wo.listen);
    wo.port_file = dir + "/worker.port";
    wo.cancel = &g_child_cancel;
    std::ostringstream sink;
    return robust::serve_worker(wo, sink, sink);
  });
}

Outcome sweep_fanout(const Config& cfg, Tracer& tr, Metrics* layers) {
  Outcome out;
  const std::string text = to_text(apps::make_comd(
      {.ranks = kServeRanks, .iterations = kServeIterations,
       .seed = cfg.seed}));
  std::optional<dag::TaskGraph> parsed;
  Child worker;
  // One set-up before every sweep, outside its timing, so setup_s is a
  // median over the whole run: a fresh serve-worker spawned until it
  // listens, and the trace parsed and linted.
  auto set_up = [&] {
    worker.stop();
    const auto t0 = Clock::now();
    if (!serve_worker(worker, cfg.work_dir)) {
      throw std::runtime_error("serve-worker did not start");
    }
    double parse_ms = 0.0;
    double lint_ms = 0.0;
    parsed.emplace(parse_and_lint(tr, text, &parse_ms, &lint_ms));
    out.setup_s.push_back(seconds_since(t0));
  };
  set_up();
  const std::vector<double> caps =
      job_caps(paper_socket_caps(), parsed->num_ranks());
  const std::size_t slots = kFanoutLocalWorkers + 1;

  // A cancel token on every driver, as `powerlim sweep` attaches one
  // (the serve-worker's drivers hold its own), so the rows' ladder
  // settings blocks agree across local, remote and serial solves.
  util::CancelToken never_cancelled;
  robust::ResilientSweepOptions ropt;
  ropt.driver.cancel = &never_cancelled;
  ropt.workers = kFanoutLocalWorkers;
  std::vector<std::vector<robust::SweepRow>> sweeps;
  // Per sweep, per cap: ms from the sweep's start to the cap's row.
  std::vector<std::map<double, double>> ready_ms;
  robust::WorkerPoolStats pool;
  const auto t0 = Clock::now();
  long sweep_no = 0;
  while (out.batch_s.empty() || seconds_since(t0) < cfg.seconds) {
    if (sweep_no > 0) set_up();
    ropt.remotes = {util::to_string(worker.endpoint)};
    std::vector<double> settled_ms;
    std::map<double, double> ready;
    const auto sweep_start = Clock::now();
    ropt.on_row = [&](const robust::SweepRow& row) {
      settled_ms.push_back(ms_between(sweep_start, Clock::now()));
      ready[row.job_cap_watts] = settled_ms.back();
    };
    robust::Result<robust::ResilientSweepResult> swept = [&] {
      const Scope s(tr, "robust.resilient_sweep", sweep_no);
      return robust::resilient_sweep(*parsed, power_model(), cluster(), caps,
                                     ropt);
    }();
    out.batch_s.push_back(seconds_since(sweep_start));
    ++sweep_no;
    out.tally.attempted += static_cast<long>(caps.size());
    if (!swept.ok() || swept->rows.size() != caps.size()) {
      out.tally.fail("fan-out sweep did not finish");
      continue;
    }
    // Per-cap wall: a cap occupies one of `slots` solvers from the
    // settle that freed it until its own settle. The first `slots` caps
    // are left out: timed from the sweep's start, they would also hold
    // the worker forks and the remote handshake.
    std::sort(settled_ms.begin(), settled_ms.end());
    for (std::size_t i = slots; i < settled_ms.size(); ++i) {
      out.op_ms.push_back(settled_ms[i] - settled_ms[i - slots]);
    }
    const robust::WorkerPoolStats& s = swept->worker_stats;
    pool.tasks += s.tasks;
    pool.remote_clean += s.remote_clean;
    pool.certificate_rejects += s.certificate_rejects;
    sweeps.push_back(swept->rows);
    ready_ms.push_back(std::move(ready));
  }
  worker.stop();
  out.peak_rss_mb = peak_rss_mb();
  const dag::TaskGraph& graph = *parsed;

  // Reference: the same sweep, serial and in-process.
  robust::ResilientSweepOptions serial;
  serial.driver.cancel = &never_cancelled;
  auto ref = robust::resilient_sweep(graph, power_model(), cluster(), caps,
                                     serial);
  if (!ref.ok() || ref->rows.size() != caps.size()) {
    throw std::runtime_error("serial reference sweep failed");
  }
  for (std::size_t k = 0; k < sweeps.size(); ++k) {
    const std::vector<robust::SweepRow>& rows = sweeps[k];
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::string& got = rows[i].report_json;
      if (!report_certified(got) ||
          strip_telemetry(got) != strip_telemetry(ref->rows[i].report_json)) {
        out.tally.fail("fan-out row " + std::to_string(i) +
                       " differs from the serial sweep");
        continue;
      }
      ++out.tally.certified;
      if (ready_ms[k][rows[i].job_cap_watts] <= kFanoutLatencyLimitMs) {
        ++out.tally.good;
      }
    }
  }

  if (layers) {
    std::vector<SetupTimes> setups;
    for (std::size_t r = 0; r < out.setup_s.size(); ++r) {
      setups.push_back(setup_once(tr, text, nullptr));
    }
    set_setup_layers(layers, setups);
    const LayerTotals t = rebuild_layers(tr, graph, caps, kRebuildDeadlineMs);
    set_rebuild_layers(layers, t);
    DriverLayers driver;
    for (const auto& rows : sweeps) {
      for (const robust::SweepRow& row : rows) {
        driver.add(row.job_cap_watts, row.report_json, t, true);
      }
    }
    driver.set(layers);
    double serial_ms = 0.0;
    for (const robust::SweepRow& row : ref->rows) {
      serial_ms += json_number(row.report_json, "wall_ms");
    }
    serial_ms /= static_cast<double>(caps.size());
    double fan_ms = 0.0;
    for (double v : out.op_ms) fan_ms += v;
    fan_ms /= static_cast<double>(std::max<std::size_t>(1, out.op_ms.size()));
    layers->set("robust.fanout_overhead_ms", fan_ms - serial_ms, "ms");
    layers->set("robust.remote_fraction",
                pool.tasks ? static_cast<double>(pool.remote_clean) /
                                 pool.tasks
                           : 0.0,
                "ratio");
    layers->set("robust.certificate_rejects", pool.certificate_rejects,
                "count");
  }
  return out;
}

}  // namespace

Outcome run_workload(const Config& cfg, Tracer& tr, Metrics* layers) {
  if (cfg.workload == "bound-large") return bound_large(cfg, tr, layers);
  if (cfg.workload == "paper-sweep") return paper_sweep(cfg, tr, layers);
  if (cfg.workload == "serve-mix") return serve_mix(cfg, tr, layers);
  if (cfg.workload == "sweep-fanout") return sweep_fanout(cfg, tr, layers);
  throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
}

}  // namespace powerbench

#include "robust/remote_worker.h"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <new>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/schedule_io.h"
#include "dag/trace_io.h"
#include "machine/power_model.h"
#include "robust/journal.h"
#include "robust/wire.h"
#include "util/log.h"
#include "util/posix_io.h"
#include "util/rng.h"

namespace powerlim::robust {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

void sleep_ms(double ms) {
  if (ms <= 0.0) return;
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000.0);
  ts.tv_nsec = static_cast<long>(std::fmod(ms, 1000.0) * 1e6);
  nanosleep(&ts, nullptr);
}

long child_peak_rss_kb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<long>(ru.ru_maxrss);
}

JournalEntry entry_from_report(const RunReport& rep) {
  JournalEntry e;
  e.job_cap_watts = rep.job_cap_watts;
  e.verdict = rep.verdict;
  e.degraded = rep.degraded;
  e.bound_seconds = rep.bound_seconds;
  e.fallback = rep.fallback;
  e.report_json = rep.to_json();
  return e;
}

}  // namespace

// --- handshake / job payloads ----------------------------------------

std::string encode_handshake(const RemoteSolveConfig& config,
                             const dag::TaskGraph& graph) {
  std::ostringstream os;
  os << kRemoteProtoMagic << "\n";
  char line[192];
  std::snprintf(line, sizeof line,
                "config cap_deadline_ms=%.17g validate_replay=%d "
                "verify_certificate=%d discrete=%d\n",
                config.cap_deadline_ms, config.validate_replay ? 1 : 0,
                config.verify_certificate ? 1 : 0, config.discrete ? 1 : 0);
  os << line;
  dag::write_trace(os, graph);
  return os.str();
}

bool decode_handshake(const std::string& payload, RemoteSolveConfig* config,
                      std::string* trace_text, std::string* error) {
  const std::size_t eol1 = payload.find('\n');
  if (eol1 == std::string::npos) {
    if (error) *error = "truncated handshake (no magic line)";
    return false;
  }
  if (payload.substr(0, eol1) != kRemoteProtoMagic) {
    if (error) {
      *error = "protocol mismatch (want \"" + std::string(kRemoteProtoMagic) +
               "\", got \"" + payload.substr(0, std::min<std::size_t>(eol1, 64)) +
               "\")";
    }
    return false;
  }
  const std::size_t eol2 = payload.find('\n', eol1 + 1);
  if (eol2 == std::string::npos) {
    if (error) *error = "truncated handshake (no config line)";
    return false;
  }
  const std::string line = payload.substr(eol1 + 1, eol2 - eol1 - 1);
  RemoteSolveConfig c;
  int replay = 1;
  int certificate = 1;
  int discrete = 0;
  if (std::sscanf(line.c_str(),
                  "config cap_deadline_ms=%lg validate_replay=%d "
                  "verify_certificate=%d discrete=%d",
                  &c.cap_deadline_ms, &replay, &certificate, &discrete) != 4) {
    if (error) *error = "malformed handshake config line";
    return false;
  }
  c.validate_replay = replay != 0;
  c.verify_certificate = certificate != 0;
  c.discrete = discrete != 0;
  if (config) *config = c;
  if (trace_text) *trace_text = payload.substr(eol2 + 1);
  return true;
}

std::string encode_job(double job_cap_watts, int attempt) {
  char line[96];
  std::snprintf(line, sizeof line, "cap=%.17g attempt=%d", job_cap_watts,
                attempt);
  return line;
}

bool decode_job(const std::string& payload, double* job_cap_watts,
                int* attempt) {
  double cap = 0.0;
  int att = 0;
  if (std::sscanf(payload.c_str(), "cap=%lg attempt=%d", &cap, &att) != 2) {
    return false;
  }
  if (job_cap_watts) *job_cap_watts = cap;
  if (attempt) *attempt = att;
  return true;
}

// --- serve-worker ----------------------------------------------------

namespace {

/// One accepted scheduler connection with its framing state.
struct ServeConn {
  int fd = -1;
  FrameStream stream;
};

enum class RecvOutcome { kFrame, kDisconnected, kCancelled, kCorrupt };

/// Blocks (in 100 ms poll slices, cancel-checked) until one complete
/// frame is decoded. Used between jobs, where no heartbeats flow.
RecvOutcome recv_frame(ServeConn& conn, WireFrame* frame,
                       const util::CancelToken* cancel) {
  for (;;) {
    const WireDecode d = conn.stream.next(frame);
    if (d == WireDecode::kOk) return RecvOutcome::kFrame;
    if (conn.stream.poisoned()) return RecvOutcome::kCorrupt;
    if (cancel && cancel->cancelled()) return RecvOutcome::kCancelled;
    struct pollfd pfd;
    pfd.fd = conn.fd;
    pfd.events = POLLIN;
    const int ready =
        util::retry_eintr([&] { return ::poll(&pfd, 1, 100); });
    if (ready < 0) return RecvOutcome::kDisconnected;
    if (ready == 0) continue;
    std::string chunk;
    const util::IoStatus st = util::recv_some(conn.fd, &chunk);
    if (st == util::IoStatus::kDisconnected || st == util::IoStatus::kError) {
      return RecvOutcome::kDisconnected;
    }
    conn.stream.feed(chunk);
  }
}

bool send_frame(int fd, char tag, const std::string& payload) {
  const std::string frame = encode_wire_frame(tag, payload);
  if (frame.empty()) return false;
  return util::send_all(fd, frame.data(), frame.size(), 10.0) ==
         util::IoStatus::kOk;
}

/// The forked per-job solve. Mirrors the local pool's child exactly
/// (same rlimits, same exit codes); additionally ships the accepted
/// schedule as an 'S' frame so the scheduler's certificate gate can
/// re-verify the result it cannot otherwise trust.
[[noreturn]] void serve_child_run(int write_fd, const dag::TaskGraph& graph,
                                  const machine::PowerModel& model,
                                  const machine::ClusterSpec& cluster,
                                  const RemoteSolveConfig& config, double cap,
                                  int attempt, bool lie,
                                  const ServeWorkerOptions& options) {
  util::set_log_worker_id(static_cast<int>(::getpid() % 1000));
  apply_worker_limits(options.limits);
  JournalEntry entry;
  std::string solution;
  try {
    SolveDriverOptions opt;
    // One cap per child: the distributed sweep's caps are the parallel
    // axis, so this solve keeps its windows serial.
    opt.window_threads = core::WindowThreads::kSerial;
    opt.cap_deadline_ms = config.cap_deadline_ms;
    opt.validate_replay = config.validate_replay;
    opt.verify_certificate = lie ? false : config.verify_certificate;
    opt.lp.discrete = config.discrete;
    opt.cancel = options.cancel;
    FaultPlan lie_plan;
    std::optional<ScopedFaultPlan> lie_scope;
    if (lie) {
      // The Byzantine worker: skip local verification and ship a bound
      // shrunk just past feasibility. Invisible to replay; only the
      // scheduler's exact certificate gate can catch it.
      lie_plan.corrupt_solution_epsilon = 0.05;
      lie_scope.emplace(lie_plan);
    }
    const SolveDriver driver(graph, model, cluster, opt);
    SolveOutcome out = driver.solve(cap);
    out.report.worker.isolated = true;
    out.report.worker.spawns = attempt + 1;
    out.report.worker.retries = attempt;
    out.report.worker.peak_rss_kb = child_peak_rss_kb();
    entry = entry_from_report(out.report);
    if (out.report.verdict == StatusCode::kOk) {
      core::SavedSchedule saved;
      saved.schedule = out.lp.schedule;
      saved.frontiers = out.lp.frontiers;
      saved.vertex_time = out.lp.vertex_time;
      saved.job_cap_watts = cap;
      saved.makespan = out.lp.makespan;
      std::ostringstream ss;
      core::write_schedule(ss, saved);
      solution = ss.str();
    }
  } catch (const std::bad_alloc&) {
    _exit(kWorkerExitOom);
  } catch (...) {
    _exit(kWorkerExitFailure);
  }
  Status st = write_wire_frame(write_fd, 'R', serialize_journal_entry(entry));
  if (st.ok() && !solution.empty()) {
    st = write_wire_frame(write_fd, 'S', solution);
  }
  _exit(st.ok() ? 0 : kWorkerExitFailure);
}

enum class JobServe { kServed, kClientGone, kCancelled };

/// Forks one solve child for the job and supervises it: heartbeats to
/// the scheduler while it runs, client-EOF kills it, cancellation drains
/// it gracefully (SIGTERM -> the child's pivot-granularity cancel ->
/// its final 'R' frame is still flushed). Worker-side fault injection
/// happens here, on the *delivery* of an honest result (except kLie,
/// which corrupts the solve itself).
JobServe supervise_job(ServeConn& conn, const dag::TaskGraph& graph,
                       const machine::PowerModel& model,
                       const machine::ClusterSpec& cluster,
                       const RemoteSolveConfig& config, double cap,
                       int attempt, double wall_seconds,
                       const ServeWorkerOptions& options, std::ostream& err) {
  const bool injured =
      options.fault != NetFault::kNone && attempt < options.fault_attempts;

  if (injured && options.fault == NetFault::kStall) {
    // Dead-peer simulation: accept the job, then fall silent. Drain the
    // socket so the eventual client disconnect is observed.
    for (;;) {
      if (options.cancel && options.cancel->cancelled()) {
        return JobServe::kCancelled;
      }
      struct pollfd pfd;
      pfd.fd = conn.fd;
      pfd.events = POLLIN;
      const int ready =
          util::retry_eintr([&] { return ::poll(&pfd, 1, 100); });
      if (ready < 0) return JobServe::kClientGone;
      if (ready == 0) continue;
      std::string sink;
      const util::IoStatus st = util::recv_some(conn.fd, &sink);
      if (st == util::IoStatus::kDisconnected ||
          st == util::IoStatus::kError) {
        return JobServe::kClientGone;
      }
    }
  }

  const bool lie = injured && options.fault == NetFault::kLie;

  int fds[2];
  if (::pipe(fds) != 0) {
    send_frame(conn.fd, 'E',
               std::string("worker-crashed cannot pipe: ") +
                   std::strerror(errno));
    return JobServe::kServed;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    send_frame(conn.fd, 'E',
               std::string("worker-crashed cannot fork: ") +
                   std::strerror(errno));
    return JobServe::kServed;
  }
  if (pid == 0) {
    ::close(fds[0]);
    ::close(conn.fd);
    serve_child_run(fds[1], graph, model, cluster, config, cap, attempt, lie,
                    options);
  }
  ::close(fds[1]);
  const int pipe_fd = fds[0];

  const Clock::time_point start = Clock::now();
  Clock::time_point last_beat = start;
  // kSlow widens the heartbeat cadence: every frame arrives late, but
  // below the scheduler's dead-peer threshold - slow, provably alive.
  const double beat_interval =
      options.heartbeat_ms +
      (injured && options.fault == NetFault::kSlow ? options.slow_delay_ms
                                                   : 0.0);
  bool termed = false;
  bool killed = false;
  bool deadline_killed = false;
  bool client_gone = false;
  Clock::time_point term_at = start;
  std::string pipe_bytes;

  for (;;) {
    const Clock::time_point now = Clock::now();
    if (options.cancel && options.cancel->cancelled() && !termed && !killed) {
      ::kill(pid, SIGTERM);  // graceful: the child flushes a kCancelled 'R'
      termed = true;
      term_at = now;
    }
    if (termed && !killed && ms_between(term_at, now) > 5000.0) {
      ::kill(pid, SIGKILL);
      killed = true;
    }
    if (wall_seconds > 0.0 && !killed &&
        ms_between(start, now) > wall_seconds * 1000.0) {
      ::kill(pid, SIGKILL);
      killed = true;
      deadline_killed = true;
    }
    if (!client_gone && ms_between(last_beat, now) >= beat_interval) {
      if (!send_frame(conn.fd, 'H', "")) client_gone = true;
      last_beat = now;
    }
    if (client_gone && !killed) {
      ::kill(pid, SIGKILL);
      killed = true;
    }

    struct pollfd pfds[2];
    pfds[0].fd = pipe_fd;
    pfds[0].events = POLLIN;
    pfds[1].fd = conn.fd;
    pfds[1].events = POLLIN;
    const int ready = util::retry_eintr(
        [&] { return ::poll(pfds, client_gone ? 1 : 2, 50); });
    if (ready > 0 && !client_gone && (pfds[1].revents & (POLLIN | POLLHUP))) {
      std::string chunk;
      const util::IoStatus st = util::recv_some(conn.fd, &chunk);
      if (st == util::IoStatus::kDisconnected ||
          st == util::IoStatus::kError) {
        client_gone = true;
      } else {
        conn.stream.feed(chunk);  // e.g. a pipelined 'Q'
      }
    }
    if (ready > 0 && (pfds[0].revents & (POLLIN | POLLHUP))) {
      char buf[4096];
      const ssize_t n = util::read_some(pipe_fd, buf, sizeof buf);
      if (n > 0) {
        pipe_bytes.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0) {
        break;  // child closed its pipe: done (or dead)
      }
    }
  }
  ::close(pipe_fd);
  int wait_status = 0;
  util::retry_eintr([&] { return ::waitpid(pid, &wait_status, 0); });

  if (client_gone) return JobServe::kClientGone;

  const WorkerAttemptVerdict v =
      classify_worker_exit(deadline_killed, wait_status, pipe_bytes, cap);

  if (v.outcome != WorkerOutcome::kOk) {
    const std::string payload =
        std::string(to_string(v.outcome)) + " " + v.detail;
    if (!send_frame(conn.fd, 'E', payload)) return JobServe::kClientGone;
    return (options.cancel && options.cancel->cancelled())
               ? JobServe::kCancelled
               : JobServe::kServed;
  }

  std::string result = encode_wire_frame('R', serialize_journal_entry(v.entry));
  if (injured && options.fault == NetFault::kDrop) {
    // Torn frame: ship half the result, then hang up.
    util::send_all(conn.fd, result.data(), result.size() / 2, 10.0);
    ::shutdown(conn.fd, SHUT_RDWR);
    return JobServe::kClientGone;
  }
  if (injured && options.fault == NetFault::kCorrupt) {
    // Flip one payload byte but keep the original CRC in the header:
    // the scheduler's decoder must reject the frame, not misread it.
    const std::size_t body = result.find('\n');
    if (body != std::string::npos && body + 1 < result.size()) {
      result[body + 1] ^= 0x20;
    }
  }
  if (injured && options.fault == NetFault::kSlow) {
    sleep_ms(options.slow_delay_ms);
  }
  if (util::send_all(conn.fd, result.data(), result.size(), 10.0) !=
      util::IoStatus::kOk) {
    return JobServe::kClientGone;
  }
  if (!v.solution_text.empty() &&
      !send_frame(conn.fd, 'S', v.solution_text)) {
    return JobServe::kClientGone;
  }
  if (options.cancel && options.cancel->cancelled()) {
    return JobServe::kCancelled;
  }
  (void)err;
  return JobServe::kServed;
}

/// One scheduler connection: handshake, then jobs until 'Q' / EOF /
/// cancellation.
void handle_connection(int fd, const ServeWorkerOptions& options,
                       std::ostream& err) {
  ServeConn conn;
  conn.fd = fd;

  WireFrame frame;
  const RecvOutcome hs = recv_frame(conn, &frame, options.cancel);
  if (hs != RecvOutcome::kFrame) {
    if (hs == RecvOutcome::kCorrupt) {
      err << "serve-worker: rejecting connection: " << conn.stream.last_error()
          << "\n";
      send_frame(fd, 'A', "error " + conn.stream.last_error());
    }
    return;
  }
  if (frame.tag != 'T') {
    send_frame(fd, 'A', "error expected handshake frame");
    return;
  }
  RemoteSolveConfig config;
  std::string trace_text;
  std::string hs_error;
  if (!decode_handshake(frame.payload, &config, &trace_text, &hs_error)) {
    err << "serve-worker: bad handshake: " << hs_error << "\n";
    send_frame(fd, 'A', "error " + hs_error);
    return;
  }
  std::optional<dag::TaskGraph> graph;
  try {
    std::istringstream in(trace_text);
    graph.emplace(dag::read_trace(in, "<remote>"));
  } catch (const std::exception& e) {
    err << "serve-worker: bad trace in handshake: " << e.what() << "\n";
    send_frame(fd, 'A', std::string("error bad trace: ") + e.what());
    return;
  }
  // The scheduler solves against the CLI's default machine model; the
  // worker must build the identical one for byte-identical results.
  const machine::PowerModel model{machine::SocketSpec{}};
  const machine::ClusterSpec cluster{};

  if (!send_frame(fd, 'A', "ok")) return;

  double wall_seconds = options.limits.wall_seconds;
  if (wall_seconds <= 0.0 && config.cap_deadline_ms > 0.0) {
    // Same derivation as the local pool: cap deadline plus grace for
    // the fallback simulation and result serialization.
    wall_seconds = config.cap_deadline_ms / 1000.0 + 2.0;
  }

  for (;;) {
    if (options.cancel && options.cancel->cancelled()) return;
    const RecvOutcome r = recv_frame(conn, &frame, options.cancel);
    if (r != RecvOutcome::kFrame) {
      if (r == RecvOutcome::kCorrupt) {
        err << "serve-worker: dropping connection: "
            << conn.stream.last_error() << "\n";
      }
      return;
    }
    if (frame.tag == 'Q') return;
    if (frame.tag != 'J') continue;
    double cap = 0.0;
    int attempt = 0;
    if (!decode_job(frame.payload, &cap, &attempt)) {
      err << "serve-worker: malformed job payload; dropping connection\n";
      return;
    }
    const JobServe served = supervise_job(conn, *graph, model, cluster, config,
                                          cap, attempt, wall_seconds, options,
                                          err);
    if (served != JobServe::kServed) return;
  }
}

}  // namespace

int serve_worker(const ServeWorkerOptions& options, std::ostream& out,
                 std::ostream& err) {
  util::ignore_sigpipe();
  std::string listen_error;
  const int listen_fd =
      util::listen_tcp(options.listen.host, options.listen.port,
                       &listen_error);
  if (listen_fd < 0) {
    err << "serve-worker: " << listen_error << "\n";
    return 1;
  }
  const int port = util::bound_port(listen_fd);
  out << "serve-worker: listening on " << options.listen.host << ":" << port
      << "\n";
  out.flush();
  if (!options.port_file.empty()) {
    // Write-then-rename so a polling reader never sees a partial file.
    const std::string tmp = options.port_file + ".tmp";
    {
      std::ofstream pf(tmp, std::ios::trunc);
      pf << port << "\n";
      if (!pf) {
        err << "serve-worker: cannot write port file '" << options.port_file
            << "'\n";
        ::close(listen_fd);
        return 1;
      }
    }
    if (std::rename(tmp.c_str(), options.port_file.c_str()) != 0) {
      err << "serve-worker: cannot move port file into place: "
          << std::strerror(errno) << "\n";
      ::close(listen_fd);
      return 1;
    }
  }

  while (!(options.cancel && options.cancel->cancelled())) {
    util::IoStatus st = util::IoStatus::kOk;
    const int fd = util::accept_timeout(listen_fd, 0.1, &st);
    if (fd < 0) {
      if (st == util::IoStatus::kError) {
        err << "serve-worker: accept failed: " << std::strerror(errno)
            << "\n";
      }
      continue;
    }
    handle_connection(fd, options, err);
    ::close(fd);
    if (options.once) break;
  }
  ::close(listen_fd);
  out << "serve-worker: shutting down\n";
  return 0;
}

// --- scheduler side --------------------------------------------------

namespace {

/// Per-task progress through the reassignment ladder.
struct TaskState {
  int failures = 0;
  /// Session indices this cap already failed on (never retried there).
  std::vector<std::size_t> failed_remotes;
  bool settled = false;
  bool in_flight = false;
  double wall_ms = 0.0;
  long peak_rss_kb = 0;
  WorkerOutcome last_outcome = WorkerOutcome::kCrashed;
  std::string last_detail;
};

/// A cap walks the ladder: attempt 0 anywhere, one retry on a different
/// worker, then forced local. kMaxTaskFailures lost attempts degrade it.
constexpr int kMaxTaskFailures = 3;
constexpr int kForceLocalAfterFailures = 2;

struct Session {
  util::Endpoint endpoint;
  std::string name;
  util::Rng rng{1};

  enum class State { kBackoff, kHandshaking, kIdle, kBusy, kDead };
  State state = State::kBackoff;
  int fd = -1;
  FrameStream stream;
  Clock::time_point retry_at = Clock::now();
  int connect_failures = 0;
  double backoff_ms_total = 0.0;

  // In-flight job state (kBusy).
  std::size_t task = 0;
  Clock::time_point job_start;
  Clock::time_point last_heard;
  int heartbeat_misses = 0;
  bool miss_flagged = false;
  bool have_entry = false;
  JournalEntry entry;
  // Scheduler-side fault injection for this job.
  bool inj_stall = false;
  bool inj_corrupt = false;
  bool inj_slow = false;
  bool corrupt_done = false;
  double slow_budget_ms = 0.0;
};

struct LocalWorker {
  pid_t pid = -1;
  int read_fd = -1;
  std::size_t task = 0;
  Clock::time_point start;
  bool deadline_killed = false;
  std::string buffer;
};

WorkerOutcome outcome_from_wire_name(const std::string& name) {
  if (name == "resource-exhausted") return WorkerOutcome::kResourceExhausted;
  if (name == "timed-out") return WorkerOutcome::kTimedOut;
  return WorkerOutcome::kCrashed;
}

}  // namespace

WorkerPoolResult run_distributed_pool(
    const std::vector<WorkerTaskSpec>& tasks,
    const WorkerPoolOptions& local, const RemoteWorkerOptions& remote,
    const RemoteResultGate& gate, const util::Deadline& deadline,
    const std::function<void(const WorkerTaskResult&, std::size_t,
                             const TransportResult&)>& on_result) {
  util::ignore_sigpipe();

  WorkerPoolResult out;
  out.results.resize(tasks.size());
  out.stats.tasks = static_cast<int>(tasks.size());

  const std::size_t max_local =
      static_cast<std::size_t>(std::max(0, local.workers));

  std::vector<TaskState> states(tasks.size());
  std::deque<std::size_t> pending;
  for (std::size_t i = 0; i < tasks.size(); ++i) pending.push_back(i);

  std::vector<Session> sessions;
  sessions.reserve(remote.remotes.size());
  for (std::size_t i = 0; i < remote.remotes.size(); ++i) {
    Session s;
    s.endpoint = remote.remotes[i];
    s.name = util::to_string(remote.remotes[i]);
    s.rng = util::Rng(remote.jitter_seed + 0x9e3779b9u * (i + 1));
    sessions.push_back(std::move(s));
  }

  std::vector<LocalWorker> locals;
  int worker_seq = 0;
  std::size_t settled = 0;

  const auto count_failure_stat = [&](WorkerOutcome o) {
    switch (o) {
      case WorkerOutcome::kCrashed:
        ++out.stats.crashes;
        break;
      case WorkerOutcome::kResourceExhausted:
        ++out.stats.resource_exhausted;
        break;
      case WorkerOutcome::kTimedOut:
        ++out.stats.timeouts;
        break;
      default:
        break;
    }
  };

  const auto settle_failed = [&](std::size_t t) {
    TaskState& ts = states[t];
    WorkerTaskResult& r = out.results[t];
    r.outcome = ts.last_outcome;
    r.spawns = ts.failures;
    r.peak_rss_kb = ts.peak_rss_kb;
    r.wall_ms = ts.wall_ms;
    r.detail = ts.last_detail;
    ts.settled = true;
    ++settled;
    if (on_result) {
      TransportResult tr;
      tr.retries = ts.failures;
      on_result(r, t, tr);
    }
  };

  const auto settle_ok = [&](std::size_t t, JournalEntry entry,
                             const Session* via) {
    TaskState& ts = states[t];
    WorkerTaskResult& r = out.results[t];
    r.outcome = WorkerOutcome::kOk;
    r.entry = std::move(entry);
    r.spawns = ts.failures + 1;
    r.peak_rss_kb = ts.peak_rss_kb;
    r.wall_ms = ts.wall_ms;
    r.detail.clear();
    ts.settled = true;
    ++settled;
    ++out.stats.clean;
    TransportResult tr;
    tr.retries = ts.failures;
    if (via != nullptr) {
      tr.remote = true;
      tr.endpoint = via->name;
      tr.backoff_ms = via->backoff_ms_total;
      tr.heartbeat_misses = via->heartbeat_misses;
      ++out.stats.remote_clean;
    }
    if (on_result) on_result(r, t, tr);
  };

  /// One lost attempt: charge the task, remember where it failed, and
  /// requeue (front, so retries settle promptly) or settle degraded.
  const auto fail_attempt = [&](std::size_t t, const Session* via,
                                WorkerOutcome outcome,
                                const std::string& detail) {
    TaskState& ts = states[t];
    ts.in_flight = false;
    ++ts.failures;
    ts.last_outcome = outcome;
    ts.last_detail = detail;
    count_failure_stat(outcome);
    if (via != nullptr) {
      ++out.stats.remote_failures;
      ts.failed_remotes.push_back(
          static_cast<std::size_t>(via - sessions.data()));
    }
    util::log_warn() << "cap " << tasks[t].job_cap_watts << " attempt "
                     << ts.failures << "/" << kMaxTaskFailures << " lost"
                     << (via ? " on " + via->name : std::string(" locally"))
                     << ": " << detail;
    if (ts.failures >= kMaxTaskFailures) {
      settle_failed(t);
    } else {
      ++out.stats.retries;
      pending.push_front(t);
    }
  };

  const auto schedule_backoff = [&](Session& s) {
    ++s.connect_failures;
    if (s.connect_failures >= remote.max_connect_failures) {
      util::log_warn() << "remote " << s.name << " declared dead after "
                       << s.connect_failures << " consecutive failures";
      s.state = Session::State::kDead;
      return;
    }
    const int doublings = std::min(s.connect_failures - 1, 20);
    const double base =
        std::min(remote.backoff_max_ms,
                 remote.backoff_initial_ms *
                     static_cast<double>(1 << doublings));
    const double delay = base * s.rng.uniform(0.5, 1.5);
    s.backoff_ms_total += delay;
    s.retry_at = Clock::now() + std::chrono::microseconds(
                                    static_cast<long>(delay * 1000.0));
    s.state = Session::State::kBackoff;
  };

  const auto close_session = [&](Session& s, bool to_backoff) {
    if (s.fd >= 0) {
      ::close(s.fd);
      s.fd = -1;
    }
    s.stream = FrameStream();
    s.have_entry = false;
    if (to_backoff && s.state != Session::State::kDead) {
      schedule_backoff(s);
    }
  };

  /// The busy session lost its job (disconnect / silence / poison):
  /// charge the attempt and recycle the connection through backoff.
  const auto fail_busy_session = [&](Session& s, WorkerOutcome outcome,
                                     const std::string& detail) {
    const std::size_t t = s.task;
    s.state = Session::State::kBackoff;  // close_session keeps non-dead state
    close_session(s, true);
    const TaskState& ts = states[t];
    if (!ts.settled) {
      TaskState& mut = states[t];
      mut.wall_ms += ms_between(s.job_start, Clock::now());
      fail_attempt(t, &s, outcome, detail);
    }
  };

  const auto session_eligible = [&](const Session& s, std::size_t t) {
    const TaskState& ts = states[t];
    if (ts.failures >= kForceLocalAfterFailures) return false;
    const std::size_t idx = static_cast<std::size_t>(&s - sessions.data());
    for (std::size_t f : ts.failed_remotes) {
      if (f == idx) return false;
    }
    return true;
  };

  const auto all_remotes_dead = [&] {
    for (const Session& s : sessions) {
      if (s.state != Session::State::kDead) return false;
    }
    return true;
  };

  // A cap is forced local when its failure count says so, or when no
  // live remote may take it (every survivor already lost it): with one
  // remote endpoint, "retry on a different worker" collapses straight
  // to the local rung instead of waiting for a peer that cannot exist.
  const auto forced_local = [&](std::size_t t) {
    if (states[t].failures >= kForceLocalAfterFailures) return true;
    if (states[t].failures == 0) return false;
    for (const Session& s : sessions) {
      if (s.state != Session::State::kDead && session_eligible(s, t)) {
        return false;
      }
    }
    return true;
  };

  bool interrupted = false;
  util::StopReason stop = util::StopReason::kNone;

  while (settled < tasks.size()) {
    stop = deadline.stop_reason();
    if (stop != util::StopReason::kNone) {
      interrupted = true;
      break;
    }
    const Clock::time_point now = Clock::now();

    // --- session lifecycle: connect / handshake / liveness ---
    for (Session& s : sessions) {
      switch (s.state) {
        case Session::State::kBackoff: {
          if (now < s.retry_at) break;
          std::string cerr_msg;
          const int fd = util::connect_timeout(
              s.endpoint, remote.connect_timeout_ms / 1000.0, &cerr_msg);
          if (fd < 0) {
            schedule_backoff(s);
            break;
          }
          const std::string hs =
              encode_wire_frame('T', remote.handshake);
          if (hs.empty() ||
              util::send_all(fd, hs.data(), hs.size(), 10.0) !=
                  util::IoStatus::kOk) {
            ::close(fd);
            schedule_backoff(s);
            break;
          }
          s.fd = fd;
          s.stream = FrameStream();
          s.state = Session::State::kHandshaking;
          s.last_heard = now;
          break;
        }
        case Session::State::kHandshaking: {
          if (ms_between(s.last_heard, now) > remote.heartbeat_timeout_ms) {
            close_session(s, true);
          }
          break;
        }
        case Session::State::kBusy: {
          const double silence = ms_between(s.last_heard, now);
          if (!s.miss_flagged &&
              silence > remote.heartbeat_timeout_ms / 4.0) {
            ++s.heartbeat_misses;
            s.miss_flagged = true;
          }
          if (silence > remote.heartbeat_timeout_ms) {
            fail_busy_session(
                s, WorkerOutcome::kTimedOut,
                "no heartbeat from " + s.name + " for " +
                    std::to_string(static_cast<long>(silence)) +
                    " ms (dead peer)");
            break;
          }
          if (remote.job_timeout_ms > 0.0 &&
              ms_between(s.job_start, now) > remote.job_timeout_ms) {
            fail_busy_session(s, WorkerOutcome::kTimedOut,
                              "remote attempt on " + s.name +
                                  " overran its job timeout");
          }
          break;
        }
        default:
          break;
      }
    }

    // --- dispatch: idle remotes pull from the FRONT of the queue ---
    for (Session& s : sessions) {
      if (s.state != Session::State::kIdle || pending.empty()) continue;
      std::size_t pick = pending.size();
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (session_eligible(s, pending[i])) {
          pick = i;
          break;
        }
      }
      if (pick == pending.size()) continue;
      const std::size_t t = pending[pick];
      pending.erase(pending.begin() + static_cast<long>(pick));
      TaskState& ts = states[t];
      const double cap = tasks[t].job_cap_watts;

      const FaultPlan* plan = ScopedFaultPlan::active();
      const bool injured = plan && plan->net_fault != NetFault::kNone &&
                           plan->applies_to_cap(cap) &&
                           ts.failures < plan->net_fault_attempts;
      if (injured && plan->net_fault == NetFault::kDrop) {
        // Scheduler-side drop: lose the connection instead of the job.
        close_session(s, true);
        ++out.stats.spawned;
        fail_attempt(t, &s, WorkerOutcome::kCrashed,
                     "injected net-drop: connection lost before dispatch");
        continue;
      }
      const std::string job =
          encode_wire_frame('J', encode_job(cap, ts.failures));
      if (util::send_all(s.fd, job.data(), job.size(), 5.0) !=
          util::IoStatus::kOk) {
        close_session(s, true);
        fail_attempt(t, &s, WorkerOutcome::kCrashed,
                     "connection to " + s.name + " lost sending the job");
        continue;
      }
      s.state = Session::State::kBusy;
      s.task = t;
      s.job_start = s.last_heard = Clock::now();
      s.heartbeat_misses = 0;
      s.miss_flagged = false;
      s.have_entry = false;
      s.inj_stall = injured && plan->net_fault == NetFault::kStall;
      s.inj_corrupt = injured && plan->net_fault == NetFault::kCorrupt;
      s.inj_slow = injured && plan->net_fault == NetFault::kSlow;
      s.corrupt_done = false;
      s.slow_budget_ms = 500.0;
      ts.in_flight = true;
      ++out.stats.spawned;
    }

    // --- dispatch: free local slots pull from the BACK (and any cap
    // the ladder forced local, from wherever it sits) ---
    while (!pending.empty()) {
      std::size_t pick = pending.size();
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (forced_local(pending[i])) {
          pick = i;
          break;
        }
      }
      const bool forced = pick != pending.size();
      // local.workers == 0 disables ordinary local mixing, but the
      // ladder's forced-local rung (and a pool whose remotes all died)
      // always has at least one slot - the sweep must finish even with
      // every peer gone.
      std::size_t slots = max_local;
      if (forced || all_remotes_dead()) {
        slots = std::max<std::size_t>(slots, 1);
      }
      if (locals.size() >= slots) break;
      if (!forced) {
        if (max_local == 0 && !all_remotes_dead()) break;
        pick = all_remotes_dead() ? 0 : pending.size() - 1;
      }
      const std::size_t t = pending[pick];
      pending.erase(pending.begin() + static_cast<long>(pick));
      TaskState& ts = states[t];

      std::vector<int> extra;
      for (const LocalWorker& w : locals) extra.push_back(w.read_fd);
      for (const Session& s : sessions) {
        if (s.fd >= 0) extra.push_back(s.fd);
      }
      SpawnedWorker sw;
      if (!spawn_worker(tasks[t], ts.failures, local.limits, worker_seq++,
                        extra, &sw)) {
        fail_attempt(t, nullptr, WorkerOutcome::kCrashed,
                     std::string("cannot spawn worker: ") +
                         std::strerror(errno));
        continue;
      }
      LocalWorker w;
      w.pid = sw.pid;
      w.read_fd = sw.read_fd;
      w.task = t;
      w.start = Clock::now();
      locals.push_back(std::move(w));
      ts.in_flight = true;
      ++out.stats.spawned;
    }

    // --- local wall budgets ---
    for (LocalWorker& w : locals) {
      if (local.limits.wall_seconds > 0.0 && !w.deadline_killed &&
          ms_between(w.start, now) > local.limits.wall_seconds * 1000.0) {
        ::kill(w.pid, SIGKILL);
        w.deadline_killed = true;
      }
    }

    // --- poll local pipes + live sockets ---
    std::vector<struct pollfd> pfds;
    std::vector<Session*> pfd_session;
    for (const LocalWorker& w : locals) {
      pfds.push_back({w.read_fd, POLLIN, 0});
      pfd_session.push_back(nullptr);
    }
    for (Session& s : sessions) {
      if (s.fd < 0) continue;
      pfds.push_back({s.fd, POLLIN, 0});
      pfd_session.push_back(&s);
    }
    if (pfds.empty()) {
      sleep_ms(10.0);
      continue;
    }
    const int ready = util::retry_eintr([&] {
      return ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 20);
    });
    if (ready <= 0) continue;

    // --- local pipe events ---
    for (std::size_t i = 0; i < locals.size();) {
      LocalWorker& w = locals[i];
      bool finished = false;
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        char buf[4096];
        const ssize_t n = util::read_some(w.read_fd, buf, sizeof buf);
        if (n > 0) {
          w.buffer.append(buf, static_cast<std::size_t>(n));
        } else if (n == 0) {
          finished = true;
        }
      }
      if (!finished) {
        ++i;
        continue;
      }
      ::close(w.read_fd);
      int wait_status = 0;
      struct rusage ru {};
      util::retry_eintr([&] { return ::wait4(w.pid, &wait_status, 0, &ru); });
      const std::size_t t = w.task;
      TaskState& ts = states[t];
      ts.wall_ms += ms_between(w.start, Clock::now());
      ts.peak_rss_kb =
          std::max(ts.peak_rss_kb, static_cast<long>(ru.ru_maxrss));
      out.stats.max_peak_rss_kb =
          std::max(out.stats.max_peak_rss_kb, ts.peak_rss_kb);
      const WorkerAttemptVerdict v = classify_worker_exit(
          w.deadline_killed, wait_status, w.buffer, tasks[t].job_cap_watts);
      // Erase before settling so the pollfd indexing stays aligned on
      // the next loop iteration.
      locals.erase(locals.begin() + static_cast<long>(i));
      pfds.erase(pfds.begin() + static_cast<long>(i));
      pfd_session.erase(pfd_session.begin() + static_cast<long>(i));
      ts.in_flight = false;
      if (v.outcome == WorkerOutcome::kOk) {
        settle_ok(t, v.entry, nullptr);
      } else {
        fail_attempt(t, nullptr, v.outcome, v.detail);
      }
    }

    // --- socket events ---
    for (std::size_t i = locals.size(); i < pfds.size(); ++i) {
      Session* sp = pfd_session[i];
      if (sp == nullptr || sp->fd < 0) continue;
      Session& s = *sp;
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      std::string chunk;
      const util::IoStatus st = util::recv_some(s.fd, &chunk);
      if (st == util::IoStatus::kDisconnected ||
          st == util::IoStatus::kError) {
        if (s.state == Session::State::kBusy) {
          fail_busy_session(s, WorkerOutcome::kCrashed,
                            "connection to " + s.name + " lost mid-job");
        } else {
          close_session(s, true);
        }
        continue;
      }
      if (chunk.empty()) continue;
      if (s.state == Session::State::kBusy && s.inj_stall) {
        // Scheduler-side stall: pretend nothing arrives. last_heard is
        // left alone so the dead-peer timer fires.
        continue;
      }
      if (s.state == Session::State::kBusy && s.inj_slow &&
          s.slow_budget_ms > 0.0) {
        sleep_ms(50.0);
        s.slow_budget_ms -= 50.0;
      }
      if (s.state == Session::State::kBusy && s.inj_corrupt &&
          !s.corrupt_done) {
        chunk[chunk.size() - 1] ^= 0x01;
        s.corrupt_done = true;
      }
      if (s.state == Session::State::kBusy && !s.miss_flagged &&
          ms_between(s.last_heard, Clock::now()) >
              remote.heartbeat_timeout_ms / 4.0) {
        // The frame arrived, but only after a whole silent interval: a
        // slow worker, recorded as a miss (vs a dead one, which never
        // resets the timer and trips the timeout above).
        ++s.heartbeat_misses;
      }
      s.last_heard = Clock::now();
      s.miss_flagged = false;
      s.stream.feed(chunk);

      WireFrame f;
      bool closed = false;
      while (!closed && s.stream.next(&f) == WireDecode::kOk) {
        switch (f.tag) {
          case 'A': {
            if (s.state != Session::State::kHandshaking) break;
            if (f.payload == "ok") {
              s.state = Session::State::kIdle;
              s.connect_failures = 0;
            } else {
              // A config/version rejection will not heal with retries.
              util::log_warn() << "remote " << s.name
                               << " rejected the handshake: " << f.payload;
              s.state = Session::State::kDead;
              close_session(s, false);
              closed = true;
            }
            break;
          }
          case 'H':
            break;  // liveness only; last_heard is already updated
          case 'R': {
            if (s.state != Session::State::kBusy) break;
            JournalEntry e;
            if (!parse_journal_entry(f.payload, &e) ||
                std::abs(e.job_cap_watts - tasks[s.task].job_cap_watts) >
                    1e-9) {
              fail_busy_session(s, WorkerOutcome::kCrashed,
                                "unusable result payload from " + s.name);
              closed = true;
              break;
            }
            if (e.verdict == StatusCode::kCancelled) {
              // The worker is draining for shutdown; the cap did not
              // really settle.
              const std::size_t t = s.task;
              s.state = Session::State::kIdle;
              states[t].wall_ms += ms_between(s.job_start, Clock::now());
              fail_attempt(t, &s, WorkerOutcome::kCrashed,
                           "remote worker " + s.name +
                               " cancelled the attempt (shutting down)");
              break;
            }
            if (e.verdict == StatusCode::kOk) {
              s.entry = std::move(e);
              s.have_entry = true;  // accept once the 'S' artifact lands
              break;
            }
            // Degraded / infeasible verdicts carry no bound worth
            // forging; accept as reported.
            const std::size_t t = s.task;
            s.state = Session::State::kIdle;
            states[t].wall_ms += ms_between(s.job_start, Clock::now());
            states[t].in_flight = false;
            settle_ok(t, std::move(e), &s);
            break;
          }
          case 'S': {
            if (s.state != Session::State::kBusy || !s.have_entry) {
              fail_busy_session(s, WorkerOutcome::kCrashed,
                                "unexpected solution frame from " + s.name);
              closed = true;
              break;
            }
            const std::size_t t = s.task;
            const Status verdict =
                gate ? gate(s.entry, f.payload) : Status::Ok();
            s.have_entry = false;
            states[t].wall_ms += ms_between(s.job_start, Clock::now());
            if (!verdict.ok()) {
              ++out.stats.certificate_rejects;
              // The peer is lying but alive: keep the session for other
              // caps; this cap never returns to it.
              s.state = Session::State::kIdle;
              fail_attempt(t, &s, WorkerOutcome::kCrashed,
                           "remote result from " + s.name +
                               " rejected: " + verdict.to_string());
            } else {
              s.state = Session::State::kIdle;
              states[t].in_flight = false;
              settle_ok(t, s.entry, &s);
            }
            break;
          }
          case 'E': {
            if (s.state != Session::State::kBusy) break;
            const std::size_t t = s.task;
            s.state = Session::State::kIdle;
            states[t].wall_ms += ms_between(s.job_start, Clock::now());
            const std::size_t space = f.payload.find(' ');
            const WorkerOutcome o =
                outcome_from_wire_name(f.payload.substr(0, space));
            fail_attempt(t, &s, o,
                         "remote attempt on " + s.name + " failed: " +
                             (space == std::string::npos
                                  ? f.payload
                                  : f.payload.substr(space + 1)));
            break;
          }
          default:
            break;  // unknown frame tags are ignored for forward compat
        }
      }
      if (!closed && s.stream.poisoned()) {
        if (s.state == Session::State::kBusy) {
          fail_busy_session(s, WorkerOutcome::kCrashed,
                            "wire-malformed from " + s.name + ": " +
                                s.stream.last_error());
        } else {
          close_session(s, true);
        }
      }
    }
  }

  // --- teardown ---
  if (interrupted) {
    for (LocalWorker& w : locals) {
      ::kill(w.pid, SIGKILL);
      int wait_status = 0;
      util::retry_eintr([&] { return ::waitpid(w.pid, &wait_status, 0); });
      ::close(w.read_fd);
      WorkerTaskResult& r = out.results[w.task];
      r.outcome = WorkerOutcome::kSkipped;
      r.detail = "pool interrupted mid-solve";
    }
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (!states[t].settled &&
          out.results[t].outcome == WorkerOutcome::kSkipped &&
          out.results[t].detail.empty()) {
        out.results[t].detail = "pool interrupted before dispatch";
      }
    }
    out.interrupted = true;
    out.stop = stop;
  }
  for (Session& s : sessions) {
    if (s.fd >= 0) {
      const std::string quit = encode_wire_frame('Q', "");
      util::send_all(s.fd, quit.data(), quit.size(), 0.5);
      ::close(s.fd);
      s.fd = -1;
    }
  }
  return out;
}

}  // namespace powerlim::robust

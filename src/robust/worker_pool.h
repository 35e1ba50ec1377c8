// Process-isolated sweep workers with crash containment, resource
// budgets and optional remote serve-workers: the one pool every
// multi-process sweep runs on.
//
// A cap sweep is embarrassingly parallel - one independent LP ladder
// per cap - but a serial in-process sweep dies whole when any single
// solve segfaults or OOMs. run_worker_pool() forks one child per task
// attempt (up to `workers` in flight), runs the task's callback IN THE
// CHILD under optional setrlimit budgets (RLIMIT_AS memory, RLIMIT_CPU
// time), and ships the result back over a CRC-framed pipe
// (robust/wire.h). The parent supervises:
//
//   * clean exit + intact frame      -> result accepted
//   * signal death (SIGSEGV/SIGABRT) -> crash, contained
//   * allocator failure under the    -> resource-exhausted (workers
//     memory budget (kWorkerExitOom)    catch std::bad_alloc and exit
//                                       with this code)
//   * SIGXCPU (CPU budget)           -> resource-exhausted
//   * wall deadline overrun          -> SIGKILL by the parent, timed out
//   * clean exit, garbled frame      -> protocol error, treated as crash
//
// Given remote serve-worker endpoints (robust/remote_worker.h), the same
// event loop also drives TCP sessions: remote sessions pull caps from
// the front of the queue, free local slots from the back. Every lost
// attempt walks one reassignment ladder:
//
//   1. the first attempt, anywhere (local only: the front of the queue),
//   2. with remotes: a retry on a *different* remote,
//   3. a forced-local retry in a fresh fork worker,
//
// and a cap that loses every rung settles as a classified
// WorkerTaskResult the caller degrades exactly like an exhausted ladder.
// A local-only pool is one rung shorter: two spawns, one retry. Results
// stream to the caller via on_result in completion order, so journal
// appends land as caps finish and a crash of the *parent* loses at most
// the in-flight caps.
//
// The pool is task-agnostic (the callback returns a JournalEntry), so
// tests drive it with hostile children - allocate-forever, sleep-
// forever, abort mid-write - without touching the LP stack.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "robust/journal.h"
#include "robust/solve_driver.h"
#include "robust/status.h"
#include "util/deadline.h"
#include "util/socket_io.h"

namespace powerlim::robust {

/// Exit code a worker uses for "my allocator failed under the memory
/// budget" (caught std::bad_alloc). Distinct from crash-class codes so
/// the parent can classify resource exhaustion without a signal.
inline constexpr int kWorkerExitOom = 86;
/// Exit code for any other exception escaping the task callback.
inline constexpr int kWorkerExitFailure = 87;

/// Per-worker resource budgets, applied in the child before the task
/// runs. Zero means unlimited.
struct WorkerLimits {
  /// RLIMIT_AS, MiB. Ignored under AddressSanitizer and ThreadSanitizer
  /// (their shadow memory reserves TBs of address space; an AS limit
  /// would kill every worker).
  long mem_mb = 0;
  /// RLIMIT_CPU, seconds (rounded up; hard limit adds 2 s of grace).
  double cpu_seconds = 0.0;
  /// Parent-enforced wall budget per spawn, seconds: a worker alive
  /// past it is SIGKILLed and the attempt classified kTimedOut.
  double wall_seconds = 0.0;
};

/// How one task finally settled (after any retry).
enum class WorkerOutcome {
  kOk,
  kCrashed,            // signal death / unexpected exit / garbled frame
  kResourceExhausted,  // allocator failure or SIGXCPU under a budget
  kTimedOut,           // parent wall deadline killed it
  kSkipped,            // pool interrupted before the task ran
};

const char* to_string(WorkerOutcome outcome);

/// Maps a terminal (non-kOk) outcome onto the sweep taxonomy.
StatusCode status_code_for(WorkerOutcome outcome);

/// The task body, run in the forked child. `attempt` is 0 for the first
/// spawn and counts the cap's lost attempts after that. The returned
/// entry is wire-framed to the parent; throwing std::bad_alloc exits
/// with kWorkerExitOom, any other exception with kWorkerExitFailure.
using WorkerTask = std::function<JournalEntry(int attempt)>;

struct WorkerTaskSpec {
  /// Task identity in logs and results (the cap being solved).
  double job_cap_watts = 0.0;
  WorkerTask run;
};

/// One settled task.
struct WorkerTaskResult {
  WorkerOutcome outcome = WorkerOutcome::kSkipped;
  /// Valid when outcome == kOk.
  JournalEntry entry;
  /// Attempts consumed (1 = clean first try).
  int spawns = 0;
  /// Peak RSS across this task's local spawns, KiB (wait4 rusage).
  long peak_rss_kb = 0;
  /// Parent-observed wall time across this task's attempts, ms.
  double wall_ms = 0.0;
  /// Human-readable classification of the last failure ("signal 6
  /// (SIGABRT)", "exit 86 (allocator failure)", ...); empty when clean.
  std::string detail;
};

/// Pool-wide telemetry, aggregated into RunReport/CLI output. The
/// remote_* / certificate fields stay zero for purely local pools.
struct WorkerPoolStats {
  int tasks = 0;
  int spawned = 0;
  int clean = 0;
  int crashes = 0;
  int resource_exhausted = 0;
  int timeouts = 0;
  int retries = 0;
  long max_peak_rss_kb = 0;
  /// Caps settled by a remote serve-worker (distributed pools).
  int remote_clean = 0;
  /// Remote attempts lost to disconnect / timeout / corrupt frame /
  /// rejected result.
  int remote_failures = 0;
  /// Remote results rejected by the local certificate gate.
  int certificate_rejects = 0;
};

struct WorkerPoolOptions {
  /// Max local fork workers in flight. Without remotes it is clamped to
  /// >= 1. With remotes, 0 disables ordinary local mixing: local
  /// workers then only run the ladder's forced-local rung, or every cap
  /// once all remotes are dead.
  int workers = 2;
  WorkerLimits limits;
};

struct WorkerPoolResult {
  /// One result per task, in task order (not completion order).
  std::vector<WorkerTaskResult> results;
  WorkerPoolStats stats;
  /// True when the deadline/cancel stopped the pool early; unfinished
  /// tasks are kSkipped and in-flight workers were SIGKILLed.
  bool interrupted = false;
  util::StopReason stop = util::StopReason::kNone;
};

/// Scheduler-side knobs for the remote half of a pool. Empty `remotes`
/// makes the pool purely local.
struct RemoteWorkerOptions {
  std::vector<util::Endpoint> remotes;
  /// Prebuilt 'T' payload (encode_handshake), sent on every (re)connect.
  std::string handshake;
  /// Heartbeat silence that declares a busy peer dead, ms.
  double heartbeat_timeout_ms = 2000.0;
  /// Per-job wall ceiling on a remote attempt, ms (0 = none; heartbeat
  /// supervision still polices liveness).
  double job_timeout_ms = 0.0;
  double connect_timeout_ms = 1000.0;
  /// Capped exponential backoff between connect attempts, with
  /// deterministic jitter in [0.5, 1.5) seeded by `jitter_seed`.
  double backoff_initial_ms = 25.0;
  double backoff_max_ms = 1000.0;
  /// Consecutive connect failures after which an endpoint is dead.
  int max_connect_failures = 4;
  std::uint64_t jitter_seed = 1;
};

/// Byzantine gate: invoked for every remote kOk result with its 'S'
/// solution artifact before acceptance. A non-ok Status rejects the
/// result - classified like a corrupt frame, so the cap walks the
/// reassignment ladder.
using RemoteResultGate =
    std::function<Status(const JournalEntry& entry,
                         const std::string& solution_text)>;

/// Fires in the parent as each task settles, in completion order - the
/// journaling hook. The transport telemetry says how the result
/// travelled; a caller with remotes splices it into the report
/// (patch_transport_json).
using WorkerResultHook = std::function<void(
    const WorkerTaskResult&, std::size_t task, const TransportTelemetry&)>;

/// Runs every task across up to `options.workers` local fork workers
/// plus the sessions of `remote.remotes`, walking the reassignment
/// ladder above. `deadline` is checked between dispatches; expiry or
/// cancellation SIGKILLs local children, closes sessions, and leaves
/// unfinished tasks kSkipped. `gate` re-verifies remote kOk results.
WorkerPoolResult run_worker_pool(const std::vector<WorkerTaskSpec>& tasks,
                                 const WorkerPoolOptions& options,
                                 const util::Deadline& deadline = {},
                                 const WorkerResultHook& on_result = {},
                                 const RemoteWorkerOptions& remote = {},
                                 const RemoteResultGate& gate = {});

// --- building blocks shared with the serve-worker and powerlimd ---

/// Applies the setrlimit budgets in the current (child) process. No-op
/// for zero budgets; RLIMIT_AS is compiled out under AddressSanitizer
/// and ThreadSanitizer.
void apply_worker_limits(const WorkerLimits& limits);

/// What one worker *attempt* came back as, before retry policy.
struct WorkerAttemptVerdict {
  WorkerOutcome outcome = WorkerOutcome::kCrashed;
  /// Valid when outcome == kOk.
  JournalEntry entry;
  /// Optional 'S' frame shipped after the result: the solution artifact
  /// (core::write_schedule text) a remote verifies against the
  /// certificate gate. Empty for local pool workers.
  std::string solution_text;
  std::string detail;
};

/// Classifies one finished worker attempt from its wait() status and the
/// bytes it wrote before EOF. Accepts one 'R' result frame, optionally
/// followed by one 'S' solution frame; anything else on a clean exit is
/// a protocol error (kCrashed). `deadline_killed` marks a worker the
/// supervisor SIGKILLed for overrunning its wall budget.
WorkerAttemptVerdict classify_worker_exit(bool deadline_killed,
                                          int wait_status,
                                          const std::string& pipe_bytes,
                                          double expected_cap);

/// The body of a task child: tags its log lines with `worker_id`,
/// applies `limits`, runs `task`, and ships the entry as an 'R' frame,
/// followed by an 'S' frame when the task filled in a solution
/// artifact. Returns the child's exit code.
int run_worker_child(int write_fd, int worker_id, const WorkerLimits& limits,
                     const std::function<JournalEntry(std::string* solution)>&
                         task);

/// One forked child (pid + the read end of its pipe).
struct SpawnedWorker {
  pid_t pid = -1;
  int read_fd = -1;
};

/// The one place a supervised child is forked. The child closes the read
/// end and every fd in `close_fds` (sibling pipes, sockets - a child
/// holding a session socket open would suppress the peer's EOF), runs
/// `child` with the write end, and _exit()s with its return value; a
/// std::bad_alloc escaping `child` exits kWorkerExitOom, any other
/// exception kWorkerExitFailure. Returns false on fork/pipe failure
/// (errno preserved).
bool spawn_worker(const std::vector<int>& close_fds,
                  const std::function<int(int write_fd)>& child,
                  SpawnedWorker* out);

}  // namespace powerlim::robust

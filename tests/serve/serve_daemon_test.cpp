// Lifecycle and overload-containment acceptance for powerlimd, driven
// through the real CLI (`powerlim serve`) in a forked child:
//
//   * SIGTERM drains: the active request finishes, queued requests are
//     shed as 'O draining', and the daemon exits 0;
//   * a stalled client holding a partial frame is reaped on the
//     handshake timeout and cannot block honest clients;
//   * with the admission queue full, new requests get 'overloaded
//     queue-full' promptly while admitted requests still complete;
//   * hostile bytes on the daemon socket - oversized length prefixes
//     and random fuzz - drop that connection only (satellite: shared
//     kMaxFrameBytes ceiling enforced at the daemon socket);
//   * SIGHUP (journal reopen) does not disturb service;
//   * a trace is validated once per daemon: a malformed one is refused
//     on every submission, a valid repeat gets byte-identical rows;
//   * a different trace with the same crc32 key is refused by the
//     primary and shed by a standby, never served the other's rows;
//   * a torn trace snapshot is rewritten from intact request bytes, and
//     the repaired snapshot carries a SIGKILL + --resume.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "robust/wire.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/repl.h"
#include "tools/cli.h"
#include "util/socket_io.h"

namespace powerlim::cli {
namespace {

using serve::CollectResult;
using serve::CollectStatus;
using serve::ServeClient;
using serve::ServeRequest;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// A forked `powerlim serve` child. The destructor SIGKILLs a daemon a
/// failed assertion left behind - otherwise the orphan inherits the
/// test's stdio and wedges any pipeline reading it.
struct Daemon {
  pid_t pid = -1;
  util::Endpoint endpoint;
  std::string state_dir;

  Daemon() = default;
  Daemon(Daemon&& o) noexcept
      : pid(o.pid), endpoint(o.endpoint), state_dir(std::move(o.state_dir)) {
    o.pid = -1;
  }
  Daemon& operator=(Daemon&& o) noexcept {
    std::swap(pid, o.pid);
    endpoint = o.endpoint;
    state_dir = o.state_dir;
    return *this;
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid <= 0) return;
    kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
  }

  /// Graceful SIGTERM drain; returns the exit code (or -signal).
  int stop() {
    if (pid <= 0) return -1;
    kill(pid, SIGTERM);
    int status = 0;
    const pid_t waited = waitpid(pid, &status, 0);
    const pid_t was = pid;
    pid = -1;
    if (waited != was) return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  }
};

/// Starts a daemon over `state_dir`, or over a fresh per-call directory
/// when it is empty.
Daemon start_daemon(std::vector<std::string> extra_args,
                    const std::string& state_dir = "") {
  static int counter = 0;
  const std::string tag =
      std::to_string(::getpid()) + "_" + std::to_string(counter++);
  const std::string port_file = temp_path("powerlimd_port_" + tag);
  Daemon d;
  d.state_dir =
      state_dir.empty() ? temp_path("powerlimd_state_" + tag) : state_dir;
  std::remove(port_file.c_str());
  std::vector<std::string> args = {"serve",       "--listen",
                                   "127.0.0.1:0", "--port-file",
                                   port_file,     "--state-dir",
                                   d.state_dir};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  const pid_t pid = fork();
  if (pid == 0) {
    install_signal_handlers();
    std::ostringstream out, err;
    _exit(run(args, out, err));
  }
  d.pid = pid;
  for (int i = 0; i < 500; ++i) {
    std::ifstream f(port_file);
    int port = 0;
    if (f >> port && port > 0) {
      d.endpoint.host = "127.0.0.1";
      d.endpoint.port = port;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::remove(port_file.c_str());
  return d;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Result records in the journal of `text` under `state_dir`.
int journaled_rows(const std::string& state_dir, const std::string& text) {
  std::ifstream f(serve::journal_path(state_dir, serve::trace_hash(text)));
  int n = 0;
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("R ", 0) == 0) ++n;
  }
  return n;
}

/// Report JSON of every row with the daemon's per-reply `service`
/// telemetry neutralized: what is left comes from the journal bytes.
std::vector<std::string> row_reports(const CollectResult& got) {
  static const std::regex kService("\"service\":\\{[^}]*\\}");
  std::vector<std::string> out;
  for (const serve::ServeRow& row : got.rows) {
    out.push_back(std::to_string(row.entry.job_cap_watts) + " " +
                  std::regex_replace(row.entry.report_json, kService,
                                     "\"service\":{}"));
  }
  return out;
}

/// Running bytewise CRC-32 register (no final xor), so a search can
/// extend one prefix's CRC instead of rehashing the whole text.
std::uint32_t crc_extend(std::uint32_t crc, const std::string& bytes) {
  for (unsigned char c : bytes) {
    crc ^= c;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc;
}

/// Two different traces with the same crc32 key: `a` and `b` each grow
/// one "# <n>" comment line (the trace parser skips comments), and a
/// birthday search pairs 2^17 variants of `a` with variants of `b`.
std::pair<std::string, std::string> crc_collision(const std::string& a,
                                                  const std::string& b) {
  // <n> is written as ten scrambled nibbles, '@'..'O'. The CRC is affine
  // in the input bits, so the bits that vary must span all 32 of its
  // outputs; a decimal counter varies ~24 bits and usually finds no pair.
  const auto line = [](std::uint64_t n) {
    std::uint64_t z = (n + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 29)) * 0xBF58476D1CE4E5B9ull;
    z ^= z >> 32;
    std::string s = "# ";
    for (int i = 0; i < 10; ++i) {
      s += static_cast<char>('@' + ((z >> (4 * i)) & 0xFu));
    }
    return s + "\n";
  };
  const std::uint32_t crc_a = crc_extend(0xFFFFFFFFu, a);
  const std::uint32_t crc_b = crc_extend(0xFFFFFFFFu, b);
  std::unordered_map<std::uint32_t, std::uint32_t> seen;
  for (std::uint32_t n = 0; n < (1u << 17); ++n) {
    seen.emplace(crc_extend(crc_a, line(n)), n);
  }
  for (std::uint32_t n = 0; n < (1u << 22); ++n) {
    const auto hit = seen.find(crc_extend(crc_b, line(n)));
    if (hit != seen.end()) return {a + line(hit->second), b + line(n)};
  }
  return {};
}

/// Shared fixture: a light CoMD trace (2 ranks - requests finish in
/// tens of ms) and a heavy one (16 ranks x 30 iterations - a 16-cap
/// request occupies the single active slot for about a second, long
/// enough that queue/drain scenarios are deterministic).
class PowerlimdLifecycle : public ::testing::Test {
 protected:
  static std::string load_trace(const std::string& name, int ranks,
                                int iterations) {
    const std::string path = temp_path(name);
    std::ostringstream out, err;
    EXPECT_EQ(run({"trace", "comd", "-o", path, "--ranks",
                   std::to_string(ranks), "--iterations",
                   std::to_string(iterations)},
                  out, err),
              0);
    std::ifstream f(path);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
  }

  static void SetUpTestSuite() {
    trace_text_ = new std::string(load_trace("powerlimd_trace", 2, 3));
    heavy_text_ =
        new std::string(load_trace("powerlimd_trace_heavy", 16, 30));
    ASSERT_FALSE(trace_text_->empty());
    ASSERT_FALSE(heavy_text_->empty());
  }

  static void TearDownTestSuite() {
    delete trace_text_;
    delete heavy_text_;
  }

  static ServeRequest request(const std::string& id, int n) {
    ServeRequest req;
    req.id = id;
    req.kind = n == 1 ? "bound" : "sweep";
    for (int i = 0; i < n; ++i) req.caps.push_back(2 * (30.0 + 2.5 * i));
    req.trace_text = *trace_text_;
    return req;
  }

  /// A request that takes on the order of a second to solve.
  static ServeRequest heavy_request(const std::string& id, int n) {
    ServeRequest req;
    req.id = id;
    req.kind = "sweep";
    for (int i = 0; i < n; ++i) req.caps.push_back(16 * (30.0 + 2.5 * i));
    req.trace_text = *heavy_text_;
    return req;
  }

  static std::string* trace_text_;
  static std::string* heavy_text_;
};

std::string* PowerlimdLifecycle::trace_text_ = nullptr;
std::string* PowerlimdLifecycle::heavy_text_ = nullptr;

TEST_F(PowerlimdLifecycle, SigtermDrainsActiveAndShedsQueued) {
  Daemon d = start_daemon({"--max-active", "1"});
  ASSERT_GT(d.endpoint.port, 0);

  // A large request occupies the single active slot; a second queues
  // behind it. SIGTERM must finish A, shed-or-finish B, and exit 0.
  ServeClient a, b;
  ASSERT_TRUE(a.connect(d.endpoint).ok());
  ASSERT_TRUE(b.connect(d.endpoint).ok());
  ASSERT_TRUE(a.submit(heavy_request("drain-a", 16)).ok());
  ASSERT_TRUE(b.submit(heavy_request("drain-b", 16)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  kill(d.pid, SIGTERM);

  const CollectResult got_a = a.collect("drain-a", 60.0);
  EXPECT_EQ(got_a.status, CollectStatus::kDone);
  EXPECT_EQ(got_a.done.status, "ok");
  EXPECT_EQ(got_a.rows.size(), 16u);

  const CollectResult got_b = b.collect("drain-b", 60.0);
  if (got_b.status == CollectStatus::kOverloaded) {
    EXPECT_EQ(got_b.overloaded.reason, "draining");
  } else {
    // B only escapes the shed if A finished before the signal landed.
    EXPECT_EQ(got_b.status, CollectStatus::kDone) << got_b.error_detail;
  }

  int status = 0;
  ASSERT_EQ(waitpid(d.pid, &status, 0), d.pid);
  d.pid = -1;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST_F(PowerlimdLifecycle, StalledClientCannotBlockOthers) {
  Daemon d = start_daemon({"--io-timeout-s", "1"});
  ASSERT_GT(d.endpoint.port, 0);

  // A peer that sends two bytes of a frame and then nothing.
  std::string error;
  const int staller = util::connect_timeout(d.endpoint, 5.0, &error);
  ASSERT_GE(staller, 0) << error;
  ASSERT_EQ(util::send_all(staller, "W ", 2, 5.0), util::IoStatus::kOk);

  // Honest traffic keeps flowing while the staller squats.
  ServeClient honest;
  ASSERT_TRUE(honest.connect(d.endpoint).ok());
  ASSERT_TRUE(honest.submit(request("honest", 2)).ok());
  const CollectResult got = honest.collect("honest", 60.0);
  EXPECT_EQ(got.status, CollectStatus::kDone);
  EXPECT_EQ(got.done.status, "ok");

  // The staller is reaped on the handshake timeout: its socket reaches
  // EOF without it ever completing a frame.
  std::string drained;
  EXPECT_TRUE(robust::drain_fd(staller, &drained));
  ::close(staller);

  EXPECT_EQ(d.stop(), 0);
}

TEST_F(PowerlimdLifecycle, QueueFullShedsPromptlyWhileAdmittedComplete) {
  Daemon d = start_daemon({"--max-active", "1", "--max-queue", "1"});
  ASSERT_GT(d.endpoint.port, 0);

  ServeClient a, b, c;
  ASSERT_TRUE(a.connect(d.endpoint).ok());
  ASSERT_TRUE(b.connect(d.endpoint).ok());
  ASSERT_TRUE(c.connect(d.endpoint).ok());
  // A occupies the active slot, B the whole queue; C must be shed
  // immediately, not after A and B's solve time.
  ASSERT_TRUE(a.submit(heavy_request("full-a", 16)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(b.submit(heavy_request("full-b", 16)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(c.submit(heavy_request("full-c", 16)).ok());
  const CollectResult got_c = c.collect("full-c", 60.0);
  const double shed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_EQ(got_c.status, CollectStatus::kOverloaded)
      << serve::to_string(got_c.status);
  EXPECT_EQ(got_c.overloaded.reason, "queue-full");
  // Shedding is an admission decision, not a solve: it must come back
  // well inside the time either admitted request needs.
  EXPECT_LT(shed_ms, 2000.0);

  const CollectResult got_a = a.collect("full-a", 60.0);
  EXPECT_EQ(got_a.status, CollectStatus::kDone);
  EXPECT_EQ(got_a.done.status, "ok");
  const CollectResult got_b = b.collect("full-b", 60.0);
  EXPECT_EQ(got_b.status, CollectStatus::kDone);
  EXPECT_EQ(got_b.done.status, "ok");
  // The done summaries carry the shed counter (schema-6 service
  // telemetry travels per-row; the terminal frame carries the totals).
  EXPECT_GE(got_b.done.shed_total, 1);

  EXPECT_EQ(d.stop(), 0);
}

TEST_F(PowerlimdLifecycle, HostileFramesDropOnlyTheirConnection) {
  Daemon d = start_daemon({"--io-timeout-s", "2"});
  ASSERT_GT(d.endpoint.port, 0);

  // An oversized length prefix (past kMaxWirePayload, i.e. past the
  // shared kMaxFrameBytes ceiling) must be rejected before any
  // allocation happens, by dropping the connection.
  {
    std::string error;
    const int fd = util::connect_timeout(d.endpoint, 5.0, &error);
    ASSERT_GE(fd, 0) << error;
    std::ostringstream hostile;
    hostile << "W T 00000000 " << (robust::kMaxWirePayload + 1) << "\n";
    ASSERT_EQ(util::send_all(fd, hostile.str().data(), hostile.str().size(),
                             5.0),
              util::IoStatus::kOk);
    std::string drained;
    EXPECT_TRUE(robust::drain_fd(fd, &drained));  // daemon closes on us
    EXPECT_TRUE(drained.empty());                 // and never acks
    ::close(fd);
  }

  // Deterministic fuzz: a dozen connections spraying pseudo-random
  // bytes. None may take the daemon down.
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  for (int round = 0; round < 12; ++round) {
    std::string error;
    const int fd = util::connect_timeout(d.endpoint, 5.0, &error);
    ASSERT_GE(fd, 0) << error << " round " << round;
    std::string bytes;
    const int len = 32 + static_cast<int>(rng % 224);
    for (int i = 0; i < len; ++i) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      bytes.push_back(static_cast<char>(rng >> 33));
    }
    (void)util::send_all(fd, bytes.data(), bytes.size(), 5.0);
    ::close(fd);
  }

  // The daemon is still healthy for honest clients afterwards.
  ServeClient honest;
  ASSERT_TRUE(honest.connect(d.endpoint).ok());
  ASSERT_TRUE(honest.submit(request("after-fuzz", 2)).ok());
  const CollectResult got = honest.collect("after-fuzz", 60.0);
  EXPECT_EQ(got.status, CollectStatus::kDone);
  EXPECT_EQ(got.done.status, "ok");

  EXPECT_EQ(d.stop(), 0);
}

TEST_F(PowerlimdLifecycle, SighupReopensJournalsWithoutDisturbingService) {
  Daemon d = start_daemon({});
  ASSERT_GT(d.endpoint.port, 0);

  ServeClient client;
  ASSERT_TRUE(client.connect(d.endpoint).ok());
  ASSERT_TRUE(client.submit(request("pre-hup", 2)).ok());
  EXPECT_EQ(client.collect("pre-hup", 60.0).status, CollectStatus::kDone);

  kill(d.pid, SIGHUP);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  ASSERT_TRUE(client.submit(request("post-hup", 2)).ok());
  const CollectResult got = client.collect("post-hup", 60.0);
  EXPECT_EQ(got.status, CollectStatus::kDone);
  EXPECT_EQ(got.done.status, "ok");
  // The second request re-served its caps from the journal the first
  // one wrote - proof the reopened journal is the same file.
  EXPECT_EQ(got.done.resumed, 2);

  EXPECT_EQ(d.stop(), 0);
}

TEST_F(PowerlimdLifecycle, VersionSkewedClientIsRejectedAtHello) {
  Daemon d = start_daemon({});
  ASSERT_GT(d.endpoint.port, 0);

  std::string error;
  const int fd = util::connect_timeout(d.endpoint, 5.0, &error);
  ASSERT_GE(fd, 0) << error;
  const std::string skewed = robust::encode_wire_frame(
      serve::kTagHello, std::string(serve::kServeProtoMagic) +
                            "\nschema=999 proto=999");
  ASSERT_EQ(util::send_all(fd, skewed.data(), skewed.size(), 5.0),
            util::IoStatus::kOk);
  std::string reply_bytes;
  ASSERT_TRUE(robust::drain_fd(fd, &reply_bytes));
  ::close(fd);

  // Exactly one 'A' frame with an error ack, then the daemon hung up.
  std::vector<robust::WireFrame> frames;
  ASSERT_EQ(robust::decode_wire_frames(reply_bytes, &frames),
            robust::WireDecode::kOk);
  ASSERT_EQ(frames.size(), 1u);
  const robust::WireFrame& frame = frames[0];
  EXPECT_EQ(frame.tag, serve::kTagHelloAck);
  EXPECT_EQ(frame.payload.rfind("error ", 0), 0u) << frame.payload;
  EXPECT_NE(frame.payload.find("version skew"), std::string::npos)
      << frame.payload;

  EXPECT_EQ(d.stop(), 0);
}

TEST_F(PowerlimdLifecycle, MalformedTraceIsRefusedOnEverySubmission) {
  Daemon d = start_daemon({});
  ASSERT_GT(d.endpoint.port, 0);

  // "task x ..." : a non-numeric rank on the first task line.
  std::string bad = *trace_text_;
  const std::size_t task = bad.find("\ntask ");
  ASSERT_NE(task, std::string::npos);
  bad.replace(task + 6, 1, "x");

  // A malformed trace never joins the parsed set, so the second
  // submission is parsed (and refused) exactly like the first.
  ServeClient client;
  ASSERT_TRUE(client.connect(d.endpoint).ok());
  std::vector<std::string> errors;
  for (const char* id : {"bad-1", "bad-2"}) {
    ServeRequest req = request(id, 1);
    req.trace_text = bad;
    ASSERT_TRUE(client.submit(req).ok());
    const CollectResult got = client.collect(id, 60.0);
    ASSERT_EQ(got.status, CollectStatus::kRequestError)
        << serve::to_string(got.status);
    EXPECT_NE(got.error_detail.find("request:" + std::string(id)),
              std::string::npos)
        << got.error_detail;
    errors.push_back(got.error_detail.substr(got.error_detail.find(" at ")));
  }
  EXPECT_EQ(errors[0], errors[1]);
  EXPECT_NE(errors[0].find("'x'"), std::string::npos) << errors[0];

  // Refused traces leave no state behind: no snapshot, no journal.
  EXPECT_FALSE(std::filesystem::exists(
      serve::trace_path(d.state_dir, serve::trace_hash(bad))));
  EXPECT_EQ(d.stop(), 0);
}

TEST_F(PowerlimdLifecycle, RepeatedTraceOnTwoConnectionsGetsIdenticalRows) {
  Daemon d = start_daemon({});
  ASSERT_GT(d.endpoint.port, 0);

  // The first submission parses, snapshots and solves; the second, on
  // another connection, skips the parse and reads the journal.
  ServeClient first, second;
  ASSERT_TRUE(first.connect(d.endpoint).ok());
  ASSERT_TRUE(second.connect(d.endpoint).ok());
  ASSERT_TRUE(first.submit(request("twice-1", 3)).ok());
  const CollectResult a = first.collect("twice-1", 60.0);
  ASSERT_EQ(a.status, CollectStatus::kDone) << a.error_detail;
  ASSERT_TRUE(second.submit(request("twice-2", 3)).ok());
  const CollectResult b = second.collect("twice-2", 60.0);
  ASSERT_EQ(b.status, CollectStatus::kDone) << b.error_detail;

  EXPECT_EQ(a.done.resumed, 0);
  EXPECT_EQ(b.done.resumed, 3);
  ASSERT_EQ(a.rows.size(), 3u);
  EXPECT_EQ(row_reports(a), row_reports(b));
  EXPECT_EQ(read_file(serve::trace_path(d.state_dir,
                                        serve::trace_hash(*trace_text_))),
            *trace_text_);
  EXPECT_EQ(d.stop(), 0);
}

TEST_F(PowerlimdLifecycle, CrcCollisionIsRefusedByPrimaryAndShedByStandby) {
  const auto [owner, intruder] = crc_collision(
      *trace_text_, load_trace("powerlimd_trace_other", 2, 2));
  ASSERT_FALSE(owner.empty());
  ASSERT_NE(owner, intruder);
  ASSERT_EQ(serve::trace_hash(owner), serve::trace_hash(intruder));

  Daemon primary = start_daemon({"--repl-heartbeat-ms", "25"});
  ASSERT_GT(primary.endpoint.port, 0);
  Daemon standby = start_daemon(
      {"--standby-of", "127.0.0.1:" + std::to_string(primary.endpoint.port),
       "--repl-heartbeat-ms", "25"});
  ASSERT_GT(standby.endpoint.port, 0);

  ServeClient client;
  ASSERT_TRUE(client.connect(primary.endpoint).ok());
  auto submit = [&](ServeClient& c, const std::string& id,
                    const std::string& text) {
    ServeRequest req = request(id, 2);
    req.trace_text = text;
    EXPECT_TRUE(c.submit(req).ok());
    return c.collect(id, 60.0);
  };

  const CollectResult proven = submit(client, "owner-1", owner);
  ASSERT_EQ(proven.status, CollectStatus::kDone) << proven.error_detail;
  ASSERT_EQ(proven.rows.size(), 2u);

  const CollectResult refused = submit(client, "intruder", intruder);
  ASSERT_EQ(refused.status, CollectStatus::kRequestError)
      << serve::to_string(refused.status);
  EXPECT_NE(refused.error_detail.find("trace hash collision"),
            std::string::npos)
      << refused.error_detail;

  // The owner's snapshot and rows are untouched by the intruder.
  const std::string hash = serve::trace_hash(owner);
  EXPECT_EQ(read_file(serve::trace_path(primary.state_dir, hash)), owner);
  const CollectResult again = submit(client, "owner-2", owner);
  ASSERT_EQ(again.status, CollectStatus::kDone) << again.error_detail;
  EXPECT_EQ(again.done.resumed, 2);
  EXPECT_EQ(row_reports(again), row_reports(proven));

  // Once the standby holds the owner's snapshot and both rows, it
  // serves the owner read-only and sheds the intruder.
  for (int i = 0; i < 2000; ++i) {
    if (journaled_rows(standby.state_dir, owner) == 2 &&
        read_file(serve::trace_path(standby.state_dir, hash)) == owner)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(journaled_rows(standby.state_dir, owner), 2);
  ServeClient replica;
  ASSERT_TRUE(replica.connect(standby.endpoint).ok());
  const CollectResult shed = submit(replica, "intruder-s", intruder);
  ASSERT_EQ(shed.status, CollectStatus::kOverloaded)
      << serve::to_string(shed.status);
  EXPECT_EQ(shed.overloaded.reason, "standby");
  EXPECT_NE(shed.overloaded.detail.find("trace hash collision"),
            std::string::npos)
      << shed.overloaded.detail;
  const CollectResult read = submit(replica, "owner-s", owner);
  ASSERT_EQ(read.status, CollectStatus::kDone) << read.error_detail;
  EXPECT_EQ(row_reports(read), row_reports(proven));

  EXPECT_EQ(standby.stop(), 0);
  EXPECT_EQ(primary.stop(), 0);
}

TEST_F(PowerlimdLifecycle, TornSnapshotIsRepairedAndCarriesAResume) {
  const std::string state = temp_path("powerlimd_torn_state");
  std::filesystem::remove_all(state);
  std::filesystem::create_directories(state);
  const std::string& text = *heavy_text_;
  const std::string snapshot =
      serve::trace_path(state, serve::trace_hash(text));
  {
    // What a crash between create and fsync used to leave behind.
    std::ofstream torn(snapshot, std::ios::binary);
    torn << text.substr(0, text.size() / 2);
  }

  Daemon first = start_daemon({"--max-active", "1"}, state);
  ASSERT_GT(first.endpoint.port, 0);
  ServeClient client;
  ASSERT_TRUE(client.connect(first.endpoint).ok());
  ASSERT_TRUE(client.submit(heavy_request("torn-1", 1)).ok());
  const CollectResult served = client.collect("torn-1", 60.0);
  ASSERT_EQ(served.status, CollectStatus::kDone) << served.error_detail;
  EXPECT_EQ(served.done.status, "ok");
  // Fatal: a resume from an unrepaired snapshot owes caps it can never
  // run, and the --max-requests leg below would wait for it forever.
  ASSERT_EQ(read_file(snapshot), text) << "torn snapshot was not repaired";

  // SIGKILL mid-request: the owed caps come back only through the
  // repaired snapshot.
  constexpr int kCaps = 16;
  ASSERT_TRUE(client.submit(heavy_request("torn-2", kCaps)).ok());
  for (int i = 0; i < 30'000 && journaled_rows(state, text) < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  kill(first.pid, SIGKILL);
  int status = 0;
  waitpid(first.pid, &status, 0);
  first.pid = -1;
  client.close();
  ASSERT_LT(journaled_rows(state, text), kCaps)
      << "request finished before the kill; the resume leg would be vacuous";

  Daemon second = start_daemon({"--resume", "--max-requests", "1"}, state);
  ASSERT_GT(second.endpoint.port, 0);
  pid_t waited = 0;
  for (int i = 0; i < 60'000 && waited == 0; ++i) {
    waited = waitpid(second.pid, &status, WNOHANG);
    if (waited == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(waited, second.pid) << "resumed daemon never finished its caps";
  second.pid = -1;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(journaled_rows(state, text), kCaps);
}

}  // namespace
}  // namespace powerlim::cli

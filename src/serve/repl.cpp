#include "serve/repl.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <ostream>
#include <utility>

#include "util/posix_io.h"

namespace powerlim::serve {

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

std::string journal_path(const std::string& state_dir,
                         const std::string& hash) {
  return state_dir + "/sweep-" + hash + ".journal";
}

std::string trace_path(const std::string& state_dir,
                       const std::string& hash) {
  return state_dir + "/trace-" + hash + ".trace";
}

std::string trace_hash(const std::string& text) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x",
                robust::crc32(text.data(), text.size()));
  return buf;
}

SnapshotMatch match_trace_snapshot(const std::string& state_dir,
                                   const std::string& hash,
                                   const std::string& text) {
  std::string bytes;
  if (!read_file_range(trace_path(state_dir, hash), 0,
                       std::numeric_limits<std::size_t>::max(), &bytes)) {
    return errno == ENOENT ? SnapshotMatch::kAbsent : SnapshotMatch::kTorn;
  }
  if (bytes == text) return SnapshotMatch::kSame;
  return trace_hash(bytes) == hash ? SnapshotMatch::kCollision
                                   : SnapshotMatch::kTorn;
}

bool valid_trace_hash(const std::string& hash) {
  if (hash.empty() || hash.size() > 16) return false;
  for (char c : hash) {
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return false;
  }
  return true;
}

std::vector<std::string> journal_hashes(const std::string& state_dir) {
  std::vector<std::string> hashes;
  DIR* dir = ::opendir(state_dir.c_str());
  if (dir == nullptr) return hashes;
  const std::string prefix = "sweep-";
  const std::string suffix = ".journal";
  while (struct dirent* ent = ::readdir(dir)) {
    const std::string name = ent->d_name;
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0)
      continue;
    const std::string hash =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    if (valid_trace_hash(hash)) hashes.push_back(hash);
  }
  ::closedir(dir);
  std::sort(hashes.begin(), hashes.end());
  return hashes;
}

std::uint64_t load_epoch_file(const std::string& state_dir) {
  const std::string path = state_dir + "/epoch";
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  char buf[64] = {};
  const ssize_t n = util::read_full(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 0) return 0;
  std::uint64_t epoch = 0;
  if (std::sscanf(buf, "epoch=%llu",
                  reinterpret_cast<unsigned long long*>(&epoch)) != 1) {
    return 0;
  }
  return epoch;
}

bool store_epoch_file(const std::string& state_dir, std::uint64_t epoch,
                      std::string* error) {
  const std::string path = state_dir + "/epoch";
  if (util::write_file_atomic(path, "epoch=" + std::to_string(epoch) +
                                        "\n") != 0) {
    if (error) *error = errno_message(("write " + path).c_str());
    return false;
  }
  return true;
}

bool file_prefix_crc(const std::string& path, std::uint64_t offset,
                     std::uint32_t* crc_out) {
  std::string bytes;
  if (!read_file_range(path, 0, offset, &bytes)) return false;
  if (bytes.size() != offset) return false;
  *crc_out = robust::crc32(bytes.data(), bytes.size());
  return true;
}

bool read_file_range(const std::string& path, std::uint64_t offset,
                     std::size_t max_bytes, std::string* out) {
  out->clear();
  if (max_bytes == 0) return true;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  // Clamp to what the file can actually deliver *before* sizing the
  // buffer: max_bytes derives from a peer's replication mark, and a
  // corrupt or hostile offset must not translate into a huge resize.
  // Callers pre-clamp today; this keeps the function safe on its own.
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return false;
  }
  const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
  const std::size_t max_readable =
      offset >= size
          ? 0
          : static_cast<std::size_t>(
                std::min<std::uint64_t>(max_bytes, size - offset));
  if (max_readable == 0) {
    ::close(fd);
    return true;
  }
  out->resize(max_readable);
  std::size_t got = 0;
  while (got < max_readable) {
    const ssize_t n = util::retry_eintr([&] {
      return ::pread(fd, &(*out)[got], max_readable - got,
                     static_cast<off_t>(offset + got));
    });
    if (n < 0) {
      ::close(fd);
      out->clear();
      return false;
    }
    if (n == 0) break;  // EOF: short read is fine
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out->resize(got);
  return true;
}

// --- StandbyLink ---

struct StandbyLink::JournalSlot {
  std::unique_ptr<robust::SweepJournal> journal;
};

StandbyLink::StandbyLink(const Options& options, std::ostream& log)
    : opt_(options), log_(log), epoch_(options.epoch) {
  last_heard_ms_ = now_ms();
  next_dial_ms_ = 0.0;  // dial immediately on the first tick
}

StandbyLink::~StandbyLink() { close_link(); }

short StandbyLink::poll_events() const {
  return connecting_ ? POLLOUT : POLLIN;
}

double StandbyLink::silence_ms() const { return now_ms() - last_heard_ms_; }

void StandbyLink::touch() { last_heard_ms_ = now_ms(); }

void StandbyLink::close_link() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  connecting_ = false;
  helloed_ = false;
  stream_ = robust::FrameStream();
  journals_.clear();
}

void StandbyLink::drop_link(const std::string& why) {
  if (fd_ >= 0) {
    log_ << "powerlimd: standby: link to " << util::to_string(opt_.primary)
         << " dropped: " << why << "\n";
    ::close(fd_);
  }
  fd_ = -1;
  connecting_ = false;
  helloed_ = false;
  stream_ = robust::FrameStream();
  next_dial_ms_ = now_ms() + opt_.backoff_ms;
}

void StandbyLink::start_dial() {
  std::string error;
  fd_ = util::connect_start(opt_.primary, &error);
  if (fd_ < 0) {
    log_ << "powerlimd: standby: dial failed: " << error << "\n";
    next_dial_ms_ = now_ms() + opt_.backoff_ms;
    return;
  }
  connecting_ = true;
  reconnects_++;
}

void StandbyLink::tick() {
  if (fd_ >= 0) return;
  if (now_ms() < next_dial_ms_) return;
  start_dial();
}

bool StandbyLink::send_frame(char tag, const std::string& payload) {
  const std::string bytes = robust::encode_wire_frame(tag, payload);
  if (bytes.empty()) {
    drop_link("oversized frame on send");
    return false;
  }
  const util::IoStatus st =
      util::send_all(fd_, bytes.data(), bytes.size(), 10.0);
  if (st != util::IoStatus::kOk) {
    drop_link(std::string("send: ") + util::to_string(st));
    return false;
  }
  return true;
}

void StandbyLink::send_hello() {
  ReplHello hello;
  hello.epoch = epoch_;
  for (const std::string& hash : journal_hashes(opt_.state_dir)) {
    JournalSlot* slot = slot_for(hash);
    if (slot == nullptr) continue;
    ReplMark mark;
    mark.hash = hash;
    mark.offset = slot->journal->size_bytes();
    if (!file_prefix_crc(journal_path(opt_.state_dir, hash), mark.offset,
                         &mark.crc)) {
      continue;  // vanished or shrank underneath us; re-mark next dial
    }
    hello.marks.push_back(mark);
  }
  (void)send_frame(kTagReplHello, encode_repl_hello(hello));
}

void StandbyLink::on_pollable() {
  if (fd_ < 0) return;
  if (connecting_) {
    std::string error;
    const util::IoStatus st = util::connect_finish(fd_, &error);
    if (st != util::IoStatus::kOk) {
      drop_link(error.empty() ? util::to_string(st) : error);
      return;
    }
    connecting_ = false;
    touch();
    send_hello();
    return;
  }
  std::string bytes;
  const util::IoStatus st = util::recv_some(fd_, &bytes);
  if (st == util::IoStatus::kTimeout) return;  // spurious wakeup
  if (st != util::IoStatus::kOk) {
    drop_link(std::string("recv: ") + util::to_string(st));
    return;
  }
  stream_.feed(bytes);
  robust::WireFrame frame;
  while (true) {
    const robust::WireDecode d = stream_.next(&frame);
    if (d == robust::WireDecode::kEmpty) break;
    if (d != robust::WireDecode::kOk) {
      // Torn, CRC-damaged, or hostile-length bytes from the primary:
      // the stream is unresynchronizable, so drop and redial. Nothing
      // was applied from the bad frame; the next hello re-marks from
      // the durable high-water mark.
      rejected_++;
      drop_link("stream poisoned: " + stream_.last_error());
      return;
    }
    handle_frame(frame);
    if (fd_ < 0) return;  // a handler dropped the link
  }
}

void StandbyLink::adopt_epoch(std::uint64_t epoch) {
  if (epoch <= epoch_) return;
  epoch_ = epoch;
  std::string error;
  if (!store_epoch_file(opt_.state_dir, epoch_, &error)) {
    log_ << "powerlimd: standby: cannot persist epoch " << epoch_ << ": "
         << error << "\n";
  }
  log_ << "powerlimd: standby: adopted epoch " << epoch_ << "\n";
}

bool StandbyLink::check_epoch(std::uint64_t frame_epoch, const char* what) {
  if (frame_epoch < epoch_) {
    // A deposed primary is still streaming under a superseded epoch.
    // Refuse the bytes and sever - this standby may be about to be (or
    // already was) promoted past it.
    rejected_++;
    drop_link(std::string(what) + " under stale epoch " +
              std::to_string(frame_epoch) + " < " + std::to_string(epoch_));
    return false;
  }
  adopt_epoch(frame_epoch);
  return true;
}

StandbyLink::JournalSlot* StandbyLink::slot_for(const std::string& hash) {
  auto it = journals_.find(hash);
  if (it != journals_.end()) return it->second.get();
  auto opened = robust::SweepJournal::open(journal_path(opt_.state_dir, hash));
  if (!opened.ok()) {
    log_ << "powerlimd: standby: cannot open journal " << hash << ": "
         << opened.status().to_string() << "\n";
    return nullptr;
  }
  auto slot = std::make_unique<JournalSlot>();
  slot->journal =
      std::make_unique<robust::SweepJournal>(std::move(opened).value());
  return journals_.emplace(hash, std::move(slot)).first->second.get();
}

void StandbyLink::ack(const std::string& hash, std::uint64_t offset) {
  ReplAck a;
  a.hash = hash;
  a.offset = offset;
  a.epoch = epoch_;
  (void)send_frame(kTagReplAck, encode_repl_ack(a));
}

void StandbyLink::handle_frame(const robust::WireFrame& frame) {
  touch();
  switch (frame.tag) {
    case kTagReplHelloAck: {
      ReplHelloAck ack;
      if (!decode_repl_hello_ack(frame.payload, &ack)) {
        drop_link("malformed hello ack");
        return;
      }
      if (!ack.ok) {
        drop_link("primary refused: " + ack.error);
        return;
      }
      if (ack.epoch < epoch_) {
        // The dialed "primary" is behind this standby's epoch: it is
        // deposed (it will fence itself on our hello). Do not follow it.
        rejected_++;
        drop_link("primary epoch " + std::to_string(ack.epoch) +
                  " is stale (local " + std::to_string(epoch_) + ")");
        return;
      }
      adopt_epoch(ack.epoch);
      helloed_ = true;
      log_ << "powerlimd: standby: replicating from "
           << util::to_string(opt_.primary) << " at epoch " << epoch_
           << "\n";
      return;
    }
    case kTagReplHeartbeat: {
      std::uint64_t epoch = 0;
      if (!decode_repl_heartbeat(frame.payload, &epoch)) {
        drop_link("malformed heartbeat");
        return;
      }
      (void)check_epoch(epoch, "heartbeat");
      return;
    }
    case kTagReplTrace:
      handle_trace(frame.payload);
      return;
    case kTagReplJournal:
      handle_journal(frame.payload);
      return;
    case kTagReplResync:
      handle_resync(frame.payload);
      return;
    default:
      drop_link(std::string("unexpected frame '") + frame.tag + "'");
      return;
  }
}

void StandbyLink::handle_trace(const std::string& payload) {
  ReplTrace trace;
  if (!decode_repl_trace(payload, &trace)) {
    drop_link("malformed trace frame");
    return;
  }
  if (!valid_trace_hash(trace.hash)) {
    rejected_++;
    drop_link("hostile trace hash");
    return;
  }
  // Snapshots are content-keyed and immutable once intact, so a re-sent
  // snapshot after a reconnect is a no-op; bytes that do not hash to
  // their name are never stored, and a torn local copy is replaced.
  if (trace_hash(trace.trace_text) != trace.hash) {
    rejected_++;
    log_ << "powerlimd: standby: trace " << trace.hash
         << " does not match its hash; not stored\n";
    return;
  }
  const SnapshotMatch local =
      match_trace_snapshot(opt_.state_dir, trace.hash, trace.trace_text);
  if (local != SnapshotMatch::kAbsent && local != SnapshotMatch::kTorn) return;
  const std::string path = trace_path(opt_.state_dir, trace.hash);
  if (util::write_file_atomic(path, trace.trace_text) != 0) {
    log_ << "powerlimd: standby: cannot persist " << path << ": "
         << std::strerror(errno) << "\n";
  }
}

void StandbyLink::handle_journal(const std::string& payload) {
  ReplJournal j;
  if (!decode_repl_journal(payload, &j)) {
    drop_link("malformed journal frame");
    return;
  }
  if (!valid_trace_hash(j.hash)) {
    rejected_++;
    drop_link("hostile journal hash");
    return;
  }
  if (!check_epoch(j.epoch, "journal bytes")) return;
  JournalSlot* slot = slot_for(j.hash);
  if (slot == nullptr) return;
  const robust::Status st = slot->journal->append_raw(j.offset, j.bytes);
  if (st.ok()) {
    frames_applied_++;
    bytes_applied_ += static_cast<long>(j.bytes.size());
    ack(j.hash, slot->journal->size_bytes());
    return;
  }
  if (st.code() == robust::StatusCode::kBadInput) {
    // Offset mismatch: re-ack the durable mark so the primary rewinds
    // its stream (or resyncs us if our copy outran/diverged from its).
    ack(j.hash, slot->journal->size_bytes());
    return;
  }
  // kWireMalformed: torn or corrupt record bytes inside the frame.
  // Nothing was applied; sever and resync from the durable mark.
  rejected_++;
  drop_link("corrupt journal bytes for " + j.hash + ": " + st.to_string());
}

void StandbyLink::handle_resync(const std::string& payload) {
  ReplResync r;
  if (!decode_repl_resync(payload, &r)) {
    drop_link("malformed resync frame");
    return;
  }
  if (!valid_trace_hash(r.hash)) {
    rejected_++;
    drop_link("hostile resync hash");
    return;
  }
  // This copy's history diverged from the primary's (or outran it, e.g.
  // the standby survived an epoch the primary lost). Quarantine - never
  // delete - and restart the file from its header.
  journals_.erase(r.hash);
  const std::string path = journal_path(opt_.state_dir, r.hash);
  const std::string quarantine = path + ".divergent";
  ::unlink(quarantine.c_str());
  if (::rename(path.c_str(), quarantine.c_str()) != 0 && errno != ENOENT) {
    log_ << "powerlimd: standby: cannot quarantine " << path << ": "
         << std::strerror(errno) << "\n";
    return;
  }
  (void)util::fsync_parent_dir(path);
  resyncs_++;
  log_ << "powerlimd: standby: resync of " << r.hash << " (" << r.detail
       << "); old copy at " << quarantine << "\n";
  JournalSlot* slot = slot_for(r.hash);
  if (slot != nullptr) ack(r.hash, slot->journal->size_bytes());
}

}  // namespace powerlim::serve

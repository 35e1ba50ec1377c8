// EINTR-hardened POSIX IO helpers.
//
// Worker supervision is signal-heavy: SIGCHLD from exiting workers,
// SIGINT/SIGTERM from operators, and the alarm-style deadline kills the
// pool sends all land while the parent sits in read()/write()/fsync().
// A bare syscall then fails with EINTR (or returns a short count) and a
// naive caller misreads that as corruption. Every journal and pipe IO
// path goes through these helpers instead, so a retryable interruption
// is invisible and only real errors surface.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <string>

namespace powerlim::util {

/// Retries `call()` while it fails with EINTR. `call` must be a
/// syscall-shaped callable returning a signed count (< 0 = error with
/// errno set). Returns the first non-EINTR result.
template <typename Call>
auto retry_eintr(Call&& call) -> decltype(call());

/// Writes all `len` bytes, retrying EINTR and short writes. Returns 0 on
/// success, -1 on the first real error (errno preserved).
int write_full(int fd, const void* data, std::size_t len);

/// Reads exactly `len` bytes unless EOF comes first. Returns the byte
/// count actually read (possibly short at EOF), or -1 on a real error.
ssize_t read_full(int fd, void* data, std::size_t len);

/// Single read() that retries EINTR only (short reads are the caller's
/// business - this is the poll-loop primitive).
ssize_t read_some(int fd, void* data, std::size_t len);

/// fsync() with EINTR retry. Returns 0 or -1 (errno preserved).
int fsync_full(int fd);

/// Durability for file *creation*: fsync()s the directory containing
/// `path` (the path itself need not exist yet). fsync on a file makes
/// its bytes durable, but the directory entry pointing at a freshly
/// created file lives in the directory's own data - until that is
/// synced, a power loss can resurrect an empty directory with the file
/// (and its fsync'd contents) gone. Every create/rename of a durable
/// file must be followed by this. Returns 0 or -1 (errno preserved).
int fsync_parent_dir(const std::string& path);

/// Replaces `path` with `bytes` so a crash leaves either the old file or
/// the whole new one, never a torn mix: write a sibling temp file,
/// fsync it, rename it over `path`, fsync the directory. On failure the
/// temp file is removed. Returns 0 or -1 (errno preserved).
int write_file_atomic(const std::string& path, const std::string& bytes);

/// Monotonic count of successful fsync_parent_dir() calls in this
/// process. Test observability: durability tests assert the
/// create -> dir-fsync sequence happened without strace.
long fsync_parent_dir_count();

/// Out-of-line errno check so the header does not drag <cerrno> into
/// every includer (and so tests can reference one symbol).
bool retry_errno_is_eintr();

// --- implementation ---

template <typename Call>
auto retry_eintr(Call&& call) -> decltype(call()) {
  for (;;) {
    const auto r = call();
    if (r >= 0) return r;
    if (!retry_errno_is_eintr()) return r;
  }
}

}  // namespace powerlim::util

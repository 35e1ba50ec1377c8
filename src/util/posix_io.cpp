#include "util/posix_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <string>

namespace powerlim::util {

namespace {
std::atomic<long> g_dir_fsyncs{0};
}  // namespace

bool retry_errno_is_eintr() { return errno == EINTR; }

int write_full(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n =
        retry_eintr([&] { return ::write(fd, p + done, len - done); });
    if (n < 0) return -1;
    done += static_cast<std::size_t>(n);
  }
  return 0;
}

ssize_t read_full(int fd, void* data, std::size_t len) {
  char* p = static_cast<char*>(data);
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n =
        retry_eintr([&] { return ::read(fd, p + done, len - done); });
    if (n < 0) return -1;
    if (n == 0) break;  // EOF: report the short count
    done += static_cast<std::size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

ssize_t read_some(int fd, void* data, std::size_t len) {
  return retry_eintr([&] { return ::read(fd, data, len); });
}

int fsync_full(int fd) {
  return static_cast<int>(retry_eintr([&] { return ::fsync(fd); }));
}

int fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos
          ? std::string(".")
          : (slash == 0 ? std::string("/") : path.substr(0, slash));
  const int fd = static_cast<int>(retry_eintr(
      [&] { return ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC); }));
  if (fd < 0) return -1;
  const int rc = fsync_full(fd);
  const int saved = errno;
  ::close(fd);
  errno = saved;
  if (rc == 0) g_dir_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return rc;
}

int write_file_atomic(const std::string& path, const std::string& bytes) {
  // The pid keeps two processes sharing a directory off one temp name.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = static_cast<int>(retry_eintr([&] {
    return ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  }));
  if (fd < 0) return -1;
  const bool written = write_full(fd, bytes.data(), bytes.size()) == 0 &&
                       fsync_full(fd) == 0;
  int saved = errno;
  ::close(fd);
  if (!written || ::rename(tmp.c_str(), path.c_str()) != 0) {
    if (written) saved = errno;
    ::unlink(tmp.c_str());
    errno = saved;
    return -1;
  }
  return fsync_parent_dir(path);
}

long fsync_parent_dir_count() {
  return g_dir_fsyncs.load(std::memory_order_relaxed);
}

}  // namespace powerlim::util

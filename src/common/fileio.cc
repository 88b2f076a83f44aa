#include "common/fileio.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/failpoint.hh"

namespace allarm {

namespace {

// Every error message carries the path, the failed operation with its
// size/offset context, and strerror(errno) — a production log line must
// identify the broken file and the kernel's reason without a debugger.

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error(path + ": " + what + ": " + std::strerror(errno));
}

std::string io_context(const char* op, std::size_t size,
                       std::uint64_t offset) {
  return std::string(op) + " of " + std::to_string(size) +
         " bytes at offset " + std::to_string(offset);
}

/// A hit at a positional I/O site: kError and kDelay act as at every
/// whole-operation site; kShortIo/kTornWrite/kEintrStorm return to the
/// caller.
failpoint::Hit apply_common(const failpoint::Hit& hit, const std::string& path,
                            const char* site, const std::string& what) {
  if (hit.action != failpoint::Action::kError &&
      hit.action != failpoint::Action::kDelay) {
    return hit;
  }
  failpoint::act(hit, site, path + ": " + what);
  return failpoint::Hit{};
}

}  // namespace

File::File(const std::string& path, Mode mode) : path_(path) {
  failpoint::inject("fileio.open", [&] { return path_ + ": open"; });
  int flags = 0;
  switch (mode) {
    case Mode::kRead:
      flags = O_RDONLY;
      break;
    case Mode::kCreate:
      flags = O_RDWR | O_CREAT | O_TRUNC;
      break;
    case Mode::kReadWrite:
      flags = O_RDWR;
      break;
  }
  fd_ = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
  if (fd_ < 0) fail(path_, "open");
}

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

File::File(File&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

std::uint64_t File::size() const {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) fail(path_, "fstat");
  return static_cast<std::uint64_t>(st.st_size);
}

void File::read_at(std::uint64_t offset, void* data, std::size_t size) const {
  const std::size_t got = read_at_most(offset, data, size);
  if (got != size) {
    throw std::runtime_error(path_ + ": short read: wanted " +
                             std::to_string(size) + " bytes at offset " +
                             std::to_string(offset) + ", got " +
                             std::to_string(got) +
                             " (file truncated or corrupt)");
  }
}

std::size_t File::read_at_most(std::uint64_t offset, void* data,
                               std::size_t size) const {
  std::size_t want = size;
  std::uint64_t eintr_storm = 0;
  // The inactive path must stay allocation-free (trace replay's streaming
  // guarantee counts allocations across this very call): build the error
  // context only once a failpoint actually fired.
  auto hit = failpoint::check("fileio.pread");
  if (hit) {
    hit = apply_common(hit, path_, "fileio.pread",
                       io_context("pread", size, offset));
  }
  if (hit.action == failpoint::Action::kShortIo ||
      hit.action == failpoint::Action::kTornWrite) {
    // Deliver fewer bytes than asked (a truncated file, a torn tail):
    // read_at() surfaces it as its short-read error, read_at_most callers
    // see a genuine short count.
    want = hit.arg != 0 && hit.arg < size ? static_cast<std::size_t>(hit.arg)
                                          : size / 2;
  } else if (hit.action == failpoint::Action::kEintrStorm) {
    eintr_storm = hit.arg;
  }

  auto* out = static_cast<char*>(data);
  std::size_t total = 0;
  while (total < want) {
    if (eintr_storm > 0) {
      // Simulated interrupted syscall: exercises this very retry loop.
      --eintr_storm;
      errno = EINTR;
      continue;
    }
    const ssize_t n = ::pread(fd_, out + total, want - total,
                              static_cast<off_t>(offset + total));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(path_, io_context("pread", size, offset));
    }
    if (n == 0) break;  // EOF.
    total += static_cast<std::size_t>(n);
  }
  return total;
}

void File::write_at(std::uint64_t offset, const void* data, std::size_t size) {
  std::size_t want = size;
  bool fail_after_prefix = false;
  std::uint64_t eintr_storm = 0;
  auto hit = failpoint::check("fileio.pwrite");
  if (hit) {
    hit = apply_common(hit, path_, "fileio.pwrite",
                       io_context("pwrite", size, offset));
  }
  if (hit.action == failpoint::Action::kShortIo ||
      hit.action == failpoint::Action::kTornWrite) {
    // Both write a real prefix then fail — the on-disk state a crashed or
    // ENOSPC'd writer leaves behind.  (short = ran out of space mid-write,
    // torn = power cut; identical from the reader's point of view.)
    want = hit.arg != 0 && hit.arg < size ? static_cast<std::size_t>(hit.arg)
                                          : size / 2;
    fail_after_prefix = true;
  } else if (hit.action == failpoint::Action::kEintrStorm) {
    eintr_storm = hit.arg;
  }

  const auto* in = static_cast<const char*>(data);
  std::size_t total = 0;
  while (total < want) {
    if (eintr_storm > 0) {
      --eintr_storm;
      errno = EINTR;
      continue;
    }
    const ssize_t n = ::pwrite(fd_, in + total, want - total,
                               static_cast<off_t>(offset + total));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(path_, io_context("pwrite", size, offset));
    }
    total += static_cast<std::size_t>(n);
  }
  if (fail_after_prefix) {
    throw std::runtime_error(path_ + ": " + io_context("pwrite", size, offset) +
                             ": wrote only " + std::to_string(total) +
                             " bytes: injected fault (failpoint fileio.pwrite)");
  }
}

void File::truncate(std::uint64_t size) {
  failpoint::inject("fileio.ftruncate", [&] { return path_ + ": ftruncate"; });
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    fail(path_, "ftruncate to " + std::to_string(size) + " bytes");
  }
}

void File::sync() {
  failpoint::inject("fileio.fsync", [&] { return path_ + ": fsync"; });
  if (::fsync(fd_) != 0) fail(path_, "fsync");
}

void File::close() {
  if (fd_ >= 0) {
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) fail(path_, "close");
  }
}

void write_file_durable(const std::string& path, const std::string& content) {
  File file(path, File::Mode::kCreate);
  file.write_at(0, content.data(), content.size());
  file.sync();
  file.close();
}

std::string read_file(const std::string& path) {
  File file(path, File::Mode::kRead);
  std::string content(file.size(), '\0');
  file.read_at(0, content.data(), content.size());
  return content;
}

void sync_directory(const std::string& path) {
  failpoint::inject("fileio.fsync", [&] { return path + ": fsync"; });
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) fail(path, "open directory for fsync");
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail(path, "fsync directory");
  }
  ::close(fd);
}

bool exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

void ensure_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) fail(path, "mkdir");
}

void rename_durable(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) fail(from, "rename to " + to);
  const std::size_t slash = to.rfind('/');
  sync_directory(slash == std::string::npos
                     ? "."
                     : to.substr(0, std::max<std::size_t>(slash, 1)));
}

}  // namespace allarm

// Thin RAII wrapper over POSIX file descriptors with positional I/O.
//
// The sweep journal needs operations std::fstream does not expose cleanly:
// fsync for durability batches, ftruncate to discard a torn tail, and
// pread/pwrite so one handle can append records while re-reading earlier
// payloads during a resume.  Every failure throws std::runtime_error with
// the path, the operation's size/offset context and strerror(errno) —
// callers never see silent short writes.
//
// Every operation polls a failpoint (fileio.open / fileio.pread /
// fileio.pwrite / fileio.fsync / fileio.ftruncate; see common/failpoint.hh
// and docs/ROBUSTNESS.md) so crash-recovery paths above this layer are
// exercisable deterministically.  Inactive failpoints cost one predicted
// branch per call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace allarm {

class File {
 public:
  enum class Mode {
    kRead,       ///< Existing file, read-only.
    kCreate,     ///< Create or truncate, read-write.
    kReadWrite,  ///< Existing file, read-write (resume path).
  };

  File() = default;
  File(const std::string& path, Mode mode);  ///< Throws on failure.
  ~File();

  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Current size in bytes.
  std::uint64_t size() const;

  /// Reads exactly `size` bytes at `offset`; throws on short read or error.
  void read_at(std::uint64_t offset, void* data, std::size_t size) const;

  /// Reads up to `size` bytes at `offset`; returns the count actually read.
  std::size_t read_at_most(std::uint64_t offset, void* data,
                           std::size_t size) const;

  /// Writes exactly `size` bytes at `offset` (extends the file as needed).
  void write_at(std::uint64_t offset, const void* data, std::size_t size);

  /// Truncates (or extends with zeros) to `size` bytes.
  void truncate(std::uint64_t size);

  /// Flushes file content and metadata to stable storage (fsync).
  void sync();

  /// Closes the descriptor; further I/O throws.  Idempotent.
  void close();

 private:
  int fd_ = -1;
  std::string path_;
};

/// Writes `content` to `path` (create/truncate) and fsyncs it.  Throws
/// std::runtime_error on any failure.
void write_file_durable(const std::string& path, const std::string& content);

/// Reads the whole of `path` into a string; throws on failure.
std::string read_file(const std::string& path);

/// fsyncs a DIRECTORY so a just-renamed or just-created entry inside it
/// survives power loss (a file's own fsync does not make its name
/// durable).  Throws on failure.
void sync_directory(const std::string& path);

/// The commit of every write-temp-then-rename in the repo: renames a
/// durable `from` over `to`, then fsyncs `to`'s directory.  Throws.
void rename_durable(const std::string& from, const std::string& to);

bool exists(const std::string& path);

/// mkdir `path` (one level); an existing directory is fine.  Throws.
void ensure_dir(const std::string& path);

}  // namespace allarm

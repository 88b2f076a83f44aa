#include "service/spool.hh"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/failpoint.hh"
#include "common/fileio.hh"

namespace allarm::service {

namespace {

constexpr const char* kQueueDir = "queue";
constexpr const char* kRequestsDir = "requests";
constexpr const char* kJsonSuffix = ".json";

[[noreturn]] void fail_errno(const std::string& path, const char* what) {
  throw std::runtime_error(path + ": " + what + ": " + std::strerror(errno));
}

/// Unlinks `path`; a missing file is fine.
void remove_if_present(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    fail_errno(path, "unlink");
  }
}

/// Names in `dir`, filtered by `keep`, sorted (directory order is
/// filesystem-dependent; the service's scheduling must not be).
std::vector<std::string> list_dir(const std::string& dir,
                                  bool (*keep)(const struct dirent&)) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) fail_errno(dir, "opendir");
  std::vector<std::string> names;
  errno = 0;
  while (struct dirent* entry = ::readdir(handle)) {
    if (entry->d_name[0] == '.') continue;  // ., .., hidden temp files.
    if (keep(*entry)) names.emplace_back(entry->d_name);
    errno = 0;
  }
  const int saved = errno;
  ::closedir(handle);
  if (saved != 0) {
    errno = saved;
    fail_errno(dir, "readdir");
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Durable write-then-rename: `content` lands at `path` either whole or
/// not at all, and survives power loss once this returns.
void replace_file_durable(const std::string& path, const std::string& content,
                          const std::string& dir) {
  const std::string tmp = dir + "/.tmp-" + path.substr(dir.size() + 1);
  write_file_durable(tmp, content);
  rename_durable(tmp, path);
}

}  // namespace

const char* to_string(RequestState state) {
  switch (state) {
    case RequestState::kPending: return "pending";
    case RequestState::kRunning: return "running";
    case RequestState::kDone: return "done";
    case RequestState::kFailed: return "failed";
    case RequestState::kQuarantined: return "quarantined";
    case RequestState::kRejected: return "rejected";
  }
  return "unknown";
}

bool request_state_from_string(const std::string& text, RequestState* state) {
  for (const RequestState candidate :
       {RequestState::kPending, RequestState::kRunning, RequestState::kDone,
        RequestState::kFailed, RequestState::kQuarantined,
        RequestState::kRejected}) {
    if (text == to_string(candidate)) {
      *state = candidate;
      return true;
    }
  }
  return false;
}

bool Spool::valid_id(const std::string& id) {
  if (id.empty() || id.size() > 200) return false;
  if (id[0] == '.') return false;
  for (const char c : id) {
    if (c == '/' || c == '\0') return false;
  }
  return true;
}

Spool::Spool(std::string root) : root_(std::move(root)) {
  ensure_dir(root_);
  ensure_dir(root_ + "/" + kQueueDir);
  ensure_dir(root_ + "/" + kRequestsDir);
}

std::string Spool::queue_path(const std::string& id) const {
  return root_ + "/" + kQueueDir + "/" + id + kJsonSuffix;
}

std::string Spool::request_dir(const std::string& id) const {
  return root_ + "/" + kRequestsDir + "/" + id;
}

std::string Spool::request_json(const std::string& id) const {
  return request_dir(id) + "/request.json";
}

std::string Spool::journal_path(const std::string& id) const {
  return request_dir(id) + "/journal.bin";
}

std::string Spool::report_json(const std::string& id) const {
  return request_dir(id) + "/report.json";
}

std::string Spool::report_csv(const std::string& id) const {
  return request_dir(id) + "/report.csv";
}

std::string Spool::health_path() const { return root_ + "/health.json"; }

std::string Spool::metrics_path() const { return root_ + "/metrics.prom"; }

std::string Spool::enqueue(const std::string& root, const std::string& id,
                           const std::string& json_text) {
  if (!valid_id(id)) {
    throw std::invalid_argument("spool id '" + id +
                                "' is not a plain file name");
  }
  const std::string queue = root + "/" + kQueueDir;
  ensure_dir(root);
  ensure_dir(queue);
  // Hidden temp name (scan skips dotfiles), unique per producer process so
  // concurrent enqueues of different ids never collide mid-write.
  const std::string tmp =
      queue + "/.tmp-" + std::to_string(::getpid()) + "-" + id;
  write_file_durable(tmp, json_text);
  const std::string target = queue + "/" + id + kJsonSuffix;
  rename_durable(tmp, target);
  return target;
}

std::vector<std::string> Spool::queued() const {
  failpoint::inject("service.scan", [&] { return root_ + "/" + kQueueDir; });
  std::vector<std::string> ids = list_dir(
      root_ + "/" + kQueueDir, [](const struct dirent& entry) {
        const std::size_t len = std::strlen(entry.d_name);
        return len > std::strlen(kJsonSuffix) &&
               std::strcmp(entry.d_name + len - std::strlen(kJsonSuffix),
                           kJsonSuffix) == 0;
      });
  for (std::string& id : ids) {
    id.resize(id.size() - std::strlen(kJsonSuffix));
  }
  return ids;
}

void Spool::admit(const std::string& id) {
  if (!valid_id(id)) {
    throw std::invalid_argument("spool id '" + id +
                                "' is not a plain file name");
  }
  const std::string dir = request_dir(id);
  ensure_dir(dir);
  // A resubmission replaces a request that may have run: its state word
  // and error go, durably, before the commit rename, so no crash or fault
  // can leave the previous run's `done` beside the new request.  A missing
  // state word reads as pending, so nothing is written after the rename.
  // Before the rename the queue file is still in place and the next scan
  // retries; every step is idempotent.
  remove_if_present(dir + "/state");
  remove_if_present(dir + "/error");
  sync_directory(dir);
  rename_durable(queue_path(id), request_json(id));
  sync_directory(root_ + "/" + kQueueDir);
}

std::vector<std::string> Spool::requests() const {
  return list_dir(root_ + "/" + kRequestsDir,
                  [](const struct dirent&) { return true; });
}

RequestState Spool::state(const std::string& id) const {
  const std::string path = request_dir(id) + "/state";
  if (!exists(path)) return RequestState::kPending;
  std::string word = read_file(path);
  while (!word.empty() && (word.back() == '\n' || word.back() == ' ')) {
    word.pop_back();
  }
  RequestState state;
  if (!request_state_from_string(word, &state)) {
    throw std::runtime_error(path + ": unrecognized state '" + word + "'");
  }
  return state;
}

void Spool::set_state(const std::string& id, RequestState state,
                      const std::string& error) {
  const std::string dir = request_dir(id);
  failpoint::inject("service.state", [&] { return dir + "/state"; });
  // The error file first: once the state word commits, everything it
  // points at must already be durable.
  const std::string error_path = dir + "/error";
  if (!error.empty()) {
    replace_file_durable(error_path, error + "\n", dir);
  } else {
    remove_if_present(error_path);
  }
  replace_file_durable(dir + "/state", std::string(to_string(state)) + "\n",
                       dir);
}

std::string Spool::error(const std::string& id) const {
  const std::string path = request_dir(id) + "/error";
  if (!exists(path)) return "";
  std::string text = read_file(path);
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

void Spool::write_health(const std::string& json) const {
  failpoint::inject("service.health", [&] { return health_path(); });
  replace_file_durable(health_path(), json, root_);
}

void Spool::write_metrics(const std::string& text) const {
  failpoint::inject("service.metrics", [&] { return metrics_path(); });
  replace_file_durable(metrics_path(), text, root_);
}

}  // namespace allarm::service

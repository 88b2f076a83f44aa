#include "trace/convert.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/flat_map.hh"
#include "trace/replay.hh"

namespace allarm::trace {

namespace {

char letter_of(AccessType t) {
  switch (t) {
    case AccessType::kLoad: return 'L';
    case AccessType::kStore: return 'S';
    case AccessType::kInstFetch: return 'I';
  }
  return '?';
}

[[noreturn]] void reject(std::size_t line_no, const std::string& why) {
  throw std::runtime_error("trace line " + std::to_string(line_no) + ": " +
                           why);
}

AccessType type_of(const std::string& token, std::size_t line_no) {
  if (token.size() == 1) {
    switch (token[0]) {
      case 'L': case 'l': return AccessType::kLoad;
      case 'S': case 's': return AccessType::kStore;
      case 'I': case 'i': return AccessType::kInstFetch;
    }
  }
  reject(line_no, "unknown access type '" + token + "'");
}

/// `token` as an unsigned number in `base` (10 or 16) of at most `max`:
/// digits only, so no sign, no trailing garbage and no wrap.
std::uint64_t number_of(const std::string& token, int base, std::uint64_t max,
                        const char* what, std::size_t line_no) {
  const char* digits = base == 10 ? "0123456789" : "0123456789abcdefABCDEF";
  if (!token.empty() && token.find_first_not_of(digits) == std::string::npos) {
    try {
      const std::uint64_t value = std::stoull(token, nullptr, base);
      if (value <= max) return value;
    } catch (const std::out_of_range&) {
    }
  }
  reject(line_no, std::string("bad ") + what + " '" + token + "'");
}

void write_text_record(std::ostream& out, ThreadId thread,
                       const workload::Access& access) {
  out << thread << ' ' << letter_of(access.type) << ' ' << std::hex
      << access.vaddr << std::dec << '\n';
}

/// Creates (and returns the path of) an empty unique temp file for the
/// intermediate .altr a text trace streams through.  The file is unlinked
/// as soon as the reader holds it open, so it never outlives the workload.
std::string temp_trace_path() {
  const char* dir = std::getenv("TMPDIR");
  std::string path = std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") +
                     "/allarm-trace-XXXXXX";
  const int fd = ::mkstemp(path.data());
  if (fd < 0) {
    throw std::runtime_error("cannot create a temporary trace file in " +
                             path);
  }
  ::close(fd);
  return path;
}

/// Deletes its path at scope exit unless the file was already unlinked —
/// a failed conversion must not strand temp .altr files in TMPDIR.
/// Removing an already-removed path is a harmless ENOENT, so the success
/// path (which unlinks as soon as the reader holds the fd) needs no
/// disarming.
struct TempFileGuard {
  std::string path;
  ~TempFileGuard() { std::remove(path.c_str()); }
};

}  // namespace

bool TextTraceScanner::next(TextRecord& out) {
  while (std::getline(in_, line_)) {
    ++line_no_;
    const auto hash = line_.find('#');
    if (hash != std::string::npos) line_.erase(hash);
    std::istringstream fields(line_);
    std::string thread, type, addr, extra;
    if (!(fields >> thread)) continue;  // Blank / comment-only line.
    if (!(fields >> type >> addr) || fields >> extra) {
      reject(line_no_, "expected '<tid> <L|S|I> <hex-addr>'");
    }
    out.thread = static_cast<ThreadId>(
        number_of(thread, 10, std::numeric_limits<ThreadId>::max(),
                  "thread id", line_no_));
    out.access.type = type_of(type, line_no_);
    const bool prefixed =
        addr.size() > 2 && addr[0] == '0' && (addr[1] == 'x' || addr[1] == 'X');
    out.access.vaddr =
        number_of(prefixed ? addr.substr(2) : addr, 16,
                  std::numeric_limits<std::uint64_t>::max(), "address",
                  line_no_);
    return true;
  }
  return false;
}

std::uint64_t convert_text_trace(std::istream& in, TraceWriter& writer) {
  TextTraceScanner scanner(in);
  // Threads the caller pre-registered (e.g. to fix the slot order) are
  // reused, matched by id; unknown ids register on first appearance.
  FlatMap<ThreadId, std::uint32_t> slots;
  for (std::uint32_t slot = 0; slot < writer.meta().threads.size(); ++slot) {
    slots.try_emplace(writer.meta().threads[slot].id, slot);
  }
  TextRecord record;
  std::uint64_t converted = 0;
  while (scanner.next(record)) {
    const std::uint32_t* slot = slots.find(record.thread);
    if (slot == nullptr) {
      TraceThreadMeta meta;
      meta.id = record.thread;
      slot = slots.try_emplace(record.thread, writer.add_thread(meta)).first;
    }
    writer.record(*slot, record.access, /*rng_draws=*/0);
    ++converted;
  }
  return converted;
}

std::uint64_t write_text_trace(const TraceReader& reader, std::ostream& out,
                               std::uint64_t max_records) {
  std::uint64_t written = 0;
  for (std::uint32_t slot = 0; slot < reader.thread_count(); ++slot) {
    const ThreadId tid = reader.meta().threads[slot].id;
    TraceCursor cursor(reader, slot);
    Record record;
    while (cursor.next(record)) {
      if (max_records != 0 && written >= max_records) return written;
      write_text_record(out, tid, record.access);
      ++written;
    }
  }
  return written;
}

workload::WorkloadSpec load_trace_workload(const std::string& path,
                                           const SystemConfig& config) {
  const std::string tmp = temp_trace_path();
  const TempFileGuard guard{tmp};
  TraceWriter writer(tmp, kDefaultBlockPayloadBytes, /*durable=*/false);
  // One sequential pass, so single-shot inputs (FIFOs, process
  // substitution) keep working; memory use is one text line plus one open
  // block per thread, never the trace.
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  convert_text_trace(in, writer);
  if (writer.meta().threads.empty()) {
    throw std::invalid_argument("load_trace_workload: empty trace");
  }
  // The text format carries no placement or timing: each thread runs on
  // core (id mod cores) with a 2 ns compute gap between accesses.
  for (std::uint32_t slot = 0; slot < writer.meta().threads.size(); ++slot) {
    TraceThreadMeta& t = writer.meta().threads[slot];
    t.node = static_cast<NodeId>(t.id % config.num_nodes());
    t.accesses = writer.thread_records(slot);
    t.think = ticks_from_ns(2.0);
  }
  writer.meta().workload = "trace";
  writer.finish();

  auto reader = std::make_shared<TraceReader>(tmp);
  std::remove(tmp.c_str());  // Reader holds the fd; no file left behind.

  // Writer slots register in input-appearance order, but thread ORDER in
  // the spec seeds the per-thread rng streams, so the threads are sorted
  // by id: which thread happens to appear first in the input must not
  // change any stream.
  workload::WorkloadSpec spec = make_replay_workload(reader, config);
  std::sort(spec.threads.begin(), spec.threads.end(),
            [](const workload::ThreadSpec& a, const workload::ThreadSpec& b) {
              return a.id < b.id;
            });
  return spec;
}

}  // namespace allarm::trace

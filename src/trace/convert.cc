#include "trace/convert.hh"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/flat_map.hh"

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

}  // namespace allarm::trace

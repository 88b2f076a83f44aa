// Text-trace interop: a streaming scanner for the legacy
// "<tid> <L|S|I> <hex-addr>" line format, converters between it and the
// binary .altr format, and the workload that replays a text trace.
//
// The scanner is the one implementation of the text grammar.  A line is
// "<decimal tid> <L|S|I> <hex addr>": the type letter in either case, the
// address with an optional 0x.  '#' starts a comment and blank lines are
// skipped; any other line throws with its line number.  `trace cat`
// writes the same format, and external tools (e.g. a Pin or DynamoRIO
// client) can produce it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/config.hh"
#include "common/types.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"
#include "workload/generator.hh"
#include "workload/spec.hh"

namespace allarm::trace {

/// One scanned text-trace line.
struct TextRecord {
  ThreadId thread = 0;
  workload::Access access;
};

/// Pull scanner over the text format.  Throws std::runtime_error with a
/// line number on malformed input; memory use is one line.
class TextTraceScanner {
 public:
  explicit TextTraceScanner(std::istream& in) : in_(in) {}

  /// Scans the next record; returns false at end of input.
  bool next(TextRecord& out);

 private:
  std::istream& in_;
  std::string line_;
  std::size_t line_no_ = 0;
};

/// Streams a whole text trace into `writer` without materializing it:
/// thread slots the caller pre-registered are reused (matched by id),
/// unknown ids register on first appearance (carrying only the thread id;
/// the caller fills placement/timing metadata afterwards via
/// writer.meta()), and every record is appended with zero rng draws.
/// Returns the number of records converted.
std::uint64_t convert_text_trace(std::istream& in, TraceWriter& writer);

/// Streams `reader`'s records back out as text, thread by thread in slot
/// order (the binary format stores per-thread streams; any cross-thread
/// interleaving of the original text input is not preserved).  `max_records`
/// of 0 means all.  Returns the number of lines written.
std::uint64_t write_text_trace(const TraceReader& reader, std::ostream& out,
                               std::uint64_t max_records = 0);

/// Builds a workload that replays the text trace at `path`: one thread per
/// distinct thread-id, sorted by id, each replaying its own lines in order
/// with a 2 ns compute gap between accesses, placed on core (thread-id mod
/// cores).  The text converts line by line into an unlinked temporary
/// .altr that replays through TraceReplayGenerator, so memory use is one
/// block per thread, never the whole trace.  Throws on an unreadable,
/// malformed or empty trace.
workload::WorkloadSpec load_trace_workload(const std::string& path,
                                           const SystemConfig& config);

}  // namespace allarm::trace

// Trace-file workloads: run the simulator on externally captured access
// traces instead of the synthetic profiles.
//
// Format: plain text, one access per line,
//
//     <thread-id> <L|S|I> <hex-virtual-address>
//
// '#' starts a comment; blank lines are ignored; any other line is an
// error (trace::TextTraceScanner holds the grammar).  Threads are placed
// on core (thread-id mod cores).  `trace cat` writes the same format, and
// external tools (e.g. a Pin or DynamoRIO client) can produce it.
//
// Loading is streamed through the binary trace subsystem (src/trace/):
// the text file converts line by line into a temporary .altr and replays
// through TraceReplayGenerator, so memory use is one block per thread —
// never the whole trace.  See docs/TRACES.md.
#pragma once

#include <string>

#include "common/config.hh"
#include "workload/spec.hh"

namespace allarm::workload {

/// Builds a workload that replays the text trace at `path`: one thread per
/// distinct thread-id, each replaying its own lines in order with a 2 ns
/// compute gap between accesses, placed on core (thread-id mod cores).
/// Throws on an unreadable, malformed or empty trace.
WorkloadSpec load_trace_workload(const std::string& path,
                                 const SystemConfig& config);

}  // namespace allarm::workload

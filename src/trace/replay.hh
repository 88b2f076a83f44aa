// Trace replay: an AccessGenerator over one thread's .altr stream, plus
// the assembly of a whole replay WorkloadSpec from a trace's metadata.
//
// Replay of a captured synthetic run is byte-identical to the original:
// each record burns the rng draws the original generator consumed (so the
// thread's rng stream — including the think-jitter draws interleaved with
// it — stays in lockstep), the ThreadSpecs are rebuilt from the captured
// metadata, and the setup phase re-touches the captured first-touch page
// placements in order.  The same trace can instead be replayed onto fewer
// cores or a different allocation policy / directory mode — the access
// stream is fixed; the machine under it changes.
#pragma once

#include <cstdint>
#include <memory>

#include "common/config.hh"
#include "trace/reader.hh"
#include "workload/spec.hh"

namespace allarm::trace {

/// Replays one thread slot's records: each next() decodes one record and
/// burns its captured rng draws.  Running past the end of the slot's
/// stream throws std::logic_error.
class TraceReplayGenerator final : public workload::AccessGenerator {
 public:
  TraceReplayGenerator(std::shared_ptr<const TraceReader> reader,
                       std::uint32_t slot);

  workload::Access next(Rng& rng, Tick now) override;

 private:
  TraceCursor cursor_;
};

/// Builds the workload that replays every thread of `reader`'s trace.
///
/// `cores` caps the replay placement: thread and setup-touch nodes are
/// remapped node % cores (0 = config.num_cores, i.e. the captured
/// placement).  With the captured core count, policy, directory mode and
/// seed, the replayed run is byte-identical to the capture run.
workload::WorkloadSpec make_replay_workload(
    std::shared_ptr<const TraceReader> reader, const SystemConfig& config,
    std::uint32_t cores = 0);

}  // namespace allarm::trace

// Timing decorators for the traced run (see traced.cc).
#pragma once

#include <atomic>
#include <cstdint>

#include "bench.hh"
#include "runner/sweep.hh"

namespace perfbench {

/// Host time spent inside decorated generators, summed over every thread
/// of every job (each generator adds its total when destroyed).
struct GenClock {
  std::atomic<std::uint64_t> ns{0};
};

/// Wraps `base` so each call is a "bench.factory" span and every thread's
/// generator is a timing decorator feeding `clock`.  The decorators forward
/// the whole AccessGenerator contract, so the simulated stream — and the
/// report bytes — are unchanged.
allarm::runner::WorkloadFactory traced_factory(
    allarm::runner::WorkloadFactory base, GenClock& clock);

}  // namespace perfbench

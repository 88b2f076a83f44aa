// Trace capture as a workload wrapper.
//
// record_workload wraps a workload so that running it writes the .altr
// capture: the thread table, the setup phase's first-touch page
// placements, and every executed access with the rng draws its generator
// consumed -- everything trace replay needs to reproduce the run byte for
// byte.  core::run_request applies it to the workload it runs, synthetic
// or replayed, so the simulator runs one path whether or not a run is
// captured.
#pragma once

#include "trace/writer.hh"
#include "workload/spec.hh"

namespace allarm::trace {

/// Returns `spec` wrapped to capture into `writer`.  Registers each
/// thread's metadata now, in spec order, and sets meta().workload; the
/// wrapped generators record every access, and the wrapped setup records
/// its first-touch placements in order.  The caller fills the run's seed,
/// directory mode and allocation policy into writer.meta() and finishes
/// the writer after the run; `writer` must outlive the run.
workload::WorkloadSpec record_workload(const workload::WorkloadSpec& spec,
                                       TraceWriter& writer);

}  // namespace allarm::trace

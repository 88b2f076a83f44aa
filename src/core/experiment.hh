// Experiment harness: the one place that knows how to run one simulation.
// The sweep runner, the service and the examples describe a job as a
// RunRequest and run it through run_request.
#pragma once

#include <cstdint>
#include <string>

#include "common/config.hh"
#include "core/system.hh"
#include "workload/spec.hh"

namespace allarm::core {

/// Self-contained description of one simulation run: everything a worker
/// thread needs to execute the run with no shared state.  This is the unit
/// the sweep runner (src/runner/) schedules.
struct RunRequest {
  SystemConfig config;
  DirectoryMode mode = DirectoryMode::kBaseline;
  workload::WorkloadSpec spec;
  std::uint64_t seed = 1;
  numa::AllocPolicy policy = numa::AllocPolicy::kFirstTouch;
  /// RunOptions::migration_interval: when nonzero, one thread migrates per
  /// interval.  A replay must run with the capture run's interval.
  Tick migration_interval = 0;
  /// When non-empty, the run's executed access stream (plus workload
  /// metadata and setup placements) is captured to this .altr trace file,
  /// a replayed run's too.  Pure side effect: results are unchanged (see
  /// docs/TRACES.md).
  std::string capture_trace;
  /// When non-empty, the run replays this .altr trace instead of building
  /// `spec`'s generators, and the results are byte-identical to the
  /// captured run.  The trace's recorded seed/mode/policy must match this
  /// request (enforced; a mismatch would silently label the captured
  /// stream's results with a different identity).  Divergent-scenario
  /// replay goes through trace::make_replay_workload directly.
  std::string replay_trace;
  /// Records latency histograms into RunResult::profile (RunOptions::
  /// profile).  Observability side channel: never folded into sweep
  /// identity, and the default stats are byte-identical either way.
  bool profile = false;
};

/// Runs `request` on a fresh System.  Thread-safe: concurrent calls never
/// share simulator state.  `deadline_ns` (0 = none) arms the simulator's
/// no-progress watchdog (RunOptions::deadline_ns): a run exceeding the
/// wall-clock budget throws std::runtime_error with a structured
/// diagnostic instead of hanging its caller.  A parameter rather than a
/// RunRequest field so the sweep runner's retry loop re-submits the same
/// request object untouched.
RunResult run_request(const RunRequest& request, std::uint64_t deadline_ns = 0);

/// Worker-thread count for sweeps and the sweep service.  Reads the
/// ALLARM_JOBS environment variable, a run of decimal digits in 1..4096;
/// when it is unset or anything else, returns `fallback`, or
/// std::thread::hardware_concurrency() (at least 1) when `fallback` is 0.
std::uint32_t bench_jobs(std::uint32_t fallback = 0);

}  // namespace allarm::core

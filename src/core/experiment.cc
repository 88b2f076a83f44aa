#include "core/experiment.hh"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/timeline.hh"
#include "trace/record.hh"
#include "trace/replay.hh"

namespace allarm::core {

RunResult run_request(const RunRequest& request, std::uint64_t deadline_ns) {
  const auto t0 = std::chrono::steady_clock::now();

  SystemConfig config = request.config;
  config.directory_mode = request.mode;
  // Trace replay substitutes the whole workload (threads, generators,
  // setup); the request's spec still names the grid cell in reports.
  // The request's identity must match the capture run's — replaying a
  // seed-42 stream under a seed-43 label would produce a chimera report
  // that matches neither run, silently.  Divergent-scenario replay
  // (other mode/policy/cores) goes through `sweep --grid trace` or
  // `trace replay`, which label cells by the trace, not a synthetic grid.
  workload::WorkloadSpec replay_spec;
  const workload::WorkloadSpec* spec = &request.spec;
  if (!request.replay_trace.empty()) {
    const auto reader =
        std::make_shared<const trace::TraceReader>(request.replay_trace);
    const trace::TraceMeta& meta = reader->meta();
    const auto mismatch = [&](const char* what, std::uint64_t got,
                              std::uint64_t want) {
      throw std::runtime_error(
          "trace " + request.replay_trace + " was captured with " + what +
          " " + std::to_string(got) + " but this job runs with " +
          std::to_string(want) +
          " — refusing to splice mismatched results into the report "
          "(replay divergent scenarios via sweep --grid trace or the "
          "trace CLI)");
    };
    if (meta.seed != request.seed) mismatch("seed", meta.seed, request.seed);
    if (meta.directory_mode !=
        static_cast<std::uint32_t>(config.directory_mode)) {
      mismatch("directory mode", meta.directory_mode,
               static_cast<std::uint32_t>(config.directory_mode));
    }
    if (meta.alloc_policy != static_cast<std::uint32_t>(request.policy)) {
      mismatch("allocation policy", meta.alloc_policy,
               static_cast<std::uint32_t>(request.policy));
    }
    replay_spec = trace::make_replay_workload(reader, config);
    spec = &replay_spec;
  }

  // Capture wraps whichever workload runs, synthetic or replayed.
  std::optional<trace::TraceWriter> writer;
  workload::WorkloadSpec recorded_spec;
  if (!request.capture_trace.empty()) {
    writer.emplace(request.capture_trace);
    recorded_spec = trace::record_workload(*spec, *writer);
    spec = &recorded_spec;
    trace::TraceMeta& meta = writer->meta();
    meta.seed = request.seed;
    meta.directory_mode = static_cast<std::uint32_t>(request.mode);
    meta.alloc_policy = static_cast<std::uint32_t>(request.policy);
  }

  RunOptions options;
  options.seed = request.seed;
  options.migration_interval = request.migration_interval;
  options.deadline_ns = deadline_ns;
  options.profile = request.profile;

  RunResult result;
  {
    OBS_SPAN("sim.run", "sim");
    System system(config, request.policy);
    result = system.run(*spec, options);
  }
  if (writer) writer->finish();

  result.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return result;
}

std::uint32_t bench_jobs(std::uint32_t fallback) {
  // The flags' rule (cli::parse_u64): only a non-empty run of decimal
  // digits counts, so a sign, a space or a suffix falls back.
  const char* env = std::getenv("ALLARM_JOBS");
  if (env != nullptr && *env != '\0') {
    std::uint32_t v = 0;
    const char* c = env;
    for (; *c >= '0' && *c <= '9' && v <= 4096; ++c) {
      v = v * 10 + static_cast<std::uint32_t>(*c - '0');
    }
    if (*c == '\0' && v >= 1 && v <= 4096) return v;
  }
  if (fallback > 0) return fallback;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace allarm::core

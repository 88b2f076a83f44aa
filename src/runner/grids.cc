#include "runner/grids.hh"

#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>

#include "core/experiment.hh"
#include "trace/replay.hh"
#include "workload/profiles.hh"

namespace allarm::runner {

namespace {

/// The trace grid: the (trace x cores) product rides the workload axis as
/// `<path>@<cores>` labels, where the label also seeds and names the cell.
SweepSpec make_trace_grid(const GridKnobs& knobs) {
  if (knobs.traces.empty()) {
    throw std::invalid_argument("grid 'trace' requires at least one trace "
                                "file (--trace FILE)");
  }
  SystemConfig config;
  SweepSpec spec;
  spec.name = "trace";
  spec.replicates = knobs.seeds;
  spec.base_seed = knobs.base_seed;
  // Trace lengths are fixed by the files; the accesses knob does not apply
  // (and stays out of the report's meaning).
  spec.accesses_per_thread = 0;
  std::vector<std::uint32_t> cores = knobs.cores;
  if (cores.empty()) cores = {config.num_cores};
  for (const std::string& path : knobs.traces) {
    for (const std::uint32_t c : cores) {
      spec.workloads.push_back(path + "@" + std::to_string(c));
    }
  }
  spec.modes = {DirectoryMode::kBaseline, DirectoryMode::kAllarm};
  spec.configs = {{"first-touch", config, numa::AllocPolicy::kFirstTouch},
                  {"interleave", config, numa::AllocPolicy::kInterleave}};
  // Path -> open reader, shared across the grid: a trace swept at several
  // core counts and configs is opened (and its framing CRC-verified) once.
  const auto readers = std::make_shared<
      std::map<std::string, std::shared_ptr<const trace::TraceReader>>>();
  spec.make_workload = [readers](const std::string& label,
                                 const SystemConfig& grid_config,
                                 std::uint64_t) {
    const auto at = label.rfind('@');
    if (at == std::string::npos) {
      throw std::invalid_argument("trace grid label '" + label +
                                  "' is missing its @cores suffix");
    }
    const auto cores = static_cast<std::uint32_t>(
        std::strtoul(label.c_str() + at + 1, nullptr, 10));
    const std::string path = label.substr(0, at);
    auto& reader = (*readers)[path];
    if (reader == nullptr) {
      reader = std::make_shared<const trace::TraceReader>(path);
    }
    return trace::make_replay_workload(reader, grid_config, cores);
  };
  return spec;
}

}  // namespace

const std::vector<std::string>& builtin_grid_names() {
  static const std::vector<std::string> names = {"fig3", "fig3h", "policy",
                                                 "region", "quick"};
  return names;
}

SweepSpec make_builtin_grid(const std::string& name, const GridKnobs& knobs) {
  if (knobs.seeds == 0) {
    throw std::invalid_argument("grid '" + name +
                                "': seeds must be positive");
  }
  if (name == "trace") return make_trace_grid(knobs);
  SweepSpec spec;
  spec.name = name;
  spec.workloads = workload::benchmark_names();
  spec.modes = {DirectoryMode::kBaseline, DirectoryMode::kAllarm};
  spec.replicates = knobs.seeds;
  spec.base_seed = knobs.base_seed;

  SystemConfig config;
  if (name == "fig3") {
    spec.accesses_per_thread = core::bench_accesses(30000);
    spec.configs = {{"table1", config}};
  } else if (name == "fig3h") {
    spec.accesses_per_thread = core::bench_accesses(20000);
    for (const std::uint32_t kb : {512u, 256u, 128u}) {
      SystemConfig c = config;
      c.probe_filter_coverage_bytes = kb * 1024;
      spec.configs.push_back({std::to_string(kb) + "kB", c});
    }
  } else if (name == "policy") {
    spec.accesses_per_thread = core::bench_accesses(20000);
    spec.configs = {{"first-touch", config, numa::AllocPolicy::kFirstTouch},
                    {"interleave", config, numa::AllocPolicy::kInterleave}};
  } else if (name == "region") {
    // Region-granularity ablation: scheme x region size x workload.  The
    // 64 B point degenerates to per-block tracking, so its region rows
    // must match the baseline rows cell for cell (the correctness oracle;
    // see docs/DIRECTORY.md).
    spec.accesses_per_thread = core::bench_accesses(20000);
    spec.modes = {DirectoryMode::kBaseline, DirectoryMode::kAllarm,
                  DirectoryMode::kRegion};
    for (const std::uint32_t bytes : {4096u, 1024u, 256u, 64u}) {
      SystemConfig c = config;
      c.region_size_bytes = bytes;
      spec.configs.push_back({"r" + std::to_string(bytes), c});
    }
  } else if (name == "quick") {
    spec.accesses_per_thread = core::bench_accesses(2000);
    spec.workloads = {"barnes", "ocean-cont"};
    spec.configs = {{"table1", config}};
  } else {
    throw std::invalid_argument("unknown grid '" + name + "'");
  }
  if (knobs.accesses > 0) spec.accesses_per_thread = knobs.accesses;
  return spec;
}

}  // namespace allarm::runner

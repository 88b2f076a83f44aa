#include "runner/grids.hh"

#include <cstdlib>
#include <initializer_list>
#include <map>
#include <memory>
#include <stdexcept>

#include "trace/replay.hh"
#include "workload/profiles.hh"

namespace allarm::runner {

namespace {

/// `knobs.accesses` when set, else the grid's own default budget.
std::uint64_t budget(const GridKnobs& knobs, std::uint64_t fallback) {
  return knobs.accesses > 0 ? knobs.accesses : fallback;
}

/// The paper's shape: workloads x machine variants x {baseline, allarm}.
SweepSpec paper_grid(std::vector<std::string> workloads,
                     std::vector<ConfigPoint> configs,
                     std::uint64_t accesses) {
  SweepSpec spec;
  spec.workloads = std::move(workloads);
  spec.configs = std::move(configs);
  spec.modes = {DirectoryMode::kBaseline, DirectoryMode::kAllarm};
  spec.accesses_per_thread = accesses;
  return spec;
}

/// Table-I machines with the probe filter shrunk to each size, "<kb>kB".
std::vector<ConfigPoint> pf_sizes(std::initializer_list<std::uint32_t> kbs) {
  std::vector<ConfigPoint> configs;
  for (const std::uint32_t kb : kbs) {
    SystemConfig c;
    c.probe_filter_coverage_bytes = kb * 1024;
    configs.push_back({std::to_string(kb) + "kB", c});
  }
  return configs;
}

/// The trace grid: the (trace x cores) product rides the workload axis as
/// `<path>@<cores>` labels, where the label also seeds and names the cell.
SweepSpec trace_grid(const GridKnobs& knobs) {
  if (knobs.traces.empty()) {
    throw std::invalid_argument("grid 'trace' requires at least one trace "
                                "file (--trace FILE)");
  }
  SystemConfig config;
  std::vector<std::string> workloads;
  std::vector<std::uint32_t> cores = knobs.cores;
  if (cores.empty()) cores = {config.num_cores};
  for (const std::string& path : knobs.traces) {
    for (const std::uint32_t c : cores) {
      workloads.push_back(path + "@" + std::to_string(c));
    }
  }
  // Trace lengths are fixed by the files; the accesses knob does not apply
  // (and stays out of the report's meaning).
  SweepSpec spec = paper_grid(
      std::move(workloads),
      {{"first-touch", config, numa::AllocPolicy::kFirstTouch},
       {"interleave", config, numa::AllocPolicy::kInterleave}},
      0);
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

const std::vector<GridInfo>& grid_catalog() {
  using numa::AllocPolicy;
  static const std::vector<GridInfo> catalog = {
      {"fig3", "benchmarks x Table-I machine x {baseline, allarm}",
       [](const GridKnobs& knobs) {
         return paper_grid(workload::benchmark_names(),
                           {{"table1", SystemConfig{}}}, budget(knobs, 30000));
       }},
      {"fig3h", "benchmarks x {512, 256, 128} kB probe filter x modes",
       [](const GridKnobs& knobs) {
         return paper_grid(workload::benchmark_names(),
                           pf_sizes({512, 256, 128}), budget(knobs, 20000));
       }},
      {"fig4", "two-process <bench>-2p x {512..32} kB probe filter x modes",
       [](const GridKnobs& knobs) {
         std::vector<std::string> pairs;
         for (const auto& name : workload::multiprocess_benchmark_names()) {
           pairs.push_back(name + "-2p");
         }
         return paper_grid(std::move(pairs), pf_sizes({512, 256, 128, 64, 32}),
                           budget(knobs, 60000));
       }},
      {"policy", "benchmarks x {first-touch, interleave} x modes",
       [](const GridKnobs& knobs) {
         const SystemConfig c;
         return paper_grid(workload::benchmark_names(),
                           {{"first-touch", c, AllocPolicy::kFirstTouch},
                            {"interleave", c, AllocPolicy::kInterleave}},
                           budget(knobs, 20000));
       }},
      // Sections II-A/D/E: each ablated knob is one machine variant,
      // compared against the same workload's table1 cells.
      {"ablation",
       "4 benchmarks x {table1, evict-buffer, serial-probe, pf-2way, pf-8way,"
       " migrate-200us, migrate-50us} x modes",
       [](const GridKnobs& knobs) {
         const SystemConfig table1;
         SystemConfig evict_buffer = table1;
         evict_buffer.eviction_gates_reply = false;
         SystemConfig serial_probe = table1;
         serial_probe.allarm_parallel_local_probe = false;
         SystemConfig pf_2way = table1;
         pf_2way.probe_filter_ways = 2;
         SystemConfig pf_8way = table1;
         pf_8way.probe_filter_ways = 8;
         const Tick us = ticks_from_ns(1000.0);
         return paper_grid(
             {"ocean-cont", "barnes", "blackscholes", "fluidanimate"},
             {{"table1", table1},
              {"evict-buffer", evict_buffer},
              {"serial-probe", serial_probe},
              {"pf-2way", pf_2way},
              {"pf-8way", pf_8way},
              {"migrate-200us", table1, AllocPolicy::kFirstTouch, 200 * us},
              {"migrate-50us", table1, AllocPolicy::kFirstTouch, 50 * us}},
             budget(knobs, 20000));
       }},
      // The 64 B region degenerates to per-block tracking, so its region
      // rows must match the baseline rows cell for cell (the correctness
      // oracle; see docs/DIRECTORY.md).
      {"region",
       "benchmarks x {4096, 1024, 256, 64} B regions x {baseline, allarm,"
       " region}",
       [](const GridKnobs& knobs) {
         std::vector<ConfigPoint> configs;
         for (const std::uint32_t bytes : {4096u, 1024u, 256u, 64u}) {
           SystemConfig c;
           c.region_size_bytes = bytes;
           configs.push_back({"r" + std::to_string(bytes), c});
         }
         SweepSpec spec = paper_grid(workload::benchmark_names(),
                                     std::move(configs), budget(knobs, 20000));
         spec.modes.push_back(DirectoryMode::kRegion);
         return spec;
       }},
      {"quick", "barnes + ocean-cont, shortened runs (smoke test)",
       [](const GridKnobs& knobs) {
         return paper_grid({"barnes", "ocean-cont"},
                           {{"table1", SystemConfig{}}}, budget(knobs, 2000));
       }},
      {"trace",
       "--trace .altr files x --cores x {first-touch, interleave} x modes",
       trace_grid},
  };
  return catalog;
}

const std::vector<std::string>& builtin_grid_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const GridInfo& grid : grid_catalog()) {
      if (grid.name != "trace") out.push_back(grid.name);
    }
    return out;
  }();
  return names;
}

SweepSpec make_builtin_grid(const std::string& name, const GridKnobs& knobs) {
  if (knobs.seeds == 0) {
    throw std::invalid_argument("grid '" + name +
                                "': seeds must be positive");
  }
  for (const GridInfo& grid : grid_catalog()) {
    if (name != grid.name) continue;
    SweepSpec spec = grid.build(knobs);
    spec.name = name;
    spec.replicates = knobs.seeds;
    spec.base_seed = knobs.base_seed;
    return spec;
  }
  throw std::invalid_argument("unknown grid '" + name + "'");
}

}  // namespace allarm::runner

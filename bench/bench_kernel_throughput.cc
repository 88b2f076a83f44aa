// Event-kernel throughput benchmark.
//
// Measures raw discrete-event throughput (events/sec, ns/event) of the
// simulation kernel across three representative workloads:
//
//   serial        - one thread streaming through its private working set
//                   (the sparse-schedule case: long idle gaps between
//                   events, exercises the far-horizon overflow heap);
//   multithreaded - the 16-thread `ocean` profile (dense event interleaving
//                   across all nodes, the sweep runner's common case);
//   migration     - the same profile with periodic thread migration (adds
//                   the System migration tick and cross-node traffic);
//   zipf          - the 16-thread `dedup` profile, whose shared traffic is
//                   Zipf-page sampling (the generator-bound case the
//                   guide-table inverse-CDF accelerates).
//
// Simulations are deterministic, so each measurement is a min-of-N wall
// clock around System::run.  Results are written to BENCH_kernel.json (see
// docs/PERF.md for the schema) so the perf trajectory is tracked in CI.
//
// The hard-coded baseline numbers were measured on the pre-rewrite kernel
// (std::function + std::priority_queue, commit ccbf067) on the same
// machine class CI uses, with the default budget below.  The JSON reports
// measured/baseline speedup per workload; the acceptance bar for the
// allocation-free kernel is >= 2x on the aggregate events/sec.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_cli.hh"
#include "common/fileio.hh"
#include "common/stats.hh"
#include "core/system.hh"
#include "sim/event.hh"
#include "workload/profiles.hh"

namespace allarm::bench {
namespace {

struct WorkloadResult {
  std::string name;
  std::uint64_t events = 0;       ///< Events executed in the measured run.
  double wall_seconds = 0.0;      ///< Best-of-reps wall time.
  double events_per_sec = 0.0;
  double ns_per_event = 0.0;
  double baseline_events_per_sec = 0.0;  ///< Pre-rewrite kernel, same budget.
  double speedup_vs_baseline = 0.0;
  /// Events whose closure overflowed sim::Event's inline buffer (counted
  /// across all reps; the allocation-free claim expects 0).
  std::uint64_t event_heap_fallbacks = 0;
};

/// Budget the baselines below were recorded at; other budgets disable the
/// comparison (throughput varies with warmup fraction and working-set
/// size, so cross-budget speedups would be apples-to-oranges).
constexpr std::uint64_t kBaselineAccesses = 20000;

/// Pre-rewrite kernel throughput (events/sec) at accesses=20000.
/// 0 disables the comparison for a workload.
double baseline_events_per_sec(const std::string& workload,
                               std::uint64_t accesses) {
  if (accesses != kBaselineAccesses) return 0.0;
  if (workload == "serial") return 6.58e6;
  if (workload == "multithreaded") return 3.62e6;
  if (workload == "migration") return 4.69e6;
  // "zipf" has no pre-rewrite reference: the workload was added together
  // with the generator front-end work.
  return 0.0;
}

struct Options {
  std::uint64_t accesses = 20000;
  int reps = 3;
  std::string out = "BENCH_kernel.json";
  /// When non-empty, run just these workloads (comma-separated names;
  /// bench_cli.hh's selected()).
  std::string only;
};

WorkloadResult measure(const std::string& name, const SystemConfig& config,
                       const workload::WorkloadSpec& spec,
                       const core::RunOptions& options, const Options& opt) {
  const int reps = opt.reps;
  WorkloadResult r;
  r.name = name;
  r.wall_seconds = 1e300;
  const std::uint64_t fallbacks_before = sim::Event::heap_fallbacks();
  for (int i = 0; i < reps; ++i) {
    core::System system(config);
    const auto t0 = std::chrono::steady_clock::now();
    core::RunResult run = system.run(spec, options);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    r.events = system.events().events_executed();
    if (secs < r.wall_seconds) r.wall_seconds = secs;
  }
  r.events_per_sec =
      r.wall_seconds > 0.0 ? static_cast<double>(r.events) / r.wall_seconds : 0.0;
  r.ns_per_event =
      r.events > 0 ? r.wall_seconds * 1e9 / static_cast<double>(r.events) : 0.0;
  r.baseline_events_per_sec = baseline_events_per_sec(name, opt.accesses);
  r.speedup_vs_baseline = r.baseline_events_per_sec > 0.0
                              ? r.events_per_sec / r.baseline_events_per_sec
                              : 0.0;
  r.event_heap_fallbacks = sim::Event::heap_fallbacks() - fallbacks_before;
  return r;
}

std::string to_json(const std::vector<WorkloadResult>& results,
                    const Options& opt) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"kernel_throughput\",\n";
  out << "  \"schema_version\": 1,\n";
  out << meta_json();
  out << "  \"accesses_per_thread\": " << opt.accesses << ",\n";
  out << "  \"reps\": " << opt.reps << ",\n";
  out << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    out << "    {\n";
    out << "      \"name\": " << json_quote(r.name) << ",\n";
    out << "      \"events\": " << r.events << ",\n";
    out << "      \"wall_seconds\": " << json_number(r.wall_seconds) << ",\n";
    out << "      \"events_per_sec\": " << json_number(r.events_per_sec)
        << ",\n";
    out << "      \"ns_per_event\": " << json_number(r.ns_per_event) << ",\n";
    out << "      \"baseline_events_per_sec\": "
        << json_number(r.baseline_events_per_sec) << ",\n";
    out << "      \"speedup_vs_baseline\": "
        << json_number(r.speedup_vs_baseline) << ",\n";
    out << "      \"event_heap_fallbacks\": " << r.event_heap_fallbacks
        << "\n";
    out << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  {
    std::vector<double> rates, speedups;
    for (const WorkloadResult& r : results) {
      rates.push_back(r.events_per_sec);
      if (r.speedup_vs_baseline > 0.0) speedups.push_back(r.speedup_vs_baseline);
    }
    out << "  \"geomean_events_per_sec\": " << json_number(geomean(rates))
        << ",\n";
    out << "  \"geomean_speedup_vs_baseline\": "
        << json_number(geomean(speedups)) << "\n";
  }
  out << "}\n";
  return out.str();
}

int run(const Options& opt) {
  const SystemConfig config;

  std::vector<WorkloadResult> results;
  const auto wanted = [&opt](const char* name) {
    return selected(opt.only, name);
  };

  if (wanted("serial")) {
    // Serial: one thread, private-heavy profile, no app sharing.
    workload::ProfileParams params = workload::benchmark_params("ocean-cont");
    params.name = "serial";
    const workload::WorkloadSpec spec =
        workload::make_from_params(params, config, opt.accesses, 1);
    core::RunOptions ro;
    ro.seed = 42;
    results.push_back(measure("serial", config, spec, ro, opt));
  }
  if (wanted("multithreaded")) {
    // Multithreaded: the full 16-thread profile.
    const workload::WorkloadSpec spec =
        workload::make_benchmark("ocean-cont", config, opt.accesses);
    core::RunOptions ro;
    ro.seed = 42;
    results.push_back(measure("multithreaded", config, spec, ro, opt));
  }
  if (wanted("migration")) {
    // Migration: multithreaded plus a periodic thread migration tick.
    const workload::WorkloadSpec spec =
        workload::make_benchmark("ocean-cont", config, opt.accesses);
    core::RunOptions ro;
    ro.seed = 42;
    ro.migration_interval = ticks_from_ns(20000.0);  // Every 20 us.
    results.push_back(measure("migration", config, spec, ro, opt));
  }
  if (wanted("zipf")) {
    // Zipf: dedup's shared structure is Zipf-page popularity — the profile
    // whose per-access sampling cost the guide table attacks.
    const workload::WorkloadSpec spec =
        workload::make_benchmark("dedup", config, opt.accesses);
    core::RunOptions ro;
    ro.seed = 42;
    results.push_back(measure("zipf", config, spec, ro, opt));
  }
  if (results.empty()) {
    std::cerr << "unknown workload: " << opt.only << "\n";
    return 2;
  }

  TextTable table({"workload", "events", "wall_s", "Mev/s", "ns/event",
                   "speedup_vs_baseline"});
  for (const WorkloadResult& r : results) {
    table.add_row({r.name, std::to_string(r.events),
                   TextTable::fmt(r.wall_seconds, 3),
                   TextTable::fmt(r.events_per_sec / 1e6, 2),
                   TextTable::fmt(r.ns_per_event, 1),
                   r.speedup_vs_baseline > 0.0
                       ? TextTable::fmt(r.speedup_vs_baseline, 2)
                       : "n/a"});
  }
  std::cout << "Event-kernel throughput (accesses=" << opt.accesses
            << ", reps=" << opt.reps << ")\n"
            << table.to_string();

  const std::string json = to_json(results, opt);
  write_file_durable(opt.out, json);
  std::cout << "wrote " << opt.out << "\n";
  return 0;
}

}  // namespace
}  // namespace allarm::bench

int main(int argc, char** argv) {
  allarm::bench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--accesses") {
      opt.accesses = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--reps") {
      opt.reps = std::atoi(value().c_str());
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--only") {
      opt.only = value();
    } else {
      std::cerr << "usage: bench_kernel_throughput [--accesses N] [--reps N] "
                   "[--only serial,multithreaded,migration,zipf] "
                   "[--out FILE]\n";
      return arg == "--help" ? 0 : 2;
    }
  }
  return allarm::bench::run(opt);
}

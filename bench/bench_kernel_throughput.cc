// Simulator throughput benchmark: host nanoseconds per simulated event.
//
// Each row times System::run over one path a sweep cell runs:
//
//   serial         ocean-cont's profile on one thread: long idle gaps
//                  between events exercise the calendar's far-horizon
//                  overflow heap;
//   multithreaded  the 16-thread ocean-cont profile under the baseline
//                  directory: dense event interleaving across all nodes,
//                  the sweep's common case;
//   migration      the same plus one thread migration every 20 us;
//   zipf           the 16-thread dedup profile, whose shared traffic
//                  samples Zipf-popular pages;
//   allarm         multithreaded's workload under the ALLARM probe filter;
//   region/rN      the same under the region directory with N-byte
//                  regions.  region/r64 is one line per region, which runs
//                  the baseline protocol with the region hooks gated off,
//                  so it guards their hot-path cost against multithreaded;
//   replay         zipf's run replayed from a .altr capture taken before
//                  timing starts: trace decode replaces the generators.
//
// A row is the minimum over --reps of the wall time around System::run;
// construction is not timed.  Rows run in a fixed order, each built just
// before it is timed, so a row sees the same allocator history in every
// build.  scripts/check_bench.py runs this binary from the parent commit
// and from the change in interleaved rounds and gates the change on the
// ratio of their ns_per_event (docs/PERF.md).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hh"
#include "common/fileio.hh"
#include "common/stats.hh"
#include "core/experiment.hh"
#include "core/system.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "workload/profiles.hh"

namespace allarm::bench {
namespace {

struct Options {
  std::uint64_t accesses = 20000;
  std::uint64_t reps = 3;
  std::string out = "BENCH_kernel.json";
};

struct Row {
  std::string name;
  std::uint64_t events = 0;   ///< Events executed in one run.
  double wall_seconds = 0.0;  ///< Best of --reps.
  double ns_per_event() const {
    return wall_seconds * 1e9 / static_cast<double>(events);
  }
};

Row measure(const std::string& name, const SystemConfig& config,
            const workload::WorkloadSpec& spec,
            const core::RunOptions& options, std::uint64_t reps) {
  Row r;
  r.name = name;
  r.wall_seconds = 1e300;
  for (std::uint64_t i = 0; i < reps; ++i) {
    core::System system(config);
    const auto t0 = std::chrono::steady_clock::now();
    system.run(spec, options);
    const auto t1 = std::chrono::steady_clock::now();
    r.wall_seconds = std::min(
        r.wall_seconds, std::chrono::duration<double>(t1 - t0).count());
    r.events = system.events().events_executed();
  }
  return r;
}

std::string to_json(const std::vector<Row>& rows, const Options& opt) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"kernel_throughput\",\n";
  out << "  \"accesses_per_thread\": " << opt.accesses << ",\n";
  out << "  \"reps\": " << opt.reps << ",\n";
  out << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"name\": " << json_quote(r.name)
        << ", \"events\": " << r.events
        << ", \"wall_seconds\": " << json_number(r.wall_seconds)
        << ", \"events_per_sec\": "
        << json_number(static_cast<double>(r.events) / r.wall_seconds)
        << ", \"ns_per_event\": " << json_number(r.ns_per_event()) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

int run(const Options& opt) {
  std::vector<Row> rows;
  core::RunOptions seed42;
  seed42.seed = 42;
  {
    const SystemConfig config;
    workload::ProfileParams params = workload::benchmark_params("ocean-cont");
    params.name = "serial";
    rows.push_back(measure(
        "serial", config,
        workload::make_from_params(params, config, opt.accesses, 1), seed42,
        opt.reps));
  }
  {
    const SystemConfig config;
    rows.push_back(measure(
        "multithreaded", config,
        workload::make_benchmark("ocean-cont", config, opt.accesses), seed42,
        opt.reps));
  }
  {
    const SystemConfig config;
    core::RunOptions migrating = seed42;
    migrating.migration_interval = ticks_from_ns(20000.0);
    rows.push_back(measure(
        "migration", config,
        workload::make_benchmark("ocean-cont", config, opt.accesses),
        migrating, opt.reps));
  }
  {
    const SystemConfig config;
    rows.push_back(measure(
        "zipf", config, workload::make_benchmark("dedup", config, opt.accesses),
        seed42, opt.reps));
  }
  {
    SystemConfig config;
    config.directory_mode = DirectoryMode::kAllarm;
    rows.push_back(measure(
        "allarm", config,
        workload::make_benchmark("ocean-cont", config, opt.accesses), seed42,
        opt.reps));
  }
  for (const std::uint32_t region_bytes : {4096u, 1024u, 64u}) {
    SystemConfig config;
    config.directory_mode = DirectoryMode::kRegion;
    config.region_size_bytes = region_bytes;
    rows.push_back(measure(
        "region/r" + std::to_string(region_bytes), config,
        workload::make_benchmark("ocean-cont", config, opt.accesses), seed42,
        opt.reps));
  }
  {
    // The capture is zipf's run; the reader keeps the file open, so it is
    // unlinked before timing and never outlives the process.
    core::RunRequest capture;
    capture.spec =
        workload::make_benchmark("dedup", capture.config, opt.accesses);
    capture.seed = 42;
    capture.capture_trace = opt.out + ".capture.altr";
    core::run_request(capture);
    auto reader =
        std::make_shared<const trace::TraceReader>(capture.capture_trace);
    std::remove(capture.capture_trace.c_str());
    rows.push_back(measure("replay", capture.config,
                           trace::make_replay_workload(reader, capture.config),
                           seed42, opt.reps));
  }

  TextTable table({"workload", "events", "wall_s", "Mev/s", "ns/event"});
  for (const Row& r : rows) {
    table.add_row({r.name, std::to_string(r.events),
                   TextTable::fmt(r.wall_seconds, 3),
                   TextTable::fmt(r.events / r.wall_seconds / 1e6, 2),
                   TextTable::fmt(r.ns_per_event(), 1)});
  }
  std::cout << "Simulator throughput (accesses=" << opt.accesses
            << ", reps=" << opt.reps << ")\n"
            << table.to_string();
  write_file_durable(opt.out, to_json(rows, opt));
  std::cout << "wrote " << opt.out << "\n";
  return 0;
}

}  // namespace
}  // namespace allarm::bench

int main(int argc, char** argv) {
  allarm::bench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 < argc && arg == "--accesses") {
      opt.accesses = allarm::cli::parse_u64("--accesses", argv[++i]);
    } else if (i + 1 < argc && arg == "--reps") {
      opt.reps = allarm::cli::parse_u64("--reps", argv[++i]);
      if (opt.reps == 0) {
        std::cerr << "--reps: expected at least 1\n";
        return 2;
      }
    } else if (i + 1 < argc && arg == "--out") {
      opt.out = argv[++i];
    } else {
      std::cerr << "usage: bench_kernel_throughput [--accesses N] [--reps N] "
                   "[--out FILE]\n";
      return arg == "--help" ? 0 : 2;
    }
  }
  return allarm::bench::run(opt);
}

// allarm_perfbench: runs one named workload of the end-to-end benchmark and
// prints its metrics; the last line of stdout is the JSON result.
//
//   allarm_perfbench --workload fig3|region-replay|serve --seed N
//                    --seconds S --trace 0|1 --work-dir DIR
//                    [--timeline FILE] [--tiny] [--break-check NAME]
//
// perfbench/run.py builds this binary and is the command to run; see
// perfbench/README.md.
#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hh"

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "allarm_perfbench: " << error << "\n"
            << "usage: allarm_perfbench --workload fig3|region-replay|serve "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n"
               "                        [--timeline FILE] [--tiny] "
               "[--break-check NAME]\n";
  std::exit(2);
}

/// Cores this process may run on (what `nproc` prints).
std::uint32_t usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::uint32_t>(std::max(1, CPU_COUNT(&set)));
}

std::uint64_t parse_u64(const std::string& text, const char* what) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(text, &used);
    if (used == text.size() && text[0] != '-') return v;
  } catch (const std::exception&) {
  }
  usage(std::string("bad ") + what + " '" + text + "'");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  // One core stays free for the benchmark's own thread (sink, journal,
  // load generator), so the load never exceeds nproc threads.
  options.workers = std::max<std::uint32_t>(1, usable_cores() - 1);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = parse_u64(value(), "--seed");
    } else if (arg == "--seconds") {
      options.seconds = static_cast<double>(parse_u64(value(), "--seconds"));
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      options.trace = t == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--timeline") {
      options.timeline_out = value();
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--break-check") {
      options.break_check = value();
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (options.work_dir.empty()) usage("--work-dir is required");
  if (options.seconds < 1) usage("--seconds must be at least 1");
  if (options.timeline_out.empty()) {
    options.timeline_out = options.work_dir + "/timeline.json";
  }

  perfbench::Result result;
  try {
    perfbench::fresh_dir(options.work_dir);
    if (options.workload == "fig3") {
      perfbench::run_fig3(options, result);
    } else if (options.workload == "region-replay") {
      perfbench::run_region_replay(options, result);
    } else if (options.workload == "serve") {
      perfbench::run_serve(options, result);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "allarm_perfbench: " << options.workload << ": " << e.what()
              << "\n";
    perfbench::remove_tree(options.work_dir);
    return 1;
  }
  perfbench::remove_tree(options.work_dir);

  if (!options.trace) {
    result.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
    result.metric("ok_frac",
                  1.0 - static_cast<double>(result.failed()) /
                            static_cast<double>(result.attempted()),
                  "ratio");
  }
  result.print(std::cout);
  return 0;
}

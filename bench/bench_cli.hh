// Shared CLI helpers for the chrono throughput benches
// (bench_kernel_throughput, bench_generator_throughput).
#pragma once

#include <cstddef>
#include <string>
#include <thread>

namespace allarm::bench {

/// True when `name` appears in the comma-separated `only` list (an empty
/// list selects everything).
inline bool selected(const std::string& only, const std::string& name) {
  if (only.empty()) return true;
  std::size_t pos = 0;
  while (pos <= only.size()) {
    const std::size_t comma = only.find(',', pos);
    const std::size_t end = comma == std::string::npos ? only.size() : comma;
    if (only.compare(pos, end - pos, name) == 0) return true;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return false;
}

/// Provenance block stamped into every BENCH_*.json, emitted right after
/// schema_version: git revision and build type (compile definitions from
/// CMake; "unknown" when built outside the tree) plus the host core count.
/// check_bench.py ignores unknown top-level keys, so trajectories written
/// before this block compare cleanly against ones written after.
inline std::string meta_json() {
#if defined(ALLARM_GIT_DESCRIBE)
  const char* git = ALLARM_GIT_DESCRIBE;
#else
  const char* git = "unknown";
#endif
#if defined(ALLARM_BUILD_TYPE)
  const char* build = ALLARM_BUILD_TYPE;
#else
  const char* build = "unknown";
#endif
  return std::string("  \"meta\": {\"git\": \"") + git + "\", \"build_type\": \"" +
         build + "\", \"cores\": " +
         std::to_string(std::thread::hardware_concurrency()) + "},\n";
}

}  // namespace allarm::bench

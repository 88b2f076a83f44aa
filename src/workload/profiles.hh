// Benchmark profiles: synthetic stand-ins for the SPLASH2 / Parsec
// workloads the paper evaluates under gem5 full-system simulation.
//
// Real full-system traces are not reproducible here, so each profile is a
// composition of access-pattern primitives calibrated to the drivers that
// determine every evaluated effect:
//
//   1. A HOT private region (fits in the caches, high reuse).  Its probe
//      filter entries are never touched after allocation (hits stay inside
//      the core), so under the baseline they age out of the directory and
//      the resulting evictions invalidate live, reused lines - the class of
//      misses ALLARM eliminates (Section II-B of the paper).
//   2. A COLD private region (streams through the caches).  Generates the
//      local request stream at each directory; under ALLARM these requests
//      allocate nothing.
//   3. An OS/KERNEL background: a large, globally shared, read-mostly
//      region standing in for the kernel image, page cache and other
//      OS-shared data a full-system simulation exercises.  Its lines are
//      dropped from caches silently (Shared state), so stale entries
//      accumulate and keep the probe filters full - the steady-state
//      eviction pressure visible in the paper's baseline.
//   4. An application SHARED structure per benchmark (read-mostly pool,
//      zipf hash table, migratory chunks, neighbour halos, or a
//      CPU0-initialized array), which sets the local/remote request mix
//      (Figure 2) and the invalidation fan-out (Figure 3d).
//
// Each profile also defines a deterministic warm-up (sweeping two kernel
// slices and the hot set once) after which statistics are reset - every
// figure is measured in steady state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "workload/spec.hh"

namespace allarm::workload {

/// How a profile's application-shared region is accessed.
enum class SharedPattern : std::uint8_t {
  kNone,      ///< No application sharing (multi-process style).
  kUniform,   ///< Uniform random over the shared region (read-mostly pool).
  kZipf,      ///< Zipf-skewed page popularity (hash table / hot metadata).
  kChunk,     ///< Staggered chunk cycling (pipeline / migratory sharing).
  kBoundary,  ///< Per-thread halo regions read by mesh neighbours (grids).
};

/// Tunable description of one benchmark profile.
struct ProfileParams {
  std::string name;

  // Hot private working set (cache-resident, reused).
  std::uint64_t hot_bytes = 128 * 1024;
  double p_hot = 0.3;
  double p_write_hot = 0.3;

  // Cold private working set (streaming).
  std::uint64_t cold_bytes = 256 * 1024;
  double p_cold = 0.2;
  double p_write_cold = 0.3;

  // OS/kernel background (globally shared, read-mostly, round-robin homes).
  double p_kernel = 0.12;
  std::uint64_t kernel_bytes = 6 * 1024 * 1024;
  double p_write_kernel = 0.02;
  /// Zipf exponent over kernel pages (0 = uniform).  A skewed page-cache
  /// popularity keeps hot OS pages' directory entries recently-touched
  /// while the cold tail ages out - the realistic mix of shielded and
  /// stale directory state.
  double kernel_zipf_alpha = 0.0;
  /// When nonzero, the steady-state kernel component creeps through fresh
  /// pages (CreepingShared) instead of re-reading a fixed pool: the OS
  /// touches one new shared line every `kernel_advance_ns` nanoseconds of
  /// simulated time (synchronized across threads).  This continuously
  /// manufactures stale Shared directory entries - the pressure that keeps
  /// sparse directories full in long-running systems.  Smaller = more
  /// pressure; 0 disables the creep (fixed kernel pool).
  double kernel_advance_ns = 0.0;

  // Application shared structure; gets the remaining access probability
  // p_shared() = 1 - p_hot - p_cold - p_kernel.
  SharedPattern pattern = SharedPattern::kUniform;
  std::uint64_t shared_bytes = 1024 * 1024;
  double p_write_shared = 0.1;
  double zipf_alpha = 0.9;
  std::uint32_t chunk_count = 16;
  std::uint64_t boundary_bytes = 32 * 1024;  ///< Per-thread halo size.
  /// All shared pages first-touched by thread 0 (blackscholes-style init).
  bool shared_home_at_zero = false;

  /// Fraction of private pages first-touched from a neighbouring node
  /// (ocean-non-contiguous layout; allocation spill in the multi-process
  /// experiment).
  double misplaced_private_fraction = 0.0;

  // Timing.
  Tick think = ticks_from_ns(2.0);
  double think_jitter = 0.3;

  double p_shared() const { return 1.0 - p_hot - p_cold - p_kernel; }
};

/// Names of the eight evaluated benchmarks, in the paper's order.
const std::vector<std::string>& benchmark_names();

/// Parameters for a named benchmark; throws std::out_of_range when unknown.
const ProfileParams& benchmark_params(const std::string& name);

/// Builds the 16-thread (one per core) workload for a named benchmark, or,
/// for `<name>-2p`, the Section III-B two-process variant of `name` (two
/// single-threaded copies in separate address spaces on distant nodes).
WorkloadSpec make_benchmark(const std::string& name, const SystemConfig& config,
                            std::uint64_t accesses_per_thread);

/// Builds a workload from explicit parameters (tests and ablations).
WorkloadSpec make_from_params(const ProfileParams& params,
                              const SystemConfig& config,
                              std::uint64_t accesses_per_thread,
                              std::uint32_t num_threads);

/// Names of the benchmarks used in the multi-process experiment (Figure 4);
/// make_benchmark builds each as `<name>-2p`.
const std::vector<std::string>& multiprocess_benchmark_names();

}  // namespace allarm::workload

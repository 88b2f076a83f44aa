// System configuration, defaulted to Table I of the ALLARM paper
// (Roy & Jones, DATE 2014).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/types.hh"

namespace allarm {

/// Directory allocation policy.
enum class DirectoryMode : std::uint8_t {
  kBaseline,  ///< Allocate a probe-filter entry on every miss (Hammer + PF).
  kAllarm,    ///< ALLocAte on Remote Miss (the paper's contribution).
  kRegion,    ///< Region-granularity entries for private regions (src/region/).
};

std::string to_string(DirectoryMode mode);

/// Largest associativity of any cache or probe filter: replacement state
/// ranks the ways of a set in one byte each (cache::LruPolicy).
inline constexpr std::uint32_t kMaxWays = 255;

/// Cache geometry for one cache level.
struct CacheConfig {
  std::uint32_t size_bytes = 0;   ///< Total capacity.
  std::uint32_t ways = 4;         ///< Associativity.
  Tick latency = ticks_from_ns(1.0);  ///< Lookup latency.

  /// Number of 64-byte lines this cache can hold.
  std::uint32_t lines() const { return size_bytes / kLineBytes; }
  /// Number of sets.
  std::uint32_t sets() const { return lines() / ways; }
};

/// Replacement policy selector for caches and the probe filter.
enum class ReplacementKind : std::uint8_t {
  kLru,        ///< True least-recently-used.
  kTreePlru,   ///< Tree pseudo-LRU.
  kRandom,     ///< Pseudo-random victim.
};

std::string to_string(ReplacementKind kind);

/// Full simulated-system configuration (defaults reproduce Table I).
struct SystemConfig {
  // --- Cores and per-core caches -----------------------------------------
  std::uint32_t num_cores = 16;             ///< 16 cores.
  double core_freq_ghz = 2.0;               ///< 2 GHz.
  CacheConfig l1i{32 * 1024, 4, ticks_from_ns(1.0)};   ///< 32 kB 4-way.
  CacheConfig l1d{32 * 1024, 4, ticks_from_ns(1.0)};   ///< 32 kB 4-way.
  CacheConfig l2{256 * 1024, 4, ticks_from_ns(1.0)};   ///< 256 kB 4-way, exclusive.
  ReplacementKind cache_replacement = ReplacementKind::kLru;

  // --- Directory / probe filter ------------------------------------------
  /// Bytes of cached data each per-node probe filter can track
  /// (512 kB = 2x coverage of one L2, as in deployed AMD Hammer systems).
  std::uint32_t probe_filter_coverage_bytes = 512 * 1024;
  std::uint32_t probe_filter_ways = 4;      ///< Probe-filter associativity.
  Tick probe_filter_latency = ticks_from_ns(1.0);  ///< 1 ns access.
  ReplacementKind probe_filter_replacement = ReplacementKind::kLru;
  DirectoryMode directory_mode = DirectoryMode::kBaseline;
  /// If true the ALLARM local probe is issued in parallel with the
  /// speculative DRAM read (Section II-D).  If false the probe is fully
  /// serialized before the DRAM access; used by the latency-hiding ablation.
  bool allarm_parallel_local_probe = true;
  /// If true (default), the data reply of an allocating miss waits until
  /// the victim entry's invalidation acks have arrived: the directory way
  /// is not reusable until the victim line is known to be invalidated
  /// everywhere.  This synchronous-victim cost model follows the paper's
  /// Section II-B accounting (victim readout, invalidation messages and
  /// acknowledgments per eviction).  Setting it false models an eviction
  /// buffer that drains victim flows in the background; the
  /// bench_ablation_eviction_buffer binary compares both models.
  bool eviction_gates_reply = true;
  /// Region size for DirectoryMode::kRegion: bytes covered by one region
  /// directory entry.  Power of two, in [kLineBytes, kPageBytes] -- a
  /// region never spans a page, so every region has a single home
  /// directory.  At kLineBytes (one line per region) region mode
  /// degenerates to the baseline protocol exactly.  Ignored by the other
  /// modes.
  std::uint32_t region_size_bytes = 4096;

  // --- Memory --------------------------------------------------------------
  std::uint64_t dram_total_bytes = 2ull * 1024 * 1024 * 1024;  ///< 2 GB.
  Tick dram_latency = ticks_from_ns(60.0);  ///< 60 ns access latency.
  /// Minimum gap between successive accesses at one memory controller
  /// (simple bandwidth model; 64 B / 10 ns = 6.4 GB/s per controller).
  Tick dram_cycle = ticks_from_ns(10.0);

  // --- Network --------------------------------------------------------------
  std::uint32_t mesh_width = 4;             ///< 4x4 mesh.
  std::uint32_t mesh_height = 4;
  std::uint32_t flit_bytes = 4;             ///< 4-byte flits.
  std::uint32_t control_msg_bytes = 8;      ///< Control message size.
  std::uint32_t data_msg_bytes = 72;        ///< Data message (64 B + header).
  double link_bandwidth_gbps = 8.0;         ///< 8 GB/s per link.
  Tick link_latency = ticks_from_ns(10.0);  ///< 10 ns per hop.
  Tick router_latency = ticks_from_ns(1.0); ///< Router pipeline delay.

  // --- Same-node (no-NoC) communication ------------------------------------
  /// Latency of a message between co-located components (core <-> directory
  /// in the same node); these never enter the mesh.
  Tick local_hop_latency = ticks_from_ns(1.0);

  // --- Derived quantities ----------------------------------------------------
  /// Probe-filter entry count (one entry tracks one cached line).
  std::uint32_t probe_filter_entries() const {
    return probe_filter_coverage_bytes / kLineBytes;
  }
  /// Total node count.
  std::uint32_t num_nodes() const { return mesh_width * mesh_height; }
  /// DRAM bytes attached to each node's memory controller.
  std::uint64_t dram_bytes_per_node() const {
    return dram_total_bytes / num_nodes();
  }
  /// Time to push one flit onto a link.
  Tick flit_serialization() const {
    const double ns = static_cast<double>(flit_bytes) / link_bandwidth_gbps;
    return ticks_from_ns(ns);
  }

  /// Throws std::invalid_argument when the configuration is inconsistent.
  void validate() const;
};

}  // namespace allarm

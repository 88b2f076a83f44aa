#include "workload/profiles.hh"

#include <algorithm>
#include <stdexcept>

#include "numa/os.hh"

namespace allarm::workload {

namespace {

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * 1024;

// Virtual-address layout (per address space).  The kernel region lives in
// the OS's global kernel range so that every address space shares it.
constexpr Addr kHotBase = 0x4000'0000ull;         // 1 GiB per thread.
constexpr Addr kRegionStride = 0x4000'0000ull;
constexpr Addr kColdBase = 0x100'0000'0000ull;    // 1 TiB + 1 GiB per thread.
constexpr Addr kBoundaryBase = 0x200'0000'0000ull;  // 16 MiB per thread.
constexpr Addr kBoundaryStride = 0x100'0000ull;
constexpr Addr kSharedBase = 0x300'0000'0000ull;
constexpr Addr kKernelBase = numa::kKernelSpaceBase;

/// Span and window of the creeping OS-shared stream (see profiles.hh).
constexpr std::uint64_t kKernelCreepSpanBytes = 48 * kMiB;
constexpr std::uint32_t kKernelCreepWindowLines = 256;

Addr hot_base(ThreadId t) { return kHotBase + t * kRegionStride; }
Addr cold_base(ThreadId t) { return kColdBase + t * kRegionStride; }
Addr boundary_base(ThreadId t) { return kBoundaryBase + t * kBoundaryStride; }

/// The calibrated profile table (see profiles.hh for the meaning of each
/// knob).  Values were tuned against the paper's Figure 2 local/remote
/// mixes and the per-benchmark properties named in Section III.
const std::vector<ProfileParams>& profile_table() {
  static const std::vector<ProfileParams> table = [] {
    std::vector<ProfileParams> t;
    {
      ProfileParams p;  // N-body: tree reused heavily, bodies read-mostly.
      p.name = "barnes";
      p.hot_bytes = 96 * kKiB;  p.p_hot = 0.40;  p.p_write_hot = 0.20;
      p.cold_bytes = 256 * kKiB; p.p_cold = 0.18; p.p_write_cold = 0.20;
      p.p_kernel = 0.16;
      p.kernel_bytes = 4 * kMiB;
      p.kernel_advance_ns = 60.0;
      p.pattern = SharedPattern::kUniform;
      p.shared_bytes = 2 * kMiB;
      p.p_write_shared = 0.05;
      p.think = ticks_from_ns(2.0);
      t.push_back(p);
    }
    {
      ProfileParams p;  // Options priced from a CPU0-initialized array.
      p.name = "blackscholes";
      p.hot_bytes = 64 * kKiB;   p.p_hot = 0.25;  p.p_write_hot = 0.30;
      p.cold_bytes = 32 * kKiB;  p.p_cold = 0.02; p.p_write_cold = 0.20;
      p.p_kernel = 0.10;
      p.kernel_bytes = 4 * kMiB;
      p.kernel_advance_ns = 60.0;
      p.pattern = SharedPattern::kUniform;
      p.shared_bytes = 768 * kKiB;
      p.p_write_shared = 0.02;
      p.shared_home_at_zero = true;
      p.think = ticks_from_ns(2.0);
      t.push_back(p);
    }
    {
      ProfileParams p;  // Panel factorization: migratory blocks.
      p.name = "cholesky";
      p.hot_bytes = 96 * kKiB;  p.p_hot = 0.42;  p.p_write_hot = 0.30;
      p.cold_bytes = 288 * kKiB; p.p_cold = 0.17; p.p_write_cold = 0.30;
      p.p_kernel = 0.15;
      p.kernel_bytes = 4 * kMiB;
      p.kernel_advance_ns = 60.0;
      p.pattern = SharedPattern::kChunk;
      p.shared_bytes = 1 * kMiB;
      p.p_write_shared = 0.30;
      p.chunk_count = 16;
      p.think = ticks_from_ns(2.0);
      t.push_back(p);
    }
    {
      ProfileParams p;  // Pipeline with a hot shared hash table.
      p.name = "dedup";
      p.hot_bytes = 64 * kKiB;   p.p_hot = 0.30;  p.p_write_hot = 0.25;
      p.cold_bytes = 96 * kKiB;  p.p_cold = 0.08; p.p_write_cold = 0.25;
      p.p_kernel = 0.12;
      p.kernel_bytes = 4 * kMiB;
      p.kernel_advance_ns = 80.0;
      p.pattern = SharedPattern::kZipf;
      p.shared_bytes = 1536 * kKiB;
      p.p_write_shared = 0.20;
      p.zipf_alpha = 0.9;
      p.think = ticks_from_ns(2.0);
      t.push_back(p);
    }
    {
      ProfileParams p;  // Huge streaming working set: capacity-dominated.
      p.name = "fluidanimate";
      p.hot_bytes = 64 * kKiB;    p.p_hot = 0.22;  p.p_write_hot = 0.40;
      p.cold_bytes = 1536 * kKiB; p.p_cold = 0.43; p.p_write_cold = 0.50;
      p.p_kernel = 0.22;
      p.kernel_bytes = 4 * kMiB;
      p.kernel_advance_ns = 1500.0;
      p.pattern = SharedPattern::kBoundary;
      p.boundary_bytes = 32 * kKiB;
      // The largest working set in Parsec: first-touch cannot keep all of
      // it local, so a sizeable share of pages spills to neighbour nodes.
      p.misplaced_private_fraction = 0.25;
      p.think = ticks_from_ns(0.5);
      t.push_back(p);
    }
    {
      ProfileParams p;  // Grid solver: NUMA-friendly rows + neighbour halos.
      p.name = "ocean-cont";
      p.hot_bytes = 96 * kKiB;  p.p_hot = 0.48;  p.p_write_hot = 0.50;
      p.cold_bytes = 384 * kKiB; p.p_cold = 0.23; p.p_write_cold = 0.50;
      p.p_kernel = 0.20;
      p.kernel_bytes = 4 * kMiB;
      p.kernel_advance_ns = 30.0;
      p.pattern = SharedPattern::kBoundary;
      p.boundary_bytes = 32 * kKiB;
      p.think = ticks_from_ns(1.0);
      t.push_back(p);
    }
    {
      ProfileParams p;  // Same solver, non-contiguous page layout.
      p.name = "ocean-non-cont";
      p.hot_bytes = 96 * kKiB;  p.p_hot = 0.48;  p.p_write_hot = 0.50;
      p.cold_bytes = 384 * kKiB; p.p_cold = 0.21; p.p_write_cold = 0.50;
      p.p_kernel = 0.20;
      p.kernel_bytes = 4 * kMiB;
      p.kernel_advance_ns = 40.0;
      p.pattern = SharedPattern::kBoundary;
      p.boundary_bytes = 32 * kKiB;
      p.misplaced_private_fraction = 0.10;
      p.think = ticks_from_ns(1.0);
      t.push_back(p);
    }
    {
      ProfileParams p;  // Frame pipeline: producers feed staggered consumers.
      p.name = "x264";
      p.hot_bytes = 64 * kKiB;   p.p_hot = 0.28;  p.p_write_hot = 0.30;
      p.cold_bytes = 128 * kKiB; p.p_cold = 0.07; p.p_write_cold = 0.30;
      p.p_kernel = 0.12;
      p.kernel_bytes = 4 * kMiB;
      p.kernel_advance_ns = 80.0;
      p.pattern = SharedPattern::kChunk;
      p.shared_bytes = 1536 * kKiB;
      p.p_write_shared = 0.25;
      p.chunk_count = 16;
      p.think = ticks_from_ns(2.0);
      t.push_back(p);
    }
    return t;
  }();
  return table;
}

/// Steady-state mixture for one thread.  `t` selects the thread's private
/// regions and its role in shared patterns; multi-process workloads reuse
/// layout 0 in each address space.
std::unique_ptr<AccessGenerator> build_mix(const ProfileParams& p, ThreadId t,
                                           std::uint32_t num_threads) {
  auto mix = std::make_unique<Mix>();
  if (p.p_hot > 0.0) {
    mix->add(p.p_hot, std::make_unique<SequentialSweep>(
                          hot_base(t), p.hot_bytes, kLineBytes, p.p_write_hot));
  }
  if (p.p_cold > 0.0) {
    mix->add(p.p_cold,
             std::make_unique<SequentialSweep>(cold_base(t), p.cold_bytes,
                                               kLineBytes, p.p_write_cold));
  }
  if (p.p_kernel > 0.0) {
    if (p.kernel_advance_ns > 0.0) {
      // Fresh territory starts beyond the warm-up stock and wraps over a
      // large span (per-node DRAM share stays small).
      mix->add(p.p_kernel,
               std::make_unique<CreepingShared>(
                   kKernelBase + p.kernel_bytes, kKernelCreepSpanBytes,
                   kKernelCreepWindowLines,
                   ticks_from_ns(p.kernel_advance_ns), p.p_write_kernel));
    } else if (p.kernel_zipf_alpha > 0.0) {
      mix->add(p.p_kernel,
               std::make_unique<ZipfPages>(kKernelBase,
                                           p.kernel_bytes / kPageBytes,
                                           p.kernel_zipf_alpha,
                                           p.p_write_kernel));
    } else {
      mix->add(p.p_kernel, std::make_unique<UniformRandom>(
                               kKernelBase, p.kernel_bytes, p.p_write_kernel));
    }
  }
  const double p_shared = p.p_shared();
  if (p_shared > 1e-9 && p.pattern != SharedPattern::kNone) {
    std::unique_ptr<AccessGenerator> shared;
    switch (p.pattern) {
      case SharedPattern::kUniform:
        shared = std::make_unique<UniformRandom>(kSharedBase, p.shared_bytes,
                                                 p.p_write_shared);
        break;
      case SharedPattern::kZipf:
        shared = std::make_unique<ZipfPages>(kSharedBase,
                                             p.shared_bytes / kPageBytes,
                                             p.zipf_alpha, p.p_write_shared);
        break;
      case SharedPattern::kChunk:
        shared = std::make_unique<ChunkCycle>(
            kSharedBase, p.shared_bytes / p.chunk_count, p.chunk_count,
            /*phase=*/t, p.p_write_shared);
        break;
      case SharedPattern::kBoundary: {
        // 40% updates of the thread's own halo, 60% reads of neighbours'.
        const ThreadId left = (t + num_threads - 1) % num_threads;
        const ThreadId right = (t + 1) % num_threads;
        auto halo = std::make_unique<Mix>();
        halo->add(0.4,
                  std::make_unique<SequentialSweep>(
                      boundary_base(t), p.boundary_bytes, kLineBytes, 0.5));
        halo->add(0.3, std::make_unique<UniformRandom>(boundary_base(left),
                                                       p.boundary_bytes, 0.0));
        halo->add(0.3, std::make_unique<UniformRandom>(boundary_base(right),
                                                       p.boundary_bytes, 0.0));
        shared = std::move(halo);
        break;
      }
      case SharedPattern::kNone:
        break;
    }
    if (shared) mix->add(p_shared, std::move(shared));
  }
  return mix;
}

/// Kernel warm-up slice.  Physical frames are scrambled, so slice lines map
/// into cache sets as a Poisson process; the slice must be small enough
/// that two slices together keep per-set occupancy comfortably below the
/// associativity, or set conflicts evict lines (freeing their directory
/// entries) before the partner's sweep can convert them to Shared.  32 kB
/// (512 lines over 1024 L2 sets) keeps the conversion near-deterministic.
constexpr std::uint64_t kKernelSliceBytes = 32 * kKiB;

/// Warm-up: the kernel region is covered in rounds of
/// num_threads x kKernelSliceBytes; in each round every thread sweeps its
/// own slice and then its partner's (threads t and t^1 swap).  Both sweeps
/// of a pair run concurrently, so each kernel line is read by two caches
/// while still resident - its directory entry deterministically reaches the
/// Shared state, where silent cache drops leave it stale.  This reproduces
/// the standing population of stale Shared entries a long-running OS
/// creates, which is what keeps sparse directories full in the paper's
/// full-system baseline.  The hot set is swept once afterwards.
std::unique_ptr<Phased> build_phased(const ProfileParams& p, ThreadId t,
                                     std::uint32_t num_threads,
                                     std::uint64_t* warmup_out,
                                     ThreadId kernel_slice) {
  auto phased = std::make_unique<Phased>();
  if (p.p_kernel > 0.0) {
    const std::uint64_t round_bytes = kKernelSliceBytes * num_threads;
    const std::uint64_t rounds = (p.kernel_bytes + round_bytes - 1) / round_bytes;
    const ThreadId partner = num_threads % 2 == 0
                                 ? (kernel_slice ^ 1u)
                                 : (kernel_slice + 1) % num_threads;
    const std::uint64_t slice_accesses = kKernelSliceBytes / kLineBytes;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      const Addr round_base = kKernelBase + r * round_bytes;
      const Addr own = round_base + kernel_slice * kKernelSliceBytes;
      const Addr partners = round_base + partner * kKernelSliceBytes;
      phased->add_stage(slice_accesses,
                        std::make_unique<SequentialSweep>(
                            own, kKernelSliceBytes, kLineBytes, 0.0));
      phased->add_stage(slice_accesses,
                        std::make_unique<SequentialSweep>(
                            partners, kKernelSliceBytes, kLineBytes, 0.0));
    }
  }
  if (p.p_cold > 0.0) {
    phased->add_stage(p.cold_bytes / kLineBytes,
                      std::make_unique<SequentialSweep>(
                          cold_base(t), p.cold_bytes, kLineBytes, 0.0));
  }
  if (p.p_hot > 0.0) {
    phased->add_stage(p.hot_bytes / kLineBytes,
                      std::make_unique<SequentialSweep>(
                          hot_base(t), p.hot_bytes, kLineBytes, 0.0));
  }
  *warmup_out = phased->prefix_length();
  phased->set_tail(build_mix(p, t, num_threads));
  return phased;
}

/// Pre-touches every page of [base, base+length) from `node`.
void touch_region(numa::Os& os, AddressSpaceId asid, Addr base,
                  std::uint64_t length, NodeId node) {
  for (Addr a = base; a < base + length; a += kPageBytes) {
    os.touch(asid, a, node);
  }
}

/// Pre-touches a region, sending every page whose index satisfies the
/// misplacement pattern to `other` instead of `node`.
void touch_region_misplaced(numa::Os& os, AddressSpaceId asid, Addr base,
                            std::uint64_t length, NodeId node, NodeId other,
                            double fraction) {
  const auto period = 100ull;
  const auto misplaced = static_cast<std::uint64_t>(fraction * period + 0.5);
  std::uint64_t index = 0;
  for (Addr a = base; a < base + length; a += kPageBytes, ++index) {
    const NodeId target = (index % period) < misplaced ? other : node;
    os.touch(asid, a, target);
  }
}

void validate(const ProfileParams& p) {
  if (p.p_hot < 0 || p.p_cold < 0 || p.p_kernel < 0 || p.p_shared() < -1e-9) {
    throw std::invalid_argument("ProfileParams: probabilities out of range");
  }
}

}  // namespace

const std::vector<std::string>& benchmark_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const auto& p : profile_table()) n.push_back(p.name);
    return n;
  }();
  return names;
}

const ProfileParams& benchmark_params(const std::string& name) {
  for (const auto& p : profile_table()) {
    if (p.name == name) return p;
  }
  throw std::out_of_range("unknown benchmark: " + name);
}

WorkloadSpec make_from_params(const ProfileParams& params,
                              const SystemConfig& config,
                              std::uint64_t accesses_per_thread,
                              std::uint32_t num_threads) {
  validate(params);
  if (num_threads > config.num_nodes()) {
    throw std::invalid_argument("more threads than cores");
  }
  WorkloadSpec spec;
  spec.name = params.name;
  for (ThreadId t = 0; t < num_threads; ++t) {
    ThreadSpec ts;
    ts.id = t;
    ts.asid = 0;
    ts.node = static_cast<NodeId>(t);
    std::uint64_t warmup = 0;
    {
      // Probe the warm-up length once; the factory rebuilds per run.
      build_phased(params, t, num_threads, &warmup, t);
    }
    ts.make_generator = [params, t, num_threads] {
      std::uint64_t ignored = 0;
      return build_phased(params, t, num_threads, &ignored, t);
    };
    ts.accesses = accesses_per_thread;
    ts.warmup_accesses = warmup;
    ts.think = params.think;
    ts.think_jitter = params.think_jitter;
    ts.start_offset = ticks_from_ns(3.0) * t;
    spec.threads.push_back(std::move(ts));
  }
  spec.setup = [params, num_threads](numa::Os& os) {
    for (ThreadId t = 0; t < num_threads; ++t) {
      const auto node = static_cast<NodeId>(t);
      const auto neighbour = static_cast<NodeId>((t + 1) % num_threads);
      touch_region(os, 0, hot_base(t), params.hot_bytes, node);
      if (params.misplaced_private_fraction > 0.0) {
        touch_region_misplaced(os, 0, cold_base(t), params.cold_bytes, node,
                               neighbour, params.misplaced_private_fraction);
      } else {
        touch_region(os, 0, cold_base(t), params.cold_bytes, node);
      }
      if (params.pattern == SharedPattern::kBoundary) {
        touch_region(os, 0, boundary_base(t), params.boundary_bytes, node);
      }
    }
    if (params.p_shared() > 1e-9 &&
        params.pattern != SharedPattern::kBoundary &&
        params.pattern != SharedPattern::kNone) {
      if (params.shared_home_at_zero) {
        touch_region(os, 0, kSharedBase, params.shared_bytes, 0);
      } else {
        // Partitioned initialization: pages round-robin across threads.
        std::uint64_t index = 0;
        for (Addr a = kSharedBase; a < kSharedBase + params.shared_bytes;
             a += kPageBytes, ++index) {
          os.touch(0, a, static_cast<NodeId>(index % num_threads));
        }
      }
    }
  };
  return spec;
}

namespace {

/// The Section III-B multi-process workload behind `<name>-2p`: two
/// single-threaded copies of `name` in separate address spaces on distant
/// nodes, with a small fraction of pages spilled to neighbouring nodes
/// (memory-capacity pressure at a single controller, as the paper says).
WorkloadSpec make_multiprocess(const std::string& name,
                               const SystemConfig& config,
                               std::uint64_t accesses_per_thread) {
  const ProfileParams& base = benchmark_params(name);
  ProfileParams p = base;
  // Single-threaded copies share nothing at application level; redistribute
  // the shared probability onto the private sets.
  const double reclaim = p.p_shared();
  p.pattern = SharedPattern::kNone;
  p.p_hot += reclaim * 0.6;
  p.p_cold += reclaim * 0.4;
  // Two processes generate far less OS noise than sixteen threads.
  p.p_kernel = 0.10;
  p.kernel_bytes = 1536 * kKiB;
  // Allocation spill: a single memory controller cannot hold everything the
  // process wants locally (Section III-B).
  p.misplaced_private_fraction =
      std::max(0.08, base.misplaced_private_fraction);

  WorkloadSpec spec;
  spec.name = name + "-2p";
  const NodeId placements[2] = {0, static_cast<NodeId>(config.num_nodes() - 1)};
  for (ThreadId t = 0; t < 2; ++t) {
    ThreadSpec ts;
    ts.id = t;
    ts.asid = t;  // Separate address spaces: separate processes.
    ts.node = placements[t];
    std::uint64_t warmup = 0;
    // Both processes use thread-0's virtual layout (separate address
    // spaces); each sweeps its own half of the kernel during warm-up.
    build_phased(p, 0, 2, &warmup, t);
    ts.make_generator = [p, t] {
      std::uint64_t ignored = 0;
      return build_phased(p, 0, 2, &ignored, t);
    };
    ts.accesses = accesses_per_thread;
    ts.warmup_accesses = warmup;
    ts.think = p.think;
    ts.think_jitter = p.think_jitter;
    ts.start_offset = ticks_from_ns(3.0) * t;
    spec.threads.push_back(std::move(ts));
  }
  spec.setup = [p, placements](numa::Os& os) {
    for (ThreadId t = 0; t < 2; ++t) {
      const NodeId node = placements[t];
      const NodeId neighbour = static_cast<NodeId>(node == 0 ? 1 : node - 1);
      touch_region_misplaced(os, t, hot_base(0), p.hot_bytes, node, neighbour,
                             p.misplaced_private_fraction);
      touch_region_misplaced(os, t, cold_base(0), p.cold_bytes, node,
                             neighbour, p.misplaced_private_fraction);
    }
  };
  return spec;
}

}  // namespace

WorkloadSpec make_benchmark(const std::string& name,
                            const SystemConfig& config,
                            std::uint64_t accesses_per_thread) {
  const std::string suffix = "-2p";
  if (name.size() > suffix.size() &&
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return make_multiprocess(name.substr(0, name.size() - suffix.size()),
                             config, accesses_per_thread);
  }
  return make_from_params(benchmark_params(name), config, accesses_per_thread,
                          config.num_cores);
}

const std::vector<std::string>& multiprocess_benchmark_names() {
  static const std::vector<std::string> names = {
      "barnes", "cholesky", "ocean-cont", "ocean-non-cont"};
  return names;
}

}  // namespace allarm::workload

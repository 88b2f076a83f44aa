// Shared helpers for protocol-level tests: scripted access sequences and
// small deterministic workloads running on a full System.
#pragma once

#include <memory>
#include <vector>

#include "core/system.hh"
#include "workload/spec.hh"

namespace allarm::test {

/// Plays back a fixed access script (then repeats it if asked for more).
class ScriptedGenerator final : public workload::AccessGenerator {
 public:
  explicit ScriptedGenerator(std::vector<workload::Access> script)
      : script_(std::move(script)) {}

  workload::Access next(Rng&, Tick) override {
    const workload::Access a = script_[index_ % script_.size()];
    ++index_;
    return a;
  }

 private:
  std::vector<workload::Access> script_;
  std::size_t index_ = 0;
};

inline workload::Access load(Addr a) {
  return {a, AccessType::kLoad};
}
inline workload::Access store(Addr a) {
  return {a, AccessType::kStore};
}

/// One scripted thread placed on `node`; executes the whole script once.
struct ScriptThread {
  NodeId node = 0;
  std::vector<workload::Access> script;
  Tick start_offset = 0;
  AddressSpaceId asid = 0;
};

/// Builds a workload from scripted threads.  Threads run their scripts to
/// completion with 1 ns think time and no warm-up.
inline workload::WorkloadSpec make_scripted(std::vector<ScriptThread> threads) {
  workload::WorkloadSpec spec;
  spec.name = "scripted";
  ThreadId id = 0;
  for (auto& t : threads) {
    workload::ThreadSpec ts;
    ts.id = id++;
    ts.asid = t.asid;
    ts.node = t.node;
    ts.accesses = t.script.size();
    ts.think = ticks_from_ns(1.0);
    ts.think_jitter = 0.0;
    ts.start_offset = t.start_offset;
    auto script = t.script;
    ts.make_generator = [script] {
      return std::make_unique<ScriptedGenerator>(script);
    };
    spec.threads.push_back(std::move(ts));
  }
  return spec;
}

/// A Table I system with caches shrunk so small scripts exercise evictions.
inline SystemConfig small_config() {
  SystemConfig config;
  config.l1i = CacheConfig{4 * kLineBytes, 2, ticks_from_ns(1.0)};
  config.l1d = CacheConfig{4 * kLineBytes, 2, ticks_from_ns(1.0)};
  config.l2 = CacheConfig{16 * kLineBytes, 2, ticks_from_ns(1.0)};
  config.probe_filter_coverage_bytes = 32 * kLineBytes;  // 8 sets x 4 ways.
  return config;
}

/// Runs `spec` on a fresh system in `mode` and returns the System (for
/// component inspection) plus the result.
struct RanSystem {
  std::unique_ptr<core::System> system;
  core::RunResult result;
};

inline RanSystem run_scripted(
    const SystemConfig& base_config, DirectoryMode mode,
    const workload::WorkloadSpec& spec, std::uint64_t seed = 1,
    numa::AllocPolicy policy = numa::AllocPolicy::kFirstTouch) {
  SystemConfig config = base_config;
  config.directory_mode = mode;
  RanSystem ran;
  ran.system = std::make_unique<core::System>(config, policy);
  core::RunOptions options;
  options.seed = seed;
  ran.result = ran.system->run(spec, options);
  return ran;
}

/// Virtual address of line `n` inside thread-private region `region`.
inline Addr priv(std::uint32_t region, std::uint32_t line) {
  return 0x4000'0000ull * (region + 1) + line * kLineBytes;
}

}  // namespace allarm::test

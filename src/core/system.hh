// Top-level simulated system: assembles the Table I machine (16 nodes, each
// with a core, an L1I/L1D/exclusive-L2 hierarchy, a directory with probe
// filter, and a DRAM channel, on a 4x4 mesh) and runs workloads on it.
//
// One System instance runs one workload once; experiments construct a fresh
// System per (workload, configuration) pair so runs are fully independent
// and reproducible.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coherence/cache_controller.hh"
#include "coherence/directory.hh"
#include "coherence/fabric.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "energy/model.hh"
#include "mem/dram.hh"
#include "noc/mesh.hh"
#include "numa/os.hh"
#include "sim/event_queue.hh"
#include "workload/spec.hh"

namespace allarm::trace {
class TraceWriter;  // trace/writer.hh
}

namespace allarm::core {

/// Optional run-time knobs.
struct RunOptions {
  std::uint64_t seed = 1;
  /// When nonzero, one thread is migrated to a random other core every
  /// interval (the ablation for Section II-E's migration discussion).
  Tick migration_interval = 0;
  /// Invariant-checking period in executed accesses (0 = only at the end).
  std::uint64_t invariant_check_period = 0;
  /// Wall-clock budget for the whole run, in host nanoseconds (0 = none).
  /// A run exceeding it throws std::runtime_error with a structured
  /// no-progress diagnostic (sim time, access counts, per-thread state)
  /// instead of hanging its caller.  Enforced cooperatively from the issue
  /// path (one countdown decrement per access when armed, a steady_clock
  /// read every 64th); never schedules events, so `sim.events` and all
  /// results are byte-identical with or without a (met) deadline.
  std::uint64_t deadline_ns = 0;
  /// When set, the run's full context is captured into this trace writer:
  /// the workload's thread metadata, the setup phase's first-touch page
  /// placements, and every executed access with the rng-draw count its
  /// generator consumed — everything trace replay needs to reproduce the
  /// run byte-identically.  The caller finishes the writer after run().
  trace::TraceWriter* capture = nullptr;
  /// When true, the run records latency histograms (per-access
  /// request→completion latency, directory occupancy at request arrival,
  /// mesh queueing delay) into RunResult::profile.  Like the watchdog,
  /// the disabled path costs one predicted branch per access, and the
  /// enabled path never schedules events — `sim.events` and every default
  /// stat are byte-identical either way (docs/OBSERVABILITY.md).
  bool profile = false;
};

/// Results of one run.
struct RunResult {
  Tick runtime = 0;                 ///< Max thread completion time (ROI).
  std::vector<Tick> thread_finish;  ///< Per-thread completion times.
  StatSet stats;                    ///< Flat metric map (see system.cc).
  /// Host wall-clock cost of producing this result, in nanoseconds
  /// (measured by core::run_request; 0 when never measured).  Execution
  /// metadata, not science: a report carries it only under `sweep
  /// --timing` or the service request key "timing" (JsonStreamSink timing
  /// mode).  The sweep journal records it, so resumed and merged jobs keep
  /// it.
  std::uint64_t wall_ns = 0;
  /// Latency histograms recorded under RunOptions::profile, keyed by
  /// metric name ("access_latency_ns", "dir_occupancy", "mesh_queue_ns").
  /// Another wall_ns-style side channel: empty (and unserialized) unless
  /// profiling was requested, so default reports and journals are
  /// untouched.  Folded into sweep cells by Histogram::merge.
  std::map<std::string, Histogram> profile;
};

/// The assembled machine.
class System {
 public:
  System(const SystemConfig& config,
         numa::AllocPolicy policy = numa::AllocPolicy::kFirstTouch);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Runs `spec` to completion and returns aggregated metrics.
  RunResult run(const workload::WorkloadSpec& spec, const RunOptions& options);

  /// Verifies protocol invariants; throws std::logic_error on violation.
  /// `strict` additionally checks directory-entry/cache agreement and is
  /// only valid when the system is quiescent.
  void check_invariants(bool strict) const;

  /// True when no request, transaction or writeback is in flight.
  bool quiescent() const;

  // --- Component access (tests, examples) -----------------------------------
  const SystemConfig& config() const { return config_; }
  numa::Os& os() { return os_; }
  sim::EventQueue& events() { return events_; }
  noc::Mesh& mesh() { return mesh_; }
  coherence::CacheController& cache(NodeId n) { return *caches_.at(n); }
  coherence::DirectoryController& directory(NodeId n) { return *dirs_.at(n); }
  mem::Dram& dram(NodeId n) { return *drams_.at(n); }

 private:
  struct ThreadRuntime;

  void issue_next(ThreadRuntime& thread);
  /// Completion trampoline for CacheController::DoneFn: `ctx` is the
  /// issuing ThreadRuntime (which carries its System back-pointer).
  static void access_done_thunk(void* ctx, Tick done);
  void schedule_migrations(const RunOptions& options);
  /// One periodic migration step; reschedules itself while threads run.
  void migration_tick();
  /// Slow path of the RunOptions::deadline_ns watchdog: reads the host
  /// clock and, past the deadline, throws the structured no-progress
  /// diagnostic.  Called every 64th issued access while armed.
  void check_watchdog();
  StatSet collect_stats(Tick runtime) const;

  SystemConfig config_;
  sim::EventQueue events_;
  noc::Mesh mesh_;
  numa::Os os_;
  coherence::Fabric fabric_;
  std::vector<std::unique_ptr<mem::Dram>> drams_;
  std::vector<std::unique_ptr<coherence::CacheController>> caches_;
  std::vector<std::unique_ptr<coherence::DirectoryController>> dirs_;
  energy::EnergyModel energy_;

  std::vector<std::unique_ptr<ThreadRuntime>> threads_;
  trace::TraceWriter* capture_ = nullptr;  ///< Non-null while capturing.
  Tick migration_interval_ = 0;
  /// Scratch for migration_tick's running-thread census (reused across
  /// ticks instead of reallocating a vector per migration interval).
  std::vector<ThreadRuntime*> migration_scratch_;
  std::uint32_t threads_running_ = 0;
  std::uint32_t threads_in_warmup_ = 0;
  Tick roi_start_ = 0;
  std::uint64_t accesses_done_ = 0;
  std::uint64_t invariant_period_ = 0;
  Rng migration_rng_{0};
  bool ran_ = false;

  // --- No-progress watchdog (RunOptions::deadline_ns) ---------------------
  /// Issued accesses between steady_clock reads while the watchdog is
  /// armed; unarmed runs pay one predicted branch per access.
  static constexpr std::uint32_t kWatchdogStride = 64;
  bool watchdog_on_ = false;
  std::uint32_t watchdog_countdown_ = kWatchdogStride;
  std::uint64_t watchdog_deadline_ns_ = 0;
  std::chrono::steady_clock::time_point watchdog_start_{};
  std::uint64_t watchdog_last_accesses_ = 0;  ///< For the progress delta.

  // --- Latency profiling (RunOptions::profile) ----------------------------
  /// Armed by run(); gates the per-access issue stamp the same way
  /// watchdog_on_ gates its own.  The component histograms are fed through
  /// raw pointers installed before the run (mesh queueing, directory
  /// occupancy) and recorded from event execution, which stays on the
  /// calling thread — no locking needed.
  bool profile_on_ = false;
  Histogram prof_access_ns_;     ///< Request→completion latency per access.
  Histogram prof_dir_occupancy_; ///< Busy-line count at request arrival.
  Histogram prof_mesh_queue_ns_; ///< Per-message link queueing delay.

  void begin_roi();
};

}  // namespace allarm::core

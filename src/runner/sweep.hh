// Declarative experiment sweeps and the parallel runner that executes them.
//
// The paper's figures are grids — (workload x configuration x directory
// mode), usually with the same workload stream replayed on every machine
// variant.  A SweepSpec describes such a grid once; SweepRunner shards the
// fully-independent jobs across host cores and streams finished cells, in
// grid order, into a ResultSink (see runner/sink.hh).  Output content is
// bit-identical at any --jobs setting (seeds come from grid coordinates,
// cells fold in grid order behind a completion frontier).
//
// Three execution shapes share that core:
//
//  - run():           fold everything into an in-memory SweepResult
//                     (tests' random-access case);
//  - run_streaming(): emit each CellResult as its last replicate finishes
//                     and drop it — O(jobs), not O(grid), results stay
//                     resident; optionally journal every finished job to
//                     disk (resume) and restrict execution to one shard of
//                     the cell grid (multi-machine / CI-matrix sweeps);
//  - merge_journals(): fold N partial shard journals into the same bytes a
//                     single-machine run of the full grid produces.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "core/experiment.hh"
#include "runner/job.hh"
#include "workload/spec.hh"

namespace allarm::runner {

class ResultSink;   // runner/sink.hh
class ThreadPool;   // runner/thread_pool.hh

/// One point on the configuration axis: a labelled machine variant.
struct ConfigPoint {
  std::string label;
  SystemConfig config;
  numa::AllocPolicy policy = numa::AllocPolicy::kFirstTouch;
  /// When nonzero, every run migrates one thread per interval
  /// (RunOptions::migration_interval).  Hashed only when set, so grids
  /// without migration keep their spec and cell hashes.
  Tick migration_interval = 0;
};

/// Builds the workload for one (workload name, machine) pair.
using WorkloadFactory = std::function<workload::WorkloadSpec(
    const std::string& name, const SystemConfig& config,
    std::uint64_t accesses_per_thread)>;

/// A sweep grid: workloads x configs x modes, each cell run `replicates`
/// times.  Axis order is also result order (workload-major, then config,
/// then mode, then replicate).
struct SweepSpec {
  std::string name;
  std::vector<std::string> workloads;  ///< Benchmark profile names.
  std::vector<ConfigPoint> configs;
  std::vector<DirectoryMode> modes;
  std::uint32_t replicates = 1;
  std::uint64_t base_seed = 42;
  std::uint64_t accesses_per_thread = 20000;
  /// Defaults to workload::make_benchmark; tests substitute tiny profiles.
  WorkloadFactory make_workload;

  /// When non-empty, every job additionally captures its executed access
  /// stream to `<capture_dir>/job-<grid-index>.altr`.  Pure side effect:
  /// results and reports are unchanged (not folded into spec_hash).
  std::string capture_dir;
  /// When non-empty, every job replays `<replay_dir>/job-<grid-index>.altr`
  /// instead of its synthetic workload.  With traces captured from the
  /// same spec, the report is byte-identical to the direct run at any
  /// --jobs.  Folded into spec_hash: a replayed sweep is a different
  /// workload source than a synthetic one (the hash covers the directory
  /// name, not the trace contents — like a custom factory, trace bytes
  /// are not hashable up front; do not swap trace files between resumes).
  std::string replay_dir;
  /// When true, every job records latency histograms (RunOptions::profile)
  /// which fold into CellResult::profile.  Observability side channel:
  /// default report bytes are unchanged unless the sink's profile mode is
  /// also enabled, and it is NOT folded into spec_hash — journals stay
  /// resume-compatible with or without profiling (a resume that flips the
  /// flag simply lacks histograms for the already-journaled replicates).
  bool profile = false;

  std::uint64_t cell_count() const {
    return static_cast<std::uint64_t>(workloads.size()) * configs.size() *
           modes.size();
  }

  std::uint64_t job_count() const { return cell_count() * replicates; }
};

/// Identity of a sweep, condensed for the report header and the journal
/// stamp.  Derivable from either a SweepSpec or a SweepResult.
struct SweepMeta {
  std::string name;
  std::uint64_t base_seed = 0;
  std::uint32_t replicates = 1;
  std::uint64_t accesses_per_thread = 0;
};

SweepMeta meta_of(const SweepSpec& spec);

/// Hash of everything serializable that determines a sweep's results:
/// axes, labels, machine geometry, seeds (i.e. the seed-derivation
/// scheme), replicates and access budget.  A journal stamped with a
/// different hash must not be resumed — the jobs it records are not the
/// jobs the spec would run.  Caveat: a custom `make_workload` factory is
/// code and cannot be hashed; the hash distinguishes custom-vs-default
/// but NOT two different custom factories, so callers substituting
/// factories must not resume across factory changes.
std::uint64_t spec_hash(const SweepSpec& spec);

/// Identity hash of ONE grid cell: everything that determines that cell's
/// results — workload name, config point, mode, policy, replicates,
/// per-replicate seeds, access budget, workload source — plus the cell's
/// grid position (a reordered grid is a different binding of results to
/// cells).  The per-cell analogue of spec_hash: journals stamp it into
/// every job payload so an incremental re-sweep (ResumeMode::kPerCell)
/// can keep journaled cells whose definition is unchanged
/// and re-run exactly the ones a spec edit invalidated.  Same caveat as
/// spec_hash: a custom make_workload factory hashes by presence only.
std::uint64_t cell_hash(const SweepSpec& spec, std::uint64_t cell_index);

/// One quarantined replicate of a cell: the job failed every attempt and
/// the sweep degraded gracefully instead of aborting (see
/// StreamOptions::quarantine).
struct CellFailure {
  std::uint32_t replicate = 0;  ///< Which replicate of the cell.
  std::uint32_t attempts = 0;   ///< Execution attempts, including retries.
  std::string error;            ///< what() of the last attempt's exception.
};

/// Aggregated results of one grid cell.
struct CellResult {
  std::string workload;
  std::string config_label;
  DirectoryMode mode = DirectoryMode::kBaseline;

  std::vector<std::uint64_t> seeds;     ///< Per-replicate seeds, in order.
  std::vector<core::RunResult> runs;    ///< Per-replicate raw results.
  Summary runtime;                      ///< ROI runtime across replicates.
  std::map<std::string, Summary> stats; ///< Per-statistic aggregates.
  /// Host wall-clock nanoseconds per replicate (execution metadata, not
  /// science).  Zero-count when the runs were never measured.  Excluded
  /// from reports unless the sink's timing mode is enabled.
  Summary wall_ns;
  /// Quarantined replicates, in replicate order.  Empty on a healthy cell
  /// (and a healthy sweep's report bytes are unchanged — the writers emit
  /// a "failed" section only when this is non-empty).  Failed replicates
  /// contribute no runs/runtime/stats samples.
  std::vector<CellFailure> failures;
  /// Latency histograms merged across replicates (SweepSpec::profile).
  /// Empty unless profiling ran; excluded from reports unless the sink's
  /// profile mode is enabled (same side-channel contract as wall_ns).
  std::map<std::string, Histogram> profile;

  /// Copy of everything except the raw `runs` (they dominate the
  /// footprint).  The one place that knows which fields a report carries;
  /// used wherever a cell fans out to sinks that never read runs.
  CellResult summary_copy() const {
    CellResult copy;
    copy.workload = workload;
    copy.config_label = config_label;
    copy.mode = mode;
    copy.seeds = seeds;
    copy.runtime = runtime;
    copy.stats = stats;
    copy.wall_ns = wall_ns;
    copy.failures = failures;
    copy.profile = profile;
    return copy;
  }
};

/// All cells of a sweep, in grid order.
struct SweepResult {
  std::string name;
  std::uint64_t base_seed = 0;
  std::uint32_t replicates = 1;
  std::uint64_t accesses_per_thread = 0;
  std::vector<CellResult> cells;

  /// Looks up a cell; returns nullptr when absent.
  const CellResult* find(const std::string& workload,
                         const std::string& config_label,
                         DirectoryMode mode) const;
};

/// One shard of a sweep: `index` of `count`, 1-based (the `--shard K/N`
/// notation).  Shards partition the CELL grid — a cell's replicates never
/// split across shards, so every shard can fold its cells' summaries
/// locally and a merge is a pure grid-order interleave.
struct ShardSpec {
  std::uint32_t index = 1;
  std::uint32_t count = 1;
  /// Optional explicit partition: assignment[cell] is the owning shard
  /// (1-based), one entry per grid cell.  Empty = round-robin by cell.
  /// Built by plan_shards() from measured per-cell costs so one slow cell
  /// stops gating every shard's wall clock.  The assignment is NOT stored
  /// in the journal header — resuming a planned shard requires recomputing
  /// the same assignment (same cost journal), which plan_shards makes
  /// deterministic; --merge never checks ownership, so merging planned
  /// shards needs nothing extra.
  std::vector<std::uint32_t> assignment;

  /// True when this shard owns cell `cell_index` (round-robin by cell, so
  /// adjacent — similarly expensive — cells spread across shards; with an
  /// explicit assignment, whatever the plan says).
  bool owns_cell(std::uint64_t cell_index) const {
    if (!assignment.empty()) {
      return cell_index < assignment.size() &&
             assignment[cell_index] == index;
    }
    return cell_index % count == static_cast<std::uint64_t>(index) - 1;
  }

  /// Throws std::invalid_argument unless 1 <= index <= count and every
  /// assignment entry (when present) names a shard in [1, count].
  void validate() const;
};

/// Deterministic cost-aware shard plan: assigns each cell to a shard by
/// greedy longest-processing-time-first (heaviest cell to the least-loaded
/// shard; ties broken by cell index, then lowest shard index), so measured
/// stragglers spread instead of landing round-robin on one machine.
/// `cell_costs` is one positive weight per cell (relative units — only
/// ratios matter).  Returns a 1-based owner per cell, usable as
/// ShardSpec::assignment.  Throws std::invalid_argument on an empty cost
/// vector or shard_count == 0.
std::vector<std::uint32_t> plan_shards(const std::vector<double>& cell_costs,
                                       std::uint32_t shard_count);

/// Measured per-cell costs from a prior journal of the SAME GRID SHAPE:
/// the sum of each cell's journaled per-job wall_ns, read from each job's
/// latest intact record (quarantined, unreadable, untimed or missing jobs
/// contribute the mean measured job cost so a hole never zeroes a cell).
/// The journal does not need to match the spec's hash — costs are
/// advisory (a cheaper timing run of the same grid plans a full run fine);
/// a wrong cost model only unbalances shards, it never changes a byte of
/// output.  Throws when the journal's job count
/// differs from the spec's.
std::vector<double> cell_costs_from_journal(const SweepSpec& spec,
                                            const std::string& journal_path);

/// What run_streaming does with an existing journal at
/// StreamOptions::journal_path.  Every mode creates a missing journal.
enum class ResumeMode {
  /// An existing journal is an error: it is journaled work, and
  /// truncating it silently would defeat the point.
  kNone,
  /// Jobs the journal records are not re-run; their results replay from
  /// disk into the sink.  The journal's spec hash, shard and per-job seeds
  /// must match `spec`.
  kStrict,
  /// Per-cell incremental resume: instead of refusing a journal whose spec
  /// hash differs, rebind it (Journal::open_rebind) and keep exactly the
  /// journaled jobs whose payload cell hash still matches cell_hash(spec,
  /// cell) and whose seed matches the spec's derivation — every other job
  /// re-runs and supersedes its stale record.  An unchanged spec resumes
  /// everything (identical to kStrict); an edited spec re-runs only the
  /// cells the edit invalidated.  Requires shard.count == 1 (a changed
  /// grid cannot be re-partitioned against stale shard journals).
  kPerCell,
};

/// Options for run_streaming().
struct StreamOptions {
  /// When non-empty, every finished job is appended to this journal (plus
  /// its `.data` payload sidecar) so the sweep survives a kill -9.
  std::string journal_path;
  /// How an existing journal at `journal_path` is treated; every mode but
  /// kNone requires a path.
  ResumeMode resume = ResumeMode::kNone;
  ShardSpec shard;
  /// Upper bound on jobs in flight plus finished-but-unfolded results —
  /// the knob that makes peak residency O(jobs) instead of O(grid).
  /// 0 = 4x the worker count (at least 16).
  std::size_t max_outstanding = 0;

  // --- Self-healing knobs (docs/ROBUSTNESS.md) ----------------------------
  //
  // A job that throws is retried up to `cell_retries` times with bounded
  // exponential backoff; because jobs are pure functions of their grid
  // coordinates, a retried job reproduces the failed attempt's bytes
  // exactly.  A job that exhausts its retries either aborts the sweep
  // (quarantine off: first failure rethrows after in-flight jobs drain —
  // the pre-existing behavior and the default) or is quarantined: journaled
  // as a structured failure record and reported in the cell's `failed`
  // section, letting the other cells complete.

  /// Re-execution attempts after a job's first failure (0 = fail fast).
  std::uint32_t cell_retries = 0;
  /// Backoff before retry k (1-based) is `retry_backoff_ms << (k - 1)`.
  std::uint32_t retry_backoff_ms = 100;
  /// Per-job wall-clock watchdog, nanoseconds (0 = none).  A job exceeding
  /// it aborts with a structured no-progress diagnostic instead of hanging
  /// the sweep; the abort then retries/quarantines like any other failure.
  std::uint64_t cell_timeout_ns = 0;
  /// Quarantine permanently failing jobs instead of aborting the sweep.
  bool quarantine = false;

  // --- Service hooks (docs/SERVICE.md) ------------------------------------

  /// Shared worker pool: when non-null, jobs are submitted to this pool
  /// instead of a private one, so several concurrent run_streaming calls
  /// (the sweep service's requests) multiplex onto one set of workers.
  /// The pool must outlive the call; run_streaming never calls
  /// wait_idle() on a shared pool (that would block on other callers'
  /// jobs) — it tracks its own in-flight count.  Byte-output is unchanged:
  /// the pool only schedules, the fold is still grid-ordered.
  ThreadPool* pool = nullptr;
  /// Cooperative drain flag: when non-null and it becomes true, the run
  /// stops issuing new jobs, journals every already-issued completion,
  /// syncs the journal, skips the sink's end-of-stream, and returns with
  /// StreamStats::drained set.  Requires a journal (a drained run without
  /// one would simply lose work).  The sink's output is torn-at-a-cell-
  /// boundary by design — callers discard it and re-run with resume.
  const std::atomic<bool>* stop = nullptr;
  /// When non-null, stores the count of jobs folded so far (resumed +
  /// executed) after each fold step — a lock-free progress gauge for
  /// health reporting.  Written with memory_order_relaxed.
  std::atomic<std::uint64_t>* progress = nullptr;
};

/// Execution metadata of one run_streaming() call.  Never serialized into
/// reports (scheduling-dependent); `peak_resident_results` is the test
/// hook that pins the O(jobs) residency guarantee.
struct StreamStats {
  std::uint64_t tasks_stolen = 0;
  double wall_seconds = 0.0;
  std::uint64_t jobs_total = 0;     ///< Jobs owned by this shard.
  std::uint64_t jobs_executed = 0;  ///< Simulated this run.
  std::uint64_t jobs_resumed = 0;   ///< Replayed from the journal.
  std::uint64_t cells_emitted = 0;
  /// Max count of RunResults resident at once (in flight, awaiting the
  /// grid-order fold, or folded into the partially-assembled cell).
  /// Bounded by StreamOptions::max_outstanding + (replicates - 1): a
  /// result moved into the current cell leaves the admission window but
  /// stays resident until the cell's last replicate emits it.
  std::size_t peak_resident_results = 0;
  /// Jobs quarantined after exhausting retries (0 on a healthy sweep;
  /// non-zero means the report is degraded — see docs/ROBUSTNESS.md).
  std::uint64_t jobs_failed = 0;
  /// Extra execution attempts beyond each job's first (healed transients).
  std::uint64_t jobs_retried = 0;
  /// Cells emitted with at least one quarantined replicate.
  std::uint64_t cells_failed = 0;
  /// True when StreamOptions::stop ended the run early: all issued jobs
  /// were journaled and synced, but the sink never saw end-of-stream and
  /// the remaining jobs never ran.  Resume the journal to finish.
  bool drained = false;
};

/// Backoff before retry `attempt` (1-based) of job `job_index`:
/// `base_ms << (attempt - 1)` plus deterministic jitter in
/// [0, base_ms/2] derived from the job coordinate, so simultaneous
/// failures across jobs (or service requests) don't retry in lockstep
/// while identical runs still reproduce identical schedules.  base_ms == 0
/// disables backoff entirely (returns 0 — tests rely on this).
std::uint64_t retry_backoff_ms(std::uint32_t base_ms, std::uint32_t attempt,
                               std::uint64_t job_index);

/// Executes sweeps on a work-stealing pool.
class SweepRunner {
 public:
  /// `jobs` = worker threads; 0 means core::bench_jobs() (ALLARM_JOBS or
  /// hardware concurrency).
  explicit SweepRunner(std::uint32_t jobs = 0);

  /// Runs every job of `spec` and aggregates into memory.  Output content
  /// depends only on the spec, never on worker count or scheduling.
  SweepResult run(const SweepSpec& spec) const;

  /// Streaming core: runs the jobs of `options.shard`, folds each cell in
  /// grid order into `sink` as its last replicate completes, then drops
  /// it.  With a journal path, finished jobs persist as they complete and
  /// `options.resume` skips already-journaled jobs.  Sink calls happen on
  /// the calling thread.  The stages (job source, attempt executor,
  /// journal writer, grid-order fold) are mapped in docs/SWEEPS.md.
  StreamStats run_streaming(const SweepSpec& spec, ResultSink& sink,
                            const StreamOptions& options = {}) const;

  std::uint32_t jobs() const { return jobs_; }

 private:
  std::uint32_t jobs_;
};

/// Folds the partial journals of a sharded sweep (any order) into `sink`,
/// producing byte-identical output to a single-machine run of `spec`.
/// Every journal must carry the spec's hash; together they must cover
/// every job exactly once.  Returns stats with jobs_resumed = job count.
StreamStats merge_journals(const SweepSpec& spec,
                           const std::vector<std::string>& journal_paths,
                           ResultSink& sink);

/// Materializes the job list of `spec` in grid order (exposed for tests).
std::vector<Job> expand_jobs(const SweepSpec& spec);

}  // namespace allarm::runner

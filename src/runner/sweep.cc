#include "runner/sweep.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/checksum.hh"
#include "common/failpoint.hh"
#include "common/fileio.hh"
#include "common/rng.hh"
#include "obs/timeline.hh"
#include "runner/journal.hh"
#include "runner/sink.hh"
#include "runner/thread_pool.hh"
#include "workload/profiles.hh"

namespace allarm::runner {

namespace {

void validate_axes(const SweepSpec& spec) {
  if (spec.workloads.empty() || spec.configs.empty() || spec.modes.empty() ||
      spec.replicates == 0) {
    throw std::invalid_argument("sweep '" + spec.name + "' has an empty axis");
  }
}

// Drift guard: fold_config() below enumerates every SystemConfig field by
// hand.  A new results-affecting field that is not folded would let two
// different configurations share a spec hash — the silent mix-up the hash
// exists to refuse — so growing the struct must fail loudly here until
// fold_config() is updated (the size is stable on the LP64 targets this
// simulator supports).
static_assert(sizeof(SystemConfig) == 168,
              "SystemConfig changed: update fold_config() to hash the new "
              "field, then update this assert");

void fold_config(Fnv1a64& h, const SystemConfig& c) {
  const auto fold_cache = [&h](const CacheConfig& cache) {
    h.update_u32(cache.size_bytes);
    h.update_u32(cache.ways);
    h.update_u64(static_cast<std::uint64_t>(cache.latency));
  };
  h.update_u32(c.num_cores);
  h.update_double(c.core_freq_ghz);
  fold_cache(c.l1i);
  fold_cache(c.l1d);
  fold_cache(c.l2);
  // The caches' replacement policy, once a field and always LRU (0): its
  // word stays in the hash so pinned spec and cell hashes hold.
  h.update_u32(0);
  h.update_u32(c.probe_filter_coverage_bytes);
  h.update_u32(c.probe_filter_ways);
  h.update_u64(static_cast<std::uint64_t>(c.probe_filter_latency));
  h.update_u32(static_cast<std::uint32_t>(c.probe_filter_replacement));
  h.update_u32(static_cast<std::uint32_t>(c.directory_mode));
  h.update_u32(c.allarm_parallel_local_probe ? 1 : 0);
  h.update_u32(c.eviction_gates_reply ? 1 : 0);
  h.update_u32(c.region_size_bytes);
  h.update_u64(c.dram_total_bytes);
  h.update_u64(static_cast<std::uint64_t>(c.dram_latency));
  h.update_u64(static_cast<std::uint64_t>(c.dram_cycle));
  h.update_u32(c.mesh_width);
  h.update_u32(c.mesh_height);
  h.update_u32(c.flit_bytes);
  h.update_u32(c.control_msg_bytes);
  h.update_u32(c.data_msg_bytes);
  h.update_double(c.link_bandwidth_gbps);
  h.update_u64(static_cast<std::uint64_t>(c.link_latency));
  h.update_u64(static_cast<std::uint64_t>(c.router_latency));
  h.update_u64(static_cast<std::uint64_t>(c.local_hop_latency));
}

/// One configuration point's identity.  The migration interval folds in
/// only when set, so every grid without migration keeps the hashes its
/// journals were stamped with.
void fold_point(Fnv1a64& h, const ConfigPoint& point) {
  h.update(point.label);
  h.update_u32(static_cast<std::uint32_t>(point.policy));
  fold_config(h, point.config);
  if (point.migration_interval != 0) {
    h.update(std::string("migrate"));
    h.update_u64(point.migration_interval);
  }
}

/// What one job contributed, executed or restored from a journal: a
/// result, or (quarantine path) a structured failure that the cell reports
/// instead of a replicate's samples.
struct JobOutcome {
  std::uint64_t job_index = 0;
  core::RunResult result;
  bool failed = false;
  std::uint32_t attempts = 1;  ///< Execution attempts, including retries.
  std::string error;           ///< what() of the last attempt's exception.
  /// The same exception, for the fail-fast rethrow on the folding thread
  /// (null when restored from a journal).
  std::exception_ptr exception;
};

/// The grid-order streaming fold shared by live runs and journal merges:
/// assembles each cell from its outcomes, hands it to `sink`, drops it.
/// Outcomes must arrive in grid order, whole cells at a time.
class CellFolder {
 public:
  CellFolder(const SweepSpec& spec, const std::vector<Job>& jobs,
             ResultSink& sink)
      : spec_(spec), jobs_(jobs), sink_(sink) {}

  /// Folds one outcome; must be called in grid order.  A failed outcome
  /// contributes a CellFailure instead of runtime/stat samples (the seed is
  /// still recorded — it is what the replicate would have run with).
  void fold(JobOutcome&& outcome) {
    const Job& job = jobs_[outcome.job_index];
    if (fill_ == 0) {
      cell_ = CellResult{};
      cell_.workload = spec_.workloads[job.coord.workload];
      cell_.config_label = spec_.configs[job.coord.config].label;
      cell_.mode = spec_.modes[job.coord.mode];
    }
    cell_.seeds.push_back(job.request.seed);
    if (outcome.failed) {
      CellFailure failure;
      failure.replicate = job.coord.replicate;
      failure.attempts = outcome.attempts;
      failure.error = std::move(outcome.error);
      cell_.failures.push_back(std::move(failure));
    } else {
      core::RunResult result = std::move(outcome.result);
      cell_.runtime.add(static_cast<double>(result.runtime));
      if (result.wall_ns != 0) {
        cell_.wall_ns.add(static_cast<double>(result.wall_ns));
      }
      for (const auto& [stat, value] : result.stats.values()) {
        cell_.stats[stat].add(value);
      }
      // Histogram merge is commutative, but fold() runs in grid order
      // anyway, so cell profiles are bit-identical at any --jobs.
      for (const auto& [metric, hist] : result.profile) {
        cell_.profile[metric].merge(hist);
      }
      cell_.runs.push_back(std::move(result));
    }
    if (++fill_ == spec_.replicates) {
      if (!cell_.failures.empty()) ++cells_failed_;
      {
        OBS_SPAN_N("sink.cell", "sink", cells_emitted_);
        sink_.cell(std::move(cell_));
      }
      cell_ = CellResult{};
      fill_ = 0;
      ++cells_emitted_;
    }
  }

  std::uint32_t partial_fill() const { return fill_; }
  std::uint64_t cells_emitted() const { return cells_emitted_; }
  std::uint64_t cells_failed() const { return cells_failed_; }

 private:
  const SweepSpec& spec_;
  const std::vector<Job>& jobs_;
  ResultSink& sink_;
  CellResult cell_;
  std::uint32_t fill_ = 0;
  std::uint64_t cells_emitted_ = 0;
  std::uint64_t cells_failed_ = 0;
};

/// The one journal reader: for each of the first `job_count` jobs, its
/// latest record whose payload verified, so a damaged record never hides an
/// intact earlier one.  Resume and merge each apply only their own rule on
/// top.
std::vector<std::optional<JournalEntry>> latest_records(
    const Journal& journal, std::uint64_t job_count) {
  std::vector<std::optional<JournalEntry>> latest(job_count);
  for (const JournalEntry& entry : journal.index().entries) {
    if (entry.payload_ok && entry.job_index < job_count) {
      latest[entry.job_index] = entry;
    }
  }
  return latest;
}

/// The outcome a journaled record holds (resume and merge).  Throws when
/// the payload no longer reads back.
JobOutcome restore(const Journal& journal, const JournalEntry& entry) {
  JobOutcome outcome;
  outcome.job_index = entry.job_index;
  if (entry.failed) {
    FailureRecord failure = journal.read_failure(entry);
    outcome.failed = true;
    outcome.attempts = failure.attempts;
    outcome.error = std::move(failure.error);
  } else {
    outcome.result = journal.read_payload(entry);
  }
  return outcome;
}

}  // namespace

// ----------------------------------------------------------- spec identity ----

SweepMeta meta_of(const SweepSpec& spec) {
  SweepMeta meta;
  meta.name = spec.name;
  meta.base_seed = spec.base_seed;
  meta.replicates = spec.replicates;
  meta.accesses_per_thread = spec.accesses_per_thread;
  return meta;
}

std::uint64_t spec_hash(const SweepSpec& spec) {
  Fnv1a64 h;
  h.update(std::string("allarm-sweep-v1"));
  h.update(spec.name);
  h.update_u64(spec.workloads.size());
  for (const auto& w : spec.workloads) h.update(w);
  h.update_u64(spec.configs.size());
  for (const auto& point : spec.configs) fold_point(h, point);
  h.update_u64(spec.modes.size());
  for (const DirectoryMode mode : spec.modes) {
    h.update_u32(static_cast<std::uint32_t>(mode));
  }
  h.update_u32(spec.replicates);
  h.update_u64(spec.base_seed);
  h.update_u64(spec.accesses_per_thread);
  // A custom factory is code — unhashable.  Folding its presence at least
  // separates custom-factory journals from default-factory ones.
  h.update_u32(spec.make_workload ? 1 : 0);
  // Trace replay changes every job's workload source; fold it so a
  // replayed sweep's journal can never resume a synthetic one (or vice
  // versa).  Capture is a pure side effect and is deliberately NOT folded.
  if (!spec.replay_dir.empty()) {
    h.update(std::string("replay"));
    h.update(spec.replay_dir);
  }
  // Fold every per-job seed: a change to the derivation scheme (or the
  // base seed) changes the hash even when the axes look identical.
  for (std::uint32_t w = 0; w < spec.workloads.size(); ++w) {
    for (std::uint32_t r = 0; r < spec.replicates; ++r) {
      h.update_u64(job_seed(spec.base_seed, w, r));
    }
  }
  return h.digest();
}

std::uint64_t cell_hash(const SweepSpec& spec, std::uint64_t cell_index) {
  validate_axes(spec);
  if (cell_index >= spec.cell_count()) {
    throw std::out_of_range("cell_hash: cell " + std::to_string(cell_index) +
                            " outside grid of " +
                            std::to_string(spec.cell_count()));
  }
  // Invert the grid enumeration: cell = (w * |configs| + c) * |modes| + m.
  const std::uint64_t m = cell_index % spec.modes.size();
  const std::uint64_t c = (cell_index / spec.modes.size()) % spec.configs.size();
  const std::uint64_t w = cell_index / (spec.modes.size() * spec.configs.size());

  Fnv1a64 h;
  h.update(std::string("allarm-cell-v1"));
  // The position is part of the identity: journals bind results to grid
  // indices, so the same (workload, config, mode) at a different index is
  // a different binding.
  h.update_u64(cell_index);
  h.update(spec.workloads[w]);
  fold_point(h, spec.configs[c]);
  h.update_u32(static_cast<std::uint32_t>(spec.modes[m]));
  h.update_u32(spec.replicates);
  h.update_u64(spec.accesses_per_thread);
  // Same workload-source folds as spec_hash, same caveats (a custom
  // factory hashes by presence; capture is a pure side effect).
  h.update_u32(spec.make_workload ? 1 : 0);
  if (!spec.replay_dir.empty()) {
    h.update(std::string("replay"));
    h.update(spec.replay_dir);
  }
  // The cell's own seeds: replicate seeds depend on (base_seed, workload
  // index), so a base-seed or derivation change invalidates every cell.
  for (std::uint32_t r = 0; r < spec.replicates; ++r) {
    h.update_u64(job_seed(spec.base_seed, static_cast<std::uint32_t>(w), r));
  }
  return h.digest();
}

void ShardSpec::validate() const {
  if (count == 0 || index == 0 || index > count) {
    throw std::invalid_argument("invalid shard " + std::to_string(index) +
                                "/" + std::to_string(count) +
                                " (want 1 <= K <= N)");
  }
}

std::uint64_t retry_backoff_ms(std::uint32_t base_ms, std::uint32_t attempt,
                               std::uint64_t job_index) {
  if (base_ms == 0 || attempt == 0) return 0;
  const std::uint64_t base = static_cast<std::uint64_t>(base_ms)
                             << (attempt - 1);
  // Deterministic jitter from the job coordinate: simultaneous failures
  // across jobs (or service requests) spread instead of retrying in
  // lockstep, while the same run reproduces the same schedule.
  SplitMix64 rng(job_index * 0x9e3779b97f4a7c15ull + attempt);
  return base + rng.next() % (base_ms / 2 + 1);
}

// ------------------------------------------------------------- SweepResult ----

const CellResult* SweepResult::find(const std::string& workload,
                                    const std::string& config_label,
                                    DirectoryMode mode) const {
  for (const auto& cell : cells) {
    if (cell.workload == workload && cell.config_label == config_label &&
        cell.mode == mode) {
      return &cell;
    }
  }
  return nullptr;
}

std::vector<Job> expand_jobs(const SweepSpec& spec) {
  const WorkloadFactory factory =
      spec.make_workload
          ? spec.make_workload
          : [](const std::string& name, const SystemConfig& config,
               std::uint64_t accesses) {
              return workload::make_benchmark(name, config, accesses);
            };
  std::vector<Job> jobs;
  jobs.reserve(spec.job_count());
  for (std::uint32_t w = 0; w < spec.workloads.size(); ++w) {
    for (std::uint32_t c = 0; c < spec.configs.size(); ++c) {
      const ConfigPoint& point = spec.configs[c];
      // The workload layout depends only on the machine geometry, which is
      // identical for both directory modes — build it once per (w, c).
      const workload::WorkloadSpec workload_spec = factory(
          spec.workloads[w], point.config, spec.accesses_per_thread);
      for (std::uint32_t m = 0; m < spec.modes.size(); ++m) {
        for (std::uint32_t r = 0; r < spec.replicates; ++r) {
          Job job;
          job.coord = JobCoord{w, c, m, r};
          job.request.config = point.config;
          job.request.mode = spec.modes[m];
          job.request.spec = workload_spec;
          job.request.seed = job_seed(spec.base_seed, w, r);
          job.request.policy = point.policy;
          job.request.migration_interval = point.migration_interval;
          job.request.profile = spec.profile;
          // Traces pair with jobs by grid index (== jobs.size() here:
          // the loops enumerate the grid in order), so a capture run's
          // directory replays positionally under the same spec.
          if (!spec.capture_dir.empty()) {
            job.request.capture_trace = spec.capture_dir + "/job-" +
                                        std::to_string(jobs.size()) + ".altr";
          }
          if (!spec.replay_dir.empty()) {
            job.request.replay_trace = spec.replay_dir + "/job-" +
                                       std::to_string(jobs.size()) + ".altr";
          }
          jobs.push_back(std::move(job));
        }
      }
    }
  }
  return jobs;
}

// ------------------------------------------------- run_streaming stages ----

namespace {

/// Stage 1, the job source: the grid, the jobs this shard owns, the
/// journal (created, or opened to resume) and the records a resume replays
/// instead of running their jobs.
struct JobSource {
  std::vector<Job> jobs;             ///< The whole grid, in grid order.
  std::vector<std::uint64_t> owned;  ///< Jobs this shard runs, grid order.
  std::optional<Journal> journal;
  /// done[job] = the journaled record that stands in for running `job`.
  std::vector<std::optional<JournalEntry>> done;
};

JobSource open_source(const SweepSpec& spec, const StreamOptions& options) {
  validate_axes(spec);
  options.shard.validate();
  const std::string& path = options.journal_path;
  if (options.stop != nullptr && path.empty()) {
    throw std::invalid_argument(
        "a drainable run requires a journal (drain checkpoints into it)");
  }

  JobSource source;
  source.jobs = expand_jobs(spec);
  for (std::uint64_t job = 0; job < source.jobs.size(); ++job) {
    // Shards own whole cells, so a cell's replicates stay together.
    if (options.shard.owns_cell(job / spec.replicates)) {
      source.owned.push_back(job);
    }
  }
  source.done.resize(source.jobs.size());
  const JournalMeta meta{spec_hash(spec), source.jobs.size(), spec.base_seed,
                         options.shard.index, options.shard.count};
  if (path.empty() || !exists(path)) {
    // A fresh run: the only kind that executes every job, so the only one
    // whose capture directory is created.
    if (!path.empty()) source.journal.emplace(Journal::create(path, meta));
    if (!spec.capture_dir.empty()) ensure_dir(spec.capture_dir);
    return source;
  }
  if (!spec.capture_dir.empty()) {
    throw std::invalid_argument(
        "capture needs a full fresh run; journal " + path +
        " exists and would resume (its resumed jobs never execute, so their "
        "traces would be missing)");
  }
  // Resume: the journal is rebound to this spec's identity, and a record
  // stands in for its job only while the job's definition is unchanged.
  // Stale ones (failure, edited cell, changed seed, unreadable payload) are
  // simply not done; the re-run appends supersede them.
  source.journal.emplace(Journal::open_append(path, meta));
  source.done = latest_records(*source.journal, source.jobs.size());
  for (std::optional<JournalEntry>& record : source.done) {
    if (!record) continue;
    const std::uint64_t cell = record->job_index / spec.replicates;
    if (!options.shard.owns_cell(cell)) {
      throw std::runtime_error("journal " + path + ": records job " +
                               std::to_string(record->job_index) +
                               " outside this shard");
    }
    bool live = !record->failed &&
                record->seed == source.jobs[record->job_index].request.seed;
    if (live) {
      // Every journaled payload carries its cell's identity hash (0 when
      // journaled before stamping, which is stale too).
      std::uint64_t stamped = 0;
      try {
        source.journal->read_payload(*record, &stamped);
        live = stamped == cell_hash(spec, cell);
      } catch (const std::exception&) {
        live = false;
      }
    }
    if (!live) record.reset();
  }
  return source;
}

/// Stage 2, the attempt executor: runs one job to its outcome, retrying a
/// throwing attempt up to `cell_retries` times with bounded exponential
/// backoff under the per-job watchdog.  Retries are safe to the byte —
/// jobs are pure functions of their RunRequest, so a retried job
/// reproduces exactly what the failed attempt would have produced.  Two
/// failpoints make faults schedulable under any worker count: `cell.job`
/// matches the grid-order job index (permanent faults pinned to a cell),
/// `cell.attempt` counts attempts process-wide (transient faults that heal
/// on retry).  Never throws: the last attempt's exception is the outcome.
JobOutcome execute_job(const Job& job, std::uint64_t job_index,
                       const StreamOptions& options) {
  JobOutcome outcome;
  outcome.job_index = job_index;
  for (std::uint32_t attempt = 1;; ++attempt) {
    outcome.attempts = attempt;
    try {
      if (attempt > 1 && options.retry_backoff_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(retry_backoff_ms(
            options.retry_backoff_ms, attempt - 1, job_index)));
      }
      const auto where = [&] { return "job " + std::to_string(job_index); };
      if (const auto hit = failpoint::check_indexed("cell.job", job_index)) {
        failpoint::act(hit, "cell.job", where());
      }
      failpoint::inject("cell.attempt", where);
      {
        OBS_SPAN_N("sweep.job", "sweep", job_index);
        outcome.result =
            core::run_request(job.request, options.cell_timeout_ns);
      }
      outcome.failed = false;
      return outcome;
    } catch (const std::exception& e) {
      outcome.error = e.what();
      outcome.exception = std::current_exception();
    } catch (...) {
      outcome.error = "unknown exception";
      outcome.exception = std::current_exception();
    }
    outcome.failed = true;
    if (attempt > options.cell_retries) return outcome;
  }
}

/// Carries outcomes from pool workers to the folding thread.  Pool tasks
/// reference it (and the job and options they run), so the destructor
/// waits until every submitted task has pushed: a shared pool outlives
/// run_streaming, and returning or unwinding earlier would be a
/// use-after-return.
class Outcomes {
 public:
  ~Outcomes() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return live_ == 0; });
  }

  /// Runs execute_job(job) on `pool`; its outcome arrives through take().
  void submit(ThreadPool& pool, const Job& job, std::uint64_t job_index,
              const StreamOptions& options) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++live_;
    }
    try {
      pool.submit([this, &job, job_index, &options] {
        JobOutcome outcome = execute_job(job, job_index, options);
        // Push, decrement and notify under one lock: once live_ hits zero
        // with the mutex released, this task touches nothing here again,
        // so the destructor's wakeup cannot race destruction.
        std::lock_guard<std::mutex> lock(mutex_);
        done_.push_back(std::move(outcome));
        --live_;
        cv_.notify_all();
      });
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      --live_;
      throw;
    }
  }

  /// Takes every outcome pushed so far; with `wait`, first blocks until
  /// there is at least one.
  std::vector<JobOutcome> take(bool wait) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (wait) cv_.wait(lock, [&] { return !done_.empty(); });
    return std::exchange(done_, {});
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<JobOutcome> done_;  ///< Guarded by mutex_.
  std::size_t live_ = 0;  ///< Submitted tasks not yet pushed; mutex_.
};

/// Stage 3, the journal writer: appends an executed outcome — a result
/// stamped with its cell hash, or a quarantine record a resume re-runs.
void journal_outcome(const SweepSpec& spec, JobSource& source,
                     const JobOutcome& outcome) {
  const std::uint64_t seed = source.jobs[outcome.job_index].request.seed;
  if (outcome.failed) {
    source.journal->append_failed(outcome.job_index, seed,
                                  {outcome.attempts, outcome.error});
  } else {
    source.journal->append(outcome.job_index, seed, outcome.result,
                           cell_hash(spec, outcome.job_index / spec.replicates));
  }
}

}  // namespace

// -------------------------------------------------------------- SweepRunner ----

SweepRunner::SweepRunner(std::uint32_t jobs)
    : jobs_(jobs > 0 ? jobs : core::bench_jobs()) {}

SweepResult SweepRunner::run(const SweepSpec& spec) const {
  SweepResult out;
  CollectSink sink(out);
  run_streaming(spec, sink);
  return out;
}

StreamStats SweepRunner::run_streaming(const SweepSpec& spec, ResultSink& sink,
                                       const StreamOptions& options) const {
  const auto start = std::chrono::steady_clock::now();
  JobSource source = open_source(spec, options);
  const std::vector<std::uint64_t>& owned = source.owned;
  StreamStats stats;
  stats.jobs_total = owned.size();

  // A shared pool (the sweep service multiplexing requests) overrides the
  // private one; it only schedules — the fold below is grid-ordered either
  // way.
  std::optional<ThreadPool> owned_pool;
  if (options.pool == nullptr) owned_pool.emplace(jobs_);
  ThreadPool& pool = options.pool != nullptr ? *options.pool : *owned_pool;
  Outcomes outcomes;
  // The admission window: issued-but-unfolded jobs, which bounds peak
  // residency at O(jobs) instead of O(grid).
  const std::size_t window =
      std::max<std::size_t>(16, std::size_t{4} * pool.worker_count());

  // Stage 4, the grid-order fold, and its in-flight bookkeeping — all
  // owned by this (the folding) thread.
  sink.begin(meta_of(spec));
  CellFolder folder(spec, source.jobs, sink);
  std::map<std::uint64_t, JobOutcome> resident;  // Done, not yet folded.
  std::size_t next = 0;      // Next owned[] position to issue.
  std::size_t fold_pos = 0;  // Next owned[] position to fold.
  std::size_t inflight = 0;  // On the pool, outcome not yet taken.
  // Drain mode (StreamOptions::stop): stop issuing, journal what was
  // already issued, leave the rest for a resume.
  bool draining = false;
  const auto note_peak = [&] {
    stats.peak_resident_results = std::max(
        stats.peak_resident_results, resident.size() + folder.partial_fill());
  };

  while (fold_pos < owned.size()) {
    draining = draining || (options.stop != nullptr &&
                            options.stop->load(std::memory_order_relaxed));
    // Issued-but-unfolded jobs (next - fold_pos) stay within the window.
    // Journaled jobs replay straight into `resident`; the rest go to the pool.
    while (!draining && next < owned.size() && next - fold_pos < window) {
      const std::uint64_t job_index = owned[next++];
      if (const std::optional<JournalEntry>& record = source.done[job_index]) {
        resident.emplace(job_index, restore(*source.journal, *record));
        ++stats.jobs_resumed;
        note_peak();
      } else {
        outcomes.submit(pool, source.jobs[job_index], job_index, options);
        ++stats.jobs_executed;
        ++inflight;
      }
    }
    // Draining and nothing left on the pool: every issued job has been
    // collected and journaled — checkpoint and leave.
    if (draining && inflight == 0) break;

    // Issuing is exhausted, so block only when folding cannot progress
    // either — then some pool job is still running and its outcome is the
    // only possible next event.
    const bool blocked = resident.count(owned[fold_pos]) == 0;
    for (JobOutcome& outcome : outcomes.take(blocked)) {
      --inflight;
      stats.jobs_retried += outcome.attempts - 1;
      if (outcome.failed && !options.quarantine) {
        // Out of retries: rethrow on this (the folding) thread, where
        // callers expect sweep errors to surface.  While draining, a
        // failure is not an error — the job stays not-done and the resume
        // re-runs it.
        if (draining) continue;
        std::rethrow_exception(outcome.exception);
      }
      // With quarantine the failure becomes data: journaled (so a resume
      // re-runs the job) and folded into the cell's `failed` section.
      if (outcome.failed) ++stats.jobs_failed;
      if (source.journal) journal_outcome(spec, source, outcome);
      const std::uint64_t job_index = outcome.job_index;
      resident.emplace(job_index, std::move(outcome));
    }
    note_peak();

    while (fold_pos < owned.size()) {
      const auto it = resident.find(owned[fold_pos]);
      if (it == resident.end()) break;
      folder.fold(std::move(it->second));
      resident.erase(it);
      ++fold_pos;
    }
    if (options.progress != nullptr) {
      options.progress->store(static_cast<std::uint64_t>(fold_pos),
                              std::memory_order_relaxed);
    }
  }

  // A drained run checkpoints (close() syncs every issued completion) but
  // never ends the stream: its sink output is torn by design, and the
  // caller discards it and resumes the journal later.
  stats.drained = draining;
  if (!draining) sink.end();
  if (source.journal) source.journal->close();
  stats.cells_emitted = folder.cells_emitted();
  stats.cells_failed = folder.cells_failed();
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return stats;
}

// ----------------------------------------------------------- journal merge ----

StreamStats merge_journals(const SweepSpec& spec,
                           const std::vector<std::string>& journal_paths,
                           ResultSink& sink) {
  validate_axes(spec);
  if (journal_paths.empty()) {
    throw std::invalid_argument("merge needs at least one journal");
  }
  const auto start = std::chrono::steady_clock::now();

  const std::vector<Job> jobs = expand_jobs(spec);
  const std::uint64_t expected_hash = spec_hash(spec);

  std::vector<Journal> journals;
  journals.reserve(journal_paths.size());
  // where[job] = (journal position, record) of the record that merges.
  std::vector<std::optional<std::pair<std::size_t, JournalEntry>>> where(
      jobs.size());

  for (std::size_t j = 0; j < journal_paths.size(); ++j) {
    const std::string& path = journal_paths[j];
    Journal journal = Journal::open_read(path);
    const JournalMeta& meta = journal.meta();
    if (meta.spec_hash != expected_hash) {
      throw std::runtime_error("journal " + path +
                               ": spec hash mismatch — it records a "
                               "different sweep than the one being merged");
    }
    if (meta.job_count != jobs.size() || meta.base_seed != spec.base_seed) {
      throw std::runtime_error("journal " + path +
                               ": grid shape or base seed mismatch");
    }
    // Quarantine records participate like results: an unsuperseded
    // failure folds into the report's `failed` section below (it is a
    // recorded outcome, not a missing job).
    for (const std::optional<JournalEntry>& record :
         latest_records(journal, jobs.size())) {
      if (!record) continue;
      const std::uint64_t seed = jobs[record->job_index].request.seed;
      if (record->seed != seed) {
        throw std::runtime_error(
            "journal " + path + ": job " + std::to_string(record->job_index) +
            " was journaled with seed " + std::to_string(record->seed) +
            " but the spec derives " + std::to_string(seed) +
            " — seed derivation mismatch, refusing to merge");
      }
      // A result merges only under the stamp resume would accept.  A rerun
      // rebinds the header before it re-runs the stale cells, so a rerun
      // that died leaves the old cells' results under the new spec hash
      // (and a record journaled before stamping carries 0).  A quarantine
      // record carries no stamp; it folds as a failed job, which the
      // report flags and a resume re-runs.
      if (!record->failed) {
        const std::uint64_t cell = record->job_index / spec.replicates;
        std::uint64_t stamped = 0;
        journal.read_payload(*record, &stamped);
        if (stamped != cell_hash(spec, cell)) {
          throw std::runtime_error(
              "journal " + path + ": job " + std::to_string(record->job_index) +
              " holds a result of another definition of cell " +
              std::to_string(cell) +
              " — stale record, refusing to merge (resume the journal to "
              "re-run it)");
        }
      }
      auto& slot = where[record->job_index];
      if (slot) {
        throw std::runtime_error(
            "journals " + journal_paths[slot->first] + " and " + path +
            " overlap at job " + std::to_string(record->job_index) +
            " — shards must partition the grid");
      }
      slot = std::make_pair(j, *record);
    }
    journals.push_back(std::move(journal));
  }

  std::uint64_t missing = 0;
  for (const auto& slot : where) {
    if (!slot) ++missing;
  }
  if (missing > 0) {
    throw std::runtime_error(
        "merge is incomplete: " + std::to_string(missing) + " of " +
        std::to_string(jobs.size()) +
        " jobs appear in no journal (did every shard finish?)");
  }

  StreamStats stats;
  stats.jobs_total = jobs.size();
  stats.jobs_resumed = jobs.size();

  sink.begin(meta_of(spec));
  CellFolder folder(spec, jobs, sink);
  for (const auto& slot : where) {
    JobOutcome outcome = restore(journals[slot->first], slot->second);
    if (outcome.failed) ++stats.jobs_failed;
    folder.fold(std::move(outcome));
    stats.peak_resident_results = std::max<std::size_t>(
        stats.peak_resident_results, folder.partial_fill());
  }
  sink.end();

  stats.cells_emitted = folder.cells_emitted();
  stats.cells_failed = folder.cells_failed();
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return stats;
}

}  // namespace allarm::runner

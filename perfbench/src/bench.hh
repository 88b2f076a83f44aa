// Shared plumbing of the end-to-end benchmark: options, the metric record
// every workload fills, sample statistics, and the helpers the workloads
// share (seed derivation, trace capture, report digests).
//
// The benchmark drives the simulator only through its public entry points
// (runner::SweepRunner::run_streaming, core::run_request, trace replay, the
// service and the component classes), so it measures what a user of the
// library would see.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;  ///< Length of the measured phase.
  bool trace = false;     ///< Per-layer run instead of the end-to-end run.
  bool tiny = false;      ///< Smoke-test sizes (tests only).
  /// Name of a correctness check to invert (tests only: proves a failing
  /// check reaches `failed`).
  std::string break_check;
  std::string work_dir;      ///< Scratch space, removed at exit.
  std::string timeline_out;  ///< Chrome-trace file of the traced run.
  std::uint32_t workers = 1;  ///< Pool workers: nproc - 1.
};

/// Sample statistics.  Quantiles interpolate linearly between order
/// statistics; an empty sample reads 0.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Geometric mean; 0 for an empty sample.
double geomean(const std::vector<double>& values);

/// Everything one run reports: named metrics with units, the correctness
/// checks behind `failed`, and human-readable detail lines printed ahead of
/// the final JSON line.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);

  /// Records a timed metric: its value is the `q` quantile of `samples`,
  /// and a detail line gives median, quartiles and the sample count.
  void timed(const std::string& name, const std::vector<double>& samples,
             const std::string& unit, double q = 0.5);

  /// The detail line of timed() alone, for samples that are not a metric.
  void describe(const std::string& name, const std::vector<double>& samples,
                const std::string& unit);

  /// Records one correctness check.  `broken` inverts it (tests only).
  void check(const std::string& name, bool ok, const std::string& detail,
             const Options& options);

  /// Counts operations (jobs or requests) attempted and failed.
  void operations(std::uint64_t attempted, std::uint64_t failed);

  void note(const std::string& line) { notes_.push_back(line); }

  std::uint64_t attempted() const { return attempted_ + checks_; }
  std::uint64_t failed() const { return failed_ + checks_failed_; }

  /// Prints the detail lines and, last, the one-line JSON result.
  void print(std::ostream& out) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t checks_failed_ = 0;
};

/// Derives the seed of one workload stream from the run's base seed.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream);

/// Hex digest (CRC32C) of a file's bytes; "missing" when unreadable.
std::string file_digest(const std::string& path);

/// Recreates `path` as an empty directory.
void fresh_dir(const std::string& path);

/// Removes `path` recursively (best effort).
void remove_tree(const std::string& path);

/// One captured trace per benchmark profile: `paths[i]` replays
/// `names[i]`, captured in baseline mode on the Table-I machine with
/// `seeds[i]`.  `results[i]` is the capture run's own result.
struct CapturedTraces {
  std::vector<std::string> names;
  std::vector<std::string> paths;
  std::vector<std::uint64_t> seeds;
  std::vector<allarm::core::RunResult> results;
  double seconds = 0.0;  ///< Wall time of the capture.
};

/// Captures `names` at `accesses` per thread into `dir` through
/// core::run_request, `workers` runs at a time.
CapturedTraces capture_traces(const std::vector<std::string>& names,
                              const std::vector<std::uint64_t>& seeds,
                              std::uint64_t accesses, const std::string& dir,
                              std::uint32_t workers);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// The per-run summaries a workload hands to the layer measurements.
struct LayerInputs {
  std::vector<std::string> profiles;     ///< Generator profiles in use.
  std::uint64_t accesses = 0;            ///< ROI accesses per thread.
  std::vector<std::string> trace_paths;  ///< The workload's own streams.
  double capture_s = 0.0;                ///< Time those traces took.
  std::vector<allarm::core::RunResult> runs;  ///< One untraced rep's jobs.
  double phase_s = 0.0;  ///< Wall time of that rep.
};

/// Per-layer counts and ratios summed over `runs`' StatSets, plus
/// core.ns_per_event and runner.busy_frac.
void report_layer_counts(const LayerInputs& inputs, const Options& options,
                         Result& result);

/// Timed calls into each layer's public functions, fed with the workload's
/// own streams (event queue, tag arrays, probe filter, mesh, region tracker,
/// generators, trace decode, journal appends, spool intake).
void report_layer_timings(const LayerInputs& inputs, const Options& options,
                          Result& result);

/// Per-layer self times of a written timeline, keyed by layer.
struct SelfTimes {
  std::map<std::string, double> ms;  ///< Layer -> self time, ms.
  std::uint64_t spans = 0;
  double sink_us_per_cell = 0.0;
  /// Generator time over sim.run's whole duration (generation included).
  double generation_share = 0.0;
  /// Per sweep.job span: start minus the enclosing bench.rep span's start
  /// (how long the job waited for a worker), and its duration.
  std::vector<double> job_wait_ms;
  std::vector<double> job_run_ms;
};

/// Times the service's intake calls (Spool::enqueue, parse_request) on the
/// benchmark's own request documents.
void report_service_intake(const std::string& dir, Result& result);

/// The service.* and loadgen.* queueing metrics of a sweep workload, read
/// from its traced repetition: a closed-loop client submits the whole grid
/// at once, jobs wait for a pool worker, and the runner's queue stands in
/// for the service's.
void report_sweep_queueing(const SelfTimes& times, std::uint64_t jobs,
                           Result& result);

/// Parses the Chrome-trace file `path` and attributes every span's self
/// time (duration minus its nested children on the same thread) to a layer.
/// `generation_ns` is host time the timing decorators measured inside
/// sim.run spans; it moves from sim.run's self time to "generation".
SelfTimes self_times(const std::string& path, double generation_ns);

/// Reports the traced run's self times and its overhead against the
/// untraced reference (`traced_wall / untraced_wall - 1`).
void report_traced(const SelfTimes& times, double traced_wall,
                   double untraced_wall, Result& result);

// Workloads.  Each fills `result` for options.trace == false (end-to-end
// metrics) or true (per-layer metrics).
void run_fig3(const Options& options, Result& result);
void run_region_replay(const Options& options, Result& result);
void run_serve(const Options& options, Result& result);

}  // namespace perfbench

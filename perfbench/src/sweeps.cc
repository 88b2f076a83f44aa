// The two sweep workloads.
//
//  fig3           the paper's headline grid: 8 profiles x {baseline, allarm}
//                 on the Table-I machine, journaled, streamed to JSON + CSV.
//  region-replay  the same 8 profiles captured once as .altr traces, then
//                 replayed in region mode at 3 region sizes x 2 page
//                 policies — trace decode instead of the synthetic
//                 generators, and the region directory instead of
//                 per-line probe-filter tracking for private data.
#include <cmath>
#include <memory>
#include <sstream>

#include "bench.hh"
#include "core/system.hh"
#include "obs/timeline.hh"
#include "runner/grids.hh"
#include "runner/report.hh"
#include "runner/sink.hh"
#include "runner/sweep.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "traced.hh"
#include "workload/profiles.hh"

namespace perfbench {

namespace {

using allarm::DirectoryMode;
using allarm::core::RunResult;
using allarm::runner::CellResult;
using allarm::runner::SweepSpec;

/// Forwards a streamed sweep to the report files, keeping the per-job
/// results and cell summaries the benchmark measures and checks.  Sink
/// calls arrive on the thread that called run_streaming.
class MeasuringSink final : public allarm::runner::ResultSink {
 public:
  MeasuringSink(allarm::runner::ResultSink& reports, Clock::time_point start)
      : reports_(reports), start_(start) {}

  void begin(const allarm::runner::SweepMeta& meta) override {
    reports_.begin(meta);
  }

  void cell(CellResult&& cell) override {
    for (RunResult& run : cell.runs) runs.push_back(std::move(run));
    cell.runs.clear();
    cells.push_back(cell.summary_copy());
    cell_ms.push_back(seconds_since(start_) * 1e3);
    OBS_SPAN("bench.sink", "sink");  // One relaxed load while untraced.
    reports_.cell(std::move(cell));
  }

  void end() override { reports_.end(); }

  std::vector<RunResult> runs;
  std::vector<CellResult> cells;
  std::vector<double> cell_ms;  ///< When each cell reached the sinks.

 private:
  allarm::runner::ResultSink& reports_;
  bool traced_;
  Clock::time_point start_;
};

/// One repetition of a sweep workload.
struct Rep {
  double wall_s = 0.0;  ///< run_streaming through the committed reports.
  std::vector<RunResult> runs;
  std::vector<CellResult> cells;
  /// Per cell: rep start (when the grid was submitted) to the cell's
  /// emission — how long a user streaming the sweep waits for it.
  std::vector<double> cell_ms;
  std::uint64_t jobs_failed = 0;
  std::string digest;  ///< JSON + CSV report digests.
};

Rep run_rep(const SweepSpec& spec, const std::string& dir,
            const Options& options) {
  fresh_dir(dir);
  Rep rep;
  const auto start = Clock::now();
  {
    allarm::runner::ReportFiles reports(dir + "/report.json",
                                        dir + "/report.csv");
    MeasuringSink sink(reports.sink(), start);
    allarm::runner::StreamOptions stream;
    stream.journal_path = dir + "/journal.bin";
    // A failing job is counted against failed_frac, not fatal.
    stream.quarantine = true;
    const allarm::runner::SweepRunner runner(options.workers);
    const allarm::runner::StreamStats stats = [&] {
      OBS_SPAN("bench.rep", "runner");
      return runner.run_streaming(spec, sink, stream);
    }();
    reports.commit();
    rep.wall_s = seconds_since(start);
    rep.jobs_failed = stats.jobs_failed;
    rep.runs = std::move(sink.runs);
    rep.cells = std::move(sink.cells);
    rep.cell_ms = std::move(sink.cell_ms);
  }
  rep.digest =
      file_digest(dir + "/report.json") + file_digest(dir + "/report.csv");
  remove_tree(dir);
  return rep;
}

/// Runs measured repetitions of `spec` until the phase has used its time:
/// another repetition starts only if it is expected to end less than half a
/// repetition past `options.seconds`.  At least one always runs.
std::vector<Rep> measure(const SweepSpec& spec, const Options& options) {
  std::vector<Rep> reps;
  const auto start = Clock::now();
  for (;;) {
    reps.push_back(run_rep(
        spec, options.work_dir + "/rep" + std::to_string(reps.size()),
        options));
    const double elapsed = seconds_since(start);
    const double per_rep = elapsed / static_cast<double>(reps.size());
    if (elapsed + per_rep / 2 > options.seconds) break;
  }
  return reps;
}

const CellResult& find_cell(const std::vector<CellResult>& cells,
                            const std::string& workload,
                            const std::string& config, DirectoryMode mode) {
  for (const CellResult& cell : cells) {
    if (cell.workload == workload && cell.config_label == config &&
        cell.mode == mode) {
      return cell;
    }
  }
  throw std::runtime_error("cell " + workload + "/" + config + " missing");
}

double stat_mean(const CellResult& cell, const std::string& stat) {
  const auto it = cell.stats.find(stat);
  return it == cell.stats.end() ? 0.0 : it->second.mean;
}

/// One (reference, optimised) cell pair per benchmark: the pairs behind
/// sim_speedup and pf_evict_ratio.
struct Pair {
  std::string workload;
  const CellResult* reference;
  const CellResult* optimised;
};

/// sim_speedup: geomean of reference / optimised simulated runtime.
/// pf_evict_ratio: geomean of optimised / reference PF evictions, each
/// count plus one so a benchmark with no evictions cannot zero the mean.
void report_pairs(const std::vector<Pair>& pairs, Result& result) {
  std::vector<double> speedups;
  std::vector<double> evictions;
  for (const Pair& p : pairs) {
    speedups.push_back(p.reference->runtime.mean / p.optimised->runtime.mean);
    evictions.push_back((stat_mean(*p.optimised, "dir.pf_evictions") + 1) /
                        (stat_mean(*p.reference, "dir.pf_evictions") + 1));
  }
  result.metric("sim_speedup", geomean(speedups), "x");
  result.metric("pf_evict_ratio", geomean(evictions), "ratio");
}

/// Checks every benchmark's optimised PF evictions <= its reference's.
void check_evictions(const std::string& name, const std::vector<Pair>& pairs,
                     const Options& options, Result& result) {
  bool ok = true;
  std::ostringstream detail;
  for (const Pair& p : pairs) {
    const double opt = stat_mean(*p.optimised, "dir.pf_evictions");
    const double ref = stat_mean(*p.reference, "dir.pf_evictions");
    detail << p.workload << " " << opt << "/" << ref << " ";
    ok = ok && opt <= ref;
  }
  result.check(name, ok, detail.str(), options);
}

/// Job accounting and the structural checks every repetition must pass.
void check_reps(const std::string& name, const std::vector<Rep>& reps,
                std::uint64_t cells, const Options& options, Result& result) {
  bool complete = true;
  bool same_bytes = true;
  for (const Rep& rep : reps) {
    result.operations(rep.runs.size() + rep.jobs_failed, rep.jobs_failed);
    complete = complete && rep.cells.size() == cells && rep.jobs_failed == 0;
    same_bytes = same_bytes && rep.digest == reps.front().digest;
  }
  result.check(name + ".complete", complete,
               std::to_string(reps.size()) + " reps of " +
                   std::to_string(cells) + " cells",
               options);
  result.check(name + ".deterministic", same_bytes,
               "report digest " + reps.front().digest, options);
  result.note("digest " + options.workload + " " + reps.front().digest);
}

void report_end_to_end(const std::vector<Rep>& reps,
                       const std::vector<double>& setup_s, Result& result) {
  double events = 0.0;
  double job_ns = 0.0;
  double cells = 0.0;
  double wall = 0.0;
  std::vector<double> job_ms;
  std::vector<double> cell_ms;
  std::vector<double> rep_s;
  for (const Rep& rep : reps) {
    for (const RunResult& run : rep.runs) {
      events += run.stats.get("sim.events");
      job_ns += static_cast<double>(run.wall_ns);
      job_ms.push_back(static_cast<double>(run.wall_ns) / 1e6);
    }
    cell_ms.insert(cell_ms.end(), rep.cell_ms.begin(), rep.cell_ms.end());
    cells += static_cast<double>(rep.cells.size());
    wall += rep.wall_s;
    rep_s.push_back(rep.wall_s);
  }
  result.metric("events_per_s", job_ns > 0 ? events / job_ns * 1e9 : 0.0,
                "1/s");
  result.metric("cells_per_s", wall > 0 ? cells / wall : 0.0, "1/s");
  result.timed("job_ms.p50", job_ms, "ms", 0.5);
  result.timed("job_ms.p75", job_ms, "ms", 0.75);
  // A sweep's unit of requested work is a cell: due when the grid is
  // submitted, done when the cell reaches the sinks.
  result.timed("request_ms.p50", cell_ms, "ms", 0.5);
  result.timed("request_ms.p75", cell_ms, "ms", 0.75);
  result.timed("setup_s", setup_s, "s");
  result.describe("rep_s", rep_s, "s");
}

/// The per-layer run shared by both sweep workloads: one untraced
/// repetition (counts and the overhead reference), one traced repetition
/// (self times), then the layer timings on the workload's own streams.
void per_layer(const SweepSpec& spec,
               const allarm::runner::WorkloadFactory& base_factory,
               LayerInputs inputs, const Options& options, Result& result) {
  const Rep untraced =
      run_rep(spec, options.work_dir + "/untraced", options);
  GenClock clock;
  SweepSpec traced_spec = spec;
  traced_spec.make_workload = traced_factory(base_factory, clock);
  allarm::obs::Timeline::enable();
  const Rep traced =
      run_rep(traced_spec, options.work_dir + "/traced", options);
  const bool written = allarm::obs::Timeline::write(options.timeline_out);
  allarm::obs::Timeline::reset();
  result.check(options.workload + ".traced_bytes_unchanged",
               written && traced.digest == untraced.digest,
               "traced " + traced.digest + " vs untraced " + untraced.digest,
               options);
  check_reps(options.workload, {untraced}, spec.cell_count(), options, result);
  result.note("timeline " + options.timeline_out);

  const SelfTimes times =
      self_times(options.timeline_out, static_cast<double>(clock.ns.load()));
  report_traced(times, traced.wall_s, untraced.wall_s, result);
  report_sweep_queueing(times, spec.job_count(), result);
  inputs.runs = untraced.runs;
  inputs.phase_s = untraced.wall_s;
  report_layer_counts(inputs, options, result);
  report_layer_timings(inputs, options, result);
  report_service_intake(options.work_dir + "/intake", result);
}

std::uint64_t accesses_for(const Options& options) {
  return options.tiny ? 300 : 10000;
}

}  // namespace

void run_fig3(const Options& options, Result& result) {
  const std::vector<std::string>& names = allarm::workload::benchmark_names();
  const auto make_spec = [&](std::uint32_t seeds, std::uint64_t stream) {
    allarm::runner::GridKnobs knobs;
    knobs.seeds = seeds;
    knobs.base_seed = derive_seed(options.seed, stream);
    knobs.accesses = accesses_for(options);
    return allarm::runner::make_builtin_grid("fig3", knobs);
  };
  // 3 seeds x 16 cells = 48 jobs per repetition; the tiny smoke runs one.
  const std::uint32_t seeds = options.tiny ? 1 : 3;

  // Set-up, five times, median reported: the grid, its job list, and
  // what every job builds before its first event — its threads'
  // generators and the Table-I machine.
  std::vector<double> setup_s;
  SweepSpec spec;
  for (int i = 0; i < 5; ++i) {
    const auto start = Clock::now();
    spec = make_spec(seeds, 1);
    const std::vector<allarm::runner::Job> jobs =
        allarm::runner::expand_jobs(spec);
    for (const allarm::runner::Job& job : jobs) {
      const allarm::core::System machine(job.request.config,
                                         job.request.policy);
      for (const allarm::workload::ThreadSpec& thread :
           job.request.spec.threads) {
        thread.make_generator();
      }
    }
    setup_s.push_back(seconds_since(start));
    if (jobs.size() != spec.job_count()) {
      throw std::runtime_error("fig3: job expansion lost jobs");
    }
  }

  // Warm-up repetition (one seed, different streams), discarded.
  run_rep(make_spec(1, 2), options.work_dir + "/warmup", options);

  if (options.trace) {
    LayerInputs inputs;
    inputs.profiles = names;
    inputs.accesses = accesses_for(options);
    std::vector<std::uint64_t> capture_seeds;
    for (std::size_t i = 0; i < names.size(); ++i) {
      capture_seeds.push_back(derive_seed(options.seed, 100 + i));
    }
    const CapturedTraces traces =
        capture_traces(names, capture_seeds, accesses_for(options),
                       options.work_dir + "/traces", options.workers);
    inputs.trace_paths = traces.paths;
    inputs.capture_s = traces.seconds;
    per_layer(spec, allarm::workload::make_benchmark, inputs, options, result);
    return;
  }

  const std::vector<Rep> reps = measure(spec, options);
  check_reps("fig3", reps, spec.cell_count(), options, result);
  std::vector<Pair> pairs;
  for (const std::string& name : names) {
    pairs.push_back({name,
                     &find_cell(reps.front().cells, name, "table1",
                                DirectoryMode::kBaseline),
                     &find_cell(reps.front().cells, name, "table1",
                                DirectoryMode::kAllarm)});
  }
  check_evictions("fig3.allarm_pf_evictions", pairs, options, result);
  report_pairs(pairs, result);
  report_end_to_end(reps, setup_s, result);
}

void run_region_replay(const Options& options, Result& result) {
  const std::vector<std::string>& names = allarm::workload::benchmark_names();
  SweepSpec spec;
  spec.name = "region-replay";
  spec.workloads = names;
  spec.modes = {DirectoryMode::kRegion};
  spec.replicates = 1;
  spec.base_seed = derive_seed(options.seed, 11);
  spec.accesses_per_thread = accesses_for(options);
  for (const std::uint32_t bytes : {4096u, 1024u, 64u}) {
    for (const auto policy : {allarm::numa::AllocPolicy::kFirstTouch,
                              allarm::numa::AllocPolicy::kInterleave}) {
      allarm::SystemConfig config;
      config.region_size_bytes = bytes;
      const bool first_touch = policy == allarm::numa::AllocPolicy::kFirstTouch;
      spec.configs.push_back(
          {"r" + std::to_string(bytes) +
               (first_touch ? "-first-touch" : "-interleave"),
           config, policy});
    }
  }

  // Each trace is captured with the seed its replay jobs run with (job
  // seeds are config- and mode-blind), so the r64 first-touch replay must
  // reproduce the capture run exactly: the 64 B region directory is the
  // baseline protocol.
  std::vector<std::uint64_t> seeds;
  for (std::uint32_t w = 0; w < names.size(); ++w) {
    seeds.push_back(allarm::runner::job_seed(spec.base_seed, w, 0));
  }

  // Set-up: capture every trace and open its reader, three times; median
  // reported.  The captures must agree byte for byte.
  std::vector<double> setup_s;
  CapturedTraces traces;
  std::map<std::string, std::shared_ptr<const allarm::trace::TraceReader>>
      readers;
  std::string first_digests;
  bool same_captures = true;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    traces = capture_traces(names, seeds, spec.accesses_per_thread,
                            options.work_dir + "/traces" + std::to_string(i),
                            options.workers);
    readers.clear();
    for (std::size_t t = 0; t < names.size(); ++t) {
      readers[names[t]] =
          std::make_shared<const allarm::trace::TraceReader>(traces.paths[t]);
    }
    setup_s.push_back(seconds_since(start));
    std::string digests;
    for (const std::string& path : traces.paths) digests += file_digest(path);
    if (i == 0) first_digests = digests;
    same_captures = same_captures && digests == first_digests;
    if (i < 2) remove_tree(options.work_dir + "/traces" + std::to_string(i));
  }
  result.check("region-replay.capture_deterministic", same_captures,
               "3 captures of " + std::to_string(names.size()) + " traces",
               options);

  const allarm::runner::WorkloadFactory replay =
      [readers](const std::string& name, const allarm::SystemConfig& config,
                std::uint64_t) {
        return allarm::trace::make_replay_workload(readers.at(name), config);
      };
  spec.make_workload = replay;

  // Warm-up repetition: the r4096 first-touch column only, discarded.
  SweepSpec warm = spec;
  warm.configs = {spec.configs.front()};
  run_rep(warm, options.work_dir + "/warmup", options);

  if (options.trace) {
    LayerInputs inputs;
    inputs.profiles = names;
    inputs.accesses = accesses_for(options);
    inputs.trace_paths = traces.paths;
    inputs.capture_s = median(setup_s);
    per_layer(spec, replay, inputs, options, result);
    return;
  }

  const std::vector<Rep> reps = measure(spec, options);
  check_reps("region-replay", reps, spec.cell_count(), options, result);
  const std::vector<CellResult>& cells = reps.front().cells;
  std::vector<Pair> pairs;
  bool oracle = true;
  std::string mismatches;
  for (std::size_t t = 0; t < names.size(); ++t) {
    const CellResult& r64 = find_cell(cells, names[t], "r64-first-touch",
                                      DirectoryMode::kRegion);
    pairs.push_back({names[t], &r64,
                     &find_cell(cells, names[t], "r4096-first-touch",
                                DirectoryMode::kRegion)});
    const RunResult& captured = traces.results[t];
    bool same = r64.runtime.mean == static_cast<double>(captured.runtime);
    for (const auto& [stat, value] : captured.stats.values()) {
      same = same && stat_mean(r64, stat) == value;
    }
    if (!same) mismatches += names[t] + " ";
    oracle = oracle && same;
  }
  result.check("region-replay.r64_matches_baseline_capture", oracle,
               oracle ? "all " + std::to_string(names.size()) + " traces"
                      : "differs: " + mismatches,
               options);
  check_evictions("region-replay.r4096_pf_evictions", pairs, options, result);
  report_pairs(pairs, result);
  report_end_to_end(reps, setup_s, result);
}

}  // namespace perfbench

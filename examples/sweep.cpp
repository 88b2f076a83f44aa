// sweep: parallel grid driver for the paper's figure experiments.
//
//   sweep --grid NAME [options]
//
//   --grid NAME          which grid to run; `--list` prints every grid
//                        with its axes (the catalog in runner/grids.cc)
//   --jobs N             worker threads (default: ALLARM_JOBS, else all cores)
//   --seeds K            replicates per cell, seeded per grid coordinates
//                        (default 1)
//   --accesses N         ROI accesses per thread (default per grid)
//   --seed N             base seed (default 42)
//   --out FILE           stream the JSON report here (default: stdout)
//   --csv FILE           also stream a long-format CSV report
//   --journal FILE       journal every finished job to FILE (+ FILE.data)
//                        so the sweep survives interruption.  An existing
//                        FILE resumes: a job whose journaled cell and seed
//                        are unchanged replays from disk, every other job
//                        (edited cell, new seed, failure) re-runs
//   --shard K/N          run only shard K of N (1-based; cells partition
//                        round-robin).  Requires --journal so the shards
//                        can be merged later
//   --merge FILE         merge mode: fold the given shard journal instead
//                        of running anything (repeat per shard).  Produces
//                        byte-identical output to a single-machine run
//   --timing             include per-cell "wall_ns" (host wall-clock per
//                        replicate) in the JSON report.  Off by default:
//                        wall clock varies run to run, and the canonical
//                        report must stay byte-identical for one spec
//   --profile            record latency histograms in every job (access
//                        request->completion, directory occupancy, mesh
//                        queueing) and include per-cell "hist" quantiles
//                        (p50/p95/p99/max) in the JSON report.  Off by
//                        default for the same reason as --timing
//   --timeline FILE      write a Chrome trace-event timeline of the
//                        sweep's wall-clock spans (jobs, journal appends,
//                        fsyncs, sink writes, simulations) to FILE; load
//                        it in Perfetto (docs/OBSERVABILITY.md).  Pure
//                        side effect: reports are byte-identical
//   --capture DIR        additionally capture every job's executed access
//                        stream to DIR/job-<index>.altr (.altr binary
//                        traces; see docs/TRACES.md).  Reports unchanged.
//                        Needs a fresh run: an existing --journal FILE
//                        would resume, so it exits 2
//   --replay DIR         replay every job from DIR/job-<index>.altr
//                        (captured from the same grid) instead of running
//                        the synthetic generators; the report is
//                        byte-identical to the direct run at any --jobs
//   --trace FILE         (trace grid) an .altr file to sweep; repeatable
//   --cores LIST         (trace grid) comma-separated replay core counts
//                        (default: all 16; a thread's captured placement
//                        node remaps to node mod cores)
//   --cell-retries N     re-run a failed job up to N times with exponential
//                        backoff before giving up (default 0: fail fast).
//                        Retried jobs reproduce their bytes exactly
//   --cell-backoff-ms N  backoff before the first retry (doubles per
//                        attempt; default 100)
//   --cell-timeout SEC   per-job wall-clock watchdog: a job running longer
//                        than SEC (a positive decimal, e.g. 60 or 0.5)
//                        aborts with a structured no-progress diagnostic
//                        (then retries/quarantines like any failure)
//   --quarantine         report permanently failing jobs as structured
//                        "failed" cells and finish the sweep (exit 3)
//                        instead of aborting at the first one (exit 1)
//   --failpoints SPEC    deterministic fault injection, e.g.
//                        'journal.fsync=err@3;fileio.pwrite=torn@7' (also
//                        via ALLARM_FAILPOINTS; see docs/ROBUSTNESS.md)
//   --list               list available grids and exit
//
// Reports are streamed cell by cell — a finished cell is serialized and
// dropped, so report size never bounds grid size.  They contain no
// execution metadata: the same grid, seeds and accesses produce
// byte-identical output at any --jobs setting, across kill/resume cycles,
// and across --shard/--merge splits.  See docs/SWEEPS.md.
//
// Exit codes: 0 success, 1 error, 2 usage (a flag, or a request the library
// refuses as given), 3 degraded completion (the sweep finished but
// quarantined at least one job; see docs/ROBUSTNESS.md).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.hh"
#include "common/failpoint.hh"
#include "obs/timeline.hh"
#include "runner/grids.hh"
#include "runner/report.hh"
#include "runner/sink.hh"
#include "runner/sweep.hh"

namespace {

using namespace allarm;

struct Options {
  std::string grid;
  std::uint32_t jobs = 0;  // 0 = ALLARM_JOBS / hardware concurrency.
  std::uint32_t seeds = 1;
  std::uint64_t accesses = 0;  // 0 = grid default.
  std::uint64_t seed = 42;
  std::string out;
  std::string csv;
  std::string journal;
  runner::ShardSpec shard;
  std::vector<std::string> merge;
  bool timing = false;
  bool profile = false;
  std::string timeline;
  std::string capture_dir;
  std::string replay_dir;
  std::vector<std::string> traces;
  std::vector<std::uint32_t> cores;
  std::uint32_t cell_retries = 0;
  std::uint32_t cell_backoff_ms = 100;
  std::uint64_t cell_timeout_ns = 0;
  bool quarantine = false;
  std::string failpoints;
};

[[noreturn]] void usage(int code) {
  std::string grids;
  for (const runner::GridInfo& grid : runner::grid_catalog()) {
    grids += (grids.empty() ? "" : "|") + grid.name;
  }
  std::cout <<
      "usage: sweep --grid " << grids << " [--jobs N]\n"
      "             [--seeds K] [--accesses N] [--seed N] [--out FILE]\n"
      "             [--csv FILE] [--journal FILE]\n"
      "             [--shard K/N] [--merge FILE]... [--timing]\n"
      "             [--profile] [--timeline FILE]\n"
      "             [--capture DIR] [--replay DIR]\n"
      "             [--trace FILE]... [--cores LIST] [--list]\n"
      "             [--cell-retries N] [--cell-backoff-ms N]\n"
      "             [--cell-timeout SEC] [--quarantine] [--failpoints SPEC]\n";
  std::exit(code);
}

void list_grids() {
  for (const runner::GridInfo& grid : runner::grid_catalog()) {
    std::cout << std::left << std::setw(10) << grid.name << grid.description
              << "\n";
  }
}

runner::SweepSpec make_grid(const Options& options) {
  // Every grid lives in the library (runner/grids.hh), shared with the service.
  runner::GridKnobs knobs;
  knobs.seeds = options.seeds;
  knobs.base_seed = options.seed;
  knobs.accesses = options.accesses;
  knobs.traces = options.traces;
  knobs.cores = options.cores;
  runner::SweepSpec spec;
  try {
    spec = runner::make_builtin_grid(options.grid, knobs);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    usage(2);
  }
  spec.capture_dir = options.capture_dir;
  spec.replay_dir = options.replay_dir;
  spec.profile = options.profile;
  return spec;
}

runner::ShardSpec parse_shard(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) {
    std::cerr << "--shard wants K/N, got '" << text << "'\n";
    usage(2);
  }
  runner::ShardSpec shard;
  shard.index =
      cli::parse_u64_max("--shard", text.substr(0, slash), cli::kMaxU32);
  shard.count =
      cli::parse_u64_max("--shard", text.substr(slash + 1), cli::kMaxU32);
  try {
    shard.validate();
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    usage(2);
  }
  return shard;
}

Options parse(int argc, char** argv) {
  Options options;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(2);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--grid") == 0) {
      options.grid = value(i);
    } else if (std::strcmp(arg, "--jobs") == 0) {
      options.jobs = cli::parse_u64_max(arg, value(i), cli::kMaxU32);
    } else if (std::strcmp(arg, "--seeds") == 0) {
      options.seeds = cli::parse_u64_max(arg, value(i), cli::kMaxU32);
    } else if (std::strcmp(arg, "--accesses") == 0) {
      options.accesses = cli::parse_u64(arg, value(i));
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = cli::parse_u64(arg, value(i));
    } else if (std::strcmp(arg, "--out") == 0) {
      options.out = value(i);
    } else if (std::strcmp(arg, "--csv") == 0) {
      options.csv = value(i);
    } else if (std::strcmp(arg, "--journal") == 0) {
      options.journal = value(i);
    } else if (std::strcmp(arg, "--shard") == 0) {
      options.shard = parse_shard(value(i));
    } else if (std::strcmp(arg, "--merge") == 0) {
      options.merge.push_back(value(i));
    } else if (std::strcmp(arg, "--timing") == 0) {
      options.timing = true;
    } else if (std::strcmp(arg, "--profile") == 0) {
      options.profile = true;
    } else if (std::strcmp(arg, "--timeline") == 0) {
      options.timeline = value(i);
    } else if (std::strcmp(arg, "--capture") == 0) {
      options.capture_dir = value(i);
    } else if (std::strcmp(arg, "--replay") == 0) {
      options.replay_dir = value(i);
    } else if (std::strcmp(arg, "--trace") == 0) {
      options.traces.push_back(value(i));
    } else if (std::strcmp(arg, "--cores") == 0) {
      const std::string list = value(i);
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end = comma == std::string::npos ? list.size() : comma;
        const std::uint32_t cores = cli::parse_u64_max(
            arg, list.substr(pos, end - pos), cli::kMaxU32);
        if (cores == 0) {
          std::cerr << "--cores wants a comma-separated list of positive "
                       "counts, got '" << list << "'\n";
          usage(2);
        }
        options.cores.push_back(cores);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (std::strcmp(arg, "--cell-retries") == 0) {
      options.cell_retries =
          cli::parse_u64_max(arg, value(i), cli::kMaxU32);
    } else if (std::strcmp(arg, "--cell-backoff-ms") == 0) {
      options.cell_backoff_ms =
          cli::parse_u64_max(arg, value(i), cli::kMaxU32);
    } else if (std::strcmp(arg, "--cell-timeout") == 0) {
      options.cell_timeout_ns = cli::parse_seconds_ns(arg, value(i));
    } else if (std::strcmp(arg, "--quarantine") == 0) {
      options.quarantine = true;
    } else if (std::strcmp(arg, "--failpoints") == 0) {
      options.failpoints = value(i);
    } else if (std::strcmp(arg, "--list") == 0) {
      list_grids();
      std::exit(0);
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(0);
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      usage(2);
    }
  }
  if (options.grid.empty()) {
    std::cerr << "--grid is required\n";
    usage(2);
  }
  if (options.seeds == 0) {
    std::cerr << "--seeds must be positive\n";
    usage(2);
  }
  if (options.shard.count > 1 && options.journal.empty() &&
      options.merge.empty()) {
    std::cerr << "--shard requires --journal (shards merge via journals)\n";
    usage(2);
  }
  if (!options.merge.empty() &&
      (!options.journal.empty() || options.shard.count > 1)) {
    std::cerr << "--merge folds existing journals; it cannot be combined "
                 "with --journal/--shard\n";
    usage(2);
  }
  if (!options.capture_dir.empty() && !options.replay_dir.empty()) {
    std::cerr << "--capture and --replay are mutually exclusive\n";
    usage(2);
  }
  if ((!options.capture_dir.empty() || !options.replay_dir.empty()) &&
      options.grid == "trace") {
    std::cerr << "--capture/--replay apply to synthetic grids; the trace "
                 "grid already replays its --trace files\n";
    usage(2);
  }
  if ((!options.traces.empty() || !options.cores.empty()) &&
      options.grid != "trace") {
    std::cerr << "--trace/--cores only apply to --grid trace\n";
    usage(2);
  }
  return options;
}

/// Publishes the report temp files and narrates where they went.  Only
/// called on success; on failure the target paths keep their previous
/// contents (exit is nonzero either way — never a silently truncated
/// report).  The tmp+fsync+rename pipeline itself is runner::ReportFiles.
void finish_reports(runner::ReportFiles& reports, const Options& options) {
  reports.commit();
  if (!options.out.empty()) std::cerr << "wrote " << options.out << "\n";
  if (!options.csv.empty()) std::cerr << "wrote " << options.csv << "\n";
  // The timeline is observability, not results: a failed write already
  // logged loudly, and the committed reports above stand either way.
  if (!options.timeline.empty() &&
      obs::Timeline::write(options.timeline)) {
    std::cerr << "wrote " << options.timeline << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const Options options = parse(argc, argv);
  // Arm the span recorder before any instrumented work (worker threads
  // check the flag once per span; disabled recording is a relaxed load).
  if (!options.timeline.empty()) obs::Timeline::enable();
  std::string failpoints = allarm::failpoint::configure_from_env();
  if (!options.failpoints.empty()) {
    allarm::failpoint::configure(options.failpoints);
    failpoints = options.failpoints;
  }
  if (!failpoints.empty()) {
    std::cerr << "failpoints active: " << failpoints << "\n";
  }
  const runner::SweepSpec spec = make_grid(options);

  runner::ReportFiles reports(options.out, options.csv, options.timing,
                              options.profile);

  if (!options.merge.empty()) {
    std::cerr << "merging " << options.merge.size() << " journal(s) of sweep '"
              << spec.name << "'\n";
    const runner::StreamStats stats =
        runner::merge_journals(spec, options.merge, reports.sink());
    finish_reports(reports, options);
    std::cerr << "merged " << stats.jobs_total << " jobs into "
              << stats.cells_emitted << " cells in " << stats.wall_seconds
              << " s";
    if (stats.jobs_failed > 0) {
      std::cerr << " (DEGRADED: " << stats.jobs_failed << " failed jobs in "
                << stats.cells_failed << " cells)";
    }
    std::cerr << "\n";
    return stats.jobs_failed > 0 ? 3 : 0;
  }

  const runner::SweepRunner sweep_runner(options.jobs);
  runner::StreamOptions stream;
  stream.journal_path = options.journal;
  stream.shard = options.shard;
  stream.cell_retries = options.cell_retries;
  stream.retry_backoff_ms = options.cell_backoff_ms;
  stream.cell_timeout_ns = options.cell_timeout_ns;
  stream.quarantine = options.quarantine;

  // Banner counts the jobs THIS run owns (scripts parse it, e.g. the
  // resume smoke's kill threshold), not the full grid.
  std::uint64_t owned_cells = 0;
  for (std::uint64_t cell = 0; cell < spec.cell_count(); ++cell) {
    if (stream.shard.owns_cell(cell)) ++owned_cells;
  }
  std::cerr << "sweep '" << spec.name << "': "
            << owned_cells * spec.replicates << " jobs";
  if (options.shard.count > 1) {
    std::cerr << " (shard " << options.shard.index << "/"
              << options.shard.count << " of " << spec.job_count()
              << " total)";
  }
  std::cerr << " on " << sweep_runner.jobs() << " workers\n";

  const runner::StreamStats stats =
      sweep_runner.run_streaming(spec, reports.sink(), stream);
  finish_reports(reports, options);

  std::cerr << "done in " << stats.wall_seconds << " s: "
            << stats.jobs_executed << " jobs run";
  if (stats.jobs_resumed > 0) {
    std::cerr << ", " << stats.jobs_resumed << " resumed from journal";
  }
  if (stats.jobs_retried > 0) {
    std::cerr << ", " << stats.jobs_retried << " retries";
  }
  std::cerr << ", " << stats.cells_emitted << " cells, peak "
            << stats.peak_resident_results << " resident results";
  if (stats.jobs_failed > 0) {
    std::cerr << "\nDEGRADED: " << stats.jobs_failed
              << " jobs quarantined as failed across " << stats.cells_failed
              << " cells; see the \"failed\" report sections";
  }
  std::cerr << "\n";
  return stats.jobs_failed > 0 ? 3 : 0;
} catch (const std::invalid_argument& e) {
  // The library refused the request as given (e.g. --capture on a journal
  // that would resume, or a trace-grid --cores count the machine lacks).
  std::cerr << "sweep: " << e.what() << "\n";
  return 2;
} catch (const std::exception& e) {
  std::cerr << "sweep: " << e.what() << "\n";
  return 1;
}

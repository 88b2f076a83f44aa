// The serve workload: an in-process sweep service over a spool directory
// the benchmark owns, driven by an open-loop load generator.
//
// Requests are due at a fixed rate whether or not earlier ones finished
// (independent users), so a stall shows as queueing in later requests'
// latency.  Each request is timed from when it was DUE — not when the
// generator got round to enqueueing it — to when its state reads `done`.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>

#include "bench.hh"
#include "common/checksum.hh"
#include "common/fileio.hh"
#include "obs/timeline.hh"
#include "runner/grids.hh"
#include "runner/journal.hh"
#include "runner/sink.hh"
#include "runner/sweep.hh"
#include "service/json.hh"
#include "service/service.hh"
#include "service/spool.hh"
#include "traced.hh"
#include "workload/profiles.hh"

namespace perfbench {

namespace {

using allarm::service::RequestState;
using allarm::service::Spool;

/// Requests per second.  One quick-grid request (4 jobs of ~260 ms, warm-up
/// dominated) costs ~1.05 core-seconds on a 4-core x86 box, so 3 workers
/// serve ~2.9 requests/s: 1.4/s keeps the service near half load.
constexpr double kRate = 1.4;
constexpr double kWarmupS = 3.0;
/// Service start-ups timed for setup_s; each one is under 1 ms.
constexpr int kStartups = 21;
constexpr std::uint32_t kPollMs = 20;
constexpr std::uint64_t kAccesses = 500;
constexpr std::size_t kCellsPerRequest = 4;

/// A Service::run loop on its own thread; stop() drains and joins.
class RunningService {
 public:
  explicit RunningService(allarm::service::ServiceConfig config)
      : service_(std::move(config)), thread_([this] {
          try {
            code_ = service_.run(stop_);
          } catch (const std::exception& e) {
            error_ = e.what();
            code_ = 1;
          }
        }) {}

  ~RunningService() { stop(); }

  RunningService(const RunningService&) = delete;
  RunningService& operator=(const RunningService&) = delete;

  /// Requests a graceful drain and returns the service's exit code.
  int stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    return code_;
  }

  const std::string& error() const { return error_; }

 private:
  allarm::service::Service service_;
  std::atomic<bool> stop_{false};
  int code_ = 0;
  std::string error_;
  std::thread thread_;  // Last: starts after the members it uses.
};

struct Request {
  std::string id;
  std::string json;
  Clock::time_point due;
  bool measured = false;
  double lag_ms = 0.0;  ///< Enqueue start minus due.
  std::optional<Clock::time_point> running;  ///< First seen running.
  std::optional<Clock::time_point> end;      ///< First seen terminal.
  RequestState state = RequestState::kPending;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

bool terminal(RequestState s) {
  return s != RequestState::kPending && s != RequestState::kRunning;
}

/// Drives `requests` (due times already set) through the service at
/// `root` and records each one's lifecycle.  Returns the largest backlog
/// (enqueued, not yet terminal) seen.
std::size_t drive(const std::string& root, std::vector<Request>& requests) {
  Spool spool(root);
  std::size_t next = 0;
  std::vector<std::size_t> outstanding;
  std::size_t backlog_max = 0;
  const Clock::time_point give_up =
      (requests.empty() ? Clock::now() : requests.back().due) +
      std::chrono::seconds(120);
  while (next < requests.size() || !outstanding.empty()) {
    const Clock::time_point now = Clock::now();
    if (next < requests.size() && now >= requests[next].due) {
      Request& r = requests[next++];
      r.lag_ms = ms_between(r.due, now);
      Spool::enqueue(root, r.id, r.json);
      outstanding.push_back(next - 1);
      backlog_max = std::max(backlog_max, outstanding.size());
      continue;
    }
    for (std::size_t k = 0; k < outstanding.size();) {
      Request& r = requests[outstanding[k]];
      RequestState state = RequestState::kPending;
      bool known = false;
      if (std::filesystem::exists(spool.request_dir(r.id))) {
        try {
          state = spool.state(r.id);
          known = true;
        } catch (const std::exception&) {
          // Mid-admission: read again next poll.
        }
      }
      if (known && state == RequestState::kRunning && !r.running) {
        r.running = now;
      }
      if (known && terminal(state)) {
        if (!r.running) r.running = now;
        r.end = now;
        r.state = state;
        outstanding.erase(outstanding.begin() + static_cast<long>(k));
      } else {
        ++k;
      }
    }
    if (now > give_up) break;  // Unfinished requests count as failed.
    auto wake = now + std::chrono::milliseconds(2);
    if (next < requests.size()) wake = std::min(wake, requests[next].due);
    std::this_thread::sleep_until(wake);
  }
  return backlog_max;
}

/// What one request left behind, read back from the spool.
struct Outcome {
  bool report_ok = false;
  std::vector<allarm::core::RunResult> runs;
  /// (workload, mode) -> (runtime, dir.pf_evictions) of the request's cell.
  std::map<std::pair<std::string, std::string>, std::pair<double, double>>
      cells;
};

Outcome read_outcome(const Spool& spool, const std::string& id) {
  Outcome out;
  try {
    const allarm::service::JsonValue doc =
        allarm::service::parse_json(allarm::read_file(spool.report_json(id)));
    const allarm::service::JsonValue* cells = doc.find("cells");
    out.report_ok = cells != nullptr && cells->is_array() &&
                    cells->array.size() == kCellsPerRequest;
    if (out.report_ok) {
      for (const allarm::service::JsonValue& cell : cells->array) {
        const auto* ev = cell.find("stats")->find("dir.pf_evictions");
        out.cells[{cell.find("workload")->string, cell.find("mode")->string}] =
            {cell.find("runtime")->find("mean")->number,
             ev ? ev->find("mean")->number : 0.0};
      }
    }
    const std::string journal = spool.journal_path(id);
    const allarm::runner::Journal reader =
        allarm::runner::Journal::open_read(journal);
    for (const allarm::runner::JournalEntry& entry : reader.index().entries) {
      if (!entry.failed) out.runs.push_back(reader.read_payload(entry));
    }
  } catch (const std::exception&) {
    out.report_ok = false;
  }
  return out;
}

std::string request_json(std::uint64_t seed, std::uint64_t accesses) {
  return "{\"grid\":\"quick\",\"accesses\":" + std::to_string(accesses) +
         ",\"seed\":" + std::to_string(seed) + "}";
}

/// Appends `count` requests due every 1/rate seconds from `start`.  Ids
/// and seeds are distinct per `stream`.
void schedule(std::vector<Request>& requests, std::size_t count,
              Clock::time_point start, double rate, bool measured,
              std::uint64_t stream, const Options& options,
              std::uint64_t accesses) {
  const std::size_t base = requests.size();
  for (std::size_t i = 0; i < count; ++i) {
    Request r;
    const std::uint64_t n = stream * 100000 + base + i;
    r.id = "req" + std::to_string(n);
    // The request JSON carries integers only up to 2^53.
    r.json = request_json(derive_seed(options.seed, 1000 + n) >> 11, accesses);
    r.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i / rate));
    r.measured = measured;
    requests.push_back(std::move(r));
  }
}

}  // namespace

void report_service_intake(const std::string& dir, Result& result) {
  constexpr int kEnqueues = 64;
  constexpr int kParses = 2000;
  std::vector<double> enqueue_us;
  std::vector<double> parse_us;
  for (std::uint64_t pass = 0; pass < 5; ++pass) {
    fresh_dir(dir);
    const std::string json = request_json(pass + 1, kAccesses);
    auto start = Clock::now();
    for (int i = 0; i < kEnqueues; ++i) {
      Spool::enqueue(dir, "req" + std::to_string(i), json);
    }
    enqueue_us.push_back(seconds_since(start) * 1e6 / kEnqueues);
    start = Clock::now();
    for (int i = 0; i < kParses; ++i) allarm::service::parse_request(json);
    parse_us.push_back(seconds_since(start) * 1e6 / kParses);
  }
  remove_tree(dir);
  result.timed("service.enqueue_us", enqueue_us, "us");
  result.timed("service.parse_us", parse_us, "us");
}

void run_serve(const Options& options, Result& result) {
  const double rate = options.tiny ? 8.0 : kRate;
  const std::uint64_t accesses = options.tiny ? 100 : kAccesses;
  allarm::service::ServiceConfig config;
  config.workers = options.workers;
  config.poll_ms = kPollMs;

  // Set-up: service start-up until its first health.json, kStartups times
  // (each in a fresh spool); the last service carries the load.
  std::vector<double> setup_s;
  std::unique_ptr<RunningService> service;
  for (int i = 0; i < kStartups; ++i) {
    if (service) {
      result.check("serve.startup_" + std::to_string(i) + "_exit",
                   service->stop() == 0, service->error(), options);
    }
    config.root = options.work_dir + "/spool" + std::to_string(i);
    fresh_dir(config.root);
    const auto start = Clock::now();
    service = std::make_unique<RunningService>(config);
    const std::string health = config.root + "/health.json";
    while (!std::filesystem::exists(health)) {
      if (seconds_since(start) > 30) {
        throw std::runtime_error("serve: no health.json after 30 s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    setup_s.push_back(seconds_since(start));
  }

  // Warm-up requests first (discarded from every metric but still
  // checked), then the measured ones.  A per-layer run splits its time
  // between an untraced and a traced phase.
  const auto count_for = [&](double seconds) {
    return options.tiny ? std::size_t{4}
                        : static_cast<std::size_t>(std::lround(rate * seconds));
  };
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<Request> requests;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(50);
  const std::size_t warm = options.tiny ? 1 : count_for(kWarmupS);
  schedule(requests, warm, t0, rate, false, 1, options, accesses);
  const Clock::time_point measured_start =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(warm / rate));
  schedule(requests, count_for(phase_s), measured_start, rate, true, 1,
           options, accesses);
  const std::size_t backlog_max = drive(config.root, requests);

  std::vector<Request> traced_requests;
  if (options.trace) {
    allarm::obs::Timeline::enable();
    schedule(traced_requests, count_for(phase_s),
             Clock::now() + std::chrono::milliseconds(50), rate, true, 2,
             options, accesses);
    drive(config.root, traced_requests);
  }
  const int code = service->stop();
  result.check("serve.service_exit", code == 0,
               "exit " + std::to_string(code) + " " + service->error(),
               options);

  // Read every request back: state, report and journal.
  const Spool spool(config.root);
  std::string digest_input;
  std::vector<double> request_ms, queue_ms, run_ms, lag_ms;
  std::vector<allarm::core::RunResult> runs;
  std::map<std::pair<std::string, std::string>, std::pair<double, double>>
      totals;
  std::uint64_t failed = 0;
  std::uint64_t cells = 0;
  std::uint64_t not_done = 0;
  std::uint64_t bad_reports = 0;
  Clock::time_point first_due = measured_start;
  Clock::time_point last_end = measured_start;
  for (const Request& r : requests) {
    const bool done = r.end && r.state == RequestState::kDone;
    const Outcome outcome = read_outcome(spool, r.id);
    if (!done) ++not_done;
    if (!outcome.report_ok) ++bad_reports;
    if (!done || !outcome.report_ok) ++failed;
    try {
      digest_input += allarm::read_file(spool.report_json(r.id));
    } catch (const std::exception&) {
    }
    lag_ms.push_back(r.lag_ms);
    if (!r.measured || !done || !outcome.report_ok) continue;
    request_ms.push_back(ms_between(r.due, *r.end));
    queue_ms.push_back(ms_between(r.due, *r.running));
    run_ms.push_back(ms_between(*r.running, *r.end));
    last_end = std::max(last_end, *r.end);
    cells += kCellsPerRequest;
    runs.insert(runs.end(), outcome.runs.begin(), outcome.runs.end());
    for (const auto& [key, value] : outcome.cells) {
      totals[key].first += value.first;
      totals[key].second += value.second;
    }
  }
  result.operations(requests.size(), failed);
  result.check("serve.all_done", not_done == 0,
               std::to_string(requests.size() - not_done) + "/" +
                   std::to_string(requests.size()) + " requests done",
               options);
  result.check("serve.reports", bad_reports == 0,
               std::to_string(bad_reports) + " reports without " +
                   std::to_string(kCellsPerRequest) + " cells",
               options);
  char hex[16];
  std::snprintf(hex, sizeof hex, "%08x", allarm::crc32c(digest_input));
  result.note(std::string("digest serve ") + hex);

  double events = 0.0;
  double job_ns = 0.0;
  std::vector<double> job_ms;
  for (const allarm::core::RunResult& run : runs) {
    events += run.stats.get("sim.events");
    job_ns += static_cast<double>(run.wall_ns);
    job_ms.push_back(static_cast<double>(run.wall_ns) / 1e6);
  }
  const double phase_wall = std::max(1e-9, ms_between(first_due, last_end) / 1e3);

  if (options.trace) {
    for (Request& r : traced_requests) {
      if (r.end && r.state == RequestState::kDone) continue;
      result.note("traced request " + r.id + " did not finish");
    }
    const bool written = allarm::obs::Timeline::write(options.timeline_out);
    allarm::obs::Timeline::reset();
    result.check("serve.timeline_written", written, options.timeline_out,
                 options);
    SelfTimes times = self_times(options.timeline_out, 0.0);

    // The service builds its jobs' generators itself, so generation (and
    // the factory) is timed on one direct traced sweep of a request's grid.
    GenClock clock;
    allarm::runner::SweepSpec direct = allarm::service::spec_of(
        allarm::service::parse_request(requests.front().json));
    direct.make_workload =
        traced_factory(allarm::workload::make_benchmark, clock);
    allarm::runner::SweepResult collected;
    allarm::runner::CollectSink sink(collected);
    allarm::obs::Timeline::enable();
    allarm::runner::SweepRunner(options.workers)
        .run_streaming(direct, sink, allarm::runner::StreamOptions{});
    const std::string direct_path = options.work_dir + "/direct-timeline.json";
    const bool direct_written = allarm::obs::Timeline::write(direct_path);
    allarm::obs::Timeline::reset();
    if (!direct_written) throw std::runtime_error("serve: direct timeline");
    SelfTimes generation =
        self_times(direct_path, static_cast<double>(clock.ns.load()));
    times.ms["generation"] = generation.ms["generation"];
    times.ms["workload.factory"] = generation.ms["workload.factory"];
    times.generation_share = generation.generation_share;
    result.note("generation and factory self times: one direct traced sweep "
                "of a request's grid");
    double traced_ns = 0.0;
    std::size_t traced_jobs = 0;
    for (const Request& r : traced_requests) {
      for (const auto& run : read_outcome(spool, r.id).runs) {
        traced_ns += static_cast<double>(run.wall_ns);
        ++traced_jobs;
      }
    }
    // The open loop fixes the phase's wall time, so the overhead compares
    // the mean host time per job instead.
    const double untraced_mean = runs.empty() ? 0.0 : job_ns / runs.size();
    const double traced_mean =
        traced_jobs == 0 ? 0.0 : traced_ns / static_cast<double>(traced_jobs);
    report_traced(times, traced_mean, untraced_mean, result);
    result.note("timeline " + options.timeline_out);

    LayerInputs inputs;
    allarm::runner::GridKnobs knobs;
    inputs.profiles = allarm::runner::make_builtin_grid("quick", knobs).workloads;
    inputs.accesses = accesses;
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < inputs.profiles.size(); ++i) {
      seeds.push_back(derive_seed(options.seed, 200 + i));
    }
    const CapturedTraces traces =
        capture_traces(inputs.profiles, seeds, accesses,
                       options.work_dir + "/traces", options.workers);
    inputs.trace_paths = traces.paths;
    inputs.capture_s = traces.seconds;
    inputs.runs = runs;
    inputs.phase_s = phase_wall;
    report_layer_counts(inputs, options, result);
    report_layer_timings(inputs, options, result);

    report_service_intake(options.work_dir + "/intake", result);
    result.timed("service.queue_wait_ms.p50", queue_ms, "ms");
    result.timed("service.run_ms.p50", run_ms, "ms");
    result.metric("service.backlog_max", static_cast<double>(backlog_max),
                  "count");
    result.timed("loadgen.lag_ms.p90", lag_ms, "ms", 0.9);
    return;
  }

  std::vector<double> speedups;
  std::vector<double> evictions;
  for (const std::string& name :
       allarm::runner::make_builtin_grid("quick", {}).workloads) {
    const auto& base = totals[{name, "baseline"}];
    const auto& opt = totals[{name, "allarm"}];
    if (opt.first > 0) speedups.push_back(base.first / opt.first);
    evictions.push_back((opt.second + 1) / (base.second + 1));
  }
  result.metric("sim_speedup", geomean(speedups), "x");
  result.metric("pf_evict_ratio", geomean(evictions), "ratio");
  result.metric("events_per_s", job_ns > 0 ? events / job_ns * 1e9 : 0.0,
                "1/s");
  result.metric("cells_per_s", static_cast<double>(cells) / phase_wall, "1/s");
  result.timed("job_ms.p50", job_ms, "ms", 0.5);
  result.timed("job_ms.p75", job_ms, "ms", 0.75);
  result.timed("request_ms.p50", request_ms, "ms", 0.5);
  result.timed("request_ms.p75", request_ms, "ms", 0.75);
  result.timed("setup_s", setup_s, "s");
  result.note("serve: " + std::to_string(request_ms.size()) +
              " measured requests at " + std::to_string(rate) +
              "/s, backlog max " + std::to_string(backlog_max));
}

}  // namespace perfbench

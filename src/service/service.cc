#include "service/service.hh"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/fileio.hh"
#include "common/stats.hh"
#include "core/experiment.hh"
#include "obs/timeline.hh"
#include "runner/report.hh"
#include "runner/sweep.hh"
#include "runner/thread_pool.hh"
#include "service/json.hh"

namespace allarm::service {

namespace {

using Clock = std::chrono::steady_clock;

/// What one request's driver thread concluded.  kDrained means the run
/// checkpointed mid-flight (state stays running; a restart resumes it).
enum class Outcome { kDone, kQuarantined, kFailed, kDrained };

/// One running request: the driver thread executes run_streaming against
/// the shared pool; the main loop polls `progress` for health and reaps
/// the thread once `finished` flips.
struct Active {
  std::string id;
  std::uint64_t cells = 0;
  std::uint64_t jobs_total = 0;
  std::atomic<std::uint64_t> progress{0};
  std::atomic<bool> finished{false};
  Outcome outcome = Outcome::kFailed;  ///< Valid once `finished` is true.
  std::string error;                   ///< Same.
  runner::StreamStats stats;           ///< Same.
  std::thread thread;
};

}  // namespace

Request parse_request(const std::string& json_text) {
  const JsonValue doc = parse_json(json_text);
  if (!doc.is_object()) {
    throw std::runtime_error("request must be a JSON object");
  }
  Request request;
  for (const auto& [key, value] : doc.object) {
    if (key == "grid") {
      if (!value.is_string()) {
        throw std::runtime_error("\"grid\" must be a string");
      }
      request.grid = value.string;
    } else if (key == "seeds") {
      const std::uint64_t seeds = value.as_u64("\"seeds\"");
      if (seeds == 0 || seeds > 0xFFFFFFFFull) {
        throw std::runtime_error("\"seeds\" must be a positive 32-bit count");
      }
      request.knobs.seeds = static_cast<std::uint32_t>(seeds);
    } else if (key == "seed") {
      request.knobs.base_seed = value.as_u64("\"seed\"");
    } else if (key == "accesses") {
      request.knobs.accesses = value.as_u64("\"accesses\"");
    } else if (key == "csv") {
      if (!value.is_bool()) {
        throw std::runtime_error("\"csv\" must be a boolean");
      }
      request.csv = value.boolean;
    } else if (key == "timing") {
      if (!value.is_bool()) {
        throw std::runtime_error("\"timing\" must be a boolean");
      }
      request.timing = value.boolean;
    } else if (key == "profile") {
      if (!value.is_bool()) {
        throw std::runtime_error("\"profile\" must be a boolean");
      }
      request.profile = value.boolean;
    } else if (key == "retries") {
      const std::uint64_t retries = value.as_u64("\"retries\"");
      if (retries > 16) {
        throw std::runtime_error("\"retries\" must be at most 16");
      }
      request.retries = static_cast<std::uint32_t>(retries);
    } else {
      throw std::runtime_error("unknown request key \"" + key + "\"");
    }
  }
  if (request.grid.empty()) {
    throw std::runtime_error("request is missing \"grid\"");
  }
  // Validate the grid name now so intake rejects what activation would
  // only discover later (and with the same message).  Rethrown as
  // runtime_error: this function's whole contract is "reject reason".
  try {
    runner::make_builtin_grid(request.grid, request.knobs);
  } catch (const std::exception& e) {
    throw std::runtime_error(e.what());
  }
  return request;
}

runner::SweepSpec spec_of(const Request& request) {
  runner::SweepSpec spec = runner::make_builtin_grid(request.grid, request.knobs);
  // Not folded into spec_hash (see SweepSpec::profile), so toggling it on a
  // resubmission re-uses the kept journal rather than re-running the grid.
  spec.profile = request.profile;
  return spec;
}

namespace {

/// Runs one request to its conclusion on the calling (driver) thread.
/// Everything durable happens here or in the journal underneath; the main
/// loop only reads the atomics and commits the state word afterwards.
void drive_request(const Spool& spool, const runner::SweepRunner& runner,
                   runner::ThreadPool& pool, const std::atomic<bool>& stop,
                   Active& active) {
  // One span per request lifecycle (accept-to-terminal work on this
  // driver thread); arg = total jobs so the timeline shows request size.
  OBS_SPAN_N("service.request", "service", active.jobs_total);
  try {
    const Request request = parse_request(read_file(spool.request_json(active.id)));
    const runner::SweepSpec spec = spec_of(request);
    runner::ReportFiles reports(spool.report_json(active.id),
                                request.csv ? spool.report_csv(active.id) : "",
                                request.timing, request.profile);
    runner::StreamOptions options;
    options.journal_path = spool.journal_path(active.id);
    // Always the incremental path: a fresh journal is created, an
    // interrupted one resumes, and a resubmitted-with-edits one re-runs
    // exactly the invalidated cells.
    options.resume = runner::ResumeMode::kPerCell;
    options.pool = &pool;
    options.stop = &stop;
    options.progress = &active.progress;
    options.cell_retries = request.retries;
    // Quarantine: one poisoned cell degrades its request (state
    // `quarantined`, failed sections in the report) instead of failing it.
    options.quarantine = true;
    active.stats = runner.run_streaming(spec, reports.sink(), options);
    if (active.stats.drained) {
      reports.discard();  // Torn by design; the journal carries the work.
      active.outcome = Outcome::kDrained;
    } else {
      reports.commit();
      active.outcome = active.stats.jobs_failed > 0 ? Outcome::kQuarantined
                                                    : Outcome::kDone;
    }
  } catch (const std::exception& e) {
    active.error = e.what();
    active.outcome = Outcome::kFailed;
  }
  active.finished.store(true, std::memory_order_release);
}

}  // namespace

Service::Service(ServiceConfig config) : config_(std::move(config)) {}

int Service::run(const std::atomic<bool>& stop) {
  Spool spool(config_.root);
  const std::uint32_t workers =
      config_.workers > 0 ? config_.workers : core::bench_jobs();
  runner::ThreadPool pool(workers);
  const runner::SweepRunner runner(workers);
  const auto started = Clock::now();

  std::vector<std::unique_ptr<Active>> active;
  std::string last_error;
  bool saw_degraded = false;
  Clock::time_point drain_started{};
  bool drain_logged = false;

  // Lifetime totals, accumulated as finished drivers are reaped (plus the
  // in-flight progress of still-active ones when sampled below).  These
  // back the cells/sec gauge and the *_total counters in metrics.prom.
  std::uint64_t jobs_executed_total = 0;
  std::uint64_t jobs_retried_total = 0;
  std::uint64_t jobs_quarantined_total = 0;
  std::uint64_t requests_finished_total = 0;
  std::uint64_t rate_last_jobs = 0;
  Clock::time_point rate_last_at = started;
  double jobs_per_s = 0.0;

  const auto uptime_s = [&] {
    return std::chrono::duration<double>(Clock::now() - started).count();
  };

  const auto activate = [&](const std::string& id) {
    OBS_SPAN("service.admit", "service");
    const Request request = parse_request(read_file(spool.request_json(id)));
    const runner::SweepSpec spec = spec_of(request);
    auto entry = std::make_unique<Active>();
    entry->id = id;
    entry->cells = spec.cell_count();
    entry->jobs_total = spec.job_count();
    spool.set_state(id, RequestState::kRunning);
    Active& ref = *entry;
    entry->thread = std::thread([&spool, &runner, &pool, &stop, &ref] {
      drive_request(spool, runner, pool, stop, ref);
    });
    std::cerr << "[serve] " << id << ": running (" << spec.job_count()
              << " jobs)\n";
    active.push_back(std::move(entry));
  };

  const auto write_health = [&](bool draining) {
    OBS_SPAN("service.health", "service");
    // Throughput gauge: jobs completed (reaped totals + in-flight
    // progress) over the wall time since the last sample.  Poll-cadence
    // sampling, so short bursts between polls average out.
    const std::uint64_t jobs_now = [&] {
      std::uint64_t total = jobs_executed_total;
      for (const auto& entry : active) {
        total += entry->progress.load(std::memory_order_relaxed);
      }
      return total;
    }();
    const double since_s =
        std::chrono::duration<double>(Clock::now() - rate_last_at).count();
    if (since_s >= 0.001) {
      jobs_per_s = static_cast<double>(jobs_now - rate_last_jobs) / since_s;
      rate_last_jobs = jobs_now;
      rate_last_at = Clock::now();
    }
    const std::uint32_t pool_busy = pool.busy_count();

    std::string json = "{\"pid\":" + std::to_string(::getpid()) +
                       ",\"uptime_s\":" + json_number(uptime_s()) +
                       ",\"draining\":" + (draining ? "true" : "false");
    std::map<std::string, std::uint64_t> counts;
    for (const std::string& id : spool.requests()) {
      ++counts[to_string(spool.state(id))];
    }
    const std::size_t queue_depth = spool.queued().size();
    json += ",\"queue_depth\":" + std::to_string(queue_depth);
    json += ",\"requests\":{";
    bool first = true;
    for (const auto& [word, count] : counts) {
      if (!first) json += ",";
      first = false;
      json += json_quote(word) + ":" + std::to_string(count);
    }
    json += "},\"jobs_per_s\":" + json_number(jobs_per_s);
    json += ",\"pool\":{\"busy\":" + std::to_string(pool_busy) +
            ",\"workers\":" + std::to_string(pool.worker_count()) + "}";
    json += ",\"totals\":{\"jobs_executed\":" +
            std::to_string(jobs_executed_total) +
            ",\"jobs_retried\":" + std::to_string(jobs_retried_total) +
            ",\"jobs_quarantined\":" + std::to_string(jobs_quarantined_total) +
            ",\"requests_finished\":" + std::to_string(requests_finished_total) +
            "}";
    json += ",\"active\":[";
    first = true;
    for (const auto& entry : active) {
      if (!first) json += ",";
      first = false;
      json += "{\"id\":" + json_quote(entry->id) +
              ",\"jobs_done\":" +
              std::to_string(entry->progress.load(std::memory_order_relaxed)) +
              ",\"jobs_total\":" + std::to_string(entry->jobs_total) + "}";
    }
    json += "],\"last_error\":" + json_quote(last_error) + "}\n";
    try {
      spool.write_health(json);
    } catch (const std::exception& e) {
      // Health is observability, not state: a failed heartbeat must never
      // take down the requests it reports on.
      std::cerr << "[serve] health write failed: " << e.what() << "\n";
    }

    // Prometheus-textfile mirror, written beside health.json each poll
    // with the same atomicity and the same never-fatal contract.
    std::string prom;
    const auto gauge = [&prom](const std::string& name,
                               const std::string& value) {
      prom += "# TYPE " + name + " gauge\n" + name + " " + value + "\n";
    };
    const auto counter = [&prom](const std::string& name, std::uint64_t value) {
      prom += "# TYPE " + name + " counter\n" + name + " " +
              std::to_string(value) + "\n";
    };
    gauge("allarm_up", "1");
    gauge("allarm_uptime_seconds", json_number(uptime_s()));
    gauge("allarm_draining", draining ? "1" : "0");
    gauge("allarm_queue_depth", std::to_string(queue_depth));
    gauge("allarm_active_requests", std::to_string(active.size()));
    gauge("allarm_jobs_per_second", json_number(jobs_per_s));
    gauge("allarm_pool_workers", std::to_string(pool.worker_count()));
    gauge("allarm_pool_busy_workers", std::to_string(pool_busy));
    prom += "# TYPE allarm_requests gauge\n";
    for (const auto& [word, count] : counts) {
      prom += "allarm_requests{state=\"" + word + "\"} " +
              std::to_string(count) + "\n";
    }
    counter("allarm_jobs_executed_total", jobs_executed_total);
    counter("allarm_jobs_retried_total", jobs_retried_total);
    counter("allarm_jobs_quarantined_total", jobs_quarantined_total);
    counter("allarm_requests_finished_total", requests_finished_total);
    try {
      spool.write_metrics(prom);
    } catch (const std::exception& e) {
      std::cerr << "[serve] metrics write failed: " << e.what() << "\n";
    }
  };

  for (;;) {
    const bool draining = stop.load(std::memory_order_relaxed);
    if (draining && !drain_logged) {
      drain_logged = true;
      drain_started = Clock::now();
      std::cerr << "[serve] drain requested; checkpointing "
                << active.size() << " running request(s)\n";
    }

    // Reap finished drivers and commit their terminal states.
    for (std::size_t i = 0; i < active.size();) {
      Active& entry = *active[i];
      if (!entry.finished.load(std::memory_order_acquire)) {
        ++i;
        continue;
      }
      entry.thread.join();
      // Fold the finished run into the lifetime totals (kFailed from the
      // exception path carries default-zero stats, which is correct).
      jobs_executed_total += entry.stats.jobs_executed;
      jobs_retried_total += entry.stats.jobs_retried;
      jobs_quarantined_total += entry.stats.jobs_failed;
      if (entry.outcome != Outcome::kDrained) ++requests_finished_total;
      switch (entry.outcome) {
        case Outcome::kDone:
          spool.set_state(entry.id, RequestState::kDone);
          std::cerr << "[serve] " << entry.id << ": done ("
                    << entry.stats.jobs_executed << " run, "
                    << entry.stats.jobs_resumed << " resumed)\n";
          break;
        case Outcome::kQuarantined:
          saw_degraded = true;
          spool.set_state(entry.id, RequestState::kQuarantined,
                          std::to_string(entry.stats.jobs_failed) +
                              " jobs quarantined");
          std::cerr << "[serve] " << entry.id << ": quarantined ("
                    << entry.stats.jobs_failed << " failed jobs)\n";
          break;
        case Outcome::kFailed:
          saw_degraded = true;
          last_error = entry.id + ": " + entry.error;
          spool.set_state(entry.id, RequestState::kFailed, entry.error);
          std::cerr << "[serve] " << entry.id << ": failed: " << entry.error
                    << "\n";
          break;
        case Outcome::kDrained:
          // State stays `running`: the journal holds every finished job
          // and the next start resumes it.
          std::cerr << "[serve] " << entry.id << ": drained at "
                    << entry.progress.load(std::memory_order_relaxed) << "/"
                    << entry.jobs_total << " jobs\n";
          break;
      }
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
    }

    if (draining) {
      if (active.empty()) {
        write_health(true);
        std::cerr << "[serve] drained cleanly after " << json_number(uptime_s())
                  << " s\n";
        return 0;
      }
      // Bounded drain: past the deadline, abandon the graceful path.  The
      // hard abort is journal-safe — appends are crash-atomic — so the
      // only loss is the jobs currently executing, which re-run on resume.
      if (Clock::now() - drain_started >
          std::chrono::milliseconds(config_.drain_deadline_ms)) {
        std::cerr << "[serve] drain deadline exceeded; aborting "
                     "(journals are crash-safe)\n";
        std::_Exit(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }

    // Intake: accept queued requests.  A malformed one is rejected with
    // its reason; an id that is currently running defers (its resubmission
    // stays queued until the active run finishes).
    try {
      OBS_SPAN("service.scan", "service");
      for (const std::string& id : spool.queued()) {
        bool busy = false;
        for (const auto& entry : active) busy = busy || entry->id == id;
        if (busy) continue;
        spool.admit(id);
        try {
          parse_request(read_file(spool.request_json(id)));
        } catch (const std::exception& e) {
          saw_degraded = true;
          spool.set_state(id, RequestState::kRejected, e.what());
          last_error = id + ": " + e.what();
          std::cerr << "[serve] " << id << ": rejected: " << e.what() << "\n";
        }
      }
    } catch (const std::exception& e) {
      // A failed scan (transient I/O) is retried next poll, not fatal.
      last_error = std::string("queue scan: ") + e.what();
      std::cerr << "[serve] queue scan failed: " << e.what() << "\n";
    }

    // Schedule: activate pending (and recovered running) requests within
    // the admission bounds.  `running` non-active ids are interrupted work
    // from a previous process — they resume first, before new pending
    // work, so accepted jobs finish ahead of new admissions.
    std::uint64_t active_cells = 0;
    for (const auto& entry : active) active_cells += entry->cells;
    for (const RequestState wanted :
         {RequestState::kRunning, RequestState::kPending}) {
      for (const std::string& id : spool.requests()) {
        if (active.size() >= config_.max_active) break;
        bool busy = false;
        for (const auto& entry : active) busy = busy || entry->id == id;
        if (busy) continue;
        RequestState state;
        try {
          state = spool.state(id);
        } catch (const std::exception& e) {
          last_error = id + ": " + e.what();
          continue;  // Unreadable state file: skip, surface via health.
        }
        if (state != wanted) continue;
        try {
          const Request request =
              parse_request(read_file(spool.request_json(id)));
          const std::uint64_t cells = spec_of(request).cell_count();
          if (config_.max_cells > 0 && !active.empty() &&
              active_cells + cells > config_.max_cells) {
            continue;  // Backpressure: stays pending/running for later.
          }
          activate(id);
          active_cells += cells;
        } catch (const std::exception& e) {
          // A request that parsed at intake but fails now (corrupted file,
          // failpoint) fails terminally rather than looping forever.
          saw_degraded = true;
          last_error = id + ": " + e.what();
          try {
            spool.set_state(id, RequestState::kFailed, e.what());
          } catch (const std::exception& state_error) {
            std::cerr << "[serve] " << id
                      << ": state write failed: " << state_error.what()
                      << "\n";
          }
          std::cerr << "[serve] " << id << ": failed: " << e.what() << "\n";
        }
      }
    }

    write_health(false);

    if (config_.exit_when_idle && active.empty()) {
      bool idle = spool.queued().empty();
      if (idle) {
        for (const std::string& id : spool.requests()) {
          const RequestState state = spool.state(id);
          if (state == RequestState::kPending ||
              state == RequestState::kRunning) {
            idle = false;
            break;
          }
        }
      }
      if (idle) {
        write_health(false);
        return saw_degraded ? 3 : 0;
      }
    }

    // Poll cadence, chopped fine so SIGTERM reaction is prompt.
    const auto wake = Clock::now() + std::chrono::milliseconds(config_.poll_ms);
    while (Clock::now() < wake && !stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

}  // namespace allarm::service

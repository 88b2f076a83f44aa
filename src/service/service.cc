#include "service/service.hh"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
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

/// One running request: the driver thread executes run_streaming against
/// the shared pool; the main loop polls `progress` for health and reaps
/// the thread once `finished` flips.
struct Active {
  std::string id;
  std::uint64_t jobs_total = 0;
  std::atomic<std::uint64_t> progress{0};
  std::atomic<bool> finished{false};
  /// The state word the run ended in, valid once `finished` is true: done,
  /// quarantined or failed, or running when it drained (the journal holds
  /// its work and a restart resumes it).
  RequestState outcome = RequestState::kFailed;
  std::string error;          ///< The word's reason; same.
  runner::StreamStats stats;  ///< Same.
  std::thread thread;
};

/// The running requests and the stop flag their drivers watch.  Every way
/// out of Service::run raises the flag and joins every driver before the
/// entries go away: destroying a joinable std::thread ends the process.
struct Drivers {
  std::atomic<bool> halt{false};
  std::vector<std::unique_ptr<Active>> active;

  ~Drivers() {
    halt.store(true, std::memory_order_relaxed);
    for (const auto& entry : active) {
      if (entry->thread.joinable()) entry->thread.join();
    }
  }
};

/// A loaded pending or running request that is not active yet: parsed
/// once, when it was loaded, and kept until it activates.
struct Waiting {
  Request request;
  runner::SweepSpec spec;
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
                   const Request& request, const runner::SweepSpec& spec,
                   Active& active) {
  // One span per request lifecycle (accept-to-terminal work on this
  // driver thread); arg = total jobs so the timeline shows request size.
  OBS_SPAN_N("service.request", "service", active.jobs_total);
  try {
    runner::ReportFiles reports(spool.report_json(active.id),
                                request.csv ? spool.report_csv(active.id) : "",
                                request.timing, request.profile);
    runner::StreamOptions options;
    // A fresh journal is created, an interrupted one resumes, and a
    // resubmitted-with-edits one re-runs exactly the invalidated cells.
    options.journal_path = spool.journal_path(active.id);
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
      active.outcome = RequestState::kRunning;
    } else {
      reports.commit();
      active.outcome = RequestState::kDone;
      if (active.stats.jobs_failed > 0) {
        active.outcome = RequestState::kQuarantined;
        active.error =
            std::to_string(active.stats.jobs_failed) + " jobs quarantined";
      }
    }
  } catch (const std::exception& e) {
    active.error = e.what();
    active.outcome = RequestState::kFailed;
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

  Drivers drivers;
  std::vector<std::unique_ptr<Active>>& active = drivers.active;
  std::string last_error;
  bool saw_degraded = false;
  Clock::time_point drain_started{};
  bool drain_logged = false;

  // Lifetime totals, accumulated as finished drivers are reaped.  These
  // back the *_total counters in metrics.prom.
  std::uint64_t jobs_executed_total = 0;
  std::uint64_t jobs_retried_total = 0;
  std::uint64_t jobs_quarantined_total = 0;
  std::uint64_t requests_finished_total = 0;
  // The jobs/s gauge's count, which never falls: each reaped driver's final
  // `progress` (executed and resumed jobs alike), the same count the
  // samples below sum over the still-active drivers.
  std::uint64_t jobs_folded_total = 0;
  std::uint64_t rate_last_jobs = 0;
  Clock::time_point rate_last_at = started;
  double jobs_per_s = 0.0;

  const auto uptime_s = [&] {
    return std::chrono::duration<double>(Clock::now() - started).count();
  };

  // The request table.  This loop is the one writer of request state, so
  // after the start-up load it never reads a state word again: every
  // transition writes the word durably, then updates `states` and the
  // per-state `counts` that health reports.  `waiting` holds every pending
  // or running request that is not active, in id order.
  std::unordered_map<std::string, RequestState> states;
  std::map<std::string, std::uint64_t> counts;  ///< State word -> requests.
  std::map<std::string, Waiting> waiting;
  std::size_t queue_depth = 0;  ///< Left in queue/ by the last intake.

  // A degraded outcome: logged, named in health's last_error, and exit 3
  // under exit_when_idle.
  const auto degrade = [&](const std::string& id, const char* what,
                           const std::string& why) {
    saw_degraded = true;
    last_error = id + ": " + why;
    std::cerr << "[serve] " << id << ": " << what << ": " << why << "\n";
  };

  // Sets `id`'s entry to `state`, a word already on disk (none: drops it).
  const auto record = [&](const std::string& id,
                          std::optional<RequestState> state) {
    if (const auto it = states.find(id); it != states.end()) {
      const auto count = counts.find(to_string(it->second));
      if (--count->second == 0) counts.erase(count);
      states.erase(it);
    }
    if (state) {
      states.emplace(id, *state);
      ++counts[to_string(*state)];
    }
  };

  // Writes `id`'s state word durably, then the table.
  const auto transition = [&](const std::string& id, RequestState state,
                              const std::string& error = "") {
    spool.set_state(id, state, error);
    record(id, state);
  };

  // A request that cannot run ends as `state`; false when that word could
  // not be written, which leaves the request where it was.
  const auto give_up = [&](const std::string& id, RequestState state,
                           const std::string& why) {
    degrade(id, to_string(state), why);
    try {
      transition(id, state, why);
      return true;
    } catch (const std::exception& e) {
      std::cerr << "[serve] " << id << ": state write failed: " << e.what()
                << "\n";
      return false;
    }
  };

  // The one load path, for start-up and intake alike: reads `id`'s state
  // word and, for a pending or running request, parses the request once.
  // One that does not parse becomes `unparsable` (rejected at intake,
  // failed at start-up).  An id whose state word is unreadable, or whose
  // terminal word cannot be written, stays out of the table.
  const auto load = [&](const std::string& id, RequestState unparsable) {
    record(id, std::nullopt);
    waiting.erase(id);
    RequestState state;
    try {
      state = spool.state(id);
    } catch (const std::exception& e) {
      degrade(id, "unreadable state", e.what());
      return;
    }
    if (state == RequestState::kPending || state == RequestState::kRunning) {
      try {
        const Request request =
            parse_request(read_file(spool.request_json(id)));
        waiting.emplace(id, Waiting{request, spec_of(request)});
      } catch (const std::exception& e) {
        give_up(id, unparsable, e.what());
        return;
      }
    }
    record(id, state);
  };

  // Starts `request`'s driver.  Moves the request into the driver thread
  // only once the `running` word is durable.
  const auto activate = [&](const std::string& id, Waiting& request) {
    OBS_SPAN("service.admit", "service");
    auto entry = std::make_unique<Active>();
    entry->id = id;
    entry->jobs_total = request.spec.job_count();
    transition(id, RequestState::kRunning);
    Active& ref = *entry;
    const std::atomic<bool>& halt = drivers.halt;
    entry->thread = std::thread(
        [&spool, &runner, &pool, &halt, &ref, request = std::move(request)] {
          drive_request(spool, runner, pool, halt, request.request,
                        request.spec, ref);
        });
    std::cerr << "[serve] " << id << ": running (" << ref.jobs_total
              << " jobs)\n";
    active.push_back(std::move(entry));
  };

  const auto write_health = [&](bool draining) {
    OBS_SPAN("service.health", "service");
    // Throughput gauge: jobs folded (reaped drivers' final progress +
    // in-flight progress) over the wall time since the last sample.
    // Poll-cadence sampling, so short bursts between polls average out.
    const std::uint64_t jobs_now = [&] {
      std::uint64_t total = jobs_folded_total;
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

  // Start-up: the one walk of requests/.  Interrupted `running` requests
  // and accepted `pending` ones load as waiting work.
  for (const std::string& id : spool.requests()) {
    load(id, RequestState::kFailed);
  }

  for (;;) {
    const bool draining = stop.load(std::memory_order_relaxed);
    if (draining && !drain_logged) {
      drain_logged = true;
      drain_started = Clock::now();
      drivers.halt.store(true, std::memory_order_relaxed);
      std::cerr << "[serve] drain requested; checkpointing "
                << active.size() << " running request(s)\n";
    }

    // Reap finished drivers and commit their terminal states.  A drained
    // run writes none: it stays `running`, its journal holds every
    // finished job, and the next start resumes it.  A terminal write that
    // fails keeps the joined entry for the next poll, and a run enters the
    // lifetime totals only once its word is durable.
    for (std::size_t i = 0; i < active.size();) {
      Active& entry = *active[i];
      if (!entry.finished.load(std::memory_order_acquire)) {
        ++i;
        continue;
      }
      if (entry.thread.joinable()) entry.thread.join();
      if (entry.outcome != RequestState::kRunning) {
        try {
          transition(entry.id, entry.outcome, entry.error);
        } catch (const std::exception& e) {
          last_error = entry.id + ": state write failed: " + e.what();
          std::cerr << "[serve] " << last_error << "\n";
          ++i;
          continue;
        }
        ++requests_finished_total;
      }
      // kFailed from the exception path carries default-zero stats.
      jobs_folded_total += entry.progress.load(std::memory_order_relaxed);
      jobs_executed_total += entry.stats.jobs_executed;
      jobs_retried_total += entry.stats.jobs_retried;
      jobs_quarantined_total += entry.stats.jobs_failed;
      if (entry.outcome == RequestState::kDone) {
        std::cerr << "[serve] " << entry.id << ": done ("
                  << entry.stats.jobs_executed << " run, "
                  << entry.stats.jobs_resumed << " resumed)\n";
      } else if (entry.outcome == RequestState::kQuarantined) {
        saw_degraded = true;
        std::cerr << "[serve] " << entry.id << ": quarantined ("
                  << entry.stats.jobs_failed << " failed jobs)\n";
      } else if (entry.outcome == RequestState::kFailed) {
        degrade(entry.id, "failed", entry.error);
      } else {
        std::cerr << "[serve] " << entry.id << ": drained at "
                  << entry.progress.load(std::memory_order_relaxed) << "/"
                  << entry.jobs_total << " jobs\n";
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

    // Intake: admit and load queued requests.  An id that is active
    // defers (its resubmission stays queued until the active run
    // finishes).  This listing is the poll's only one: it also gives
    // health its queue_depth and the idle check its empty queue, and a
    // failed listing never counts as empty.
    bool scanned = false;
    try {
      OBS_SPAN("service.scan", "service");
      const std::vector<std::string> queued = spool.queued();
      scanned = true;
      queue_depth = queued.size();
      for (const std::string& id : queued) {
        bool busy = false;
        for (const auto& entry : active) busy = busy || entry->id == id;
        if (busy) continue;
        try {
          spool.admit(id);
        } catch (const std::exception& e) {
          last_error = id + ": " + e.what();
          std::cerr << "[serve] " << id << ": admission failed: " << e.what()
                    << "\n";
          // Before its commit rename the request is still queued and the
          // next poll retries it; after the rename it is accepted.
          if (exists(spool.queue_path(id))) continue;
        }
        --queue_depth;
        load(id, RequestState::kRejected);
      }
    } catch (const std::exception& e) {
      // A failed scan (transient I/O) is retried next poll, not fatal.
      last_error = std::string("queue scan: ") + e.what();
      std::cerr << "[serve] queue scan failed: " << e.what() << "\n";
    }

    // Schedule: activate waiting requests up to --max-active, in id
    // order.  Interrupted `running` requests go first, before new pending
    // work, so accepted jobs finish ahead of new admissions.
    for (const RequestState wanted :
         {RequestState::kRunning, RequestState::kPending}) {
      for (auto it = waiting.begin();
           it != waiting.end() && active.size() < config_.max_active;) {
        const std::string& id = it->first;
        if (states.at(id) != wanted) {
          ++it;  // The other pass's.
          continue;
        }
        try {
          activate(id, it->second);
        } catch (const std::exception& e) {
          // Fails terminally rather than retrying every poll.
          if (!give_up(id, RequestState::kFailed, e.what())) {
            ++it;
            continue;
          }
        }
        it = waiting.erase(it);
      }
    }

    write_health(false);

    if (config_.exit_when_idle && scanned && queue_depth == 0 &&
        active.empty() && waiting.empty()) {
      return saw_degraded ? 3 : 0;
    }

    // Poll cadence, chopped fine so SIGTERM reaction is prompt.
    const auto wake = Clock::now() + std::chrono::milliseconds(config_.poll_ms);
    while (Clock::now() < wake && !stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

}  // namespace allarm::service

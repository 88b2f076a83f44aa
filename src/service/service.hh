// The long-running sweep service (docs/SERVICE.md).
//
// One Service owns a Spool (the crash-safe request queue) and one shared
// worker pool, and multiplexes every accepted request's jobs onto that
// pool through runner::run_streaming.  The contract it keeps is the
// repo's standing one, extended to a process that can die at any instant:
//
//  - SIGKILL anywhere loses no accepted work.  Requests advance by durable
//    state renames; results advance by journal appends; on restart every
//    `running` request resumes through its journal and the recovered
//    report is byte-identical to an uninterrupted run.
//  - run() owns request state: it loads every request once at start-up,
//    then each transition writes its word durably and updates an
//    in-memory table, and a poll lists only queue/, so idle cost does not
//    grow with the number of finished requests.
//  - SIGTERM drains gracefully: in-flight jobs finish and are journaled,
//    states stay `running` (resumed next start), health is current, exit
//    is 0 — all inside a bounded deadline, past which the service falls
//    back to a journal-safe hard abort.
//  - Admission control bounds concurrent requests; excess work waits as
//    `pending` (backpressure, not loss), and malformed requests become
//    `rejected` with a recorded reason.
//  - Resubmitting an id re-runs it as a per-cell incremental re-sweep:
//    the kept journal is rebound and only cells the edit invalidated run.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "runner/grids.hh"
#include "service/spool.hh"

namespace allarm::service {

/// One parsed request file.  The vocabulary is the sweep CLI's: a built-in
/// grid name plus the knobs that parameterize it.  Strict — an unknown key
/// is a reject, not a silent ignore (a typo'd "seedz" must not quietly run
/// the wrong sweep).
struct Request {
  std::string grid;          ///< Required: a runner::builtin_grid_names() name.
  runner::GridKnobs knobs;   ///< "seeds", "seed", "accesses" keys.
  bool csv = false;          ///< "csv": also write report.csv.
  bool timing = false;       ///< "timing": wall_ns section in report.json.
  bool profile = false;      ///< "profile": hist section in report.json.
  std::uint32_t retries = 0; ///< "retries": per-job retry budget.
};

/// Parses and validates one request document.  Throws std::runtime_error
/// (with the reject reason) on malformed JSON, unknown keys, or an unknown
/// grid.
Request parse_request(const std::string& json_text);

/// The spec a request runs — shared with the CLI grids, so a service
/// report is byte-identical to `sweep --grid ...` with the same knobs.
runner::SweepSpec spec_of(const Request& request);

struct ServiceConfig {
  std::string root;               ///< Spool root directory.
  std::uint32_t workers = 0;      ///< Shared pool size; 0 = core::bench_jobs().
  std::uint32_t max_active = 2;   ///< Concurrently running requests.
  std::uint32_t poll_ms = 200;    ///< Queue/health poll cadence.
  /// Graceful-drain budget after SIGTERM; past it the service hard-aborts
  /// (journal-safe: appends are crash-atomic at any byte).
  std::uint64_t drain_deadline_ms = 30000;
  /// Exit once the queue is empty and every request reached a terminal
  /// state (smoke tests and batch use; a daemon runs forever).
  bool exit_when_idle = false;
};

class Service {
 public:
  explicit Service(ServiceConfig config);

  /// Runs the accept/schedule/health loop until `stop` becomes true
  /// (graceful drain) or, with exit_when_idle, until all work is done.
  /// Returns the process exit code: 0 clean or drained, 1 internal error,
  /// 3 degraded (exit_when_idle and some request failed/quarantined/
  /// rejected, or an unreadable state word was skipped).
  int run(const std::atomic<bool>& stop);

 private:
  ServiceConfig config_;
};

}  // namespace allarm::service

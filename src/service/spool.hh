// The sweep service's file spool: crash-safe request queue and per-request
// lifecycle state, all expressed as atomic renames (docs/SERVICE.md).
//
// Layout under one root directory:
//
//   queue/<id>.json          incoming requests.  Producers write a hidden
//                            temp file and rename it in — enqueue is atomic
//                            with no locking, and a half-written request is
//                            never visible.
//   requests/<id>/           one directory per accepted request:
//     request.json           the request, moved (renamed) from the queue
//     state                  lifecycle word: pending | running | done |
//                            failed | quarantined | rejected
//     error                  reason, for failed/rejected
//     journal.bin(+.data)    the sweep journal — the crash-safety spine
//     report.json/.csv       committed reports (tmp+fsync+rename)
//   health.json              heartbeat (uptime, depths, progress)
//   metrics.prom             Prometheus-textfile mirror of the heartbeat
//
// Every transition is a durable rename of the state file (write temp,
// fsync, rename, fsync directory), so a SIGKILL at any instant leaves
// either the old word or the new word — never a torn one — and a restart
// reconstructs exactly what was accepted and what was mid-flight.
// A Spool caches nothing, so every process polling state() sees each
// transition as it lands; the service's request table lives in
// Service::run, the one writer of request state.
// Four failpoints cover the new I/O boundaries: `service.scan` (queue
// intake), `service.state` (state rename), `service.health` (heartbeat
// write), `service.metrics` (Prometheus export); see docs/ROBUSTNESS.md.
#pragma once

#include <string>
#include <vector>

namespace allarm::service {

/// Request lifecycle.  pending -> running -> done | failed | quarantined;
/// rejected is terminal straight from intake (malformed spec).  A
/// `running` request on startup is recovered work, resumed through its
/// journal.  Resubmitting an id (a new queue file with the same name)
/// restarts the lifecycle at pending; the kept journal turns the re-run
/// into a per-cell incremental re-sweep.
enum class RequestState {
  kPending,
  kRunning,
  kDone,
  kFailed,       ///< The sweep errored (state carries the reason).
  kQuarantined,  ///< Completed degraded: some jobs quarantined (exit-3 analogue).
  kRejected,     ///< Never accepted: malformed request (reason recorded).
};

const char* to_string(RequestState state);

/// Inverse of to_string; returns false on an unknown word.
bool request_state_from_string(const std::string& text, RequestState* state);

class Spool {
 public:
  /// Opens (creating as needed) the spool at `root`.  Throws on I/O error.
  explicit Spool(std::string root);

  /// Producer side: atomically enqueues `json_text` as request `id`
  /// (temp write + fsync + rename into queue/).  Static so producers need
  /// no Spool instance — any process that can write the directory can
  /// submit.  Returns the queued path.  Throws std::invalid_argument on a
  /// malformed id (path characters) and std::runtime_error on I/O error.
  static std::string enqueue(const std::string& root, const std::string& id,
                             const std::string& json_text);

  /// Ids currently waiting in queue/, sorted.  Polls failpoint
  /// `service.scan` (the spool-scan I/O boundary).
  std::vector<std::string> queued() const;

  /// Accepts queued request `id`: creates requests/<id>/, durably removes
  /// a previous run's state and error, then renames the queue file to
  /// request.json (the commit).  No state word is written (a missing one
  /// reads as pending), so no fault leaves `done` beside a new request.
  /// Every step is idempotent, so a crash mid-admission re-runs cleanly.
  void admit(const std::string& id);

  /// Ids with a request directory, sorted.
  std::vector<std::string> requests() const;

  /// Current state of request `id`; no state file is `pending` (as
  /// admit() leaves it).  Throws on an unrecognized word.
  RequestState state(const std::string& id) const;

  /// Durable state transition (temp + fsync + rename + directory fsync).
  /// `error` is recorded for failed/rejected (empty clears it).  Polls
  /// failpoint `service.state`.
  void set_state(const std::string& id, RequestState state,
                 const std::string& error = "");

  /// Recorded error of `id`, or "" when none.
  std::string error(const std::string& id) const;

  /// Atomically replaces health.json (temp + fsync + rename).  Polls
  /// failpoint `service.health`.
  void write_health(const std::string& json) const;

  /// Atomically replaces metrics.prom (temp + fsync + rename) — the
  /// Prometheus-textfile mirror of the heartbeat, written beside
  /// health.json every poll.  Polls failpoint `service.metrics`.
  void write_metrics(const std::string& text) const;

  // Paths inside one request's directory.
  std::string queue_path(const std::string& id) const;
  std::string request_dir(const std::string& id) const;
  std::string request_json(const std::string& id) const;
  std::string journal_path(const std::string& id) const;
  std::string report_json(const std::string& id) const;
  std::string report_csv(const std::string& id) const;
  std::string health_path() const;
  std::string metrics_path() const;

  /// True when `id` is usable as a spool id (also enforced by enqueue):
  /// nonempty, no path separators or leading dots, <= 200 bytes.
  static bool valid_id(const std::string& id);

 private:
  std::string root_;
};

}  // namespace allarm::service

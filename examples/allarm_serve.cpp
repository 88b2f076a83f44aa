// allarm_serve: the crash-safe sweep service (docs/SERVICE.md).
//
// Consumer mode (the default) runs the accept/schedule/health loop over a
// file spool until signalled:
//
//   allarm_serve --root DIR [--workers N] [--max-active N] [--poll-ms N]
//                [--drain-ms N] [--exit-when-idle] [--failpoints SPEC]
//                [--timeline FILE]
//
// --timeline records a Chrome trace-event JSON timeline of the service run
// (request lifecycle, scheduling, journal and simulation spans) and writes
// it at exit; load it in Perfetto.  See docs/OBSERVABILITY.md.
//
//   SIGTERM/SIGINT   graceful drain: in-flight jobs finish and are
//                    journaled, states stay `running` (resumed on the next
//                    start), exit 0.  Past --drain-ms the service falls
//                    back to a journal-safe hard abort (exit 1).
//   SIGKILL          loses no accepted work: restart resumes every
//                    `running` request through its journal and the
//                    recovered report is byte-identical.
//
// Producer mode submits one request file and exits — any process that can
// write the spool directory can enqueue; no running service is needed:
//
//   allarm_serve --root DIR --enqueue FILE --as NAME
//
// Exit codes: 0 clean (or drained), 1 error, 2 usage, 3 degraded
// (--exit-when-idle and some request failed/quarantined/rejected).
#include <csignal>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "cli.hh"
#include "common/failpoint.hh"
#include "common/fileio.hh"
#include "obs/timeline.hh"
#include "service/service.hh"
#include "service/spool.hh"

namespace {

using allarm::cli::kMaxU32;
using allarm::cli::parse_u64;
using allarm::cli::parse_u64_max;

// Signal handlers may only touch lock-free atomics; the service loop polls
// this between (never inside) I/O steps.
std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

void usage(std::ostream& out) {
  out << "usage: allarm_serve --root DIR [--workers N] [--max-active N]\n"
         "                    [--poll-ms N] [--drain-ms N] [--exit-when-idle]\n"
         "                    [--failpoints SPEC] [--timeline FILE]\n"
         "       allarm_serve --root DIR --enqueue FILE --as NAME\n";
}

}  // namespace

int main(int argc, char** argv) {
  allarm::service::ServiceConfig config;
  std::string enqueue_file;
  std::string enqueue_as;
  std::string failpoint_spec;
  std::string timeline_path;

  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(argv[i]) + ": missing value");
    }
    return argv[++i];
  };

  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--root") == 0) {
        config.root = value(i);
      } else if (std::strcmp(arg, "--workers") == 0) {
        config.workers = parse_u64_max(arg, value(i), kMaxU32);
      } else if (std::strcmp(arg, "--max-active") == 0) {
        config.max_active = parse_u64_max(arg, value(i), kMaxU32);
        if (config.max_active == 0) {
          throw std::invalid_argument("--max-active must be at least 1");
        }
      } else if (std::strcmp(arg, "--poll-ms") == 0) {
        config.poll_ms = parse_u64_max(arg, value(i), kMaxU32);
        if (config.poll_ms == 0) config.poll_ms = 1;
      } else if (std::strcmp(arg, "--drain-ms") == 0) {
        config.drain_deadline_ms = parse_u64(arg, value(i));
      } else if (std::strcmp(arg, "--exit-when-idle") == 0) {
        config.exit_when_idle = true;
      } else if (std::strcmp(arg, "--failpoints") == 0) {
        failpoint_spec = value(i);
      } else if (std::strcmp(arg, "--timeline") == 0) {
        timeline_path = value(i);
      } else if (std::strcmp(arg, "--enqueue") == 0) {
        enqueue_file = value(i);
      } else if (std::strcmp(arg, "--as") == 0) {
        enqueue_as = value(i);
      } else if (std::strcmp(arg, "--help") == 0 ||
                 std::strcmp(arg, "-h") == 0) {
        usage(std::cout);
        return 0;
      } else {
        throw std::invalid_argument(std::string("unknown flag ") + arg);
      }
    }
    if (config.root.empty()) {
      throw std::invalid_argument("--root is required");
    }
    if (enqueue_file.empty() != enqueue_as.empty()) {
      throw std::invalid_argument("--enqueue and --as go together");
    }
  } catch (const std::exception& e) {
    std::cerr << "allarm_serve: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  }

  std::string failpoints = allarm::failpoint::configure_from_env();
  if (!failpoint_spec.empty()) {
    allarm::failpoint::configure(failpoint_spec);
    failpoints = failpoint_spec;
  }
  if (!failpoints.empty()) {
    std::cerr << "failpoints active: " << failpoints << "\n";
  }

  try {
    if (!enqueue_file.empty()) {
      // Producer mode: validate locally so a typo is caught at submit time
      // with the same message the service would record, then enqueue.
      const std::string text = allarm::read_file(enqueue_file);
      allarm::service::parse_request(text);
      const std::string queued =
          allarm::service::Spool::enqueue(config.root, enqueue_as, text);
      std::cout << "enqueued " << queued << "\n";
      return 0;
    }

    struct sigaction action{};
    action.sa_handler = on_signal;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);

    if (!timeline_path.empty()) allarm::obs::Timeline::enable();
    allarm::service::Service service(config);
    const int code = service.run(g_stop);
    // Observability output last: a failed timeline write logs loudly but
    // the service outcome above stands, so the exit code is unchanged.
    if (!timeline_path.empty() &&
        allarm::obs::Timeline::write(timeline_path)) {
      std::cerr << "wrote " << timeline_path << "\n";
    }
    return code;
  } catch (const std::exception& e) {
    std::cerr << "allarm_serve: " << e.what() << "\n";
    return 1;
  }
}

// Tests for the crash-safe sweep service: the strict JSON request parser,
// the file spool (atomic enqueue, admission, durable state machine), the
// runner's retry jitter, drain semantics, shared-pool multiplexing, and
// the Service loop end-to-end through the built-in grids, including its
// request table (file opens per poll, an unreadable state word), a
// failed terminal state write and the jobs/s gauge across a resume.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hh"
#include "common/fileio.hh"
#include "core/experiment.hh"
#include "runner/journal.hh"
#include "runner/report.hh"
#include "runner/sink.hh"
#include "runner/sweep.hh"
#include "runner/thread_pool.hh"
#include "service/json.hh"
#include "service/service.hh"
#include "service/spool.hh"
#include "workload/profiles.hh"

namespace allarm {
namespace {

std::string temp_path(const std::string& stem) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + std::string(info->test_suite_name()) + "_" +
         info->name() + "_" + stem;
}

void remove_tree(const std::string& path) {
  const std::string cmd = "rm -rf '" + path + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

// ------------------------------------------------------------------ JSON ----

TEST(ServiceJson, ParsesScalarsArraysObjects) {
  const service::JsonValue doc = service::parse_json(
      R"({"grid": "quick", "n": 42, "f": 1.5, "neg": -3, "t": true,
          "nil": null, "list": [1, "two", {"three": 3}]})");
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("grid"), nullptr);
  EXPECT_EQ(doc.find("grid")->string, "quick");
  EXPECT_EQ(doc.find("n")->as_u64("n"), 42u);
  EXPECT_DOUBLE_EQ(doc.find("f")->number, 1.5);
  EXPECT_DOUBLE_EQ(doc.find("neg")->number, -3.0);
  EXPECT_TRUE(doc.find("t")->boolean);
  EXPECT_EQ(doc.find("nil")->kind, service::JsonValue::Kind::kNull);
  const service::JsonValue& list = *doc.find("list");
  ASSERT_EQ(list.array.size(), 3u);
  EXPECT_EQ(list.array[1].string, "two");
  EXPECT_EQ(list.array[2].find("three")->as_u64("three"), 3u);
  EXPECT_EQ(doc.find("absent"), nullptr);
}

TEST(ServiceJson, DecodesEscapesIncludingSurrogatePairs) {
  const service::JsonValue doc = service::parse_json(
      "{\"s\": \"a\\n\\t\\\"\\\\/\\u0041\\u00e9\\ud83d\\ude00\"}");
  // \u0041 = A, \u00e9 = é (2 bytes), \ud83d\ude00 = 😀 (4 bytes).
  EXPECT_EQ(doc.find("s")->string, "a\n\t\"\\/A\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(ServiceJson, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",                          // empty
      "{",                         // truncated
      "{\"a\": 1,}",               // trailing comma
      "{\"a\": 1} x",              // trailing garbage
      "{\"a\": 1, \"a\": 2}",      // duplicate key
      "{\"a\": 01}",               // leading zero
      "{\"a\": 1.}",               // digit must follow point
      "{\"a\": nan}",              // not a JSON keyword
      "{\"a\": \"\\q\"}",          // bad escape
      "{\"a\": \"\x01\"}",         // raw control character
      "{\"a\": \"\\ud800\"}",      // lone high surrogate
      "{\"a\": \"\\ude00\"}",      // stray low surrogate
  };
  for (const char* text : bad) {
    EXPECT_THROW(service::parse_json(text), std::runtime_error) << text;
  }
  // Hostile nesting must fail cleanly, not blow the stack.
  EXPECT_THROW(service::parse_json(std::string(1000, '[')), std::runtime_error);
}

TEST(ServiceJson, AsU64RejectsNonIntegers) {
  EXPECT_THROW(service::parse_json("-1").as_u64("x"), std::runtime_error);
  EXPECT_THROW(service::parse_json("1.5").as_u64("x"), std::runtime_error);
  EXPECT_THROW(service::parse_json("1e30").as_u64("x"), std::runtime_error);
  EXPECT_THROW(service::parse_json("\"7\"").as_u64("x"), std::runtime_error);
  EXPECT_EQ(service::parse_json("9007199254740992").as_u64("x"),
            9007199254740992ull);  // 2^53: the last exact double integer.
}

// --------------------------------------------------------- parse_request ----

TEST(ServiceRequest, ParsesFullRequest) {
  const service::Request request = service::parse_request(
      R"({"grid": "quick", "seeds": 3, "seed": 99, "accesses": 500,
          "csv": true, "timing": true, "retries": 2})");
  EXPECT_EQ(request.grid, "quick");
  EXPECT_EQ(request.knobs.seeds, 3u);
  EXPECT_EQ(request.knobs.base_seed, 99u);
  EXPECT_EQ(request.knobs.accesses, 500u);
  EXPECT_TRUE(request.csv);
  EXPECT_TRUE(request.timing);
  EXPECT_EQ(request.retries, 2u);
  // The spec it maps to is the CLI's grid with the same knobs.
  const runner::SweepSpec spec = service::spec_of(request);
  EXPECT_EQ(spec.replicates, 3u);
  EXPECT_EQ(spec.base_seed, 99u);
}

TEST(ServiceRequest, RejectsBadRequests) {
  // Strict vocabulary: typos reject instead of silently running the wrong
  // sweep; so do bad types, unknown grids, and non-object documents.
  const char* bad[] = {
      R"({"seeds": 2})",                       // missing grid
      R"({"grid": "no-such-grid"})",           // unknown grid
      R"({"grid": "quick", "seedz": 2})",      // unknown key
      R"({"grid": "quick", "seeds": 0})",      // zero replicates
      R"({"grid": 7})",                        // grid not a string
      R"({"grid": "quick", "csv": 1})",        // csv not a bool
      R"({"grid": "quick", "retries": 100})",  // retry budget cap
      R"(["quick"])",                          // not an object
  };
  for (const char* text : bad) {
    EXPECT_THROW(service::parse_request(text), std::runtime_error) << text;
  }
}

TEST(ServiceRequest, BuiltinGridNamesAllParse) {
  for (const std::string& name : runner::builtin_grid_names()) {
    const service::Request request =
        service::parse_request("{\"grid\": \"" + name + "\"}");
    EXPECT_GT(service::spec_of(request).job_count(), 0u) << name;
  }
}

// ----------------------------------------------------------------- spool ----

TEST(Spool, ValidIdRejectsPathCharacters) {
  EXPECT_TRUE(service::Spool::valid_id("run-1"));
  EXPECT_TRUE(service::Spool::valid_id("fig3.seed42"));
  EXPECT_FALSE(service::Spool::valid_id(""));
  EXPECT_FALSE(service::Spool::valid_id(".hidden"));
  EXPECT_FALSE(service::Spool::valid_id("a/b"));
  EXPECT_FALSE(service::Spool::valid_id(std::string("a\0b", 3)));
  EXPECT_FALSE(service::Spool::valid_id(std::string(201, 'x')));
}

TEST(Spool, EnqueueIsAtomicAndScanSkipsTempFiles) {
  const std::string root = temp_path("spool");
  remove_tree(root);
  service::Spool spool(root);
  EXPECT_TRUE(spool.queued().empty());

  // A half-written producer temp file (hidden name) must never be scanned.
  ASSERT_EQ(::mkdir((root + "/queue").c_str(), 0755) == 0 || errno == EEXIST,
            true);
  write_file_durable(root + "/queue/.tmp-999-partial", "{\"gri");
  write_file_durable(root + "/queue/README", "not a request");
  EXPECT_TRUE(spool.queued().empty());

  service::Spool::enqueue(root, "beta", "{\"grid\": \"quick\"}");
  service::Spool::enqueue(root, "alpha", "{\"grid\": \"quick\"}");
  EXPECT_EQ(spool.queued(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_THROW(service::Spool::enqueue(root, "a/b", "{}"),
               std::invalid_argument);
}

TEST(Spool, AdmitMovesRequestAndSurvivesReplay) {
  const std::string root = temp_path("spool");
  remove_tree(root);
  service::Spool spool(root);
  service::Spool::enqueue(root, "job", "{\"grid\": \"quick\"}");

  spool.admit("job");
  EXPECT_TRUE(spool.queued().empty());
  EXPECT_EQ(spool.requests(), std::vector<std::string>{"job"});
  EXPECT_EQ(spool.state("job"), service::RequestState::kPending);
  EXPECT_EQ(read_file(spool.request_json("job")), "{\"grid\": \"quick\"}");

  // The crash window inside admit(): directory created, queue file still
  // in place (SIGKILL between mkdir and rename).  Replaying admit from the
  // next scan must succeed, not trip over the existing directory.
  service::Spool::enqueue(root, "job2", "{\"grid\": \"quick\"}");
  ASSERT_EQ(::mkdir(spool.request_dir("job2").c_str(), 0755), 0);
  spool.admit("job2");
  EXPECT_EQ(spool.state("job2"), service::RequestState::kPending);
}

TEST(Spool, StateMachineIsDurableAndTyped) {
  const std::string root = temp_path("spool");
  remove_tree(root);
  service::Spool spool(root);
  service::Spool::enqueue(root, "job", "{\"grid\": \"quick\"}");
  spool.admit("job");

  // Admission writes no state word: a request directory without one
  // reads as pending.
  EXPECT_FALSE(exists(spool.request_dir("job") + "/state"));
  EXPECT_EQ(spool.state("job"), service::RequestState::kPending);

  for (const service::RequestState state :
       {service::RequestState::kPending, service::RequestState::kRunning,
        service::RequestState::kDone, service::RequestState::kFailed,
        service::RequestState::kQuarantined, service::RequestState::kRejected}) {
    spool.set_state("job", state);
    EXPECT_EQ(spool.state("job"), state);
    service::RequestState parsed;
    EXPECT_TRUE(
        service::request_state_from_string(service::to_string(state), &parsed));
    EXPECT_EQ(parsed, state);
  }

  spool.set_state("job", service::RequestState::kFailed, "cell 3 exploded");
  EXPECT_EQ(spool.error("job"), "cell 3 exploded");
  spool.set_state("job", service::RequestState::kDone);  // Clears the error.
  EXPECT_EQ(spool.error("job"), "");

  // A corrupted state word is a loud error, not a silent default.
  write_file_durable(spool.request_dir("job") + "/state", "exploded\n");
  EXPECT_THROW(spool.state("job"), std::runtime_error);
}

TEST(Spool, AdmissionFaultsNeverLeaveTheReplacedRunsStateWord) {
  // Resubmitting a finished id: wherever admission faults, either the
  // queue file is still in place (the next scan retries it) or the state
  // reads pending, so the new request runs instead of inheriting `done`.
  const std::string root = temp_path("spool");
  for (const char* site : {"service.state", "fileio.fsync"}) {
    int throws = 0;
    for (int k = 1; k <= 4; ++k) {
      const std::string rule = std::string(site) + "=err@" + std::to_string(k);
      remove_tree(root);
      service::Spool spool(root);
      service::Spool::enqueue(root, "job", R"({"grid": "quick", "accesses": 200})");
      spool.admit("job");
      spool.set_state("job", service::RequestState::kDone);
      service::Spool::enqueue(root, "job", R"({"grid": "quick", "accesses": 300})");
      try {
        failpoint::Scoped guard(rule);
        spool.admit("job");
      } catch (const std::runtime_error& e) {
        ++throws;
        EXPECT_TRUE(exists(spool.queue_path("job")) ||
                    spool.state("job") == service::RequestState::kPending)
            << rule << ": " << e.what();
      }
      if (exists(spool.queue_path("job"))) spool.admit("job");  // Next scan.
      EXPECT_EQ(spool.state("job"), service::RequestState::kPending) << rule;
      EXPECT_NE(read_file(spool.request_json("job")).find("300"),
                std::string::npos)
          << rule;
    }
    if (std::string(site) == "fileio.fsync") EXPECT_GT(throws, 0);
  }
}

TEST(Spool, FailpointsCoverScanStateAndHealth) {
  const std::string root = temp_path("spool");
  remove_tree(root);
  service::Spool spool(root);
  service::Spool::enqueue(root, "job", "{\"grid\": \"quick\"}");
  spool.admit("job");

  failpoint::configure("service.scan=err@1:1");
  EXPECT_THROW(spool.queued(), std::runtime_error);
  EXPECT_EQ(spool.queued().size(), 0u);  // Fault consumed; scan heals.

  failpoint::configure("service.state=err@1:1");
  EXPECT_THROW(spool.set_state("job", service::RequestState::kRunning),
               std::runtime_error);
  EXPECT_EQ(spool.state("job"), service::RequestState::kPending);  // Unchanged.
  spool.set_state("job", service::RequestState::kRunning);

  failpoint::configure("service.health=err@1:1");
  EXPECT_THROW(spool.write_health("{}\n"), std::runtime_error);
  spool.write_health("{\"ok\": true}\n");
  EXPECT_EQ(read_file(spool.health_path()), "{\"ok\": true}\n");
  failpoint::configure("");
}

// ---------------------------------------------------- scheduling helpers ----

TEST(RetryBackoff, DeterministicJitterWithinRange) {
  EXPECT_EQ(runner::retry_backoff_ms(0, 3, 17), 0u);  // No budget, no wait.
  EXPECT_EQ(runner::retry_backoff_ms(100, 0, 17), 0u);
  for (std::uint32_t attempt = 1; attempt <= 4; ++attempt) {
    for (std::uint64_t job = 0; job < 8; ++job) {
      const std::uint64_t delay = runner::retry_backoff_ms(100, attempt, job);
      const std::uint64_t base = 100ull << (attempt - 1);
      EXPECT_GE(delay, base);
      EXPECT_LE(delay, base + 50);  // Jitter bounded by base_ms / 2.
      EXPECT_EQ(delay, runner::retry_backoff_ms(100, attempt, job));
    }
  }
  // The jitter depends on the job coordinate: simultaneous failures spread.
  std::set<std::uint64_t> delays;
  for (std::uint64_t job = 0; job < 32; ++job) {
    delays.insert(runner::retry_backoff_ms(100, 1, job));
  }
  EXPECT_GT(delays.size(), 1u);
}

// ----------------------------------------------- drain and pool sharing ----

SystemConfig tiny_config() {
  SystemConfig config;
  config.num_cores = 4;
  config.mesh_width = 2;
  config.mesh_height = 2;
  config.l1i = CacheConfig{4 * kLineBytes, 2, ticks_from_ns(1.0)};
  config.l1d = CacheConfig{4 * kLineBytes, 2, ticks_from_ns(1.0)};
  config.l2 = CacheConfig{16 * kLineBytes, 2, ticks_from_ns(1.0)};
  config.probe_filter_coverage_bytes = 32 * kLineBytes;
  return config;
}

workload::WorkloadSpec tiny_workload(const std::string& name,
                                     const SystemConfig& config,
                                     std::uint64_t accesses) {
  workload::ProfileParams params;
  params.name = name;
  params.hot_bytes = 8 * 1024;
  params.cold_bytes = 8 * 1024;
  params.kernel_bytes = 32 * 1024;
  params.shared_bytes = 16 * 1024;
  params.pattern = name == "alpha" ? workload::SharedPattern::kUniform
                                   : workload::SharedPattern::kZipf;
  return workload::make_from_params(params, config, accesses, 4);
}

runner::SweepSpec tiny_spec() {
  runner::SweepSpec spec;
  spec.name = "tiny";
  spec.workloads = {"alpha", "beta"};
  spec.configs = {{"small", tiny_config()}};
  spec.modes = {DirectoryMode::kBaseline, DirectoryMode::kAllarm};
  spec.replicates = 2;
  spec.base_seed = 7;
  spec.accesses_per_thread = 200;
  spec.make_workload = tiny_workload;
  return spec;
}

std::string stream_json(const runner::SweepSpec& spec, std::uint32_t jobs,
                        const runner::StreamOptions& options = {},
                        runner::StreamStats* stats_out = nullptr) {
  std::ostringstream out;
  runner::JsonStreamSink sink(out);
  const runner::StreamStats stats =
      runner::SweepRunner(jobs).run_streaming(spec, sink, options);
  if (stats_out != nullptr) *stats_out = stats;
  return out.str();
}

TEST(ServiceDrain, StopCheckpointsAndResumeIsByteIdentical) {
  const auto spec = tiny_spec();
  const std::string journal = temp_path("journal.bin");
  std::remove(journal.c_str());
  std::remove(runner::journal_data_path(journal).c_str());
  const std::string reference = stream_json(spec, 2);

  // Stop raised before the run starts: the drain path exercises in full —
  // nothing new issues, anything in flight lands in the journal, no
  // report is emitted (the sink never sees end()).
  std::atomic<bool> stop{true};
  runner::StreamOptions options;
  options.journal_path = journal;
  options.stop = &stop;
  runner::StreamStats stats;
  stream_json(spec, 2, options, &stats);
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.jobs_executed + stats.jobs_resumed, 0u);

  // The resumed run completes and matches an uninterrupted run's bytes.
  stop.store(false);
  const std::string resumed = stream_json(spec, 2, options, &stats);
  EXPECT_FALSE(stats.drained);
  EXPECT_EQ(stats.jobs_executed + stats.jobs_resumed, spec.job_count());
  EXPECT_EQ(resumed, reference);
}

TEST(ServicePool, ConcurrentSweepsShareOneThreadPool) {
  // The service's multiplexing contract: several run_streaming calls on
  // one shared pool produce exactly the bytes each produces alone.
  const auto spec_a = tiny_spec();
  auto spec_b = tiny_spec();
  spec_b.base_seed = 1234;
  const std::string ref_a = stream_json(spec_a, 2);
  const std::string ref_b = stream_json(spec_b, 2);

  runner::ThreadPool pool(2);
  runner::StreamOptions options;
  options.pool = &pool;
  std::string got_a;
  std::string got_b;
  std::thread ta([&] { got_a = stream_json(spec_a, 2, options); });
  std::thread tb([&] { got_b = stream_json(spec_b, 2, options); });
  ta.join();
  tb.join();
  EXPECT_EQ(got_a, ref_a);
  EXPECT_EQ(got_b, ref_b);
}

// --------------------------------------------------- service end-to-end ----

TEST(Service, RunsQueuedRequestToDoneWithCliIdenticalReport) {
  const std::string root = temp_path("spool");
  remove_tree(root);
  service::Spool::enqueue(root, "demo",
                          R"({"grid": "quick", "seeds": 1, "csv": true})");

  service::ServiceConfig config;
  config.root = root;
  config.workers = 2;
  config.poll_ms = 20;
  config.exit_when_idle = true;
  std::atomic<bool> stop{false};
  EXPECT_EQ(service::Service(config).run(stop), 0);

  service::Spool spool(root);
  EXPECT_EQ(spool.state("demo"), service::RequestState::kDone);
  EXPECT_TRUE(spool.queued().empty());

  // The committed report is byte-identical to the CLI path: same grid,
  // same knobs, same streaming fold.
  const service::Request request =
      service::parse_request(read_file(spool.request_json("demo")));
  const std::string direct = stream_json(service::spec_of(request), 2);
  EXPECT_EQ(read_file(spool.report_json("demo")), direct);
  EXPECT_FALSE(read_file(spool.report_csv("demo")).empty());
  EXPECT_NE(read_file(spool.health_path()).find("\"done\":1"),
            std::string::npos);
}

TEST(Service, PollOpensDoNotGrowWithFinishedRequests) {
  // Each request's state is read once, at start-up; after that a poll's
  // file opens do not depend on history.  Far-future rules only count:
  // fileio.open sees every File opened and service.health every poll (one
  // heartbeat each).
  const std::string root = temp_path("spool");
  remove_tree(root);
  constexpr std::uint64_t kFinished = 400;
  {
    service::Spool spool(root);
    for (std::uint64_t i = 0; i < kFinished; ++i) {
      const std::string id = "old" + std::to_string(i);
      ASSERT_EQ(::mkdir(spool.request_dir(id).c_str(), 0755), 0);
      std::ofstream(spool.request_json(id)) << R"({"grid": "quick"})";
      std::ofstream(spool.request_dir(id) + "/state") << "done\n";
    }
  }
  service::Spool::enqueue(root, "new", R"({"grid": "quick", "accesses": 300})");

  service::ServiceConfig config;
  config.root = root;
  config.workers = 2;
  config.poll_ms = 1;
  config.exit_when_idle = true;
  std::atomic<bool> stop{false};
  std::uint64_t opens = 0;
  std::uint64_t polls = 0;
  {
    failpoint::Scoped guard(
        "fileio.open=err@1000000000;service.health=err@1000000000");
    EXPECT_EQ(service::Service(config).run(stop), 0);
    opens = failpoint::hits("fileio.open");
    polls = failpoint::hits("service.health");
  }
  EXPECT_GT(polls, 0u);
  EXPECT_LE(opens, kFinished + 4 * polls + 64)
      << opens << " opens over " << polls << " polls";
  EXPECT_EQ(service::Spool(root).state("new"), service::RequestState::kDone);
}

TEST(Service, UnreadableStateWordIsSkippedNamedAndDegradesTheExit) {
  const std::string root = temp_path("spool");
  remove_tree(root);
  {
    service::Spool spool(root);
    ASSERT_EQ(::mkdir(spool.request_dir("broken").c_str(), 0755), 0);
    write_file_durable(spool.request_json("broken"), R"({"grid": "quick"})");
    write_file_durable(spool.request_dir("broken") + "/state", "garbage\n");
  }
  service::Spool::enqueue(root, "good", R"({"grid": "quick", "accesses": 300})");

  service::ServiceConfig config;
  config.root = root;
  config.workers = 2;
  config.poll_ms = 20;
  config.exit_when_idle = true;
  std::atomic<bool> stop{false};
  EXPECT_EQ(service::Service(config).run(stop), 3);

  service::Spool spool(root);
  EXPECT_EQ(spool.state("good"), service::RequestState::kDone);
  EXPECT_THROW(spool.state("broken"), std::runtime_error);  // Left as found.
  const service::JsonValue health =
      service::parse_json(read_file(spool.health_path()));
  const std::string last_error = health.find("last_error")->string;
  EXPECT_EQ(last_error.rfind("broken: ", 0), 0u) << last_error;
  EXPECT_NE(last_error.find("garbage"), std::string::npos) << last_error;
  const service::JsonValue& requests = *health.find("requests");
  ASSERT_EQ(requests.object.size(), 1u);
  EXPECT_EQ(requests.find("done")->as_u64("done"), 1u);
}

TEST(Service, AdmissionFaultAfterTheCommitRenameStillRunsTheRequest) {
  // fsync #2 is admission's directory sync right after its commit rename:
  // the request is accepted, so intake loads it and it runs at once.
  const std::string root = temp_path("spool");
  remove_tree(root);
  service::Spool::enqueue(root, "late", R"({"grid": "quick", "accesses": 300})");

  service::ServiceConfig config;
  config.root = root;
  config.workers = 2;
  config.poll_ms = 20;
  config.exit_when_idle = true;
  std::atomic<bool> stop{false};
  {
    failpoint::Scoped guard("fileio.fsync=err@2");
    EXPECT_EQ(service::Service(config).run(stop), 0);
  }
  service::Spool spool(root);
  EXPECT_TRUE(spool.queued().empty());
  EXPECT_EQ(spool.state("late"), service::RequestState::kDone);
}

TEST(Service, FailedTerminalStateWriteIsRetriedNextPoll) {
  // State writes 1 and 2 are the two `running` words; the third is the
  // first terminal word, which fails once.  The service keeps that run for
  // the next poll instead of aborting with the other driver still live.
  const std::string root = temp_path("spool");
  remove_tree(root);
  service::Spool::enqueue(root, "a", R"({"grid": "quick", "accesses": 300})");
  service::Spool::enqueue(root, "b", R"({"grid": "quick", "accesses": 3000})");

  service::ServiceConfig config;
  config.root = root;
  config.workers = 2;
  config.max_active = 2;
  config.poll_ms = 1;
  config.exit_when_idle = true;
  std::atomic<bool> stop{false};
  {
    failpoint::Scoped guard("service.state=err@3");
    EXPECT_EQ(service::Service(config).run(stop), 0);
  }

  service::Spool spool(root);
  for (const char* id : {"a", "b"}) {
    EXPECT_EQ(spool.state(id), service::RequestState::kDone) << id;
    const service::Request request =
        service::parse_request(read_file(spool.request_json(id)));
    EXPECT_EQ(read_file(spool.report_json(id)),
              stream_json(service::spec_of(request), 2))
        << id;
  }
  const service::JsonValue health =
      service::parse_json(read_file(spool.health_path()));
  const service::JsonValue& totals = *health.find("totals");
  EXPECT_EQ(totals.find("jobs_executed")->as_u64("jobs_executed"), 8u);
  EXPECT_EQ(totals.find("requests_finished")->as_u64("requests_finished"),
            2u);
  // Whichever run finished first met the fault: last_error names it and
  // the state file whose write failed.
  const std::string last_error = health.find("last_error")->string;
  const std::string id = last_error.substr(0, last_error.find(':'));
  EXPECT_TRUE(id == "a" || id == "b") << last_error;
  EXPECT_NE(last_error.find(spool.request_dir(id) + "/state"),
            std::string::npos)
      << last_error;
}

TEST(Service, JobsPerSecondGaugeNeverWrapsAfterAResumedRequest) {
  // A resubmitted, unchanged request resumes every job from its journal.
  // Its 24 jobs outnumber the admission window of 16, so the run folds
  // between payload reads, and each read sleeps 20 ms: polls sample its
  // progress mid-run.  Once it is reaped, the gauge's count must not fall
  // below those samples.
  const std::string root = temp_path("spool");
  remove_tree(root);
  const std::string request = R"({"grid": "quick", "seeds": 6, "accesses": 300})";
  service::ServiceConfig config;
  config.root = root;
  config.workers = 2;
  config.poll_ms = 1;
  config.exit_when_idle = true;
  std::atomic<bool> stop{false};
  service::Spool::enqueue(root, "r", request);
  ASSERT_EQ(service::Service(config).run(stop), 0);
  service::Spool spool(root);
  const std::string first = read_file(spool.report_json("r"));

  service::Spool::enqueue(root, "r", request);
  {
    failpoint::Scoped guard("journal.read_payload=delay.20@1:0");
    ASSERT_EQ(service::Service(config).run(stop), 0);
    ASSERT_GT(failpoint::hits("journal.read_payload"), 0u);
  }
  EXPECT_EQ(spool.state("r"), service::RequestState::kDone);
  EXPECT_EQ(read_file(spool.report_json("r")), first);

  const service::JsonValue health =
      service::parse_json(read_file(spool.health_path()));
  const double rate = health.find("jobs_per_s")->number;
  EXPECT_TRUE(std::isfinite(rate) && rate >= 0.0 && rate < 1e6) << rate;
  const std::string metrics = read_file(spool.metrics_path());
  const std::string key = "\nallarm_jobs_per_second ";
  const std::size_t at = metrics.find(key);
  ASSERT_NE(at, std::string::npos) << metrics;
  const double gauge = std::strtod(metrics.c_str() + at + key.size(), nullptr);
  EXPECT_TRUE(std::isfinite(gauge) && gauge >= 0.0 && gauge < 1e6) << gauge;
}

TEST(Service, RejectsMalformedRequestAndExitsDegraded) {
  const std::string root = temp_path("spool");
  remove_tree(root);
  service::Spool::enqueue(root, "bad", R"({"grid": "quick", "seedz": 2})");

  service::ServiceConfig config;
  config.root = root;
  config.poll_ms = 20;
  config.exit_when_idle = true;
  std::atomic<bool> stop{false};
  EXPECT_EQ(service::Service(config).run(stop), 3);

  service::Spool spool(root);
  EXPECT_EQ(spool.state("bad"), service::RequestState::kRejected);
  EXPECT_NE(spool.error("bad").find("seedz"), std::string::npos);
}

}  // namespace
}  // namespace allarm

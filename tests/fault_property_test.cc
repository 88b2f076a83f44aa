// The fault-schedule property: under ANY injected fault, a streaming
// sweep either completes with a byte-identical report (the fault was
// absorbed — retried, EINTR'd, delayed, or scheduled past the run) or
// fails loudly and a clean rerun on its journal reproduces the reference
// bytes.
// Plus targeted checks of the self-healing knobs: retry/backoff heals
// transient faults, quarantine converts permanent failures into
// structured `failed` records, and the per-cell watchdog fires without
// perturbing a healthy run's bytes.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>

#include "common/failpoint.hh"
#include "common/fileio.hh"
#include "core/experiment.hh"
#include "runner/journal.hh"
#include "runner/report.hh"
#include "runner/sink.hh"
#include "runner/sweep.hh"
#include "workload/profiles.hh"

namespace allarm {
namespace {

std::string temp_path(const std::string& stem) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + std::string(info->test_suite_name()) + "_" +
         info->name() + "_" + stem;
}

void remove_journal(const std::string& path) {
  std::remove(path.c_str());
  std::remove(runner::journal_data_path(path).c_str());
}

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

class FaultProperty : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::clear(); }
};

// ----------------------------------------------- the randomized property ----

TEST_F(FaultProperty, EveryScheduleCompletesIdenticalOrResumesToReference) {
  const auto spec = tiny_spec();  // 8 jobs.
  const std::string reference = stream_json(spec, 1);

  // The schedule pool: every fault site the sweep path crosses, with the
  // actions each can express.  Ordinals for fileio.pwrite and fileio.fsync
  // start past the journal's creation; journal_test's
  // Streaming.FaultWhileCreatingTheJournalLeavesItResumable covers that.
  struct Site {
    const char* name;
    const char* actions[3];
    std::uint64_t min_at;
  };
  const Site sites[] = {
      {"journal.append", {"err", "delay", nullptr}, 1},
      {"journal.fsync", {"err", "delay", nullptr}, 1},
      {"fileio.pwrite", {"err", "torn", "short"}, 4},
      {"fileio.fsync", {"err", "delay", nullptr}, 4},
      {"sink.write", {"err", "delay", nullptr}, 1},
      {"cell.attempt", {"err", "delay", nullptr}, 1},
  };

  std::mt19937 rng(20260808);
  for (int trial = 0; trial < 14; ++trial) {
    const Site& site = sites[rng() % (sizeof(sites) / sizeof(sites[0]))];
    std::size_t action_count = 0;
    while (action_count < 3 && site.actions[action_count] != nullptr) {
      ++action_count;
    }
    const char* action = site.actions[rng() % action_count];
    const std::uint64_t at = site.min_at + rng() % 24;
    const std::string schedule = std::string(site.name) + "=" + action + "@" +
                                 std::to_string(at);

    const std::string journal = temp_path("trial" + std::to_string(trial));
    remove_journal(journal);
    runner::StreamOptions options;
    options.journal_path = journal;

    std::ostringstream out;
    runner::JsonStreamSink sink(out);
    bool failed = false;
    std::string error;
    {
      failpoint::Scoped guard(schedule);
      try {
        runner::SweepRunner(1).run_streaming(spec, sink, options);
      } catch (const std::exception& e) {
        failed = true;
        error = e.what();
      }
    }
    if (!failed) {
      // The fault was absorbed (or scheduled past the run's polls): not a
      // single output byte may differ.
      EXPECT_EQ(out.str(), reference) << "schedule " << schedule;
    } else {
      // Loud failure: the error names the injection, and a clean resume
      // reproduces the reference exactly.
      EXPECT_NE(error.find("injected fault"), std::string::npos)
          << "schedule " << schedule << " failed with: " << error;
      runner::StreamStats stats;
      EXPECT_EQ(stream_json(spec, 1, options, &stats), reference)
          << "schedule " << schedule << " (failed with: " << error << ")";
      EXPECT_EQ(stats.jobs_resumed + stats.jobs_executed, spec.job_count());
    }
    remove_journal(journal);
  }
}

TEST_F(FaultProperty, DelayRulesProceedAtEveryWholeOperationSite) {
  // `delay` sleeps and proceeds wherever it is scheduled: a journaled run
  // under it is byte-identical, and a delayed payload read still resumes.
  const auto spec = tiny_spec();
  const std::string reference = stream_json(spec, 1);
  const std::string journal = temp_path("journal");
  runner::StreamOptions options;
  options.journal_path = journal;
  for (const char* rule : {"journal.append=delay.1@1", "journal.fsync=delay.1@1",
                           "sink.write=delay.1@1"}) {
    remove_journal(journal);
    failpoint::Scoped guard(rule);
    try {
      EXPECT_EQ(stream_json(spec, 1, options), reference) << rule;
    } catch (const std::exception& e) {
      ADD_FAILURE() << rule << ": " << e.what();
    }
  }
  failpoint::Scoped guard("journal.read_payload=delay.1@1");
  runner::StreamStats stats;
  EXPECT_EQ(stream_json(spec, 1, options, &stats), reference);
  EXPECT_EQ(stats.jobs_executed, 0u);
  EXPECT_EQ(stats.jobs_resumed, spec.job_count());
  remove_journal(journal);
}

// -------------------------------------------------------- retry/backoff ----

TEST_F(FaultProperty, RetryHealsTransientFaultsByteIdentically) {
  const auto spec = tiny_spec();
  const std::string reference = stream_json(spec, 1);

  runner::StreamOptions options;
  options.cell_retries = 2;
  options.retry_backoff_ms = 0;  // No need to sleep in tests.

  failpoint::Scoped guard("cell.attempt=err@3");
  runner::StreamStats stats;
  EXPECT_EQ(stream_json(spec, 1, options, &stats), reference);
  EXPECT_EQ(stats.jobs_retried, 1u);
  EXPECT_EQ(stats.jobs_failed, 0u);
  EXPECT_EQ(stats.cells_failed, 0u);
}

TEST_F(FaultProperty, RetriesAreBoundedAndFailFastWithoutQuarantine) {
  const auto spec = tiny_spec();
  runner::StreamOptions options;
  options.cell_retries = 2;
  options.retry_backoff_ms = 0;

  // Job index 1 fails on every attempt: 1 + 2 retries, then abort.
  failpoint::Scoped guard("cell.job=err@1");
  std::ostringstream out;
  runner::JsonStreamSink sink(out);
  try {
    runner::SweepRunner(1).run_streaming(spec, sink, options);
    FAIL() << "permanently failing job did not abort the sweep";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cell.job"), std::string::npos)
        << e.what();
  }
  // Job 1 polled 3 times (1 attempt + 2 retries); neighbours poll too.
  EXPECT_GE(failpoint::hits("cell.job"), 3u);
}

// ------------------------------------------------------------ quarantine ----

TEST_F(FaultProperty, QuarantineEmitsStructuredFailureAndResumesToClean) {
  const auto spec = tiny_spec();
  const std::string reference = stream_json(spec, 1);
  const std::string journal = temp_path("journal");
  remove_journal(journal);

  runner::StreamOptions options;
  options.journal_path = journal;
  options.quarantine = true;
  options.cell_retries = 1;
  options.retry_backoff_ms = 0;

  runner::StreamStats stats;
  std::string degraded;
  {
    failpoint::Scoped guard("cell.job=err@2");
    degraded = stream_json(spec, 1, options, &stats);
  }
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_EQ(stats.jobs_retried, 1u);
  EXPECT_EQ(stats.cells_failed, 1u);
  EXPECT_EQ(stats.cells_emitted, spec.cell_count());  // The sweep finished.
  EXPECT_NE(degraded.find("\"failed\""), std::string::npos);
  EXPECT_NE(degraded.find("injected fault (failpoint cell.job)"),
            std::string::npos);
  EXPECT_NE(degraded.find("\"attempts\":2"), std::string::npos);
  EXPECT_NE(degraded, reference);

  // Resume re-runs exactly the quarantined job and recovers the reference.
  runner::StreamOptions resume;
  resume.journal_path = journal;
  runner::StreamStats resumed;
  EXPECT_EQ(stream_json(spec, 1, resume, &resumed), reference);
  EXPECT_EQ(resumed.jobs_executed, 1u);
  EXPECT_EQ(resumed.jobs_resumed, spec.job_count() - 1);
  EXPECT_EQ(resumed.jobs_failed, 0u);
  remove_journal(journal);
}

TEST_F(FaultProperty, QuarantinedShardsMergeAsDegradedNotMissing) {
  const auto spec = tiny_spec();
  const std::string j1 = temp_path("shard1");
  const std::string j2 = temp_path("shard2");
  remove_journal(j1);
  remove_journal(j2);

  runner::StreamOptions options;
  options.quarantine = true;
  options.journal_path = j1;
  options.shard = {1, 2};
  {
    failpoint::Scoped guard("cell.job=err@0:0");  // Every job this shard owns.
    stream_json(spec, 1, options);
  }
  options.journal_path = j2;
  options.shard = {2, 2};
  stream_json(spec, 1, options);  // Healthy shard.

  std::ostringstream merged;
  runner::JsonStreamSink sink(merged);
  const runner::StreamStats stats =
      runner::merge_journals(spec, {j1, j2}, sink);
  EXPECT_GT(stats.jobs_failed, 0u);
  EXPECT_GT(stats.cells_failed, 0u);
  EXPECT_EQ(stats.cells_emitted, spec.cell_count());
  EXPECT_NE(merged.str().find("\"failed\""), std::string::npos);
  remove_journal(j1);
  remove_journal(j2);
}

// -------------------------------------------------------------- watchdog ----

TEST_F(FaultProperty, TinyCellTimeoutQuarantinesWithWatchdogDiagnostic) {
  const auto spec = tiny_spec();
  runner::StreamOptions options;
  options.quarantine = true;
  options.cell_timeout_ns = 1;  // Every job blows the deadline immediately.

  runner::StreamStats stats;
  const std::string degraded = stream_json(spec, 1, options, &stats);
  EXPECT_EQ(stats.jobs_failed, spec.job_count());
  EXPECT_EQ(stats.cells_emitted, spec.cell_count());
  EXPECT_NE(degraded.find("no-progress watchdog"), std::string::npos);
  EXPECT_NE(degraded.find("deadline"), std::string::npos);
}

TEST_F(FaultProperty, GenerousCellTimeoutDoesNotPerturbAByte) {
  const auto spec = tiny_spec();
  const std::string reference = stream_json(spec, 1);
  runner::StreamOptions options;
  options.cell_timeout_ns = 300ull * 1000 * 1000 * 1000;  // 5 minutes.
  runner::StreamStats stats;
  EXPECT_EQ(stream_json(spec, 2, options, &stats), reference);
  EXPECT_EQ(stats.jobs_failed, 0u);
}

}  // namespace
}  // namespace allarm

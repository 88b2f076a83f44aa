// Tests for the parallel sweep runner: per-cell seed derivation, the
// work-stealing pool, scheduling-independent sweep output, and the
// ALLARM_JOBS environment handling the sweep CLI and service rely on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>

#include "core/experiment.hh"
#include "runner/job.hh"
#include "runner/report.hh"
#include "runner/sweep.hh"
#include "runner/thread_pool.hh"
#include "workload/profiles.hh"

namespace allarm {
namespace {

// ------------------------------------------------------------- job seeds ----

TEST(JobSeed, DeterministicAndCoordinateSensitive) {
  EXPECT_EQ(runner::job_seed(42, 3, 1), runner::job_seed(42, 3, 1));
  EXPECT_NE(runner::job_seed(42, 3, 1), runner::job_seed(42, 4, 1));
  EXPECT_NE(runner::job_seed(42, 3, 1), runner::job_seed(42, 3, 2));
  EXPECT_NE(runner::job_seed(42, 3, 1), runner::job_seed(43, 3, 1));
}

TEST(JobSeed, DistinctAcrossAGrid) {
  std::set<std::uint64_t> seeds;
  for (std::uint32_t w = 0; w < 16; ++w) {
    for (std::uint32_t r = 0; r < 8; ++r) {
      seeds.insert(runner::job_seed(42, w, r));
    }
  }
  EXPECT_EQ(seeds.size(), 16u * 8u);
}

TEST(JobSeed, NeverZero) {
  // xoshiro cannot leave the all-zero state; the derivation guards it.
  for (std::uint64_t base : {0ull, 1ull, 42ull}) {
    EXPECT_NE(runner::job_seed(base, 0, 0), 0u);
  }
}

// ----------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsEveryTaskAndIsReusable) {
  runner::ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);

  for (int i = 0; i < 50; ++i) pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 150);
}

TEST(ThreadPool, ZeroWorkersClampsToOne) {
  runner::ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  runner::ThreadPool pool(2);
  pool.wait_idle();  // Nothing submitted; must not hang.
}

TEST(ThreadPool, RejectsEmptyTasks) {
  runner::ThreadPool pool(1);
  EXPECT_THROW(pool.submit(runner::ThreadPool::Task{}), std::invalid_argument);
  pool.wait_idle();  // The rejected task must not wedge the pool.
}

TEST(ThreadPool, PropagatesTheFirstWorkerExceptionFromWaitIdle) {
  // A throwing task must surface at wait_idle() — never std::terminate,
  // never silently swallowed.
  runner::ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&count, i] {
      ++count;
      if (i == 7) throw std::runtime_error("task 7 exploded");
    });
  }
  try {
    pool.wait_idle();
    FAIL() << "worker exception was not rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7 exploded");
  }
  EXPECT_EQ(count.load(), 20);  // The failure did not cancel other tasks.

  // The error slot is consumed: the pool keeps working afterwards.
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 21);
}

TEST(ThreadPool, KeepsOnlyTheFirstOfManyErrors) {
  runner::ThreadPool pool(1);  // One worker: deterministic error order.
  for (int i = 0; i < 3; ++i) {
    pool.submit([i] { throw std::runtime_error("error " + std::to_string(i)); });
  }
  try {
    pool.wait_idle();
    FAIL() << "worker exceptions were not rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "error 0");
  }
}

TEST(ThreadPool, NestedPoolsDrainIndependently) {
  // Sweep-pool workers each driving a pool of their own: waiting on the
  // inner pool from an outer worker must not deadlock, and every subtask
  // must run.
  runner::ThreadPool outer(2);
  std::atomic<int> subtasks{0};
  for (int job = 0; job < 4; ++job) {
    outer.submit([&subtasks] {
      runner::ThreadPool inner(2);
      for (int i = 0; i < 3; ++i) inner.submit([&subtasks] { ++subtasks; });
      inner.wait_idle();
    });
  }
  outer.wait_idle();
  EXPECT_EQ(subtasks.load(), 12);
}

TEST(ThreadPool, SharedInnerPoolUnderOuterContention) {
  // Several outer workers submitting to ONE shared inner pool: counts must
  // come out exact and wait_idle on the outer pool must observe all inner
  // completions that its own tasks waited for.
  runner::ThreadPool outer(3);
  runner::ThreadPool shared_inner(2);
  std::atomic<int> done{0};
  std::mutex inner_wait;  // wait_idle is pool-global; serialize the waiters.
  for (int job = 0; job < 6; ++job) {
    outer.submit([&shared_inner, &done, &inner_wait] {
      std::lock_guard<std::mutex> lock(inner_wait);
      for (int i = 0; i < 4; ++i) shared_inner.submit([&done] { ++done; });
      shared_inner.wait_idle();
    });
  }
  outer.wait_idle();
  EXPECT_EQ(done.load(), 24);
}

TEST(ThreadPool, NestedExceptionPropagatesThroughBothPools) {
  // An inner-pool failure surfaces at the inner wait_idle (inside the outer
  // task), leaks from that task, and resurfaces at the OUTER wait_idle.
  runner::ThreadPool outer(2);
  outer.submit([] {
    runner::ThreadPool inner(2);
    inner.submit([] { throw std::runtime_error("inner task failed"); });
    inner.wait_idle();  // Rethrows; escapes this outer task.
  });
  try {
    outer.wait_idle();
    FAIL() << "nested exception was not rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "inner task failed");
  }
}

// ------------------------------------------------------------ sweep grid ----

/// A 4-node machine with shrunken caches: big enough to exercise the
/// protocol, small enough that a sweep of tiny workloads runs in
/// milliseconds.
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

/// Two synthetic micro-profiles ("alpha", "beta") on 4 threads.
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

TEST(SweepRunner, ExpandsJobsInGridOrderWithPositionalSeeds) {
  const auto spec = tiny_spec();
  const auto jobs = runner::expand_jobs(spec);
  ASSERT_EQ(jobs.size(), spec.job_count());
  ASSERT_EQ(jobs.size(), 2u * 1u * 2u * 2u);

  std::size_t i = 0;
  for (std::uint32_t w = 0; w < 2; ++w) {
    for (std::uint32_t m = 0; m < 2; ++m) {
      for (std::uint32_t r = 0; r < 2; ++r, ++i) {
        EXPECT_EQ(jobs[i].coord.workload, w);
        EXPECT_EQ(jobs[i].coord.mode, m);
        EXPECT_EQ(jobs[i].coord.replicate, r);
        // Seeds depend only on (workload, replicate): the same workload
        // stream replays on every machine variant being compared.
        EXPECT_EQ(jobs[i].request.seed,
                  runner::job_seed(spec.base_seed, w, r));
      }
    }
  }
}

TEST(SweepRunner, OutputIsIdenticalAtAnyJobCount) {
  const auto spec = tiny_spec();
  const auto serial = runner::SweepRunner(1).run(spec);
  const auto parallel = runner::SweepRunner(8).run(spec);
  EXPECT_EQ(runner::to_json(serial), runner::to_json(parallel));
  EXPECT_EQ(runner::to_csv(serial), runner::to_csv(parallel));

  // And across repeated runs at a third worker count.
  const auto again = runner::SweepRunner(3).run(spec);
  EXPECT_EQ(runner::to_json(serial), runner::to_json(again));
}

TEST(SweepRunner, AggregatesReplicatesPerCell) {
  const auto spec = tiny_spec();
  const auto result = runner::SweepRunner(4).run(spec);
  ASSERT_EQ(result.cells.size(), 4u);  // 2 workloads x 1 config x 2 modes.
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.runs.size(), 2u);
    EXPECT_EQ(cell.seeds.size(), 2u);
    EXPECT_EQ(cell.runtime.count, 2u);
    EXPECT_GT(cell.runtime.mean, 0.0);
    EXPECT_GE(cell.runtime.max, cell.runtime.min);
    EXPECT_FALSE(cell.stats.empty());
    for (const auto& [name, summary] : cell.stats) {
      EXPECT_EQ(summary.count, 2u) << name;
    }
  }
  // Baseline and ALLARM cells of one workload ran the same seeds.
  const auto* base = result.find("alpha", "small", DirectoryMode::kBaseline);
  const auto* allarm = result.find("alpha", "small", DirectoryMode::kAllarm);
  ASSERT_NE(base, nullptr);
  ASSERT_NE(allarm, nullptr);
  EXPECT_EQ(base->seeds, allarm->seeds);
}

TEST(SweepRunner, RejectsEmptyAxes) {
  auto spec = tiny_spec();
  spec.modes.clear();
  EXPECT_THROW(runner::SweepRunner(1).run(spec), std::invalid_argument);
}

// ---------------------------------------------------------------- report ----

TEST(Report, JsonIsWellFormedEnoughToSpotCheck) {
  const auto result = runner::SweepRunner(2).run(tiny_spec());
  const std::string json = runner::to_json(result);
  EXPECT_NE(json.find("\"sweep\": \"tiny\""), std::string::npos);
  EXPECT_NE(json.find("\"workload\": \"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"allarm\""), std::string::npos);
  EXPECT_NE(json.find("\"runtime\""), std::string::npos);
  // Execution metadata must not leak into the report.
  EXPECT_EQ(json.find("jobs"), std::string::npos);
  EXPECT_EQ(json.find("wall"), std::string::npos);

  const std::string csv = runner::to_csv(result);
  EXPECT_NE(csv.find("sweep,workload,config,mode,metric,count,mean,stddev,"
                     "min,max"),
            std::string::npos);
  EXPECT_NE(csv.find("tiny,alpha,small,baseline,runtime,"), std::string::npos);
}

// ----------------------------------------------------- summary + numbers ----

TEST(Summary, WelfordMatchesClosedForm) {
  const Summary s = summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_NEAR(s.stddev(), 2.138089935, 1e-9);  // Sample stddev.
}

TEST(Summary, FewerThanTwoValues) {
  Summary s;
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  s.add(3.5);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.min, 3.5);
  EXPECT_DOUBLE_EQ(s.max, 3.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(JsonHelpers, NumbersAndStrings) {
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(-3.0), "-3");
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

// ----------------------------------------------------------- ALLARM_JOBS ----

class BenchJobsEnv : public ::testing::Test {
 protected:
  void SetUp() override { unsetenv("ALLARM_JOBS"); }
  void TearDown() override { unsetenv("ALLARM_JOBS"); }
};

TEST_F(BenchJobsEnv, ReadsEnvironmentVariable) {
  setenv("ALLARM_JOBS", "5", 1);
  EXPECT_EQ(core::bench_jobs(), 5u);
  EXPECT_EQ(core::bench_jobs(3), 5u);  // Env wins over the fallback.
}

TEST_F(BenchJobsEnv, FallsBackWhenUnsetOrInvalid) {
  EXPECT_EQ(core::bench_jobs(3), 3u);
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(core::bench_jobs(), hw > 0 ? hw : 1u);

  setenv("ALLARM_JOBS", "0", 1);
  EXPECT_EQ(core::bench_jobs(3), 3u);
  setenv("ALLARM_JOBS", "not-a-number", 1);
  EXPECT_EQ(core::bench_jobs(3), 3u);
}

TEST_F(BenchJobsEnv, SweepRunnerConsumesIt) {
  setenv("ALLARM_JOBS", "2", 1);
  EXPECT_EQ(runner::SweepRunner().jobs(), 2u);
  EXPECT_EQ(runner::SweepRunner(6).jobs(), 6u);  // Explicit wins.
}

}  // namespace
}  // namespace allarm

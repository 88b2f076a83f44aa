// Unit and integration tests for trace-file workloads: the text format
// (trace::TextTraceScanner's grammar, streamed through the binary .altr
// subsystem by trace::load_trace_workload) and capture/replay round trips
// through core::run_request.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fileio.hh"
#include "core/experiment.hh"
#include "test_util.hh"
#include "trace/convert.hh"
#include "trace/reader.hh"
#include "workload/profiles.hh"

namespace allarm::workload {
namespace {

std::vector<trace::TextRecord> scan(const std::string& text) {
  std::istringstream in(text);
  trace::TextTraceScanner scanner(in);
  std::vector<trace::TextRecord> records;
  trace::TextRecord record;
  while (scanner.next(record)) records.push_back(record);
  return records;
}

/// load_trace_workload over `text` written to a temp file.
WorkloadSpec load_text(const std::string& text, const SystemConfig& config) {
  const std::string path = testing::TempDir() + "/allarm_trace_text.txt";
  {
    std::ofstream out(path);
    out << text;
  }
  struct Cleanup {
    std::string path;
    ~Cleanup() { std::remove(path.c_str()); }
  } cleanup{path};
  return trace::load_trace_workload(path, config);
}

TEST(TraceParse, ParsesWellFormedLines) {
  const auto records = scan(
      "# a comment\n"
      "0 L 40000000\n"
      "1 S 0x40000040\n"
      "\n"
      "0 I deadbeef  # trailing comment\n"
      "4294967295\tL\t0XFFFFFFFFFFFFFFFF\r\n");
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].thread, 0u);
  EXPECT_EQ(records[0].access.type, AccessType::kLoad);
  EXPECT_EQ(records[0].access.vaddr, 0x40000000u);
  EXPECT_EQ(records[1].access.type, AccessType::kStore);
  EXPECT_EQ(records[1].access.vaddr, 0x40000040u);
  EXPECT_EQ(records[2].access.type, AccessType::kInstFetch);
  EXPECT_EQ(records[2].access.vaddr, 0xdeadbeefu);
  EXPECT_EQ(records[3].thread, 4294967295u);
  EXPECT_EQ(records[3].access.vaddr, ~std::uint64_t{0});
}

TEST(TraceParse, AcceptsLowercaseTypes) {
  EXPECT_EQ(scan("0 l 10\n0 s 20\n0 i 30\n").size(), 3u);
}

/// A malformed line after one good line: the scanner must throw and name
/// line 2, never skip the line or read part of it.
class TraceParseRejects : public testing::TestWithParam<const char*> {};

TEST_P(TraceParseRejects, MalformedLine) {
  try {
    scan(std::string("0 L 1000\n") + GetParam() + "\n");
    FAIL() << "accepted '" << GetParam() << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trace line 2"), std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    BadLines, TraceParseRejects,
    testing::Values("0 X 40000000",       // Unknown type.
                    "0 L",                // Missing address.
                    "0 L zzz",            // Address not hex.
                    "T2 L 3000",          // Thread id not a number.
                    "0 L 4000zz",         // Trailing garbage in address.
                    "1 Lx 5000",          // Type longer than one letter.
                    "1 L 5000 extra",     // Extra field.
                    "1 Lx 5000 extra",    // Both of the above.
                    "0 L -1",             // Signed address.
                    "-1 L 1000",          // Signed thread id.
                    "0 L 0x",             // Prefix without digits.
                    "0 L 10000000000000000",  // Address over 64 bits.
                    "4294967296 L 1000"));    // Thread id over 32 bits.

TEST(TraceParse, RoundTripsThroughTraceCat) {
  // write_text_trace is `trace cat`: its output must scan back to exactly
  // the records the .altr holds.
  const std::string path = testing::TempDir() + "/allarm_trace_cat.altr";
  {
    trace::TraceWriter writer(path);
    for (const ThreadId id : {0u, 3u}) {
      trace::TraceThreadMeta meta;
      meta.id = id;
      writer.add_thread(meta);
    }
    writer.record(0, {0x1000, AccessType::kLoad}, 0);
    writer.record(1, {0x2fc0, AccessType::kStore}, 0);
    writer.record(0, {0x3000, AccessType::kInstFetch}, 0);
    writer.finish();
  }
  std::ostringstream text;
  EXPECT_EQ(trace::write_text_trace(trace::TraceReader(path), text), 3u);
  std::remove(path.c_str());
  const auto records = scan(text.str());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].thread, 0u);
  EXPECT_EQ(records[0].access.vaddr, 0x1000u);
  EXPECT_EQ(records[1].thread, 0u);
  EXPECT_EQ(records[1].access.type, AccessType::kInstFetch);
  EXPECT_EQ(records[2].thread, 3u);
  EXPECT_EQ(records[2].access.type, AccessType::kStore);
  EXPECT_EQ(records[2].access.vaddr, 0x2fc0u);
}

TEST(TraceWorkload, BuildsOneThreadPerId) {
  SystemConfig config;
  const auto spec = load_text(
      "0 L 40000000\n"
      "2 L 80000000\n"
      "0 S 40000040\n",
      config);
  ASSERT_EQ(spec.threads.size(), 2u);
  EXPECT_EQ(spec.threads[0].accesses, 2u);
  EXPECT_EQ(spec.threads[1].accesses, 1u);
  EXPECT_EQ(spec.threads[1].node, 2);
}

TEST(TraceWorkload, RejectsEmptyTrace) {
  SystemConfig config;
  EXPECT_THROW(load_text("", config), std::invalid_argument);
  EXPECT_THROW(load_text("# only a comment\n\n", config),
               std::invalid_argument);
}

TEST(TraceWorkload, WrapsThreadIdsOntoCores) {
  SystemConfig config;
  const auto spec = load_text("20 L 1000\n", config);
  EXPECT_EQ(spec.threads[0].node, 20 % 16);
}

TEST(TraceWorkload, RunsEndToEndUnderBothModes) {
  // A private stream per thread plus one shared line they fight over.
  std::ostringstream trace;
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 50; ++i) {
      trace << t << " " << (i % 3 == 0 ? 'S' : 'L') << " "
            << std::hex << (0x40000000ull * (t + 1) + i * 64) << std::dec
            << "\n";
      trace << t << " S " << std::hex << 0x7000000000ull << std::dec << "\n";
    }
  }
  SystemConfig config;
  const auto spec = load_text(trace.str(), config);
  for (auto mode : {DirectoryMode::kBaseline, DirectoryMode::kAllarm}) {
    const auto r = test::run_scripted(config, mode, spec, 3).result;
    EXPECT_GT(r.runtime, 0u);
    EXPECT_EQ(r.stats.get("sanity.upgrade_without_line"), 0.0);
    EXPECT_EQ(r.stats.get("sanity.wbb_collisions"), 0.0);
  }
}

TEST(TraceWorkload, ThreadOrderDoesNotDependOnAppearance) {
  // Thread order seeds the per-thread rng streams, so a trace listing its
  // threads in another order must build the same workload and run.
  const auto text = [](bool descending) {
    std::ostringstream out;
    for (int k = 0; k < 4; ++k) {
      const int t = descending ? 3 - k : k;
      for (int i = 0; i < 40; ++i) {
        out << t << " " << (i % 4 == 0 ? 'S' : 'L') << " " << std::hex
            << (0x50000000ull * (t + 1) + i * 64) << std::dec << "\n";
      }
    }
    return out.str();
  };
  SystemConfig config;
  const auto a = load_text(text(true), config);
  const auto b = load_text(text(false), config);
  ASSERT_EQ(a.threads.size(), 4u);
  ASSERT_EQ(b.threads.size(), 4u);
  for (std::size_t i = 0; i < a.threads.size(); ++i) {
    EXPECT_EQ(a.threads[i].id, i);
    EXPECT_EQ(b.threads[i].id, i);
    EXPECT_EQ(a.threads[i].node, b.threads[i].node);
    EXPECT_EQ(a.threads[i].accesses, 40u);
    EXPECT_EQ(b.threads[i].accesses, 40u);
  }
  const auto ra =
      test::run_scripted(config, DirectoryMode::kBaseline, a, 5).result;
  const auto rb =
      test::run_scripted(config, DirectoryMode::kBaseline, b, 5).result;
  EXPECT_EQ(ra.runtime, rb.runtime);
  EXPECT_EQ(ra.stats.values(), rb.stats.values());
}

// ------------------------------------------------------- capture / replay ----

namespace {

/// A small fast profile covering the interesting generator shapes (Mix,
/// Phased warm-up, CreepingShared time dependence) without the stock
/// profiles' multi-second warm-ups.
workload::WorkloadSpec tiny_profile(const SystemConfig& config,
                                    double think_jitter) {
  workload::ProfileParams p;
  p.name = "tiny";
  p.hot_bytes = 16 * 1024;
  p.cold_bytes = 32 * 1024;
  p.kernel_bytes = 128 * 1024;
  p.kernel_advance_ns = 40.0;
  p.shared_bytes = 64 * 1024;
  p.think_jitter = think_jitter;
  return workload::make_from_params(p, config, /*accesses_per_thread=*/250,
                                    /*num_threads=*/4);
}

std::string capture_path(const char* name) {
  return testing::TempDir() + "/allarm_capture_" + name + ".altr";
}

void expect_identical(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.runtime, b.runtime);
  EXPECT_EQ(a.thread_finish, b.thread_finish);
  EXPECT_EQ(a.stats.values(), b.stats.values());
}

}  // namespace

TEST(TraceCapture, CaptureIsInvisibleAndReplayIsByteIdentical) {
  SystemConfig config;
  core::RunRequest direct;
  direct.config = config;
  direct.spec = tiny_profile(config, /*think_jitter=*/0.3);
  direct.seed = 11;

  core::RunRequest capturing = direct;
  capturing.capture_trace = capture_path("jitter");

  const core::RunResult a = core::run_request(direct);
  const core::RunResult b = core::run_request(capturing);
  expect_identical(a, b);  // Capture must not perturb the run.

  core::RunRequest replaying = direct;
  replaying.replay_trace = capturing.capture_trace;
  const core::RunResult c = core::run_request(replaying);
  expect_identical(a, c);  // Replay reproduces it byte for byte.

  // The trace records exactly the executed accesses.
  const trace::TraceReader reader(capturing.capture_trace);
  std::uint64_t expected_records = 0;
  for (const auto& ts : direct.spec.threads) {
    expected_records += ts.accesses + ts.warmup_accesses;
  }
  EXPECT_EQ(reader.total_records(), expected_records);
  EXPECT_EQ(reader.meta().workload, "tiny");
  EXPECT_GT(reader.meta().setup.size(), 0u);
  std::remove(capturing.capture_trace.c_str());
}

TEST(TraceCapture, JitterFreeCaptureReplaysByteIdentically) {
  // think_jitter = 0: no jitter draws interleave with the generator's, so
  // the recorded per-access draw counts alone keep replay in lockstep.
  SystemConfig config;
  core::RunRequest direct;
  direct.config = config;
  direct.spec = tiny_profile(config, /*think_jitter=*/0.0);
  direct.seed = 13;

  core::RunRequest capturing = direct;
  capturing.capture_trace = capture_path("jitter-free");
  const core::RunResult a = core::run_request(direct);
  const core::RunResult b = core::run_request(capturing);
  expect_identical(a, b);

  core::RunRequest replaying = direct;
  replaying.replay_trace = capturing.capture_trace;
  expect_identical(a, core::run_request(replaying));
  std::remove(capturing.capture_trace.c_str());
}

TEST(TraceCapture, ReplayReproducesAllarmAndInterleavePolicy) {
  SystemConfig config;
  core::RunRequest direct;
  direct.config = config;
  direct.mode = DirectoryMode::kAllarm;
  direct.policy = numa::AllocPolicy::kInterleave;
  direct.spec = tiny_profile(config, /*think_jitter=*/0.3);
  direct.seed = 17;

  core::RunRequest capturing = direct;
  capturing.capture_trace = capture_path("allarm");
  const core::RunResult a = core::run_request(capturing);

  core::RunRequest replaying = direct;
  replaying.replay_trace = capturing.capture_trace;
  expect_identical(a, core::run_request(replaying));
  std::remove(capturing.capture_trace.c_str());
}

TEST(TraceCapture, CapturingAReplayedRunReproducesTheTraceBytes) {
  // Capture wraps whichever workload runs, a replayed one too: capturing
  // the replay of capture A writes a trace B identical to A, byte for byte.
  for (const auto mode : {DirectoryMode::kBaseline, DirectoryMode::kAllarm,
                          DirectoryMode::kRegion}) {
    SCOPED_TRACE(to_string(mode));
    core::RunRequest capturing;
    capturing.mode = mode;
    capturing.spec = make_benchmark("dedup", capturing.config, 400);
    capturing.seed = 9;
    capturing.capture_trace = capture_path("replayed-a");
    const core::RunResult a = core::run_request(capturing);

    core::RunRequest recapturing = capturing;
    recapturing.replay_trace = capturing.capture_trace;
    recapturing.capture_trace = capture_path("replayed-b");
    const core::RunResult b = core::run_request(recapturing);

    expect_identical(a, b);
    EXPECT_EQ(read_file(capturing.capture_trace),
              read_file(recapturing.capture_trace));
    std::remove(capturing.capture_trace.c_str());
    std::remove(recapturing.capture_trace.c_str());
  }
}

TEST(TraceWorkload, AllarmStillSkipsLocalAllocations) {
  std::ostringstream trace;
  for (int i = 0; i < 100; ++i) {
    trace << "0 L " << std::hex << (0x40000000ull + i * 64) << std::dec
          << "\n";
  }
  SystemConfig config;
  const auto spec = load_text(trace.str(), config);
  const auto r =
      test::run_scripted(config, DirectoryMode::kAllarm, spec, 3).result;
  EXPECT_EQ(r.stats.get("pf.inserts"), 0.0);
  EXPECT_EQ(r.stats.get("dir.local_no_alloc"), 100.0);
}

}  // namespace
}  // namespace allarm::workload

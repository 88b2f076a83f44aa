// Tests for the paper scorecard: the report reader against the report
// writer, then the CLI entry point over written reports — the panels'
// geomean rows and normalizations, the claim verdicts and the exit codes.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/fileio.hh"
#include "common/stats.hh"
#include "runner/report.hh"
#include "runner/scorecard.hh"
#include "runner/sweep.hh"
#include "workload/profiles.hh"

namespace allarm {
namespace {

using Stats = std::map<std::string, double>;

std::string temp_path(const std::string& stem) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + std::string(info->test_suite_name()) + "_" +
         info->name() + "_" + stem;
}

runner::CellResult cell(const std::string& workload, const std::string& config,
                        DirectoryMode mode, double runtime,
                        const Stats& stats) {
  runner::CellResult c;
  c.workload = workload;
  c.config_label = config;
  c.mode = mode;
  c.runtime.add(runtime);
  for (const auto& [name, value] : stats) c.stats[name].add(value);
  return c;
}

/// Per-benchmark ALLARM speedups of the hand-built fig3 report: the paper's
/// ordering, fluidanimate and blackscholes lowest.
const std::map<std::string, double>& fig3_speedups() {
  static const std::map<std::string, double> speedups = {
      {"barnes", 1.20},       {"blackscholes", 0.90},   {"cholesky", 1.10},
      {"dedup", 1.05},        {"fluidanimate", 0.95},   {"ocean-cont", 1.30},
      {"ocean-non-cont", 1.15}, {"x264", 1.25}};
  return speedups;
}

/// A fig3 report: baseline runs 1000 ticks with 100 PF evictions; ALLARM
/// runs at fig3_speedups() with 10 + i evictions for benchmark i.
runner::SweepResult fig3_report() {
  runner::SweepResult r;
  r.name = "fig3";
  double i = 0;
  for (const std::string& name : workload::benchmark_names()) {
    r.cells.push_back(cell(name, "table1", DirectoryMode::kBaseline, 1000,
                           {{"dir.pf_evictions", 100},
                            {"cache.misses", 400},
                            {"dir.local_fraction", 0.25}}));
    r.cells.push_back(cell(name, "table1", DirectoryMode::kAllarm,
                           1000 / fig3_speedups().at(name),
                           {{"dir.pf_evictions", 10 + i},
                            {"cache.misses", 300}}));
    ++i;
  }
  return r;
}

/// Tokens of the first row labelled `label` after the panel titled
/// `title` in scorecard output.
std::vector<std::string> row(const std::string& text, const std::string& title,
                             const std::string& label) {
  const std::size_t at = text.find("=== " + title);
  EXPECT_NE(at, std::string::npos) << title;
  std::istringstream lines(text.substr(at == std::string::npos ? 0 : at));
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::vector<std::string> tokens;
    for (std::string w; words >> w;) tokens.push_back(w);
    if (!tokens.empty() && tokens[0] == label) return tokens;
  }
  ADD_FAILURE() << "no row '" << label << "' after " << title;
  return {};
}

/// Runs the CLI entry point over `paths`; returns the exit code.
int scorecard(const std::vector<std::string>& paths, std::string* out,
              std::string* err) {
  std::ostringstream o;
  std::ostringstream e;
  const int code = runner::run_scorecard(paths, o, e);
  *out = o.str();
  *err = e.str();
  return code;
}

/// Writes `report` where the CLI can read it; returns the path.
std::string write_report(const runner::SweepResult& report) {
  const std::string path = temp_path(report.name + ".json");
  write_file_durable(path, runner::to_json(report));
  return path;
}

/// The scorecard's output over `report`, which must exit 0.
std::string panels(const runner::SweepResult& report) {
  std::string out;
  std::string err;
  EXPECT_EQ(scorecard({write_report(report)}, &out, &err), 0) << err;
  return out;
}

// ----------------------------------------------------------------- reader ----

/// Four micro-cells of a tiny machine: the reader must restore exactly
/// what the writer wrote.
TEST(ScorecardReport, ReadsBackWhatTheWriterWrote) {
  SystemConfig config;
  config.num_cores = 4;
  config.mesh_width = 2;
  config.mesh_height = 2;
  config.l1i = CacheConfig{4 * kLineBytes, 2, ticks_from_ns(1.0)};
  config.l1d = CacheConfig{4 * kLineBytes, 2, ticks_from_ns(1.0)};
  config.l2 = CacheConfig{16 * kLineBytes, 2, ticks_from_ns(1.0)};
  config.probe_filter_coverage_bytes = 32 * kLineBytes;
  runner::SweepSpec spec;
  spec.name = "tiny";
  spec.workloads = {"alpha", "beta"};
  spec.configs = {{"small", config}};
  spec.modes = {DirectoryMode::kBaseline, DirectoryMode::kAllarm};
  spec.replicates = 2;
  spec.accesses_per_thread = 200;
  spec.make_workload = [](const std::string& name, const SystemConfig& c,
                          std::uint64_t accesses) {
    workload::ProfileParams params;
    params.name = name;
    params.hot_bytes = 8 * 1024;
    params.cold_bytes = 8 * 1024;
    params.kernel_bytes = 32 * 1024;
    params.shared_bytes = 16 * 1024;
    return workload::make_from_params(params, c, accesses, 4);
  };
  const runner::SweepResult ran = runner::SweepRunner(2).run(spec);
  const runner::SweepResult read =
      runner::parse_report(runner::to_json(ran), "tiny.json");

  EXPECT_EQ(read.name, "tiny");
  EXPECT_EQ(read.replicates, 2u);
  EXPECT_EQ(read.accesses_per_thread, 200u);
  ASSERT_EQ(read.cells.size(), ran.cells.size());
  for (std::size_t i = 0; i < ran.cells.size(); ++i) {
    const runner::CellResult& want = ran.cells[i];
    const runner::CellResult& got = read.cells[i];
    EXPECT_EQ(got.workload, want.workload);
    EXPECT_EQ(got.config_label, want.config_label);
    EXPECT_EQ(got.mode, want.mode);
    EXPECT_EQ(got.runtime.count, 2u);
    EXPECT_EQ(got.runtime.mean, want.runtime.mean);
    ASSERT_EQ(got.stats.size(), want.stats.size());
    for (const auto& [name, summary] : want.stats) {
      ASSERT_EQ(got.stats.count(name), 1u) << name;
      EXPECT_EQ(got.stats.at(name).mean, summary.mean) << name;
      EXPECT_EQ(got.stats.at(name).max, summary.max) << name;
    }
  }
}

TEST(ScorecardReport, RejectsAReportWithQuarantinedReplicates) {
  runner::SweepResult r = fig3_report();
  r.cells[3].failures.push_back({0, 1, "injected"});
  try {
    runner::parse_report(runner::to_json(r), "degraded.json");
    FAIL() << "a degraded report parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("degraded.json"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos);
  }
}

// ----------------------------------------------------------------- panels ----

TEST(Scorecard, GeomeanRowsSummarizeEveryBenchmark) {
  const std::string text = panels(fig3_report());
  std::vector<double> speedups;
  std::vector<double> evictions;
  double i = 0;
  for (const std::string& name : workload::benchmark_names()) {
    // The panel divides runtimes exactly as the report stores them.
    speedups.push_back(1000 / (1000 / fig3_speedups().at(name)));
    evictions.push_back((10 + i++) / 100);
  }
  EXPECT_EQ(row(text, "Figure 3a", "geomean").at(1),
            TextTable::fmt(geomean(speedups), 3));
  EXPECT_EQ(row(text, "Figure 3b", "geomean").at(1),
            TextTable::fmt(geomean(evictions), 3));
  EXPECT_EQ(row(text, "Figure 3a", "ocean-cont").at(1), "1.300");
  // Figure 2 reads the baseline cells: 25% local, 75% remote.
  EXPECT_EQ(row(text, "Figure 2", "x264"),
            (std::vector<std::string>{"x264", "0.250", "0.750"}));
}

TEST(Scorecard, UndefinedRatiosReadOne) {
  runner::SweepResult r = fig3_report();
  // barnes: no run evicts (0/0), and the ALLARM cell lacks the L2-miss
  // statistic — both ratios are undefined.
  for (const int i : {0, 1}) {
    r.cells[i].stats["dir.pf_evictions"] = Summary{};
    r.cells[i].stats["dir.pf_evictions"].add(0);
  }
  r.cells[1].stats.erase("cache.misses");
  const std::string text = panels(r);
  EXPECT_EQ(row(text, "Figure 3b", "barnes").at(1), "1.000");
  EXPECT_EQ(row(text, "Figure 3e", "barnes").at(1), "1.000");
  EXPECT_EQ(row(text, "Figure 3e", "cholesky").at(1), "0.750");
}

TEST(Scorecard, Fig3hNormalizesToThe512kBBaseline) {
  runner::SweepResult r;
  r.name = "fig3h";
  const std::map<std::string, double> allarm_runtime = {
      {"512kB", 500}, {"256kB", 1000}, {"128kB", 2000}};
  for (const std::string& name : workload::benchmark_names()) {
    for (const auto& [label, runtime] : allarm_runtime) {
      // Only the 512kB baseline is a denominator; the others never are.
      r.cells.push_back(cell(name, label, DirectoryMode::kBaseline,
                             label == "512kB" ? 1000 : 7, {}));
      r.cells.push_back(cell(name, label, DirectoryMode::kAllarm, runtime, {}));
    }
  }
  EXPECT_EQ(row(panels(r), "Figure 3h", "dedup"),
            (std::vector<std::string>{"dedup", "2.000", "1.000", "0.500"}));
}

TEST(Scorecard, Fig4NormalizesToThe512kBBaseline) {
  runner::SweepResult r;
  r.name = "fig4";
  for (const std::string& name : workload::multiprocess_benchmark_names()) {
    double step = 1;
    for (const std::string label : {"512kB", "256kB", "128kB", "64kB",
                                    "32kB"}) {
      r.cells.push_back(cell(name + "-2p", label, DirectoryMode::kBaseline,
                             1000 * step,
                             {{"dir.pf_evictions", 10 * step},
                              {"noc.bytes", 100 * step},
                              {"runtime_ns", 1e6}}));
      r.cells.push_back(cell(name + "-2p", label, DirectoryMode::kAllarm, 500,
                             {{"dir.pf_evictions", 5 * step},
                              {"noc.bytes", 150},
                              {"runtime_ns", 1e6}}));
      step *= 2;
    }
  }
  const std::string text = panels(r);
  const std::vector<std::string> speed = row(text, "Figure 4a", "barnes-2p");
  EXPECT_EQ(std::vector<std::string>(speed.begin(), speed.begin() + 4),
            (std::vector<std::string>{"barnes-2p", "1.000", "0.500",
                                      "0.250"}));
  EXPECT_EQ(row(text, "Figure 4b", "cholesky-2p").at(5), "16.000");
  EXPECT_EQ(row(text, "Figure 4d", "ocean-cont-2p").at(3), "2.000");
  EXPECT_EQ(row(text, "Figure 4e", "ocean-cont-2p").at(1), "0.500");
  EXPECT_EQ(row(text, "Figure 4f", "ocean-non-cont-2p").at(4), "1.500");
  EXPECT_EQ(row(text, "Directory sizing", "32kB").at(3), "80");
  EXPECT_NE(text.find("claim ok fig4.evictions: "), std::string::npos);
  EXPECT_NE(text.find("claim gap fig4d.unaffected: "), std::string::npos);
}

// ----------------------------------------------------------- claims + CLI ----

TEST(Scorecard, BrokenClaimFailsAndExitsOne) {
  const std::string good = write_report(fig3_report());
  std::string out;
  std::string err;
  EXPECT_EQ(scorecard({good}, &out, &err), 0) << err;
  EXPECT_NE(out.find("claim ok fig3b.evictions"), std::string::npos);
  EXPECT_NE(out.find("claim ok fig3a.lowest"), std::string::npos);
  EXPECT_NE(out.find("claim gap fig3a.highest"), std::string::npos);

  // x264's ALLARM run now evicts more than its baseline.
  runner::SweepResult broken = fig3_report();
  broken.cells.back().stats["dir.pf_evictions"] = Summary{};
  broken.cells.back().stats["dir.pf_evictions"].add(101);
  const std::string bad = temp_path("broken.json");
  write_file_durable(bad, runner::to_json(broken));
  EXPECT_EQ(scorecard({bad}, &out, &err), 1);
  EXPECT_NE(out.find("claim FAIL fig3b.evictions"), std::string::npos) << out;
  EXPECT_NE(out.find("x264 1.010"), std::string::npos) << out;
  EXPECT_NE(out.find("claim ok fig3a.lowest"), std::string::npos);
}

TEST(Scorecard, TruncatedReportExitsTwoNamingTheFile) {
  const std::string json = runner::to_json(fig3_report());
  const std::string path = temp_path("truncated.json");
  write_file_durable(path, json.substr(0, json.size() / 2));
  std::string out;
  std::string err;
  EXPECT_EQ(scorecard({path}, &out, &err), 2);
  EXPECT_NE(err.find(path), std::string::npos) << err;
  EXPECT_TRUE(out.empty()) << "no panel prints from a partial report set";

  EXPECT_EQ(scorecard({temp_path("missing.json")}, &out, &err), 2);
  EXPECT_NE(err.find("missing.json"), std::string::npos) << err;
  EXPECT_EQ(scorecard({}, &out, &err), 2);
}

}  // namespace
}  // namespace allarm

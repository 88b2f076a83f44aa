#include "runner/scorecard.hh"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/fileio.hh"
#include "common/stats.hh"
#include "energy/model.hh"
#include "service/json.hh"
#include "workload/profiles.hh"

namespace allarm::runner {

namespace {

using service::JsonValue;

constexpr DirectoryMode kBaseline = DirectoryMode::kBaseline;
constexpr DirectoryMode kAllarm = DirectoryMode::kAllarm;

// ---------------------------------------------------------------- reading ----

/// `object[key]`, which must be present and of `kind`.
const JsonValue& field(const JsonValue& object, const std::string& key,
                       JsonValue::Kind kind) {
  const JsonValue* value = object.find(key);
  if (value == nullptr || value->kind != kind) {
    throw std::runtime_error("missing or mistyped \"" + key + "\"");
  }
  return *value;
}

std::uint64_t count_of(const JsonValue& object, const std::string& key) {
  return field(object, key, JsonValue::Kind::kNumber).as_u64(key);
}

Summary summary_of(const JsonValue& value) {
  const auto number = [&](const char* key) {
    return field(value, key, JsonValue::Kind::kNumber).number;
  };
  Summary summary;
  summary.count = count_of(value, "count");
  summary.mean = number("mean");
  summary.min = number("min");
  summary.max = number("max");
  return summary;
}

DirectoryMode mode_of(const std::string& name) {
  DirectoryMode mode = kBaseline;
  if (!from_string(name, mode)) {
    throw std::runtime_error("unknown mode \"" + name + "\"");
  }
  return mode;
}

// ----------------------------------------------------------------- values ----

std::string fmt(double value, int precision = 3) {
  return TextTable::fmt(value, precision);
}

/// One cell's replicate means: what every panel reads.
struct Means {
  double runtime = 0.0;
  StatSet stats;

  double stat(const std::string& name) const { return stats.get(name); }
  std::string show(const std::string& name, int precision = 3) const {
    return fmt(stat(name), precision);
  }
  std::string ms() const { return fmt(stat("runtime_ns") / 1e6); }
};

Means means(const SweepResult& report, const std::string& workload,
            const std::string& config, DirectoryMode mode) {
  const CellResult* cell = report.find(workload, config, mode);
  if (cell == nullptr) {
    throw std::runtime_error("report '" + report.name + "' has no cell " +
                             workload + "/" + config + "/" + to_string(mode));
  }
  Means out;
  out.runtime = cell->runtime.mean;
  for (const auto& [name, summary] : cell->stats) {
    out.stats.set(name, summary.mean);
  }
  return out;
}

/// `base` runtime over `run` runtime: the paper's speedup (1.0 when
/// undefined).
double speedup(const Means& base, const Means& run) {
  return run.runtime == 0 ? 1.0 : base.runtime / run.runtime;
}

/// run/base of a statistic (StatSet::normalized_to: 1.0 when undefined).
double normalized(const Means& run, const Means& base,
                  const std::string& stat) {
  return run.stats.normalized_to(base.stats, stat);
}

std::string kb_label(std::uint32_t kb) { return std::to_string(kb) + "kB"; }

void section(std::ostream& out, const std::string& title,
             const TextTable& table, const std::string& note = "") {
  out << "\n=== " << title << " ===\n" << table.to_string();
  if (!note.empty()) out << "\n" << note << "\n";
}

// ----------------------------------------------------------------- panels ----

void print_table1(std::ostream& out) {
  const SystemConfig c;
  const auto kb = [](std::uint64_t b) { return kb_label(b / 1024); };
  const auto ns = [](Tick t) { return fmt(ns_from_ticks(t), 0) + " ns"; };
  const auto cache = [&](const CacheConfig& k) {
    return kb(k.size_bytes) + ", " + std::to_string(k.ways) + "-way";
  };
  const auto bytes = [](std::uint32_t n) {
    return std::to_string(n) + " bytes";
  };
  TextTable t({"parameter", "value", "paper (Table I)"});
  t.add_row({"cores", std::to_string(c.num_cores), "16"});
  t.add_row({"frequency", fmt(c.core_freq_ghz, 0) + " GHz", "2 GHz"});
  t.add_row({"block size", std::to_string(kLineBytes) + " B", "64 bytes"});
  t.add_row({"cache access latency", ns(c.l1d.latency), "1 ns"});
  t.add_row({"ICache", cache(c.l1i), "32kB, 4-way"});
  t.add_row({"DCache", cache(c.l1d), "32kB, 4-way"});
  t.add_row(
      {"L2Cache", cache(c.l2) + " (exclusive)", "256kB 4-way (exclusive)"});
  t.add_row({"directory coverage", kb(c.probe_filter_coverage_bytes),
             "tracks 512kB of cached data"});
  t.add_row({"directory latency", ns(c.probe_filter_latency), "1 ns"});
  t.add_row({"memory",
             std::to_string(c.dram_total_bytes >> 30) + " GB, " +
                 ns(c.dram_latency),
             "2GB, 60ns"});
  t.add_row({"topology",
             std::to_string(c.mesh_width) + "x" +
                 std::to_string(c.mesh_height) + " mesh",
             "4x4 Mesh"});
  t.add_row({"flit size", bytes(c.flit_bytes), "4 bytes"});
  t.add_row({"control msg", bytes(c.control_msg_bytes), "8 bytes"});
  t.add_row({"data msg", bytes(c.data_msg_bytes), "72 bytes"});
  t.add_row({"link bandwidth", fmt(c.link_bandwidth_gbps, 0) + " GB/s",
             "8 GB/s"});
  t.add_row({"link latency", ns(c.link_latency), "10 ns"});
  section(out, "Table I: simulated system", t);
}

void print_area(std::ostream& out) {
  const std::map<std::uint32_t, double> paper{
      {512, 70.89}, {256, 26.95}, {128, 19.90}, {64, 8.20}, {32, 5.93}};
  TextTable t({"PF configuration", "model area (mm^2)", "paper (McPAT, mm^2)"});
  for (const std::uint32_t kb : {512u, 256u, 128u, 64u, 32u}) {
    t.add_row({kb_label(kb),
               fmt(energy::EnergyModel::probe_filter_area_mm2(kb * 1024, 16),
                   2),
               fmt(paper.at(kb), 2)});
  }
  section(out, "Probe-filter area vs coverage (16 directories)", t,
          "Model: power law fitted to the paper's five McPAT points (least "
          "squares in log space);\nendpoints match closely, mid-range "
          "deviates where the paper's own data is non-monotone in density.");
}

/// Figure 2 and Figures 3a-3g: one baseline + ALLARM pair per benchmark.
void print_fig3(const SweepResult& r, std::ostream& out) {
  TextTable fig2({"benchmark", "local", "remote"});
  TextTable a({"benchmark", "speedup"});
  TextTable b({"benchmark", "normalized evictions"});
  TextTable c({"benchmark", "normalized traffic (bytes)"});
  TextTable d({"benchmark", "msgs/eviction (baseline)",
               "msgs/eviction (ALLARM)"});
  TextTable e({"benchmark", "normalized L2 misses"});
  TextTable f({"benchmark", "norm energy NoC", "norm energy PF"});
  TextTable g({"benchmark", "fraction probe off critical path"});

  std::vector<double> speedups, evictions, traffic, misses, e_noc, e_pf;
  for (const std::string& name : workload::benchmark_names()) {
    const Means base = means(r, name, "table1", kBaseline);
    const Means opt = means(r, name, "table1", kAllarm);
    const double local = base.stat("dir.local_fraction");
    fig2.add_row({name, fmt(local), fmt(1 - local)});
    speedups.push_back(speedup(base, opt));
    evictions.push_back(normalized(opt, base, "dir.pf_evictions"));
    traffic.push_back(normalized(opt, base, "noc.bytes"));
    misses.push_back(normalized(opt, base, "cache.misses"));
    e_noc.push_back(normalized(opt, base, "energy.noc_nj"));
    e_pf.push_back(normalized(opt, base, "energy.pf_nj"));

    a.add_row({name, fmt(speedups.back())});
    b.add_row({name, fmt(evictions.back())});
    c.add_row({name, fmt(traffic.back())});
    d.add_row({name, base.show("dir.msgs_per_eviction", 1),
               opt.show("dir.msgs_per_eviction", 1)});
    e.add_row({name, fmt(misses.back())});
    f.add_row({name, fmt(e_noc.back()), fmt(e_pf.back())});
    g.add_row({name, opt.show("dir.probe_hidden_fraction")});
  }
  a.add_row({"geomean", fmt(geomean(speedups))});
  b.add_row({"geomean", fmt(geomean(evictions))});
  c.add_row({"geomean", fmt(geomean(traffic))});
  e.add_row({"geomean", fmt(geomean(misses))});
  f.add_row({"geomean", fmt(geomean(e_noc)), fmt(geomean(e_pf))});

  section(out, "Figure 2: fraction of local vs remote directory requests "
               "(baseline)", fig2,
          "Paper: all benchmarks have a majority of remote accesses except "
          "fluidanimate/ocean,\nwhich are the most NUMA-friendly (largest "
          "local fractions).");
  section(out, "Figure 3a: speedup (paper: geomean ~1.12, ocean highest, "
               "fluidanimate/blackscholes lowest)", a);
  section(out, "Figure 3b: PF evictions, ALLARM/baseline (paper: ~0.54 avg; "
               "correlates with Figure 2 local fraction)", b);
  section(out, "Figure 3c: NoC traffic in bytes, ALLARM/baseline (paper: "
               "~0.88 avg)", c);
  section(out, "Figure 3d: average messages per PF eviction (paper: 2-16; "
               "shared-heavy benchmarks highest)", d);
  section(out, "Figure 3e: L2 misses, ALLARM/baseline (paper: ~0.91 avg)", e);
  section(out, "Figure 3f: dynamic energy, ALLARM/baseline (paper: NoC "
               "~0.92, PF ~0.86)", f);
  section(out, "Figure 3g: remote misses with local probe hidden (paper: "
               "~0.81 avg)", g);
}

void print_fig3h(const SweepResult& r, std::ostream& out) {
  TextTable t({"benchmark", "512kB", "256kB", "128kB"});
  for (const std::string& name : workload::benchmark_names()) {
    const Means base = means(r, name, "512kB", kBaseline);
    std::vector<std::string> row{name};
    for (const std::uint32_t kb : {512u, 256u, 128u}) {
      row.push_back(fmt(speedup(base, means(r, name, kb_label(kb), kAllarm))));
    }
    t.add_row(row);
  }
  section(out, "Figure 3h: ALLARM speedup vs probe-filter size (normalized "
               "to baseline @ 512kB)", t,
          "Paper: only blackscholes is strongly affected at 256kB; "
          "ocean-non-cont/x264 degrade at 128kB;\nbarnes and ocean-contiguous "
          "hold baseline performance at 128kB (4x smaller directory).");
}

constexpr std::uint32_t kFig4Kb[] = {512, 256, 128, 64, 32};

/// Figures 4a-4f (every bar against the same process pair's baseline with
/// a 512kB probe filter) and the directory-sizing table.
void print_fig4(const SweepResult& r, std::ostream& out) {
  using Metric = double (*)(const Means& run, const Means& base512);
  const auto panel = [&](const std::string& title, DirectoryMode mode,
                         Metric metric) {
    TextTable t({"benchmark", "512kB", "256kB", "128kB", "64kB", "32kB"});
    for (const std::string& name : workload::multiprocess_benchmark_names()) {
      const std::string pair = name + "-2p";
      const Means base512 = means(r, pair, "512kB", kBaseline);
      std::vector<std::string> row{pair};
      for (const std::uint32_t kb : kFig4Kb) {
        row.push_back(fmt(metric(means(r, pair, kb_label(kb), mode), base512)));
      }
      t.add_row(row);
    }
    section(out, title, t);
  };
  const Metric speed = [](const Means& run, const Means& base512) {
    return speedup(base512, run);
  };
  // A 512kB filter may evict nothing at all; normalizing to at least one
  // eviction keeps the growth visible where normalized_to would print 1.0.
  const Metric evictions = [](const Means& run, const Means& base512) {
    return run.stat("dir.pf_evictions") /
           std::max(1.0, base512.stat("dir.pf_evictions"));
  };
  const Metric traffic = [](const Means& run, const Means& base512) {
    return normalized(run, base512, "noc.bytes");
  };
  panel("Figure 4a: baseline speedup vs PF size (paper: falls as the PF "
        "shrinks)", kBaseline, speed);
  panel("Figure 4b: baseline normalized evictions (paper: up to ~200x)",
        kBaseline, evictions);
  panel("Figure 4c: baseline normalized traffic", kBaseline, traffic);
  panel("Figure 4d: ALLARM speedup vs PF size (paper: largely unaffected)",
        kAllarm, speed);
  panel("Figure 4e: ALLARM normalized evictions (paper: grow only below "
        "64kB)", kAllarm, evictions);
  panel("Figure 4f: ALLARM normalized traffic", kAllarm, traffic);

  TextTable t({"PF size", "area (mm^2)", "base evictions", "ALLARM evictions",
               "base runtime (ms)", "ALLARM runtime (ms)"});
  for (const std::uint32_t kb : kFig4Kb) {
    const Means base = means(r, "ocean-cont-2p", kb_label(kb), kBaseline);
    const Means opt = means(r, "ocean-cont-2p", kb_label(kb), kAllarm);
    t.add_row(
        {kb_label(kb),
         fmt(energy::EnergyModel::probe_filter_area_mm2(kb * 1024, 16), 2),
         base.show("dir.pf_evictions", 0), opt.show("dir.pf_evictions", 0),
         base.ms(), opt.ms()});
  }
  section(out, "Directory sizing: ocean-cont-2p (paper: the SRAM a smaller "
               "PF saves can return to the LLC)", t);
}

void print_policy(const SweepResult& r, std::ostream& out) {
  const std::vector<std::string> policies{"first-touch", "interleave"};
  TextTable t({"benchmark", "policy", "local fraction", "no-alloc fast path",
               "PF inserts"});
  for (const std::string name : {"ocean-cont", "barnes"}) {
    for (const std::string& policy : policies) {
      const Means m = means(r, name, policy, kAllarm);
      t.add_row({name, policy, m.show("dir.local_fraction"),
                 m.show("dir.local_no_alloc", 0), m.show("pf.inserts", 0)});
    }
  }
  section(out, "Ablation: page-placement policy under ALLARM (Section II-A; "
               "paper: interleaving defeats the heuristic)", t);

  TextTable p({"placement", "mode", "local req fraction", "no-alloc fast path",
               "PF inserts", "PF evictions", "runtime (ms)"});
  for (const std::string& policy : policies) {
    for (const DirectoryMode mode : {kBaseline, kAllarm}) {
      const Means m = means(r, "ocean-cont", policy, mode);
      p.add_row({policy, to_string(mode), m.show("dir.local_fraction"),
                 m.show("dir.local_no_alloc", 0), m.show("pf.inserts", 0),
                 m.show("dir.pf_evictions", 0), m.ms()});
    }
  }
  section(out, "Placement study: ocean-cont", p);
}

void print_ablation(const SweepResult& r, std::ostream& out) {
  TextTable evict({"benchmark", "speedup (sync eviction)",
                   "speedup (eviction buffer)", "norm evictions"});
  for (const std::string name : {"ocean-cont", "barnes", "blackscholes"}) {
    const Means base = means(r, name, "table1", kBaseline);
    const Means opt = means(r, name, "table1", kAllarm);
    evict.add_row({name, fmt(speedup(base, opt)),
                   fmt(speedup(means(r, name, "evict-buffer", kBaseline),
                               means(r, name, "evict-buffer", kAllarm))),
                   fmt(normalized(opt, base, "dir.pf_evictions"))});
  }
  section(out, "Ablation: eviction cost model", evict);

  TextTable hiding({"benchmark", "hidden (parallel)", "hidden (serial)",
                    "runtime parallel/serial"});
  for (const std::string name :
       {"ocean-cont", "fluidanimate", "blackscholes"}) {
    const Means par = means(r, name, "table1", kAllarm);
    const Means ser = means(r, name, "serial-probe", kAllarm);
    hiding.add_row({name, par.show("dir.probe_hidden_fraction"),
                    ser.show("dir.probe_hidden_fraction"),
                    fmt(par.runtime / ser.runtime)});
  }
  section(out, "Ablation: local-probe latency hiding (Section II-D; paper: "
               "81% hidden)", hiding);

  TextTable assoc({"PF ways", "baseline evictions", "ALLARM evictions",
                   "norm evictions", "speedup"});
  const char* const ways[][2] = {{"2", "pf-2way"}, {"4", "table1"},
                                 {"8", "pf-8way"}};
  for (const auto& [label, config] : ways) {
    const Means base = means(r, "ocean-cont", config, kBaseline);
    const Means opt = means(r, "ocean-cont", config, kAllarm);
    assoc.add_row({label, base.show("dir.pf_evictions", 0),
                   opt.show("dir.pf_evictions", 0),
                   fmt(normalized(opt, base, "dir.pf_evictions")),
                   fmt(speedup(base, opt))});
  }
  section(out, "Ablation: probe-filter associativity (ocean-cont, 512kB "
               "coverage)", assoc);

  TextTable migrate({"migration period", "migrations", "local fraction",
                     "no-alloc fast path", "runtime (ms)"});
  const char* const periods[][2] = {{"never", "table1"},
                                    {"200us", "migrate-200us"},
                                    {"50us", "migrate-50us"}};
  for (const auto& [label, config] : periods) {
    const Means m = means(r, "ocean-cont", config, kAllarm);
    migrate.add_row({label, m.show("os.migrations", 0),
                     m.show("dir.local_fraction"),
                     m.show("dir.local_no_alloc", 0), m.ms()});
  }
  section(out, "Ablation: thread migration under ALLARM (Section II-E, "
               "ocean-cont; paper: correct, with less benefit)", migrate);
}

void print_region(const SweepResult& r, std::ostream& out) {
  const std::uint32_t coverage = SystemConfig{}.probe_filter_coverage_bytes;
  TextTable t({"region", "table area (mm^2)", "pf evictions", "region hits",
               "collapses", "runtime (ms)"});
  for (const std::uint32_t bytes : {64u, 256u, 1024u, 4096u}) {
    const Means m = means(r, "ocean-cont", "r" + std::to_string(bytes),
                          DirectoryMode::kRegion);
    t.add_row({std::to_string(bytes) + "B",
               fmt(energy::EnergyModel::region_directory_area_mm2(
                       coverage, bytes, 16), 2),
               m.show("dir.pf_evictions", 0), m.show("region.hits", 0),
               m.show("region.collapses", 0), m.ms()});
  }
  section(out, "Region-granularity directory (ocean-cont, 512kB probe "
               "filter, scheme 'region')", t);
}

// ----------------------------------------------------------------- claims ----

/// The claim lines, `claim ok|FAIL|gap NAME: DETAIL`, and whether any
/// claim FAILed.
struct Claims {
  std::ostringstream lines;
  bool failed = false;

  /// A directional claim the reproduction must keep showing.
  void check(const std::string& name, bool holds, const std::string& detail) {
    lines << "claim " << (holds ? "ok " : "FAIL ") << name << ": " << detail
          << "\n";
    failed = failed || !holds;
  }
  /// A paper claim the reproduction does not show with margin: reported
  /// with its values, recorded in docs/FIDELITY.md, never failing.
  void gap(const std::string& name, bool holds, const std::string& detail) {
    lines << "claim gap " << name << ": " << detail
          << (holds ? " (holds)\n" : " (does not hold)\n");
  }
};

/// A measured value and where it was measured; a claim reports the
/// extreme one, its margin.
using Point = std::pair<double, std::string>;

std::string str(const Point& p) { return p.second + " " + fmt(p.first); }

const Point& highest(const std::vector<Point>& points) {
  return *std::max_element(points.begin(), points.end());
}

const Point& lowest(const std::vector<Point>& points) {
  return *std::min_element(points.begin(), points.end());
}

void fig3_claims(const SweepResult& r, Claims& claims) {
  std::vector<Point> speedups, evictions;
  std::vector<double> misses;
  bool below = true;
  for (const std::string& name : workload::benchmark_names()) {
    const Means base = means(r, name, "table1", kBaseline);
    const Means opt = means(r, name, "table1", kAllarm);
    speedups.emplace_back(speedup(base, opt), name);
    misses.push_back(normalized(opt, base, "cache.misses"));
    below = below && opt.stat("dir.pf_evictions") <=
                         base.stat("dir.pf_evictions");
    evictions.emplace_back(normalized(opt, base, "dir.pf_evictions"), name);
  }
  claims.check("fig3b.evictions", below,
               "ALLARM PF evictions <= baseline on every benchmark; highest "
               "ALLARM/baseline " + str(highest(evictions)));

  std::sort(speedups.begin(), speedups.end());
  const std::set<std::string> lowest{speedups[0].second, speedups[1].second};
  claims.check("fig3a.lowest",
               lowest == std::set<std::string>{"fluidanimate", "blackscholes"},
               "fluidanimate and blackscholes are the two lowest speedups; "
               "lowest " + str(speedups[0]) + ", " + str(speedups[1]) +
                   ", next " + str(speedups[2]));
  const std::size_t top = speedups.size() - 1;
  claims.gap("fig3a.highest", speedups[top].second == "ocean-cont",
             "ocean-cont has the highest speedup; highest " +
                 str(speedups[top]) + ", next " + str(speedups[top - 1]));
  claims.gap("fig3e.misses", geomean(misses) < 1.0,
             "ALLARM lowers L2 misses (paper ~0.91); geomean ALLARM/baseline " +
                 fmt(geomean(misses)));
}

void fig4_claims(const SweepResult& r, Claims& claims) {
  bool holds = true;
  std::vector<Point> growth, evictions, speed_at_64kb;
  for (const std::string& name : workload::multiprocess_benchmark_names()) {
    const std::string pair = name + "-2p";
    const Means base512 = means(r, pair, "512kB", kBaseline);
    double previous = -1.0;
    for (const std::uint32_t kb : kFig4Kb) {
      const std::string at = pair + "@" + kb_label(kb);
      const Means base = means(r, pair, kb_label(kb), kBaseline);
      const Means opt = means(r, pair, kb_label(kb), kAllarm);
      const double count = base.stat("dir.pf_evictions");
      holds = holds && count > previous && opt.stat("dir.pf_evictions") < count;
      if (previous >= 0.0) {
        growth.emplace_back(count / std::max(1.0, previous), at);
      }
      previous = count;
      evictions.emplace_back(normalized(opt, base, "dir.pf_evictions"), at);
      if (kb == 64) speed_at_64kb.emplace_back(speedup(base512, opt), pair);
    }
  }
  claims.check("fig4.evictions", holds,
               "baseline PF evictions grow at every PF step and ALLARM's stay "
               "below them at every size; least step growth " +
                   str(lowest(growth)) + ", highest ALLARM/baseline " +
                   str(highest(evictions)));
  const Point& slowest = lowest(speed_at_64kb);
  claims.gap("fig4d.unaffected", slowest.first >= 0.95,
             "ALLARM keeps >= 0.95 of the 512kB baseline's speed at 64kB; "
             "slowest " + str(slowest));
}

void policy_claims(const SweepResult& r, Claims& claims) {
  bool cut = true;
  std::vector<Point> ratios;
  for (const std::string& name : workload::benchmark_names()) {
    const Means first_touch = means(r, name, "first-touch", kAllarm);
    const Means interleave = means(r, name, "interleave", kAllarm);
    cut = cut && interleave.stat("dir.local_no_alloc") <
                     first_touch.stat("dir.local_no_alloc");
    ratios.emplace_back(
        normalized(interleave, first_touch, "dir.local_no_alloc"), name);
  }
  claims.check("policy.no-alloc", cut,
               "interleave cuts ALLARM's no-allocation fast path on every "
               "benchmark; highest interleave/first-touch " +
                   str(highest(ratios)));
}

/// What each grid's report feeds: its panels and, for some, claims.
struct Reader {
  const char* sweep;
  void (*print)(const SweepResult& report, std::ostream& out);
  void (*check)(const SweepResult& report, Claims& claims);
};

constexpr Reader kReaders[] = {{"fig3", print_fig3, fig3_claims},
                               {"fig3h", print_fig3h, nullptr},
                               {"fig4", print_fig4, fig4_claims},
                               {"policy", print_policy, policy_claims},
                               {"ablation", print_ablation, nullptr},
                               {"region", print_region, nullptr}};

}  // namespace

SweepResult parse_report(const std::string& text, const std::string& label) {
  using Kind = JsonValue::Kind;
  try {
    const JsonValue doc = service::parse_json(text);
    SweepResult result;
    result.name = field(doc, "sweep", Kind::kString).string;
    result.base_seed = count_of(doc, "base_seed");
    result.replicates =
        static_cast<std::uint32_t>(count_of(doc, "replicates"));
    result.accesses_per_thread = count_of(doc, "accesses_per_thread");
    for (const JsonValue& entry : field(doc, "cells", Kind::kArray).array) {
      const auto text = [&](const char* key) {
        return field(entry, key, Kind::kString).string;
      };
      CellResult cell;
      cell.workload = text("workload");
      cell.config_label = text("config");
      cell.mode = mode_of(text("mode"));
      if (entry.find("failed") != nullptr) {
        throw std::runtime_error("cell " + cell.workload + "/" +
                                 cell.config_label + "/" +
                                 to_string(cell.mode) +
                                 " has quarantined replicates");
      }
      cell.runtime = summary_of(field(entry, "runtime", Kind::kObject));
      for (const auto& [name, value] :
           field(entry, "stats", Kind::kObject).object) {
        cell.stats[name] = summary_of(value);
      }
      result.cells.push_back(std::move(cell));
    }
    return result;
  } catch (const std::exception& e) {
    throw std::runtime_error(label + ": " + e.what());
  }
}

int run_scorecard(const std::vector<std::string>& paths, std::ostream& out,
                  std::ostream& err) {
  if (paths.empty()) {
    err << "usage: scorecard REPORT.json...\n";
    return 2;
  }
  Claims claims;
  try {
    std::vector<SweepResult> reports;
    for (const std::string& path : paths) {
      reports.push_back(parse_report(read_file(path), path));
    }
    print_table1(out);
    print_area(out);
    for (const Reader& reader : kReaders) {
      for (const SweepResult& report : reports) {
        if (report.name != reader.sweep) continue;
        reader.print(report, out);
        if (reader.check != nullptr) reader.check(report, claims);
      }
    }
  } catch (const std::exception& e) {
    err << "scorecard: " << e.what() << "\n";
    return 2;
  }
  out << "\n" << claims.lines.str();
  return claims.failed ? 1 : 0;
}

}  // namespace allarm::runner

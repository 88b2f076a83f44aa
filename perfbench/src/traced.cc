// The traced run: timing decorators the benchmark wraps around the calls it
// makes into the library, and the self-time attribution of the resulting
// timeline.  Nothing here instruments src/ itself — the program's own spans
// (sweep.job, sim.run, journal.*, sink.cell, service.*) are read as they
// are.
#include "traced.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/fileio.hh"
#include "obs/timeline.hh"
#include "service/json.hh"

namespace perfbench {

namespace {

using allarm::obs::Timeline;

/// Single next() calls are timed one in kTimeEvery and the sample scaled
/// up: two clock reads cost more than a typical generator call, so timing
/// every call would mostly measure the clock.  Batches are always timed.
constexpr std::uint64_t kTimeEvery = 16;
/// One in every 2^12 generator calls also lands in the timeline as a span,
/// so generation shows in Perfetto without overflowing the per-thread
/// span rings.
constexpr std::uint64_t kSpanSampleMask = (1u << 12) - 1;

/// What an empty timed interval reads: the median of back-to-back clock
/// reads, taken off every timed generator call.
std::uint64_t clock_cost_ns() {
  static const std::uint64_t cost = [] {
    std::vector<std::uint64_t> deltas(1001);
    for (std::uint64_t& d : deltas) {
      const std::uint64_t t0 = Timeline::now_ns();
      d = Timeline::now_ns() - t0;
    }
    std::nth_element(deltas.begin(), deltas.begin() + 500, deltas.end());
    return deltas[500];
  }();
  return cost;
}

class TimedGenerator final : public allarm::workload::AccessGenerator {
 public:
  TimedGenerator(std::unique_ptr<AccessGenerator> inner, GenClock& clock)
      : inner_(std::move(inner)), clock_(clock), clock_cost_(clock_cost_ns()) {}

  ~TimedGenerator() override {
    clock_.ns.fetch_add(ns_, std::memory_order_relaxed);
  }

  TimedGenerator(const TimedGenerator&) = delete;
  TimedGenerator& operator=(const TimedGenerator&) = delete;

  allarm::workload::Access next(allarm::Rng& rng, allarm::Tick now) override {
    if (++skipped_ < kTimeEvery) return inner_->next(rng, now);
    skipped_ = 0;
    const std::uint64_t t0 = Timeline::now_ns();
    const allarm::workload::Access access = inner_->next(rng, now);
    account(t0, kTimeEvery, kTimeEvery);
    return access;
  }

  allarm::Tick next_batch(
      allarm::Rng& rng, allarm::Tick now,
      allarm::workload::Span<allarm::workload::Access> out) override {
    const std::uint64_t t0 = Timeline::now_ns();
    const allarm::Tick horizon = inner_->next_batch(rng, now, out);
    account(t0, out.size(), 1);
    return horizon;
  }

  allarm::Tick validity_horizon(allarm::Tick now) const override {
    return inner_->validity_horizon(now);
  }
  void save_state(std::vector<std::uint64_t>& out) const override {
    inner_->save_state(out);
  }
  void restore_state(const std::uint64_t*& data) override {
    inner_->restore_state(data);
  }

 private:
  /// Charges the timed call that started at `t0`, scaled by `scale`, for
  /// `calls` generator calls.
  void account(std::uint64_t t0, std::uint64_t calls, std::uint64_t scale) {
    const std::uint64_t dt = Timeline::now_ns() - t0;
    ns_ += (dt > clock_cost_ ? dt - clock_cost_ : 0) * scale;
    const std::uint64_t before = calls_;
    calls_ += calls;
    if ((before & ~kSpanSampleMask) != (calls_ & ~kSpanSampleMask)) {
      Timeline::record("bench.generate", "workload", t0, dt);
    }
  }

  std::unique_ptr<AccessGenerator> inner_;
  GenClock& clock_;
  std::uint64_t clock_cost_;
  std::uint64_t ns_ = 0;
  std::uint64_t calls_ = 0;
  std::uint64_t skipped_ = 0;
};

/// Layer a span's self time is charged to.
std::string layer_of(const std::string& name) {
  if (name == "sim.run") return "sim.run";
  if (name == "sweep.job") return "runner.job";
  if (name.rfind("journal.", 0) == 0) return "runner.journal";
  if (name == "sink.cell" || name == "bench.sink") return "runner.sink";
  if (name == "bench.factory") return "workload.factory";
  if (name.rfind("service.", 0) == 0) return "service";
  if (name.rfind("trace.", 0) == 0) return "trace.io";
  return name;
}

struct SpanRec {
  double start_us = 0.0;
  double dur_us = 0.0;
  std::string name;
  double children_us = 0.0;
};

}  // namespace

allarm::runner::WorkloadFactory traced_factory(
    allarm::runner::WorkloadFactory base, GenClock& clock) {
  return [base = std::move(base), &clock](const std::string& name,
                                          const allarm::SystemConfig& config,
                                          std::uint64_t accesses) {
    OBS_SPAN("bench.factory", "workload");
    allarm::workload::WorkloadSpec spec = base(name, config, accesses);
    for (allarm::workload::ThreadSpec& thread : spec.threads) {
      thread.make_generator = [make = thread.make_generator, &clock] {
        return std::make_unique<TimedGenerator>(make(), clock);
      };
    }
    return spec;
  };
}

SelfTimes self_times(const std::string& path, double generation_ns) {
  const allarm::service::JsonValue doc =
      allarm::service::parse_json(allarm::read_file(path));
  const allarm::service::JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error("timeline " + path + " has no traceEvents");
  }
  std::map<double, std::vector<SpanRec>> by_thread;
  SelfTimes out;
  double sink_us = 0.0;
  std::uint64_t sink_cells = 0;
  double trace_io_us = 0.0;
  double rep_start_us = -1.0;
  std::vector<SpanRec> jobs;
  for (const allarm::service::JsonValue& e : events->array) {
    const auto* ph = e.find("ph");
    if (ph == nullptr || ph->string != "X") continue;
    SpanRec span;
    span.name = e.find("name")->string;
    span.start_us = e.find("ts")->number;
    span.dur_us = e.find("dur")->number;
    ++out.spans;
    if (span.name == "sink.cell") {
      sink_us += span.dur_us;
      ++sink_cells;
    }
    if (span.name == "sweep.job") jobs.push_back(span);
    // The calling thread waits on the pool inside these lifetime spans, so
    // they have no self time; only bench.rep's start is used.
    if (span.name == "bench.rep") rep_start_us = span.start_us;
    if (span.name == "bench.rep" || span.name == "service.request") continue;
    // Sampled generator spans and trace block reads happen inside the
    // timed generator calls, which generation_ns already covers in full.
    if (span.name == "bench.generate") continue;
    if (span.name.rfind("trace.", 0) == 0 && generation_ns > 0) {
      trace_io_us += span.dur_us;
      continue;
    }
    by_thread[e.find("tid")->number].push_back(std::move(span));
  }
  for (auto& [tid, spans] : by_thread) {
    (void)tid;
    std::sort(spans.begin(), spans.end(),
              [](const SpanRec& a, const SpanRec& b) {
                return a.start_us != b.start_us ? a.start_us < b.start_us
                                                : a.dur_us > b.dur_us;
              });
    std::vector<SpanRec*> open;
    for (SpanRec& span : spans) {
      while (!open.empty() &&
             open.back()->start_us + open.back()->dur_us <= span.start_us) {
        open.pop_back();
      }
      if (!open.empty()) open.back()->children_us += span.dur_us;
      open.push_back(&span);
    }
    for (const SpanRec& span : spans) {
      out.ms[layer_of(span.name)] +=
          std::max(0.0, span.dur_us - span.children_us) / 1000.0;
    }
  }
  if (generation_ns > 0) {
    out.generation_share = generation_ns / 1e6 / out.ms["sim.run"];
    out.ms["sim.run"] -= generation_ns / 1e6;
    out.ms["generation"] = generation_ns / 1e6;
    out.ms["generation.trace_io"] = trace_io_us / 1000.0;
  }
  out.sink_us_per_cell =
      sink_cells > 0 ? sink_us / static_cast<double>(sink_cells) : 0.0;
  if (rep_start_us >= 0) {
    for (const SpanRec& job : jobs) {
      out.job_wait_ms.push_back((job.start_us - rep_start_us) / 1000.0);
      out.job_run_ms.push_back(job.dur_us / 1000.0);
    }
  }
  return out;
}

void report_sweep_queueing(const SelfTimes& times, std::uint64_t jobs,
                           Result& result) {
  result.timed("service.queue_wait_ms.p50", times.job_wait_ms, "ms");
  result.timed("service.run_ms.p50", times.job_run_ms, "ms");
  result.metric("service.backlog_max", static_cast<double>(jobs), "count");
  // The first job's wait: how late the closed-loop client's grid started.
  const auto first =
      std::min_element(times.job_wait_ms.begin(), times.job_wait_ms.end());
  result.metric("loadgen.lag_ms.p90",
                first == times.job_wait_ms.end() ? 0.0 : *first, "ms");
}

void report_traced(const SelfTimes& times, double traced_wall,
                   double untraced_wall, Result& result) {
  const auto ms = [&](const std::string& layer) {
    const auto it = times.ms.find(layer);
    return it == times.ms.end() ? 0.0 : it->second;
  };
  const double sim_total = ms("sim.run") + ms("generation");
  for (const auto& [layer, self_ms] : times.ms) {
    const double share = layer == "generation" ? times.generation_share
                         : sim_total > 0       ? self_ms / sim_total
                                               : 0.0;
    std::ostringstream line;
    line << std::fixed << std::setprecision(2) << "self " << std::left
         << std::setw(22) << layer << std::right << std::setw(12) << self_ms
         << " ms  " << std::setw(7) << 100.0 * share << "% of sim.run";
    result.note(line.str());
  }
  result.metric("obs.self_ms.sim_run", ms("sim.run"), "ms");
  result.metric("obs.self_ms.generation", ms("generation"), "ms");
  result.metric("obs.self_ms.sink", ms("runner.sink"), "ms");
  result.metric("obs.self_ms.journal", ms("runner.journal"), "ms");
  result.metric("obs.self_ms.factory", ms("workload.factory"), "ms");
  result.metric("obs.generation_share", times.generation_share, "ratio");
  result.note("spans " + std::to_string(times.spans) + ", traced wall " +
              std::to_string(traced_wall) + " vs untraced " +
              std::to_string(untraced_wall));
  result.metric("runner.sink_us_per_cell", times.sink_us_per_cell, "us");
  result.metric("obs.traced_overhead_frac",
                untraced_wall > 0 ? traced_wall / untraced_wall - 1.0 : 0.0,
                "ratio");
}

}  // namespace perfbench

// Per-layer metrics measured from outside the program: work counts summed
// from each job's StatSet, and timed calls into each layer's public
// functions fed with the workload's own access streams (its captured
// traces).  Every timing is the median of kPasses passes.
#include <algorithm>
#include <memory>

#include "bench.hh"
#include "cache/hierarchy.hh"
#include "coherence/probe_filter.hh"
#include "noc/mesh.hh"
#include "region/region.hh"
#include "runner/journal.hh"
#include "sim/event_queue.hh"
#include "trace/reader.hh"
#include "workload/profiles.hh"

namespace perfbench {

namespace {

using allarm::LineAddr;
using allarm::NodeId;
using allarm::Tick;

constexpr int kPasses = 5;
/// Accesses kept per traced thread for the tag-array and directory replays.
constexpr std::size_t kStreamCap = 8192;

double ns_per(Clock::time_point start, std::uint64_t ops) {
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  return ops == 0 ? 0.0 : ns / static_cast<double>(ops);
}

struct Stream {
  NodeId node = 0;
  std::vector<allarm::workload::Access> accesses;
};

/// A directory-side operation derived from a tag-array replay: a miss
/// reaching line's home, or a line leaving a hierarchy.
struct DirOp {
  LineAddr line = 0;
  NodeId node = 0;
  bool miss = true;
};

/// Decodes every record of every trace, kPasses times (the timing), and
/// keeps each thread's first kStreamCap accesses.
std::vector<Stream> decode(const std::vector<std::string>& paths,
                           Result& result) {
  std::vector<Stream> streams;
  std::vector<double> samples;
  std::uint64_t checksum = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    std::uint64_t records = 0;
    const auto start = Clock::now();
    for (const std::string& path : paths) {
      const allarm::trace::TraceReader reader(path);
      for (std::uint32_t slot = 0; slot < reader.thread_count(); ++slot) {
        allarm::trace::TraceCursor cursor(reader, slot);
        allarm::trace::Record record;
        Stream* keep = nullptr;
        if (pass == 0) {
          streams.push_back({reader.meta().threads[slot].node, {}});
          keep = &streams.back();
        }
        while (cursor.next(record)) {
          ++records;
          checksum += record.access.vaddr;
          if (keep != nullptr && keep->accesses.size() < kStreamCap) {
            keep->accesses.push_back(record.access);
          }
        }
      }
    }
    samples.push_back(ns_per(start, records));
  }
  result.timed("trace.ns_per_record", samples, "ns");
  if (checksum == 0) result.note("trace decode read only zero addresses");
  return streams;
}

/// Replays each stream through its own cache hierarchy: locate, then a hit
/// touches (or an L2 hit promotes) and a miss fills.  Returns the
/// directory operations the replay implies.
std::vector<DirOp> replay_caches(const std::vector<Stream>& streams,
                                 Result& result) {
  const allarm::SystemConfig config;
  std::vector<DirOp> ops;
  std::vector<double> samples;
  for (int pass = 0; pass < kPasses; ++pass) {
    double ns = 0.0;
    std::uint64_t accesses = 0;
    for (const Stream& stream : streams) {
      allarm::cache::Hierarchy hierarchy(config, 7, "bench");
      const auto start = Clock::now();
      for (const allarm::workload::Access& a : stream.accesses) {
        const LineAddr line = allarm::line_of(a.vaddr);
        const allarm::cache::Array target =
            a.type == allarm::AccessType::kInstFetch
                ? allarm::cache::Array::kL1I
                : allarm::cache::Array::kL1D;
        const allarm::cache::Location where = hierarchy.locate(line);
        const std::vector<allarm::cache::Victim>* victims = nullptr;
        if (where.array == allarm::cache::Array::kL2) {
          victims = &hierarchy.promote(target, line);
        } else if (where.present()) {
          hierarchy.touch_ref(line);
        } else {
          victims = &hierarchy.fill(
              target, line,
              a.type == allarm::AccessType::kStore
                  ? allarm::cache::LineState::kModified
                  : allarm::cache::LineState::kExclusive);
          if (pass == 0) ops.push_back({line, stream.node, true});
        }
        if (pass == 0 && victims != nullptr) {
          for (const allarm::cache::Victim& v : *victims) {
            ops.push_back({v.line, stream.node, false});
          }
        }
      }
      ns += std::chrono::duration<double, std::nano>(Clock::now() - start)
                .count();
      accesses += stream.accesses.size();
    }
    samples.push_back(accesses == 0 ? 0.0 : ns / static_cast<double>(accesses));
  }
  result.timed("cache.ns_per_access", samples, "ns");
  return ops;
}

NodeId home_of(LineAddr line, std::uint32_t nodes) {
  return static_cast<NodeId>(line % nodes);
}

/// Probe filters of the Table-I machine fed the miss stream: lookup, and
/// on a miss displace a victim if the set is full, then insert; a line
/// leaving a hierarchy erases its entry.
void time_probe_filter(const std::vector<DirOp>& ops, Result& result) {
  const allarm::SystemConfig config;
  std::vector<double> samples;
  const auto never_pinned = [](LineAddr) { return false; };
  for (int pass = 0; pass < kPasses; ++pass) {
    std::vector<std::unique_ptr<allarm::coherence::ProbeFilter>> filters;
    for (std::uint32_t n = 0; n < config.num_nodes(); ++n) {
      filters.push_back(std::make_unique<allarm::coherence::ProbeFilter>(
          config.probe_filter_coverage_bytes, config.probe_filter_ways,
          config.probe_filter_replacement, n));
    }
    std::uint64_t calls = 0;
    const auto start = Clock::now();
    for (const DirOp& op : ops) {
      allarm::coherence::ProbeFilter& pf =
          *filters[home_of(op.line, config.num_nodes())];
      if (!op.miss) {
        pf.erase(op.line);
        ++calls;
        continue;
      }
      allarm::coherence::PfEntry* entry = pf.lookup(op.line);
      ++calls;
      if (entry != nullptr) {
        pf.touch_entry(entry);
        ++calls;
        continue;
      }
      if (!pf.has_free_way(op.line)) {
        pf.displace_victim(op.line, never_pinned);
        ++calls;
      }
      pf.insert(op.line, allarm::coherence::PfState::kEM, op.node);
      ++calls;
    }
    samples.push_back(ns_per(start, calls));
  }
  result.timed("pf.ns_per_op", samples, "ns");
}

/// The mesh carries each miss's request to the line's home and the data
/// reply back, with requests 2 ns apart.
void time_mesh(const std::vector<DirOp>& ops, Result& result) {
  const allarm::SystemConfig config;
  std::vector<double> samples;
  for (int pass = 0; pass < kPasses; ++pass) {
    allarm::noc::Mesh mesh(config);
    Tick now = 0;
    std::uint64_t sends = 0;
    Tick last = 0;
    const auto start = Clock::now();
    for (const DirOp& op : ops) {
      if (!op.miss) continue;
      now += allarm::ticks_from_ns(2.0);
      const NodeId home = home_of(op.line, config.num_nodes());
      const Tick at = mesh.send(op.node, home, config.control_msg_bytes, now,
                                allarm::noc::TrafficCause::kRequest);
      last = mesh.send(home, op.node, config.data_msg_bytes, at,
                       allarm::noc::TrafficCause::kResponse);
      sends += 2;
    }
    samples.push_back(ns_per(start, sends));
    if (last == 0 && sends > 0) result.note("mesh delivered at tick 0");
  }
  result.timed("noc.ns_per_send", samples, "ns");
}

/// Region trackers (4 KiB regions, one per home) see every miss as a
/// touch; a line leaving a hierarchy looks its region up and forgets it
/// when the line is the region's first.
void time_region(const std::vector<DirOp>& ops, Result& result) {
  const allarm::SystemConfig config;
  const allarm::region::RegionGeometry geometry(4096);
  std::vector<double> samples;
  for (int pass = 0; pass < kPasses; ++pass) {
    std::vector<allarm::region::RTracker> trackers(config.num_nodes());
    std::uint64_t calls = 0;
    const auto start = Clock::now();
    for (const DirOp& op : ops) {
      allarm::region::RTracker& tracker =
          trackers[home_of(op.line, config.num_nodes())];
      const allarm::region::RegionNum region = geometry.region_of(op.line);
      ++calls;
      if (op.miss) {
        tracker.touch(region, op.node);
      } else if (tracker.find(region) != nullptr &&
                 geometry.slot_of(op.line) == 0) {
        tracker.erase(region);
        ++calls;
      }
    }
    samples.push_back(ns_per(start, calls));
  }
  result.timed("region.ns_per_op", samples, "ns");
}

/// AccessGenerator::next over every thread of each profile's workload, for
/// the thread's whole warm-up plus region of interest.
void time_generators(const std::vector<std::string>& profiles,
                     std::uint64_t accesses, Result& result) {
  const allarm::SystemConfig config;
  std::vector<double> samples;
  std::uint64_t checksum = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    double ns = 0.0;
    std::uint64_t calls = 0;
    for (const std::string& name : profiles) {
      const allarm::workload::WorkloadSpec spec =
          allarm::workload::make_benchmark(name, config, accesses);
      for (const allarm::workload::ThreadSpec& thread : spec.threads) {
        const auto generator = thread.make_generator();
        allarm::Rng rng(thread.id + 1);
        const std::uint64_t n = thread.warmup_accesses + thread.accesses;
        Tick now = 0;
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < n; ++i) {
          checksum += generator->next(rng, now).vaddr;
          now += allarm::ticks_from_ns(5.0);
        }
        ns += std::chrono::duration<double, std::nano>(Clock::now() - start)
                  .count();
        calls += n;
      }
    }
    samples.push_back(calls == 0 ? 0.0 : ns / static_cast<double>(calls));
  }
  result.timed("gen.ns_per_access", samples, "ns");
  if (checksum == 0) result.note("generators produced only zero addresses");
}

/// Hold model: a queue kept at kHeld pending events; each executed event
/// schedules one successor after a delay from a fixed mix shaped like the
/// simulator's (L1/PF 1 ns, mesh hop 13 ns, DRAM 60 ns, timeshare retry
/// 100 ns, think time 2 us beyond the near window).
struct HoldModel {
  static constexpr std::uint32_t kHeld = 4096;
  allarm::sim::EventQueue queue;
  std::vector<Tick> delays;
  std::size_t next = 0;
  std::uint64_t left = 0;

  void fire();
};

struct HoldEvent {
  HoldModel* model;
  void operator()() const { model->fire(); }
};

void HoldModel::fire() {
  if (left == 0) return;
  --left;
  queue.schedule_in(delays[next++ & (delays.size() - 1)], HoldEvent{this});
}

void time_event_queue(bool tiny, Result& result) {
  const std::uint64_t events = tiny ? 100000 : 2000000;
  std::vector<Tick> delays;
  allarm::SplitMix64 mix(12345);
  for (int i = 0; i < 1024; ++i) {
    const std::uint64_t r = mix.next() % 100;
    const double ns = r < 40 ? 1.0 : r < 65 ? 13.0 : r < 80 ? 60.0
                    : r < 90 ? 100.0 : 2000.0;
    delays.push_back(allarm::ticks_from_ns(ns));
  }
  std::vector<double> samples;
  for (int pass = 0; pass < kPasses; ++pass) {
    auto model = std::make_unique<HoldModel>();
    model->delays = delays;
    for (std::uint32_t i = 0; i < HoldModel::kHeld; ++i) {
      model->queue.schedule_at(delays[i & (delays.size() - 1)],
                               HoldEvent{model.get()});
    }
    model->left = events;
    const auto start = Clock::now();
    const std::uint64_t ran = model->queue.run();
    samples.push_back(ns_per(start, ran));
  }
  result.timed("sim.queue_ns_per_event", samples, "ns");
}

/// Journal::append of the workload's own results into a fresh journal,
/// closed (and so synced) at the end; microseconds per append.
void time_journal(const std::vector<allarm::core::RunResult>& runs,
                  const std::string& dir, Result& result) {
  if (runs.empty()) {
    result.metric("runner.journal_append_us", 0.0, "us");
    return;
  }
  const std::size_t appends = std::max<std::size_t>(64, runs.size());
  std::vector<double> samples;
  for (int pass = 0; pass < kPasses; ++pass) {
    fresh_dir(dir);
    allarm::runner::JournalMeta meta;
    meta.spec_hash = 1;
    meta.job_count = appends;
    const auto start = Clock::now();
    allarm::runner::Journal journal =
        allarm::runner::Journal::create(dir + "/journal.bin", meta);
    for (std::size_t i = 0; i < appends; ++i) {
      journal.append(i, i + 1, runs[i % runs.size()]);
    }
    journal.close();
    samples.push_back(ns_per(start, appends) / 1000.0);
  }
  remove_tree(dir);
  result.timed("runner.journal_append_us", samples, "us");
}

}  // namespace

void report_layer_counts(const LayerInputs& inputs, const Options& options,
                         Result& result) {
  std::map<std::string, double> total;  // Stat -> sum over every job.
  std::vector<double> ns_per_event;
  double wall_ns = 0.0;
  for (const allarm::core::RunResult& run : inputs.runs) {
    for (const auto& [name, value] : run.stats.values()) total[name] += value;
    const double events = run.stats.get("sim.events");
    if (events > 0) {
      ns_per_event.push_back(static_cast<double>(run.wall_ns) / events);
    }
    wall_ns += static_cast<double>(run.wall_ns);
  }
  result.timed("core.ns_per_event", ns_per_event, "ns");
  for (const char* name :
       {"sim.events", "cache.l1_hits", "cache.l2_hits", "cache.misses",
        "cache.probes_seen", "dir.requests", "pf.inserts", "dir.pf_evictions",
        "dir.eviction_messages", "dir.queued_ops", "noc.messages",
        "noc.flit_hops", "region.hits", "region.collapses",
        "region.recollects", "region.collapse_spills"}) {
    result.metric(name, total[name], "count");
  }
  const double requests = total["dir.requests"];
  result.metric("dir.local_no_alloc_frac",
                requests > 0 ? total["dir.local_no_alloc"] / requests : 0.0,
                "ratio");
  const double lookups = total["pf.hits"] + total["pf.misses"];
  result.metric("pf.hit_frac", lookups > 0 ? total["pf.hits"] / lookups : 0.0,
                "ratio");
  result.metric("runner.busy_frac",
                inputs.phase_s > 0
                    ? wall_ns / 1e9 / (options.workers * inputs.phase_s)
                    : 0.0,
                "ratio");
  result.metric("trace.capture_s", inputs.capture_s, "s");
}

void report_layer_timings(const LayerInputs& inputs, const Options& options,
                          Result& result) {
  const std::vector<Stream> streams = decode(inputs.trace_paths, result);
  const std::vector<DirOp> ops = replay_caches(streams, result);
  time_probe_filter(ops, result);
  time_mesh(ops, result);
  time_region(ops, result);
  time_generators(inputs.profiles, inputs.accesses, result);
  time_event_queue(options.tiny, result);
  time_journal(inputs.runs, options.work_dir + "/journal-timing", result);
}

}  // namespace perfbench

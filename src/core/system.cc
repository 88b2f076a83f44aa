#include "core/system.hh"

#include <algorithm>
#include <stdexcept>

#include "common/log.hh"
#include "trace/writer.hh"

namespace allarm::core {

namespace {

/// Number of rng draws separating two generator states: steps `before`
/// forward until it matches `after`.  Capture-only instrumentation — the
/// draw count per access is small (a Mix pick plus a child's one or two
/// draws, with rare Lemire rejections), so the walk is a handful of
/// state comparisons.
std::uint32_t count_draws(Rng probe, const Rng& after) {
  constexpr std::uint32_t kMaxDraws = 65536;
  std::uint32_t draws = 0;
  while (probe != after) {
    probe.next();
    if (++draws > kMaxDraws) {
      throw std::runtime_error(
          "trace capture: generator consumed an implausible number of rng "
          "draws for one access");
    }
  }
  return draws;
}

/// One cached copy for the invariant check, packed into one word: the line
/// in the high 46 bits, then the node (15 bits), then the state (3 bits).
/// Ordering compares the words as integers, which groups copies by line,
/// node-ascending.
class Held {
 public:
  static constexpr unsigned kStateBits = 3;
  static constexpr unsigned kNodeBits = 15;
  static constexpr unsigned kLineShift = kNodeBits + kStateBits;

  /// False when `line` or `node` is too wide for its field.
  static bool fits(LineAddr line, NodeId node) {
    return line >> (64 - kLineShift) == 0 && node >> kNodeBits == 0;
  }

  Held(LineAddr line, NodeId node, cache::LineState state)
      : word_(line << kLineShift | std::uint64_t{node} << kStateBits |
              static_cast<std::uint64_t>(state)) {}

  friend bool operator<(Held a, Held b) { return a.word_ < b.word_; }

  LineAddr line() const { return word_ >> kLineShift; }
  NodeId node() const {
    return static_cast<NodeId>((word_ >> kStateBits) & ((1u << kNodeBits) - 1));
  }
  cache::LineState state() const {
    return static_cast<cache::LineState>(word_ & ((1u << kStateBits) - 1));
  }

 private:
  std::uint64_t word_;
};

}  // namespace

using cache::LineState;
using coherence::PfEntry;
using coherence::PfState;

struct System::ThreadRuntime {
  workload::ThreadSpec spec;
  std::unique_ptr<workload::AccessGenerator> generator;
  Rng rng{0};
  std::uint64_t remaining = 0;
  NodeId node = kInvalidNode;  ///< Current placement; the OS keeps no copy.
  bool in_warmup = false;
  Tick crossed_warmup_at = 0;  ///< When this thread entered its ROI.
  Tick finished_at = 0;
  /// Sim time of this thread's most recent issue, maintained only while
  /// the no-progress watchdog is armed (feeds the oldest-in-flight-access
  /// line of its diagnostic).
  Tick watchdog_issue_at = 0;
  /// Sim time of this thread's in-flight issue, maintained only while
  /// RunOptions::profile is armed (one outstanding access per thread, so
  /// a single stamp suffices for the request→completion histogram).
  Tick profile_issued_at = 0;
  System* system = nullptr;  ///< Back-pointer for the completion callback.
  std::uint32_t capture_slot = 0;  ///< Trace-writer slot while capturing.
};

System::System(const SystemConfig& config, numa::AllocPolicy policy)
    : config_(config),
      mesh_(config),
      os_(config, policy),
      energy_(config) {
  config_.validate();
  const std::uint32_t n = config_.num_nodes();
  fabric_.config = &config_;
  fabric_.events = &events_;
  fabric_.mesh = &mesh_;
  fabric_.os = &os_;
  for (NodeId i = 0; i < n; ++i) {
    drams_.push_back(std::make_unique<mem::Dram>(config_));
    caches_.push_back(std::make_unique<coherence::CacheController>(i, fabric_));
    dirs_.push_back(std::make_unique<coherence::DirectoryController>(
        i, fabric_, config_.directory_mode));
  }
  for (NodeId i = 0; i < n; ++i) {
    fabric_.drams.push_back(drams_[i].get());
    fabric_.caches.push_back(caches_[i].get());
    fabric_.directories.push_back(dirs_[i].get());
  }
}

System::~System() = default;

void System::begin_roi() {
  roi_start_ = events_.now();
  mesh_.reset_stats();
  for (auto& d : drams_) d->reset_stats();
  for (auto& c : caches_) c->reset_stats();
  for (auto& d : dirs_) d->reset_stats();
  // Profile histograms follow the same ROI boundary as the counters.
  prof_access_ns_ = Histogram{};
  prof_dir_occupancy_ = Histogram{};
  prof_mesh_queue_ns_ = Histogram{};
}

void System::issue_next(ThreadRuntime& thread) {
  if (watchdog_on_) {
    thread.watchdog_issue_at = events_.now();
    if (--watchdog_countdown_ == 0) {
      watchdog_countdown_ = kWatchdogStride;
      check_watchdog();
    }
  }
  if (profile_on_) thread.profile_issued_at = events_.now();
  if (thread.in_warmup && thread.remaining <= thread.spec.accesses) {
    // This thread has crossed from warm-up into its region of interest.
    thread.in_warmup = false;
    thread.crossed_warmup_at = events_.now();
    if (--threads_in_warmup_ == 0) begin_roi();
  }
  if (thread.remaining == 0) {
    thread.finished_at = events_.now();
    --threads_running_;
    return;
  }
  const NodeId node = thread.node;
  if (caches_[node]->busy_with_core_request()) {
    // Another thread currently occupies this core (possible after a
    // migration): timeshare by retrying once the pipeline drains.
    events_.schedule_in(ticks_from_ns(100.0),
                        [this, &thread] { issue_next(thread); });
    return;
  }
  --thread.remaining;
  workload::Access access;
  if (capture_ == nullptr) {
    access = thread.generator->next(thread.rng, events_.now());
  } else {
    // Capture: snapshot the rng around the generation so the record
    // carries the exact draw count replay must burn.
    const Rng before = thread.rng;
    access = thread.generator->next(thread.rng, events_.now());
    capture_->record(thread.capture_slot, access,
                     count_draws(before, thread.rng));
  }
  const Addr paddr = os_.touch(thread.spec.asid, access.vaddr, node);

  ++accesses_done_;
  if (invariant_period_ != 0 && accesses_done_ % invariant_period_ == 0) {
    check_invariants(/*strict=*/false);
  }

  // The callback is a {trampoline, &thread} pair — nothing is constructed
  // or type-erased per access, and `thread` outlives any in-flight request.
  caches_[node]->core_access(
      access.type, paddr,
      coherence::CacheController::DoneFn(&System::access_done_thunk, &thread));
}

void System::access_done_thunk(void* ctx, Tick done) {
  ThreadRuntime& thread = *static_cast<ThreadRuntime*>(ctx);
  System* self = thread.system;
  if (self->profile_on_ && done >= thread.profile_issued_at) {
    self->prof_access_ns_.record((done - thread.profile_issued_at) /
                                 kTicksPerNs);
  }
  Tick think = thread.spec.think;
  if (think != 0 && thread.spec.think_jitter > 0.0) {
    const double jitter =
        1.0 + thread.spec.think_jitter * (2.0 * thread.rng.uniform() - 1.0);
    think = static_cast<Tick>(static_cast<double>(think) * jitter);
  }
  self->events_.schedule_at(done + think,
                            [self, &thread] { self->issue_next(thread); });
}

void System::schedule_migrations(const RunOptions& options) {
  if (options.migration_interval == 0) return;
  migration_interval_ = options.migration_interval;
  events_.schedule_in(migration_interval_, [this] { migration_tick(); });
}

void System::migration_tick() {
  if (threads_running_ == 0) return;
  // Pick a running thread and move it to a random other node.
  migration_scratch_.clear();
  for (auto& t : threads_) {
    if (t->remaining > 0) migration_scratch_.push_back(t.get());
  }
  if (!migration_scratch_.empty()) {
    ThreadRuntime* victim =
        migration_scratch_[migration_rng_.below(migration_scratch_.size())];
    const NodeId cur = victim->node;
    NodeId dst = static_cast<NodeId>(
        migration_rng_.below(config_.num_nodes()));
    if (dst == cur) dst = static_cast<NodeId>((dst + 1) % config_.num_nodes());
    victim->node = dst;
    os_.count_migration();
  }
  events_.schedule_in(migration_interval_, [this] { migration_tick(); });
}

void System::check_watchdog() {
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - watchdog_start_)
                           .count();
  if (static_cast<std::uint64_t>(elapsed) <= watchdog_deadline_ns_) {
    watchdog_last_accesses_ = accesses_done_;
    return;
  }
  // Structured no-progress diagnostic: enough state to tell a genuinely
  // oversized run (accesses still advancing) from a livelocked one
  // (delta 0, one ancient in-flight access) without attaching a debugger.
  std::uint32_t running = 0;
  Tick oldest_issue = kTickNever;
  for (const auto& t : threads_) {
    if (t->remaining == 0) continue;
    ++running;
    oldest_issue = std::min(oldest_issue, t->watchdog_issue_at);
  }
  const Tick now = events_.now();
  std::string diag =
      "no-progress watchdog: wall-clock deadline of " +
      std::to_string(watchdog_deadline_ns_ / 1000000) + " ms exceeded (" +
      std::to_string(static_cast<std::uint64_t>(elapsed) / 1000000) +
      " ms elapsed): sim time " + std::to_string(ns_from_ticks(now)) +
      " ns, " + std::to_string(running) + " of " +
      std::to_string(threads_.size()) + " threads still running (" +
      std::to_string(threads_in_warmup_) + " in warmup), " +
      std::to_string(accesses_done_) + " accesses issued (+" +
      std::to_string(accesses_done_ - watchdog_last_accesses_) +
      " since last check)";
  if (running > 0 && oldest_issue != kTickNever) {
    diag += ", oldest in-flight access issued at sim time " +
            std::to_string(ns_from_ticks(oldest_issue)) + " ns (age " +
            std::to_string(ns_from_ticks(now - oldest_issue)) + " ns)";
  }
  throw std::runtime_error(diag);
}

RunResult System::run(const workload::WorkloadSpec& spec,
                      const RunOptions& options) {
  if (ran_) throw std::logic_error("System: run() may be called once");
  ran_ = true;
  invariant_period_ = options.invariant_check_period;
  migration_rng_ = Rng(options.seed ^ 0xabcdef);
  capture_ = options.capture;
  if (options.deadline_ns != 0) {
    watchdog_on_ = true;
    watchdog_deadline_ns_ = options.deadline_ns;
    watchdog_start_ = std::chrono::steady_clock::now();
  }
  if (options.profile) {
    profile_on_ = true;
    mesh_.set_queue_histogram(&prof_mesh_queue_ns_);
    for (auto& d : dirs_) d->set_occupancy_histogram(&prof_dir_occupancy_);
  }

  // Capture observes the setup phase's first-touch placements: replaying
  // those touches, in order, reproduces the page homes (and the
  // interleave policy's allocation counter) exactly.
  std::vector<trace::SetupTouch> setup_touches;
  if (capture_ != nullptr) {
    os_.set_touch_observer(
        [](void* ctx, AddressSpaceId asid, PageNum vpage, NodeId node) {
          static_cast<std::vector<trace::SetupTouch>*>(ctx)->push_back(
              trace::SetupTouch{asid, vpage, node});
        },
        &setup_touches);
  }
  if (spec.setup) spec.setup(os_);
  if (capture_ != nullptr) {
    os_.set_touch_observer(nullptr, nullptr);
    trace::TraceMeta& meta = capture_->meta();
    meta.workload = spec.name;
    meta.seed = options.seed;
    meta.directory_mode = static_cast<std::uint32_t>(config_.directory_mode);
    meta.alloc_policy = static_cast<std::uint32_t>(os_.policy());
    meta.setup = std::move(setup_touches);
  }

  Rng seeder(options.seed);
  for (const workload::ThreadSpec& ts : spec.threads) {
    auto rt = std::make_unique<ThreadRuntime>();
    rt->spec = ts;
    rt->generator = ts.make_generator();
    rt->rng = Rng(seeder.next() ^ (ts.id * 0x9e3779b9ull));
    rt->remaining = ts.warmup_accesses + ts.accesses;
    rt->node = ts.node;
    rt->in_warmup = ts.warmup_accesses > 0;
    if (capture_ != nullptr) {
      trace::TraceThreadMeta thread_meta;
      thread_meta.id = ts.id;
      thread_meta.asid = ts.asid;
      thread_meta.node = ts.node;
      thread_meta.accesses = ts.accesses;
      thread_meta.warmup_accesses = ts.warmup_accesses;
      thread_meta.think = ts.think;
      thread_meta.think_jitter = ts.think_jitter;
      thread_meta.start_offset = ts.start_offset;
      rt->capture_slot = capture_->add_thread(thread_meta);
    }
    rt->system = this;
    if (rt->in_warmup) ++threads_in_warmup_;
    threads_.push_back(std::move(rt));
  }
  threads_running_ = static_cast<std::uint32_t>(threads_.size());

  for (auto& t : threads_) {
    ThreadRuntime* rt = t.get();
    events_.schedule_at(rt->spec.start_offset, [this, rt] { issue_next(*rt); });
  }
  schedule_migrations(options);

  events_.run();  // Drains: threads stop issuing, writebacks settle.

  if (!quiescent()) {
    throw std::logic_error("System: event queue drained but not quiescent");
  }
  check_invariants(/*strict=*/true);

  RunResult result;
  for (auto& t : threads_) {
    // Per-thread region-of-interest time: from the moment this thread
    // finished its own warm-up until it completed its accesses.  Using the
    // per-thread origin (rather than one global instant) makes runtimes
    // comparable across configurations even when warm-up durations differ.
    const Tick finish = t->finished_at > t->crossed_warmup_at
                            ? t->finished_at - t->crossed_warmup_at
                            : 0;
    result.thread_finish.push_back(finish);
    result.runtime = std::max(result.runtime, finish);
  }
  result.stats = collect_stats(result.runtime);
  if (profile_on_) {
    result.profile["access_latency_ns"] = prof_access_ns_;
    result.profile["dir_occupancy"] = prof_dir_occupancy_;
    result.profile["mesh_queue_ns"] = prof_mesh_queue_ns_;
  }
  return result;
}

bool System::quiescent() const {
  for (const auto& c : caches_) {
    if (c->request_outstanding() || c->writebacks_in_flight() != 0) return false;
  }
  for (const auto& d : dirs_) {
    if (!d->quiescent()) return false;
  }
  return true;
}

void System::check_invariants(bool strict) const {
  auto fail = [](const std::string& what, LineAddr line) {
    throw std::logic_error("invariant violation: " + what + " (line " +
                           std::to_string(line) + ")");
  };

  // Gather every cached (line, node, state) triple into one flat vector of
  // packed words and sort it, which groups it by line.  The vector is the
  // checker's only allocation, one word per cached line, sized exactly and
  // sorted in place: it runs at the end of every simulation (and
  // periodically inside the measured region), so its footprint adds to
  // every concurrent run's peak memory.
  std::size_t total = 0;
  for (NodeId n = 0; n < config_.num_nodes(); ++n) {
    total += caches_[n]->hierarchy().occupancy();
  }
  std::vector<Held> held;
  held.reserve(total);
  for (NodeId n = 0; n < config_.num_nodes(); ++n) {
    caches_[n]->hierarchy().for_each([&](LineAddr line, LineState s) {
      if (!Held::fits(line, n)) fail("cached line too wide to check", line);
      held.emplace_back(line, n, s);
    });
  }
  // Node-ascending within a line: the per-line duplicate check below
  // relies on equal nodes being adjacent.
  std::sort(held.begin(), held.end());

  for (std::size_t begin = 0; begin < held.size();) {
    const LineAddr line = held[begin].line();
    std::size_t end = begin;
    while (end < held.size() && held[end].line() == line) ++end;

    int m = 0, e = 0, o = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const Held h = held[i];
      if (i > begin && held[i - 1].node() == h.node()) {
        fail("line duplicated within a node", line);
      }
      if (h.state() == LineState::kModified) ++m;
      if (h.state() == LineState::kExclusive) ++e;
      if (h.state() == LineState::kOwned) ++o;
    }
    if (m + e > 0 && end - begin != 1) {
      fail("M/E copy coexists with another copy", line);
    }
    if (o > 1) fail("multiple Owned copies", line);

    // Directory coverage.
    const NodeId home = os_.home_of(addr_of_line(line));
    if (!dirs_[home]->line_busy(line)) {  // Otherwise mid-transaction.
      const PfEntry* entry = dirs_[home]->probe_filter().peek(line);
      if (entry == nullptr) {
        if (dirs_[home]->mode() == DirectoryMode::kAllarm) {
          for (std::size_t i = begin; i < end; ++i) {
            if (held[i].node() != home) {
              fail("remote cached line untracked under ALLARM", line);
            }
          }
        } else if (dirs_[home]->mode() == DirectoryMode::kRegion) {
          // Region entries cover exactly the owner's exclusive/modified
          // copies; anything else must carry a per-block entry.
          for (std::size_t i = begin; i < end; ++i) {
            if (!dirs_[home]->region_covers(line, held[i].node())) {
              fail("cached line not covered by a region entry", line);
            }
            if (held[i].state() != LineState::kModified &&
                held[i].state() != LineState::kExclusive) {
              fail("region-covered line held non-exclusive", line);
            }
          }
        } else {
          fail("cached line untracked under baseline", line);
        }
      }
    }
    begin = end;
  }

  if (!strict) return;

  // Entry/cache agreement (quiescent only).
  for (NodeId h = 0; h < config_.num_nodes(); ++h) {
    dirs_[h]->probe_filter().for_each([&](const PfEntry& entry) {
      if (dirs_[h]->line_busy(entry.line)) return;
      // The line's holders: [begin, end) in `held`, empty when uncached.
      // No copy of the line orders below its node-0 kInvalid record.
      const auto first =
          std::lower_bound(held.begin(), held.end(),
                           Held(entry.line, 0, LineState::kInvalid));
      const auto begin = static_cast<std::uint32_t>(first - held.begin());
      std::uint32_t end = begin;
      while (end < held.size() && held[end].line() == entry.line) ++end;
      const std::uint32_t count = end - begin;
      switch (entry.state) {
        case PfState::kEM: {
          if (count != 1 || held[begin].node() != entry.owner ||
              (held[begin].state() != LineState::kModified &&
               held[begin].state() != LineState::kExclusive)) {
            fail("EM entry does not match a sole M/E holder", entry.line);
          }
          break;
        }
        case PfState::kOwned: {
          bool owner_ok = false;
          for (std::uint32_t i = begin; i < end; ++i) {
            const Held hh = held[i];
            if (hh.node() == entry.owner) {
              owner_ok = hh.state() == LineState::kOwned;
            } else if (hh.state() != LineState::kShared) {
              fail("non-owner holds non-Shared under Owned entry", entry.line);
            }
          }
          if (!owner_ok) fail("Owned entry without an Owned holder", entry.line);
          break;
        }
        case PfState::kShared: {
          for (std::uint32_t i = begin; i < end; ++i) {
            if (held[i].state() != LineState::kShared) {
              fail("non-Shared holder under Shared entry", entry.line);
            }
          }
          break;  // Stale (holderless) Shared entries are legal in Hammer.
        }
        case PfState::kInvalid:
          fail("invalid entry enumerated", entry.line);
      }
    });
  }

  // Region mode: at quiescence every presence bit corresponds to exactly
  // one cached line covered by its region entry.  The region table is a
  // FlatMap (never iterated), so the check compares live counters: a
  // stale-high bit (a grant whose death was lost) breaks the equality
  // because covered cached lines always have their bit set.  Without the
  // region machinery no directory covers a line, so `covered` is 0 by
  // construction and the holders are walked only to name a stray bit.
  {
    std::uint64_t bits = 0;
    bool region_on = false;
    for (const auto& d : dirs_) {
      bits += d->region_directory().presence_bits();
      region_on = region_on || d->region_on();
    }
    std::uint64_t covered = 0;
    if (region_on || bits != 0) {
      for (const Held h : held) {
        const NodeId home = os_.home_of(addr_of_line(h.line()));
        if (dirs_[home]->probe_filter().peek(h.line()) == nullptr &&
            dirs_[home]->region_covers(h.line(), h.node())) {
          ++covered;
        }
      }
    }
    if (bits != covered) {
      throw std::logic_error(
          "invariant violation: region presence bits (" +
          std::to_string(bits) + ") disagree with covered cached lines (" +
          std::to_string(covered) + ")");
    }
  }
}

StatSet System::collect_stats(Tick runtime) const {
  StatSet s;
  s.set("runtime_ns", ns_from_ticks(runtime));

  const noc::NocStats& nw = mesh_.stats();
  s.set("noc.bytes", static_cast<double>(nw.bytes));
  s.set("noc.messages", static_cast<double>(nw.messages));
  s.set("noc.control_messages", static_cast<double>(nw.control_messages));
  s.set("noc.data_messages", static_cast<double>(nw.data_messages));
  s.set("noc.flit_hops", static_cast<double>(nw.flit_hops));
  s.set("noc.local_messages", static_cast<double>(nw.local_messages));
  for (std::size_t c = 0; c < noc::kNumTrafficCauses; ++c) {
    s.set("noc.bytes." + to_string(static_cast<noc::TrafficCause>(c)),
          static_cast<double>(nw.bytes_by_cause[c]));
  }

  coherence::DirectoryStats dir{};
  coherence::ProbeFilterStats pf{};
  region::RegionStats rg{};
  std::uint64_t pf_occupancy = 0;
  std::uint64_t region_entries = 0, region_presence = 0;
  std::uint64_t region_private = 0, region_shared = 0;
  for (const auto& d : dirs_) {
    const auto& ds = d->stats();
    dir.requests += ds.requests;
    dir.local_requests += ds.local_requests;
    dir.remote_requests += ds.remote_requests;
    dir.queued_ops += ds.queued_ops;
    dir.pf_evictions += ds.pf_evictions;
    dir.eviction_messages += ds.eviction_messages;
    dir.eviction_lines_invalidated += ds.eviction_lines_invalidated;
    dir.eviction_dirty_writebacks += ds.eviction_dirty_writebacks;
    dir.local_no_alloc += ds.local_no_alloc;
    dir.remote_miss_probes += ds.remote_miss_probes;
    dir.remote_miss_probe_hidden += ds.remote_miss_probe_hidden;
    dir.remote_miss_probe_hit += ds.remote_miss_probe_hit;
    dir.puts_local_untracked += ds.puts_local_untracked;
    dir.puts_stale += ds.puts_stale;
    dir.puts_owner += ds.puts_owner;
    dir.anomalies += ds.anomalies;
    dir.victim_stalls += ds.victim_stalls;
    const auto& ps = d->probe_filter().stats();
    pf.reads += ps.reads;
    pf.writes += ps.writes;
    pf.hits += ps.hits;
    pf.misses += ps.misses;
    pf.inserts += ps.inserts;
    pf_occupancy += d->probe_filter().occupancy();
    const region::RegionDirectory& rd = d->region_directory();
    const region::RegionStats& rds = rd.stats();
    rg.reads += rds.reads;
    rg.writes += rds.writes;
    rg.hits += rds.hits;
    rg.installs += rds.installs;
    rg.collapses += rds.collapses;
    rg.collapse_block_installs += rds.collapse_block_installs;
    rg.collapse_spills += rds.collapse_spills;
    rg.recollects += rds.recollects;
    rg.puts += rds.puts;
    region_entries += rd.entries();
    region_presence += rd.presence_bits();
    region_private += rd.private_regions();
    region_shared += rd.shared_regions();
  }
  s.set("dir.requests", static_cast<double>(dir.requests));
  s.set("dir.local_requests", static_cast<double>(dir.local_requests));
  s.set("dir.remote_requests", static_cast<double>(dir.remote_requests));
  s.set("dir.local_fraction",
        dir.requests ? static_cast<double>(dir.local_requests) / dir.requests
                     : 0.0);
  s.set("dir.queued_ops", static_cast<double>(dir.queued_ops));
  s.set("dir.pf_evictions", static_cast<double>(dir.pf_evictions));
  s.set("dir.eviction_messages", static_cast<double>(dir.eviction_messages));
  s.set("dir.msgs_per_eviction",
        dir.pf_evictions ? static_cast<double>(dir.eviction_messages) /
                               dir.pf_evictions
                         : 0.0);
  s.set("dir.eviction_lines_invalidated",
        static_cast<double>(dir.eviction_lines_invalidated));
  s.set("dir.eviction_dirty_writebacks",
        static_cast<double>(dir.eviction_dirty_writebacks));
  s.set("dir.local_no_alloc", static_cast<double>(dir.local_no_alloc));
  s.set("dir.remote_miss_probes", static_cast<double>(dir.remote_miss_probes));
  s.set("dir.remote_miss_probe_hidden",
        static_cast<double>(dir.remote_miss_probe_hidden));
  s.set("dir.remote_miss_probe_hit",
        static_cast<double>(dir.remote_miss_probe_hit));
  s.set("dir.probe_hidden_fraction",
        dir.remote_miss_probes
            ? static_cast<double>(dir.remote_miss_probe_hidden) /
                  dir.remote_miss_probes
            : 0.0);
  s.set("dir.victim_stalls", static_cast<double>(dir.victim_stalls));
  s.set("dir.anomalies", static_cast<double>(dir.anomalies));
  s.set("pf.reads", static_cast<double>(pf.reads));
  s.set("pf.writes", static_cast<double>(pf.writes));
  s.set("pf.hits", static_cast<double>(pf.hits));
  s.set("pf.misses", static_cast<double>(pf.misses));
  s.set("pf.inserts", static_cast<double>(pf.inserts));
  s.set("pf.final_occupancy", static_cast<double>(pf_occupancy));
  {
    std::uint64_t em = 0, owned = 0, shared = 0;
    for (const auto& d : dirs_) {
      d->probe_filter().for_each([&](const PfEntry& e) {
        if (e.state == PfState::kEM) ++em;
        else if (e.state == PfState::kOwned) ++owned;
        else ++shared;
      });
    }
    s.set("pf.entries_em", static_cast<double>(em));
    s.set("pf.entries_owned", static_cast<double>(owned));
    s.set("pf.entries_shared", static_cast<double>(shared));
  }

  // Region-granularity counters (src/region/): all zero outside region
  // mode, exported unconditionally so every mode's report carries the same
  // key set.
  s.set("region.reads", static_cast<double>(rg.reads));
  s.set("region.writes", static_cast<double>(rg.writes));
  s.set("region.hits", static_cast<double>(rg.hits));
  s.set("region.installs", static_cast<double>(rg.installs));
  s.set("region.collapses", static_cast<double>(rg.collapses));
  s.set("region.collapse_block_installs",
        static_cast<double>(rg.collapse_block_installs));
  s.set("region.collapse_spills", static_cast<double>(rg.collapse_spills));
  s.set("region.recollects", static_cast<double>(rg.recollects));
  s.set("region.puts", static_cast<double>(rg.puts));
  s.set("region.entries", static_cast<double>(region_entries));
  s.set("region.presence_bits", static_cast<double>(region_presence));
  s.set("region.private_regions", static_cast<double>(region_private));
  s.set("region.shared_regions", static_cast<double>(region_shared));

  coherence::CacheControllerStats cc{};
  for (const auto& c : caches_) {
    const auto& cs = c->stats();
    cc.loads += cs.loads;
    cc.stores += cs.stores;
    cc.ifetches += cs.ifetches;
    cc.l1_hits += cs.l1_hits;
    cc.l2_hits += cs.l2_hits;
    cc.misses += cs.misses;
    cc.upgrades += cs.upgrades;
    cc.puts_dirty += cs.puts_dirty;
    cc.puts_clean += cs.puts_clean;
    cc.silent_drops += cs.silent_drops;
    cc.probes_seen += cs.probes_seen;
    cc.probe_hits += cs.probe_hits;
    cc.wbb_stalls += cs.wbb_stalls;
    cc.upgrade_without_line += cs.upgrade_without_line;
    cc.wbb_collisions += cs.wbb_collisions;
    cc.total_miss_latency += cs.total_miss_latency;
    cc.wbb_peak = std::max(cc.wbb_peak, cs.wbb_peak);
  }
  s.set("cache.loads", static_cast<double>(cc.loads));
  s.set("cache.stores", static_cast<double>(cc.stores));
  s.set("cache.ifetches", static_cast<double>(cc.ifetches));
  s.set("cache.l1_hits", static_cast<double>(cc.l1_hits));
  s.set("cache.l2_hits", static_cast<double>(cc.l2_hits));
  s.set("cache.misses", static_cast<double>(cc.misses));
  s.set("cache.upgrades", static_cast<double>(cc.upgrades));
  s.set("cache.miss_latency_avg_ns",
        cc.misses ? ns_from_ticks(cc.total_miss_latency) / cc.misses : 0.0);
  s.set("cache.puts_dirty", static_cast<double>(cc.puts_dirty));
  s.set("cache.puts_clean", static_cast<double>(cc.puts_clean));
  s.set("cache.silent_drops", static_cast<double>(cc.silent_drops));
  s.set("cache.probes_seen", static_cast<double>(cc.probes_seen));
  s.set("cache.probe_hits", static_cast<double>(cc.probe_hits));
  s.set("cache.wbb_stalls", static_cast<double>(cc.wbb_stalls));
  s.set("cache.wbb_peak", static_cast<double>(cc.wbb_peak));

  std::uint64_t dram_reads = 0, dram_writes = 0;
  Tick dram_wait = 0;
  for (const auto& d : drams_) {
    dram_reads += d->stats().reads;
    dram_writes += d->stats().writes;
    dram_wait += d->stats().total_queue_wait;
  }
  s.set("dram.reads", static_cast<double>(dram_reads));
  s.set("dram.writes", static_cast<double>(dram_writes));
  s.set("dram.queue_wait_ns", ns_from_ticks(dram_wait));

  const numa::OsStats& os = os_.stats();
  s.set("os.pages_mapped", static_cast<double>(os.pages_mapped));
  s.set("os.local_allocations", static_cast<double>(os.local_allocations));
  s.set("os.spilled_allocations", static_cast<double>(os.spilled_allocations));
  s.set("os.migrations", static_cast<double>(os.migrations));

  s.set("energy.noc_nj", energy_.noc_energy_nj(nw));
  s.set("energy.pf_nj",
        energy_.pf_energy_nj(pf.reads, pf.writes, dir.pf_evictions));
  s.set("energy.region_nj",
        energy_.region_energy_nj(rg.reads, rg.writes, rg.collapses));
  s.set("energy.dram_nj", energy_.dram_energy_nj(dram_reads + dram_writes));

  s.set("sanity.anomalies", static_cast<double>(dir.anomalies));
  s.set("sanity.upgrade_without_line",
        static_cast<double>(cc.upgrade_without_line));
  s.set("sanity.wbb_collisions", static_cast<double>(cc.wbb_collisions));
  s.set("sanity.puts_stale", static_cast<double>(dir.puts_stale));
  s.set("sanity.puts_owner", static_cast<double>(dir.puts_owner));
  s.set("sanity.puts_local_untracked",
        static_cast<double>(dir.puts_local_untracked));
  s.set("sim.events", static_cast<double>(events_.events_executed()));
  return s;
}

}  // namespace allarm::core

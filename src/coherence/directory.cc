#include "coherence/directory.hh"

#include <algorithm>

#include "coherence/cache_controller.hh"
#include "common/log.hh"

namespace allarm::coherence {

using cache::LineState;

DirectoryController::DirectoryController(NodeId node, Fabric& fabric,
                                         DirectoryMode mode)
    : node_(node),
      fabric_(fabric),
      mode_(mode),
      pf_(fabric.config->probe_filter_coverage_bytes,
          fabric.config->probe_filter_ways,
          fabric.config->probe_filter_replacement, 0),
      region_(mode == DirectoryMode::kRegion ? fabric.config->region_size_bytes
                                             : kLineBytes),
      region_on_(mode == DirectoryMode::kRegion && region_.enabled()) {}

// ------------------------------------------------------------- plumbing ----

Tick DirectoryController::send(NodeId src, NodeId dst, MsgKind kind,
                               noc::TrafficCause cause, Tick when) {
  return fabric_.mesh->send(src, dst, size_of(kind, *fabric_.config), when,
                            cause);
}

void DirectoryController::grant_at(const Request& r, LineState state,
                                   bool with_data, Tick when) {
  fabric_.at(when, [this, r, state, with_data] {
    fabric_.caches[r.from]->grant(r.line, state, with_data,
                                  fabric_.events->now());
  });
}

void DirectoryController::finish_at(LineAddr line, Tick when) {
  fabric_.at(when, [this, line] { release_and_drain(line); });
}

void DirectoryController::release_and_drain(LineAddr line) {
  busy_.erase(line);
  if (region_on_) {
    if (const NodeId* owner = pending_installs_.find(line)) {
      const NodeId o = *owner;
      pending_installs_.erase(line);
      region_install_block(line, o, fabric_.events->now());
      // A spill eviction re-acquired the line; the queue drains when that
      // flow releases it.
      if (busy_.count(line) != 0) return;
    }
  }
  OpQueue* queue = waiting_.find(line);
  if (queue == nullptr) return;
  while (!queue->empty()) {
    QueuedOp op = queue->pop();
    if (std::holds_alternative<Request>(op)) {
      const Request r = std::get<Request>(op);
      if (queue->empty()) waiting_.erase(line);
      busy_.insert(line);
      start_request(r, fabric_.events->now());
      return;
    }
    process_put(std::get<Put>(op), fabric_.events->now());
  }
  waiting_.erase(line);
}

// ----------------------------------------------------------- entry points ----

void DirectoryController::handle_request(const Request& r) {
  ++stats_.requests;
  if (r.from == node_) ++stats_.local_requests; else ++stats_.remote_requests;
  if (occupancy_hist_ != nullptr) occupancy_hist_->record(busy_.size());
  if (!busy_.insert(r.line)) {  // Single probe: inserts unless already busy.
    waiting_[r.line].push(r);
    ++stats_.queued_ops;
    return;
  }
  start_request(r, fabric_.events->now());
}

void DirectoryController::handle_put(const Put& p) {
  if (busy_.count(p.line)) {
    waiting_[p.line].push(p);
    ++stats_.queued_ops;
    return;
  }
  process_put(p, fabric_.events->now());
}

void DirectoryController::start_request(const Request& r, Tick now) {
  const Tick t = now + fabric_.config->probe_filter_latency;
  PfEntry* entry = pf_.lookup(r.line);
  ALLARM_LOG_TRACE("dir", node_, " ", r.write ? "GetM" : "GetS", " line=",
                   r.line, " from=", r.from, entry ? " pf-hit" : " pf-miss");
  if (entry) {
    pf_.touch_entry(entry);
    if (r.write) hit_getm(r, *entry, t); else hit_gets(r, *entry, t);
  } else if (region_on_) {
    region_miss(r, t);
  } else {
    miss(r, t);
  }
}

// --------------------------------------------------------------- PF hits ----

void DirectoryController::hit_gets(const Request& r, PfEntry& entry, Tick t) {
  switch (entry.state) {
    case PfState::kEM:
    case PfState::kOwned: {
      const NodeId owner = entry.owner;
      if (owner == r.from) {
        // The tracked owner claims a miss: it must have lost the line without
        // the directory noticing.  Defensive: refresh from DRAM, keep entry.
        ++stats_.anomalies;
        const Tick t_mem = fabric_.drams[node_]->read(t);
        const Tick t_data =
            send(node_, r.from, MsgKind::kData, noc::TrafficCause::kResponse,
                 t_mem);
        grant_at(r, entry.state == PfState::kEM ? LineState::kExclusive
                                                : LineState::kOwned,
                 /*with_data=*/true, t_data);
        finish_at(r.line, t_data);
        return;
      }
      // Directed downgrade probe to the owner; the owner supplies the line
      // cache-to-cache and acknowledges the directory.
      const Tick t_probe_arr =
          send(node_, owner, MsgKind::kProbeDown, noc::TrafficCause::kProbe, t);
      fabric_.at(t_probe_arr, [this, r, owner] {
        const ProbeResult res = fabric_.caches[owner]->probe(
            r.line, ProbeOp::kDowngrade, fabric_.events->now());
        if (!res.hit()) {
          // Owner no longer has it (should not happen under serialization).
          ++stats_.anomalies;
          const Tick t_mem = fabric_.drams[node_]->read(res.done);
          const Tick t_data = send(node_, r.from, MsgKind::kData,
                                   noc::TrafficCause::kResponse, t_mem);
          pf_.update(r.line, PfState::kShared, kInvalidNode);
          grant_at(r, LineState::kShared, true, t_data);
          finish_at(r.line, t_data);
          return;
        }
        const Tick t_data = send(owner, r.from, MsgKind::kAckData,
                                 noc::TrafficCause::kProbeAck, res.done);
        const Tick t_ack = send(owner, node_, MsgKind::kAck,
                                noc::TrafficCause::kProbeAck, res.done);
        // M -> owner keeps a dirty Owned copy; E -> both end up Shared.
        if (res.had == LineState::kModified || res.had == LineState::kOwned) {
          pf_.update(r.line, PfState::kOwned, owner);
        } else {
          pf_.update(r.line, PfState::kShared, kInvalidNode);
        }
        grant_at(r, LineState::kShared, true, t_data);
        finish_at(r.line, std::max(t_ack, t_data));
      });
      return;
    }
    case PfState::kShared: {
      // Clean copies exist somewhere; memory is up to date.
      const Tick t_mem = fabric_.drams[node_]->read(t);
      const Tick t_data = send(node_, r.from, MsgKind::kData,
                               noc::TrafficCause::kResponse, t_mem);
      grant_at(r, LineState::kShared, true, t_data);
      finish_at(r.line, t_data);
      return;
    }
    case PfState::kInvalid: break;
  }
  throw std::logic_error("hit_gets: invalid probe-filter entry state");
}

void DirectoryController::hit_getm(const Request& r, PfEntry& entry, Tick t) {
  switch (entry.state) {
    case PfState::kEM: {
      const NodeId owner = entry.owner;
      if (owner == r.from) {
        // Owner asks for M while tracked as EM: silent-upgrade information
        // was lost somewhere.  Defensive: refresh from DRAM.
        ++stats_.anomalies;
        const Tick t_mem = fabric_.drams[node_]->read(t);
        const Tick t_data = send(node_, r.from, MsgKind::kData,
                                 noc::TrafficCause::kResponse, t_mem);
        grant_at(r, LineState::kModified, true, t_data);
        finish_at(r.line, t_data);
        return;
      }
      const Tick t_probe_arr =
          send(node_, owner, MsgKind::kProbeInv, noc::TrafficCause::kProbe, t);
      fabric_.at(t_probe_arr, [this, r, owner] {
        const ProbeResult res = fabric_.caches[owner]->probe(
            r.line, ProbeOp::kInvalidate, fabric_.events->now());
        Tick t_data;
        if (res.hit()) {
          t_data = send(owner, r.from, MsgKind::kAckData,
                        noc::TrafficCause::kProbeAck, res.done);
        } else {
          ++stats_.anomalies;
          const Tick t_mem = fabric_.drams[node_]->read(res.done);
          t_data = send(node_, r.from, MsgKind::kData,
                        noc::TrafficCause::kResponse, t_mem);
        }
        const Tick t_ack = send(owner, node_, MsgKind::kAck,
                                noc::TrafficCause::kProbeAck, res.done);
        pf_.update(r.line, PfState::kEM, r.from);
        grant_at(r, LineState::kModified, true, t_data);
        finish_at(r.line, std::max(t_ack, t_data));
      });
      return;
    }
    case PfState::kOwned:
    case PfState::kShared:
      hit_getm_broadcast(r, entry, t);
      return;
    case PfState::kInvalid: break;
  }
  throw std::logic_error("hit_getm: invalid probe-filter entry state");
}

void DirectoryController::hit_getm_broadcast(const Request& r, PfEntry& entry,
                                             Tick t) {
  // Hammer does not track sharer sets: invalidate everywhere (except the
  // requester).  Acks collect at the home; a dirty owner forwards the line
  // to the requester cache-to-cache.
  BcastState* st = bcast_pool_.acquire();
  st->r = r;
  const bool was_owned = entry.state == PfState::kOwned;

  // Speculative memory read when no dirty owner is guaranteed to supply it.
  if (!r.has_line && !was_owned) {
    st->t_mem = fabric_.drams[node_]->read(t);
    st->used_dram = true;
  }

  const std::uint32_t n_nodes = fabric_.config->num_nodes();
  for (NodeId n = 0; n < n_nodes; ++n) {
    if (n == r.from) continue;
    ++st->expected;
    const Tick t_arr =
        send(node_, n, MsgKind::kProbeInv, noc::TrafficCause::kProbe, t);
    fabric_.at(t_arr, [this, n, st] {
      const ProbeResult res = fabric_.caches[n]->probe(
          st->r.line, ProbeOp::kInvalidate, fabric_.events->now());
      if (res.dirty()) {
        st->t_data = send(n, st->r.from, MsgKind::kAckData,
                          noc::TrafficCause::kProbeAck, res.done);
        st->data_from_owner = true;
      }
      const Tick t_ack =
          send(n, node_, MsgKind::kAck, noc::TrafficCause::kProbeAck, res.done);
      fabric_.at(t_ack, [this, st] {
        st->t_acks_done = std::max(st->t_acks_done, fabric_.events->now());
        if (++st->acks == st->expected) bcast_on_all_acks(st);
      });
    });
  }
}

void DirectoryController::bcast_on_all_acks(BcastState* st) {
  const Request r = st->r;
  pf_.update(r.line, PfState::kEM, r.from);
  Tick t_end;
  if (st->data_from_owner) {
    // Line already flying to the requester; completion still waits for all
    // acks, signalled with a control message.
    const Tick t_cmpl = send(node_, r.from, MsgKind::kComplete,
                             noc::TrafficCause::kResponse, st->t_acks_done);
    t_end = std::max(st->t_data, t_cmpl);
    grant_at(r, LineState::kModified, true, t_end);
  } else if (r.has_line) {
    const Tick t_cmpl = send(node_, r.from, MsgKind::kComplete,
                             noc::TrafficCause::kResponse, st->t_acks_done);
    t_end = t_cmpl;
    grant_at(r, LineState::kModified, false, t_end);
  } else {
    Tick t_mem = st->t_mem;
    if (!st->used_dram) {
      // Tracked owner vanished without supplying data: defensive re-read.
      ++stats_.anomalies;
      t_mem = fabric_.drams[node_]->read(st->t_acks_done);
    }
    const Tick t_data =
        send(node_, r.from, MsgKind::kData, noc::TrafficCause::kResponse,
             std::max(t_mem, st->t_acks_done));
    t_end = t_data;
    grant_at(r, LineState::kModified, true, t_end);
  }
  bcast_pool_.release(st);
  finish_at(r.line, t_end);
}

// --------------------------------------------------------------- PF miss ----

void DirectoryController::miss(const Request& r, Tick t) {
  const bool allarm = mode_ == DirectoryMode::kAllarm;

  if (allarm && r.from == node_) {
    // The ALLARM fast path: a local miss allocates nothing and probes nobody.
    ++stats_.local_no_alloc;
    const Tick t_mem = fabric_.drams[node_]->read(t);
    const Tick t_data = send(node_, r.from, MsgKind::kData,
                             noc::TrafficCause::kResponse, t_mem);
    grant_at(r, r.write ? LineState::kModified : LineState::kExclusive, true,
             t_data);
    finish_at(r.line, t_data);
    return;
  }

  // Allocation path: reserve the way up front (the line is busy, so the
  // placeholder entry is invisible until the transaction completes).
  MissState* st = miss_pool_.acquire();
  st->r = r;
  st->t_victim_done = t;
  st->data_src = node_;
  st->final_owner = r.from;

  if (!pf_.has_free_way(r.line)) {
    auto victim = pf_.displace_victim(
        r.line, [this](LineAddr l) { return busy_.count(l) != 0; });
    if (!victim) {
      // Every way pinned by in-flight transactions: retry shortly.  In
      // region mode the retry re-enters through the region hook: the
      // region may have recollected (or been claimed) in the meantime.
      ++stats_.victim_stalls;
      miss_pool_.release(st);
      fabric_.at(t + fabric_.config->probe_filter_latency * 8, [this, r] {
        const Tick now = fabric_.events->now();
        if (region_on_) region_miss(r, now); else miss(r, now);
      });
      return;
    }
    if (region_on_) region_note_entry_removed(*victim);
    if (fabric_.config->eviction_gates_reply) {
      st->waiting_victim = true;
      run_eviction(*victim, t, st);
    } else {
      // Eviction-buffer model: the victim invalidation drains in the
      // background; the reply does not wait for it.
      run_eviction(*victim, t, nullptr);
    }
  }
  pf_.insert(r.line, PfState::kEM, r.from);  // Placeholder, fixed on completion.
  if (region_on_) region_.note_block_installed(region_.region_of(r.line));

  if (!allarm) {
    // Baseline: a PF miss implies the line is uncached anywhere.
    st->grant_state = r.write ? LineState::kModified : LineState::kExclusive;
    st->t_serve = fabric_.drams[node_]->read(t);
    st->waiting_main = false;
    miss_try_complete(st);
    return;
  }

  // ALLARM, remote requester: the home core may hold the line untracked.
  // Probe it; the speculative DRAM read proceeds in parallel (Section II-D).
  ALLARM_LOG_TRACE("dir", node_, " ALLARM local probe line=", r.line,
                   " for node ", r.from);
  ++stats_.remote_miss_probes;
  st->parallel_probe = fabric_.config->allarm_parallel_local_probe;
  st->t_mem_spec = st->parallel_probe ? fabric_.drams[node_]->read(t) : 0;
  const Tick t_probe_arr = send(node_, node_, MsgKind::kLocalProbe,
                                noc::TrafficCause::kProbe, t);
  fabric_.at(t_probe_arr, [this, st] { miss_local_probe_done(st); });
}

void DirectoryController::miss_local_probe_done(MissState* st) {
  const Request& r = st->r;
  const ProbeResult res = fabric_.caches[node_]->probe(
      r.line, r.write ? ProbeOp::kInvalidate : ProbeOp::kDowngrade,
      fabric_.events->now());
  const Tick t_probe_done = send(node_, node_, MsgKind::kAck,
                                 noc::TrafficCause::kProbeAck, res.done);
  if (!res.hit()) {
    const Tick t_mem = st->parallel_probe
                           ? st->t_mem_spec
                           : fabric_.drams[node_]->read(t_probe_done);
    if (st->parallel_probe && t_probe_done <= t_mem) {
      ++stats_.remote_miss_probe_hidden;
    }
    st->grant_state = r.write ? LineState::kModified : LineState::kExclusive;
    st->t_serve = std::max(t_mem, t_probe_done);
  } else {
    // The home core held the line untracked: it supplies the data
    // cache-to-cache; the speculative DRAM read is discarded.
    ++stats_.remote_miss_probe_hit;
    st->data_kind = MsgKind::kAckData;
    st->data_cause = noc::TrafficCause::kProbeAck;
    st->t_serve = res.done;
    if (!r.write) {
      st->grant_state = LineState::kShared;
      if (res.dirty()) {
        st->final_state = PfState::kOwned;
        st->final_owner = node_;
      } else {
        st->final_state = PfState::kShared;
        st->final_owner = kInvalidNode;
      }
    } else {
      st->grant_state = LineState::kModified;  // Entry stays EM(requester).
    }
  }
  st->waiting_main = false;
  miss_try_complete(st);
}

void DirectoryController::miss_try_complete(MissState* st) {
  if (st->waiting_victim || st->waiting_main) return;
  const LineAddr line = st->r.line;
  if (const PfEntry* e = pf_.peek(line);
      e && (e->state != st->final_state || e->owner != st->final_owner)) {
    pf_.update(line, st->final_state, st->final_owner);
  }
  const Tick t_ready = std::max(st->t_serve, st->t_victim_done);
  const Tick t_data =
      send(st->data_src, st->r.from, st->data_kind, st->data_cause, t_ready);
  grant_at(st->r, st->grant_state, true, t_data);
  miss_pool_.release(st);
  finish_at(line, t_data);
}

// -------------------------------------------------------------- evictions ----

void DirectoryController::run_eviction(const PfEntry& victim, Tick t,
                                       MissState* gated) {
  ALLARM_LOG_TRACE("dir", node_, " evicts entry line=", victim.line,
                   " state=", to_string(victim.state));
  ++stats_.pf_evictions;
  busy_.insert(victim.line);

  EvictState* st = evict_pool_.acquire();
  st->line = victim.line;
  st->gated = gated;

  auto probe_target = [this, t, st](NodeId n) {
    ++st->expected;
    const Tick t_arr =
        send(node_, n, MsgKind::kProbeInv, noc::TrafficCause::kEviction, t);
    ++stats_.eviction_messages;
    fabric_.at(t_arr, [this, n, st] {
      const ProbeResult res = fabric_.caches[n]->probe(
          st->line, ProbeOp::kInvalidate, fabric_.events->now());
      if (res.hit()) ++stats_.eviction_lines_invalidated;
      const MsgKind ack_kind = res.dirty() ? MsgKind::kAckData : MsgKind::kAck;
      const bool dirty = res.dirty();
      const Tick t_ack = send(n, node_, ack_kind,
                              noc::TrafficCause::kEvictionAck, res.done);
      ++stats_.eviction_messages;
      fabric_.at(t_ack, [this, dirty, st] {
        const Tick now = fabric_.events->now();
        if (dirty) {
          fabric_.drams[node_]->write(now);
          ++stats_.eviction_dirty_writebacks;
        }
        st->t_latest = std::max(st->t_latest, now);
        if (++st->acks == st->expected) {
          const LineAddr line = st->line;
          const Tick t_latest = st->t_latest;
          MissState* gated_miss = st->gated;
          evict_pool_.release(st);
          release_and_drain(line);
          if (gated_miss != nullptr) {
            gated_miss->t_victim_done = t_latest;
            gated_miss->waiting_victim = false;
            miss_try_complete(gated_miss);
          }
        }
      });
    });
  };

  // EM entries have a known unique holder; Owned/Shared sharers are unknown
  // under Hammer, so the invalidation broadcasts to every node.
  if (victim.state == PfState::kEM) {
    probe_target(victim.owner);
  } else {
    for (NodeId n = 0; n < fabric_.config->num_nodes(); ++n) {
      probe_target(n);
    }
  }
}

// --------------------------------------------------- region granularity ----

void DirectoryController::region_miss(const Request& r, Tick t) {
  // The region table is part of the directory structure the PF lookup
  // already paid for: the probe_filter_latency charged by start_request
  // covers both, so no extra latency is modeled here.
  const region::RegionNum rn = region_.region_of(r.line);
  if (region::RegionEntry* entry = region_.lookup(rn)) {
    if (entry->owner == r.from) {
      // Region hit: the owner misses inside its private region.  Granted
      // E/M from home memory with no per-block entry.  A set presence bit
      // means a grant we never saw die — defensive, the re-grant is
      // idempotent.
      if (!region_.mark_present(*entry, r.line)) ++stats_.anomalies;
      region_serve(r, t);
      return;
    }
    region_collapse(r, region_.collapse(rn, r.from), t);
    return;
  }
  if (region_.note_miss_can_privatize(rn, r.from)) {
    region::RegionEntry& entry = region_.install(rn, r.from);
    region_.mark_present(entry, r.line);
    ALLARM_LOG_TRACE("dir", node_, " region install rn=", rn, " owner=",
                     r.from);
    region_serve(r, t);
    return;
  }
  miss(r, t);
}

void DirectoryController::region_serve(const Request& r, Tick t) {
  const Tick t_mem = fabric_.drams[node_]->read(t);
  const Tick t_data =
      send(node_, r.from, MsgKind::kData, noc::TrafficCause::kResponse, t_mem);
  grant_at(r, r.write ? LineState::kModified : LineState::kExclusive, true,
           t_data);
  finish_at(r.line, t_data);
}

void DirectoryController::region_collapse(const Request& r,
                                          region::RegionEntry victim, Tick t) {
  ALLARM_LOG_TRACE("dir", node_, " region collapse line=", r.line, " owner=",
                   victim.owner, " sharer=", r.from);
  const region::RegionGeometry& g = region_.geometry();
  const LineAddr base = g.base_line(region_.region_of(r.line));
  const unsigned my_slot = g.slot_of(r.line);
  for (unsigned s = 0; s < g.lines_per_region; ++s) {
    if (s == my_slot || ((victim.presence >> s) & 1) == 0) continue;
    const LineAddr line = base + s;
    if (busy_.count(line) != 0) {
      // The only transaction a region-covered line can carry is a region
      // grant to the owner still in flight; its per-block entry installs
      // when the line is released (see release_and_drain), before any
      // queued operation can run against the un-tracked window.
      pending_installs_[line] = victim.owner;
    } else {
      region_install_block(line, victim.owner, t);
    }
  }
  if (((victim.presence >> my_slot) & 1) == 0) {
    miss(r, t);
    return;
  }
  // The owner holds the requested line under the region grant: invalidate
  // it first (retrieving dirty data), then run the ordinary miss against
  // clean memory state.  Installing an entry and faking a PF hit instead
  // would lose the owner's copy on the no-free-way retry path.
  const NodeId owner = victim.owner;
  const Tick t_probe =
      send(node_, owner, MsgKind::kProbeInv, noc::TrafficCause::kProbe, t);
  fabric_.at(t_probe, [this, r, owner] {
    const ProbeResult res = fabric_.caches[owner]->probe(
        r.line, ProbeOp::kInvalidate, fabric_.events->now());
    // Region grants are E/M and never die silently; a clean miss here
    // means a writeback raced ahead of us.
    if (!res.hit()) ++stats_.anomalies;
    const bool dirty = res.dirty();
    const Tick t_ack =
        send(owner, node_, dirty ? MsgKind::kAckData : MsgKind::kAck,
             noc::TrafficCause::kProbeAck, res.done);
    fabric_.at(t_ack, [this, r, dirty] {
      const Tick now = fabric_.events->now();
      if (dirty) fabric_.drams[node_]->write(now);
      miss(r, now);
    });
  });
}

void DirectoryController::region_install_block(LineAddr line, NodeId owner,
                                               Tick t) {
  if (pf_.peek(line) != nullptr) {
    ++stats_.anomalies;  // Dual coverage; the PF entry wins (looked up first).
    return;
  }
  if (pf_.has_free_way(line)) {
    pf_.insert(line, PfState::kEM, owner);
    region_.note_block_installed(region_.region_of(line));
    ++region_.stats_mut().collapse_block_installs;
    return;
  }
  // No way free for the displaced block: invalidate the owner's copy
  // instead of tracking it (a collapse spill, reusing the eviction flow).
  ++region_.stats_mut().collapse_spills;
  PfEntry spill;
  spill.line = line;
  spill.state = PfState::kEM;
  spill.owner = owner;
  run_eviction(spill, t, nullptr);
}

bool DirectoryController::region_put(const Put& p, Tick t) {
  region::RegionEntry* entry = region_.lookup(region_.region_of(p.line));
  if (entry == nullptr || entry->owner != p.from) return false;
  if (!region_.clear_present(*entry, p.line)) return false;
  if (p.dirty) fabric_.drams[node_]->write(t);
  return true;
}

void DirectoryController::region_note_entry_removed(const PfEntry& removed) {
  const auto outcome = region_.note_block_removed(
      region_.region_of(removed.line), removed.state == PfState::kEM,
      removed.owner);
  if (outcome == region::RegionDirectory::Removal::kUntracked) {
    ++stats_.anomalies;
  }
}

// ------------------------------------------------------------- writebacks ----

void DirectoryController::process_put(const Put& p, Tick now) {
  const Tick t = now + fabric_.config->probe_filter_latency;
  PfEntry* entry = pf_.lookup(p.line);
  if (entry && entry->owner == p.from && entry->state == PfState::kEM) {
    // Sole owner gave the line up: memory gets the data, the entry is freed
    // (the paper's optimized baseline behaviour).
    if (p.dirty) fabric_.drams[node_]->write(t);
    const PfEntry removed = *entry;
    pf_.erase_entry(entry);
    if (region_on_) region_note_entry_removed(removed);
    ++stats_.puts_owner;
  } else if (entry && entry->owner == p.from &&
             entry->state == PfState::kOwned) {
    // Dirty-shared owner wrote back; unknown sharers may remain.
    if (p.dirty) fabric_.drams[node_]->write(t);
    pf_.update_entry(entry, PfState::kShared, kInvalidNode);
    ++stats_.puts_owner;
  } else if (entry) {
    // Raced with an ownership change; the data (if any) is already stale
    // with respect to the new owner, but writing it back is harmless
    // because memory is stale anyway while an M copy exists.
    ++stats_.puts_stale;
    if (p.dirty) fabric_.drams[node_]->write(t);
  } else if (region_on_ && region_put(p, t)) {
    // Owner writeback of a region-granted line: the presence bit was
    // cleared (and memory updated when dirty) by region_put.
  } else {
    // No entry: an ALLARM-untracked home line, or the entry was already
    // evicted (the eviction probe consumed the cached copy via the
    // writeback buffer).
    if (p.dirty) fabric_.drams[node_]->write(t);
    if (mode_ == DirectoryMode::kAllarm && p.from == node_) {
      ++stats_.puts_local_untracked;
    } else {
      ++stats_.puts_stale;
    }
  }
  const Tick t_ack =
      send(node_, p.from, MsgKind::kPutAck, noc::TrafficCause::kResponse, t);
  fabric_.at(t_ack, [this, p] {
    fabric_.caches[p.from]->put_ack(p.line, fabric_.events->now());
  });
}

}  // namespace allarm::coherence

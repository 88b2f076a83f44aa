#include "coherence/cache_controller.hh"

#include <stdexcept>

#include "coherence/directory.hh"
#include "common/log.hh"

namespace allarm::coherence {

using cache::Array;
using cache::LineState;

CacheController::CacheController(NodeId node, Fabric& fabric)
    : node_(node),
      fabric_(fabric),
      hierarchy_(*fabric.config, 0, "node" + std::to_string(node)) {}

Tick CacheController::acquire(Tick now, Tick duration) {
  const Tick start = now > busy_until_ ? now : busy_until_;
  busy_until_ = start + duration;
  return busy_until_;
}

bool CacheController::in_writeback_buffer(LineAddr line) const {
  const WbbEntry* entry = wbb_.find(line);
  return entry != nullptr && !entry->invalidated;
}

void CacheController::emit_writebacks(const std::vector<cache::Victim>& victims,
                                      Tick t) {
  for (const cache::Victim& v : victims) {
    if (v.state == LineState::kShared) {
      // Clean shared lines drop silently; the directory entry (if any) goes
      // stale until the probe filter evicts it - Hammer semantics.
      ++stats_.silent_drops;
      continue;
    }
    const bool dirty = cache::is_dirty(v.state);
    const auto [entry, inserted] = wbb_.try_emplace(v.line);
    if (!inserted) {
      ++stats_.wbb_collisions;  // Should not happen; keep simulating.
    }
    *entry = WbbEntry{v.state, false};
    stats_.wbb_peak = std::max<std::uint64_t>(stats_.wbb_peak, wbb_.size());
    if (dirty) ++stats_.puts_dirty; else ++stats_.puts_clean;

    const MsgKind kind = dirty ? MsgKind::kPutM : MsgKind::kPutE;
    const NodeId home = fabric_.home_of(addr_of_line(v.line));
    const Tick t_arr =
        fabric_.mesh->send(node_, home, size_of(kind, *fabric_.config), t,
                           noc::TrafficCause::kWriteback);
    const Put put{v.line, node_, dirty};
    fabric_.at(t_arr, [this, home, put] {
      fabric_.directories[home]->handle_put(put);
    });
  }
}

void CacheController::send_request(const PendingRequest& req, bool has_line,
                                   Tick t) {
  const MsgKind kind = req.write ? MsgKind::kGetM : MsgKind::kGetS;
  const NodeId home = fabric_.home_of(addr_of_line(req.line));
  ALLARM_LOG_TRACE("cache", node_, " issues ", to_string(kind), " line=",
                   req.line, " home=", home);
  const Request out{req.line, node_, req.write, has_line, req.issued};
  const Tick t_arr =
      fabric_.mesh->send(node_, home, size_of(kind, *fabric_.config), t,
                         noc::TrafficCause::kRequest);
  fabric_.at(t_arr, [this, home, out] {
    fabric_.directories[home]->handle_request(out);
  });
}

void CacheController::core_access(AccessType type, Addr paddr, DoneFn done) {
  if (pending_ || wbb_wait_) {
    throw std::logic_error("CacheController: core already has an access in flight");
  }
  const LineAddr line = line_of(paddr);
  const Tick now = fabric_.events->now();
  const bool write = type == AccessType::kStore;
  const bool ifetch = type == AccessType::kInstFetch;
  const Array want = ifetch ? Array::kL1I : Array::kL1D;

  switch (type) {
    case AccessType::kLoad: ++stats_.loads; break;
    case AccessType::kStore: ++stats_.stores; break;
    case AccessType::kInstFetch: ++stats_.ifetches; break;
  }

  Tick t = acquire(now, fabric_.config->l1d.latency);
  const cache::Location loc = hierarchy_.locate(line);

  if (loc.present()) {
    const bool can_read = !write;
    const bool can_write = write && cache::is_writable(loc.state);
    if (can_read || can_write) {
      // Hit somewhere in the hierarchy.
      if (loc.array == Array::kL2) {
        t = acquire(t, fabric_.config->l2.latency);
        emit_writebacks(hierarchy_.promote(want, line), t);
        ++stats_.l2_hits;
        if (write) hierarchy_.set_state(line, LineState::kModified);
      } else if (write && loc.array == Array::kL1I) {
        // Store to a line sitting in the L1I: migrate it to the L1D.
        hierarchy_.invalidate(line);
        emit_writebacks(
            hierarchy_.fill_absent(Array::kL1D, line, LineState::kModified), t);
        ++stats_.l1_hits;
      } else {
        // The common L1 hit: one combined tag-scan/touch, and stores
        // rewrite the state through the returned handle.
        const cache::StateRef state = hierarchy_.touch_ref(line);
        ++stats_.l1_hits;
        if (write) state.set(LineState::kModified);
      }
      done(t);
      return;
    }
    // Store to a Shared/Owned copy: upgrade (GetM with the line in hand).
    ++stats_.upgrades;
  }

  // Miss (or upgrade): if the line is mid-writeback, wait for the PutAck
  // and retry; otherwise issue a coherence request to the home directory.
  if (in_writeback_buffer(line)) {
    ++stats_.wbb_stalls;
    wbb_wait_ = std::make_pair(type, paddr);
    wbb_wait_done_ = std::move(done);
    wbb_wait_line_ = line;
    return;
  }

  t = acquire(t, fabric_.config->l2.latency);  // L2 tag check on the way out.
  ++stats_.misses;
  pending_ = PendingRequest{line, type, write, now, std::move(done)};
  send_request(*pending_, loc.present(), t);
}

ProbeResult CacheController::probe(LineAddr line, ProbeOp op, Tick now) {
  ++stats_.probes_seen;
  const Tick t = acquire(now, fabric_.config->l2.latency);

  // The writeback buffer still owns recently evicted lines and can supply
  // dirty data until the directory acknowledges the Put.
  if (WbbEntry* entry = wbb_.find(line);
      entry != nullptr && !entry->invalidated) {
    ++stats_.probe_hits;
    const LineState had = entry->state;
    if (op == ProbeOp::kInvalidate) {
      entry->invalidated = true;
    } else if (had == LineState::kModified) {
      entry->state = LineState::kOwned;
    } else if (had == LineState::kExclusive) {
      entry->state = LineState::kShared;
    }
    return ProbeResult{t, had};
  }

  const LineState had = op == ProbeOp::kInvalidate ? hierarchy_.invalidate(line)
                                                   : hierarchy_.downgrade(line);
  if (cache::is_valid(had)) ++stats_.probe_hits;
  return ProbeResult{t, had};
}

void CacheController::grant(LineAddr line, LineState state, bool with_data,
                            Tick now) {
  if (!pending_ || pending_->line != line) {
    throw std::logic_error("CacheController::grant: no matching request");
  }
  const Tick t = acquire(now, fabric_.config->l1d.latency);
  const Array want =
      pending_->type == AccessType::kInstFetch ? Array::kL1I : Array::kL1D;

  // One lookup decides: a line still held is touched and rewritten through
  // its handle, an absent one is filled.
  if (const cache::StateRef held = hierarchy_.touch_ref(line)) {
    // Upgrade: the clean copy is still here; only the state changes.
    held.set(state);
  } else {
    // A data-less grant for a line we no longer hold is a protocol leak
    // the tests assert never happens.  Fill anyway to keep the run alive.
    if (!with_data) ++stats_.upgrade_without_line;
    emit_writebacks(hierarchy_.fill_absent(want, line, state), t);
  }

  ALLARM_LOG_TRACE("cache", node_, " granted line=", line, " state=",
                   cache::to_string(state),
                   with_data ? " with data" : " (upgrade)");
  stats_.total_miss_latency += t - pending_->issued;
  DoneFn done = std::move(pending_->done);
  pending_.reset();
  done(t);
}

void CacheController::put_ack(LineAddr line, Tick now) {
  wbb_.erase(line);
  if (wbb_wait_ && wbb_wait_line_ == line) {
    const auto [type, paddr] = *wbb_wait_;
    wbb_wait_.reset();
    DoneFn done = std::move(wbb_wait_done_);
    wbb_wait_done_ = nullptr;
    core_access(type, paddr, std::move(done));
    (void)now;
  }
}

}  // namespace allarm::coherence

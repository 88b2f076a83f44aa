#include "region/region.hh"

#include <stdexcept>

namespace allarm::region {

namespace {

std::uint64_t popcount64(std::uint64_t v) {
  std::uint64_t n = 0;
  while (v != 0) {
    v &= v - 1;
    ++n;
  }
  return n;
}

}  // namespace

RegionGeometry::RegionGeometry(std::uint32_t region_size_bytes) {
  if (region_size_bytes < kLineBytes ||
      (region_size_bytes & (region_size_bytes - 1)) != 0 ||
      region_size_bytes > kPageBytes) {
    throw std::invalid_argument(
        "region size must be a power of two in [line, page]");
  }
  lines_per_region = region_size_bytes / kLineBytes;
  shift = 0;
  while ((1u << shift) < lines_per_region) ++shift;
}

// --------------------------------------------------------------- RTracker ----

RTracker::Info& RTracker::touch(RegionNum region, NodeId from) {
  auto [info, inserted] = map_.try_emplace(region);
  if (inserted) {
    info->owner = from;
  } else if (!info->shared && info->owner != from) {
    info->shared = true;
    ++shared_;
  }
  return *info;
}

void RTracker::erase(RegionNum region) {
  if (Info* info = map_.find(region)) {
    if (info->shared) --shared_;
    map_.erase(region);
  }
}

void RTracker::reset_private(RegionNum region, NodeId owner) {
  Info& info = *map_.try_emplace(region).first;
  if (info.shared) --shared_;
  info.owner = owner;
  info.shared = false;
  info.block_entries = 0;
}

// -------------------------------------------------------- RegionDirectory ----

RegionDirectory::RegionDirectory(std::uint32_t region_size_bytes)
    : geometry_(region_size_bytes) {}

RegionEntry* RegionDirectory::lookup(RegionNum region) {
  ++stats_.reads;
  return table_.find(region);
}

bool RegionDirectory::covers(LineAddr line, NodeId holder) const {
  const RegionEntry* entry = table_.find(geometry_.region_of(line));
  return entry != nullptr && entry->owner == holder &&
         ((entry->presence >> geometry_.slot_of(line)) & 1) != 0;
}

bool RegionDirectory::note_miss_can_privatize(RegionNum region, NodeId from) {
  const RTracker::Info& info = tracker_.touch(region, from);
  return !info.shared && info.owner == from && info.block_entries == 0;
}

RegionEntry& RegionDirectory::install(RegionNum region, NodeId owner) {
  ++stats_.writes;
  ++stats_.installs;
  RegionEntry& entry = *table_.try_emplace(region).first;
  entry.owner = owner;
  entry.presence = 0;
  return entry;
}

bool RegionDirectory::mark_present(RegionEntry& entry, LineAddr line) {
  ++stats_.writes;
  ++stats_.hits;
  const std::uint64_t bit = 1ull << geometry_.slot_of(line);
  if ((entry.presence & bit) != 0) return false;
  entry.presence |= bit;
  ++presence_bits_;
  return true;
}

bool RegionDirectory::clear_present(RegionEntry& entry, LineAddr line) {
  const std::uint64_t bit = 1ull << geometry_.slot_of(line);
  if ((entry.presence & bit) == 0) return false;
  ++stats_.writes;
  ++stats_.puts;
  entry.presence &= ~bit;
  --presence_bits_;
  return true;
}

RegionEntry RegionDirectory::collapse(RegionNum region, NodeId sharer) {
  RegionEntry* entry = table_.find(region);
  if (entry == nullptr) {
    throw std::logic_error("collapse of a region with no entry");
  }
  const RegionEntry victim = *entry;
  ++stats_.writes;
  ++stats_.collapses;
  presence_bits_ -= popcount64(victim.presence);
  table_.erase(region);
  tracker_.touch(region, sharer);  // A second node: poisons the region.
  return victim;
}

void RegionDirectory::note_block_installed(RegionNum region) {
  RTracker::Info* info = tracker_.find(region);
  if (info == nullptr) {
    // Defensive: a block entry for an unclassified region (possible only
    // after a forgotten region raced a victim-stall retry).  Record it as
    // shared so the region cannot privatize over a live block entry.
    RTracker::Info& fresh = tracker_.touch(region, kInvalidNode);
    tracker_.mark_shared(fresh);
    fresh.block_entries = 1;
    return;
  }
  ++info->block_entries;
}

RegionDirectory::Removal RegionDirectory::note_block_removed(RegionNum region,
                                                             bool was_em,
                                                             NodeId owner) {
  RTracker::Info* info = tracker_.find(region);
  if (info == nullptr || info->block_entries == 0) return Removal::kUntracked;
  if (--info->block_entries > 0) return Removal::kNone;
  if (!was_em) {
    // The last tracked block left with unknown sharers: forget the region
    // so the next toucher starts a fresh private classification.
    tracker_.erase(region);
    return Removal::kNone;
  }
  if (table_.find(region) != nullptr) return Removal::kNone;  // Re-covered.
  // Recollection: every block entry of the collapsed region has died and
  // the last one was exclusive/modified at a single node — resume
  // region-granularity coverage for that node.
  ++stats_.recollects;
  ++stats_.writes;
  RegionEntry& entry = *table_.try_emplace(region).first;
  entry.owner = owner;
  entry.presence = 0;
  tracker_.reset_private(region, owner);
  return Removal::kRecollected;
}

}  // namespace allarm::region

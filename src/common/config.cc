#include "common/config.hh"


namespace allarm {

std::string to_string(DirectoryMode mode) {
  switch (mode) {
    case DirectoryMode::kBaseline: return "baseline";
    case DirectoryMode::kAllarm: return "allarm";
    case DirectoryMode::kRegion: return "region";
  }
  return "unknown";
}

bool from_string(const std::string& name, DirectoryMode& mode) {
  for (const auto m : {DirectoryMode::kBaseline, DirectoryMode::kAllarm,
                       DirectoryMode::kRegion}) {
    if (to_string(m) == name) {
      mode = m;
      return true;
    }
  }
  return false;
}

namespace {

void check(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument("SystemConfig: " + what);
}

void check_cache(const CacheConfig& c, const std::string& name) {
  check(c.size_bytes >= kLineBytes, name + " smaller than one line");
  check(c.size_bytes % kLineBytes == 0, name + " not a multiple of the line size");
  check(c.ways >= 1, name + " has zero ways");
  check(c.ways <= kMaxWays, name + " has more than 255 ways");
  check(c.lines() % c.ways == 0, name + " lines not divisible by ways");
  const std::uint32_t sets = c.sets();
  check(sets != 0 && (sets & (sets - 1)) == 0,
        name + " set count must be a power of two");
}

}  // namespace

void SystemConfig::validate() const {
  check(num_cores >= 1, "no cores");
  check(mesh_width >= 1 && mesh_height >= 1, "degenerate mesh");
  check(num_cores == num_nodes(),
        "one core per node is assumed (num_cores must equal mesh size)");
  check_cache(l1i, "L1I");
  check_cache(l1d, "L1D");
  check_cache(l2, "L2");
  check(probe_filter_coverage_bytes >= kLineBytes, "probe filter too small");
  check(probe_filter_ways >= 1, "probe filter has zero ways");
  check(probe_filter_ways <= kMaxWays, "probe filter has more than 255 ways");
  check(probe_filter_entries() % probe_filter_ways == 0,
        "probe filter entries not divisible by ways");
  const std::uint32_t pf_sets = probe_filter_entries() / probe_filter_ways;
  check(pf_sets != 0 && (pf_sets & (pf_sets - 1)) == 0,
        "probe filter set count must be a power of two");
  check(region_size_bytes >= kLineBytes &&
            (region_size_bytes & (region_size_bytes - 1)) == 0,
        "region size must be a power of two of at least one line");
  check(region_size_bytes <= kPageBytes,
        "region size must not exceed the page size (one home per region)");
  check(flit_bytes >= 1, "flit size must be positive");
  check(control_msg_bytes >= 1 && data_msg_bytes > control_msg_bytes,
        "message sizes inconsistent");
  check(link_bandwidth_gbps > 0.0, "link bandwidth must be positive");
  check(dram_total_bytes % num_nodes() == 0,
        "DRAM must divide evenly across nodes");
  check(dram_bytes_per_node() % kPageBytes == 0,
        "per-node DRAM must be page aligned");
}

}  // namespace allarm

// McPAT-lite: dynamic-energy and area models for the structures the paper
// evaluates (Figure 3f and the probe-filter area table), at a nominal 32nm
// process.
//
// Energy is events x per-event cost.  Per-event costs follow the usual
// CACTI shape: a fixed peripheral term plus a term growing with the square
// root of the array size.  The area model is a power law fitted to the five
// McPAT data points published in the paper (Section III-B); the fit and its
// residuals are documented in EXPERIMENTS.md.  Absolute joules are nominal;
// every figure reports energy *normalized* to the baseline, which only
// requires the event weights to be mutually consistent.
#pragma once

#include <cstdint>

#include "coherence/probe_filter.hh"
#include "common/config.hh"
#include "noc/mesh.hh"

namespace allarm::energy {

/// Dynamic energy / area model.
class EnergyModel {
 public:
  explicit EnergyModel(const SystemConfig& config);

  // --- Per-event energies (picojoules) -------------------------------------
  /// One probe-filter tag+state read.
  double pf_read_pj() const { return pf_read_pj_; }
  /// One probe-filter entry write (install / update / invalidate).
  double pf_write_pj() const { return pf_write_pj_; }
  /// Extra energy of one eviction: victim readout plus invalidation write.
  double pf_eviction_pj() const { return pf_read_pj_ + pf_write_pj_; }
  /// Energy of moving one flit across one router plus one link.
  double noc_flit_hop_pj() const { return router_flit_pj_ + link_flit_pj_; }
  /// One DRAM line access.
  double dram_access_pj() const { return dram_access_pj_; }
  /// One region-table tag+presence read.  The region table covering the
  /// same cached bytes as the probe filter holds coverage/region_size
  /// entries of roughly twice the width (owner + presence bitmap), so its
  /// per-event cost is that of an equivalently sized SRAM array.
  double region_read_pj() const { return region_read_pj_; }
  /// One region-entry write (install / presence flip / removal).
  double region_write_pj() const { return region_write_pj_; }
  /// One collapse: victim readout plus the withdrawal write (the per-block
  /// installs it triggers are billed as probe-filter writes).
  double region_collapse_pj() const { return region_read_pj_ + region_write_pj_; }

  // --- Aggregation -----------------------------------------------------------
  /// Network energy from mesh statistics.
  double noc_energy_nj(const noc::NocStats& stats) const;

  /// Probe-filter energy from access counts.
  double pf_energy_nj(std::uint64_t reads, std::uint64_t writes,
                      std::uint64_t evictions) const;

  /// DRAM energy from access counts.
  double dram_energy_nj(std::uint64_t accesses) const;

  /// Region-table energy from access counts (zero outside region mode).
  double region_energy_nj(std::uint64_t reads, std::uint64_t writes,
                          std::uint64_t collapses) const;

  // --- Area -------------------------------------------------------------------
  /// Total die area of all `num_directories` probe filters, each covering
  /// `coverage_bytes` of cached data.  Power-law fit to the paper's McPAT
  /// table (512kB -> 70.89 mm^2 ... 32kB -> 5.93 mm^2 for 16 directories).
  static double probe_filter_area_mm2(std::uint32_t coverage_bytes,
                                      std::uint32_t num_directories);

  /// Die area of `num_directories` region tables that track the same
  /// cached bytes as a probe filter of `coverage_bytes`: the entry count
  /// shrinks by lines-per-region while the entry roughly doubles in width,
  /// so the equivalent SRAM is fed through the same power-law fit.
  static double region_directory_area_mm2(std::uint32_t coverage_bytes,
                                          std::uint32_t region_size_bytes,
                                          std::uint32_t num_directories);

 private:
  double pf_read_pj_;
  double pf_write_pj_;
  double region_read_pj_;
  double region_write_pj_;
  double router_flit_pj_;
  double link_flit_pj_;
  double dram_access_pj_;
};

}  // namespace allarm::energy

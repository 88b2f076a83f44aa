// The paper scorecard: every table and figure panel the reproduction
// reports, rendered from sweep JSON reports beside the paper's values, and
// one verdict per directional claim the reproduction must keep showing.
//
// Panels read whichever reports they are given, keyed by the report's
// sweep name (the grids of runner/grids.hh):
//
//   fig3      Figure 2 (its baseline cells) and Figures 3a-3g
//   fig3h     Figure 3h
//   fig4      Figures 4a-4f and the directory-sizing table (area column)
//   policy    the allocation-policy ablation and the placement table
//   ablation  eviction buffer, latency hiding, PF associativity, migration
//   region    the region-granularity directory table
//
// Table I and the probe-filter area table need no report.  Every value is
// a replicate mean, so a `--seeds K` report renders the same panels.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "runner/sweep.hh"

namespace allarm::runner {

/// Parses a sweep JSON report (runner/report.hh) back into a SweepResult of
/// per-cell summaries (`runs` stays empty).  Throws std::runtime_error
/// prefixed with `label` when the text is malformed or a cell carries
/// quarantined replicates (a degraded report is no basis for a claim).
SweepResult parse_report(const std::string& text, const std::string& label);

/// The scorecard CLI: reads each report, prints the panels, then one
/// `claim ok|FAIL|gap NAME: DETAIL` line per claim.  Returns 0, 1 when
/// any claim FAILs, or 2 when no path is given or a report cannot be read
/// or lacks a needed cell (the error goes to `err`).
int run_scorecard(const std::vector<std::string>& paths, std::ostream& out,
                  std::ostream& err);

}  // namespace allarm::runner

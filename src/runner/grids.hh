// The built-in sweep grids — the paper's figure experiments as named,
// parameterized SweepSpecs.
//
// Shared by the `sweep` CLI (--grid NAME) and the sweep service (a spool
// request names a grid the same way), so "what does grid X mean" has one
// definition.  grid_catalog() is the one list of grid names, descriptions
// and definitions: `sweep --list`, its usage line and builtin_grid_names()
// all read it.  The trace grid is built here too, from .altr
// files named in the knobs; a service request cannot name files, so it
// stays out of builtin_grid_names().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/sweep.hh"

namespace allarm::runner {

/// The caller-tunable axes every built-in grid accepts.
struct GridKnobs {
  std::uint32_t seeds = 1;       ///< Replicates per cell.
  std::uint64_t base_seed = 42;
  /// ROI accesses per thread; 0 = the grid's own default.
  std::uint64_t accesses = 0;
  /// Trace grid only: the .altr files to sweep (at least one).
  std::vector<std::string> traces;
  /// Trace grid only: replay core counts (empty = the machine's; a
  /// thread's captured placement node remaps to node mod cores).
  std::vector<std::uint32_t> cores;
};

/// One built-in grid: its name, a one-line description of its axes, and
/// its definition (make_builtin_grid adds the name and seed knobs).
struct GridInfo {
  std::string name;
  std::string description;
  SweepSpec (*build)(const GridKnobs& knobs);
};

/// Every grid make_builtin_grid builds, in listing order ("trace" last).
const std::vector<GridInfo>& grid_catalog();

/// Names a service request may give make_builtin_grid, in listing order
/// (every catalog grid except "trace").
const std::vector<std::string>& builtin_grid_names();

/// Builds the named grid: one of builtin_grid_names(), or "trace" (every
/// knobs.traces file at every knobs.cores count x {first-touch,
/// interleave} x {baseline, allarm}).  Throws std::invalid_argument for an
/// unknown name, zero `seeds` or a trace grid without traces — the
/// service's reject path and the CLI's usage error both hang off this.
SweepSpec make_builtin_grid(const std::string& name, const GridKnobs& knobs);

}  // namespace allarm::runner

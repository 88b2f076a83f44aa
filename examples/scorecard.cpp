// scorecard: the paper's tables and figure panels, rendered from sweep
// reports beside the paper's values, then one `claim ok|FAIL|gap NAME:
// DETAIL` line per directional claim (docs/FIDELITY.md records the gaps).
//
//   ./build/sweep --grid fig3 --out fig3.json
//   ./build/scorecard fig3.json [more sweep reports...]
//
// Every argument is a sweep JSON report; runner/scorecard.hh maps grids to
// panels.  Exit codes: 0 no claim FAILs, 1 a claim FAILs, 2 no report
// given, or a report is unreadable or lacks a cell its panel needs.
#include <iostream>

#include "runner/scorecard.hh"

int main(int argc, char** argv) {
  return allarm::runner::run_scorecard({argv + 1, argv + argc}, std::cout,
                                       std::cerr);
}

#!/usr/bin/env bash
# Checks that two builds write the same report bytes, the acceptance check
# of a refactor that must not change results.  On each build it runs:
#
#  - sweep --grid G --seeds 2 --accesses 500 for G in quick, fig3, fig4,
#    policy, region and ablation, at --jobs 1 and --jobs 4, writing JSON
#    and CSV;
#  - allarm_sim --mode both --accesses 3000 --full-stats --migrate-us 5
#    for barnes, dedup and ocean-cont (stdout);
#  - trace record of barnes (stdout and the .altr file) and trace replay
#    of that file at --mode region --cores 8 (stdout).
#
# Then it cmps every output of the change build against the parent's.
# Sweep's console output is not compared: it reports wall time.
#
# Usage: scripts/cmp_reports.sh PARENT_BUILD CHANGE_BUILD
#   PARENT_BUILD, CHANGE_BUILD: build directories holding sweep,
#   allarm_sim and trace.
# Exit: 0 when every output is identical; 1 when one differs (the first
# is named and the outputs are kept); 2 on a usage error or a failed run.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
for dir in "$1" "$2"; do
  if [ ! -d "$dir" ]; then
    echo "cmp_reports: $dir is not a directory" >&2
    exit 2
  fi
done
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
for build in "$PARENT" "$CHANGE"; do
  for tool in sweep allarm_sim trace; do
    if [ ! -x "$build/$tool" ]; then
      echo "cmp_reports: $build/$tool is not an executable" >&2
      exit 2
    fi
  done
done

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Runs one command with stdout to file $1 and stderr (progress lines) to
# a scratch file, shown only when the command fails, which exits 2.
run() {
  local out=$1
  shift
  if ! "$@" > "$out" 2> "$WORK/stderr.txt"; then
    cat "$WORK/stderr.txt" >&2
    echo "cmp_reports: failed: $*" >&2
    exit 2
  fi
}

# Runs every command on build $1 inside directory $2.  Relative paths keep
# the file names the tools print equal on both sides.
run_side() {
  local build=$1 dir=$2
  mkdir -p "$dir"
  cd "$dir"
  for grid in quick fig3 fig4 policy region ablation; do
    for jobs in 1 4; do
      run /dev/null "$build/sweep" --grid "$grid" --seeds 2 --accesses 500 \
        --jobs "$jobs" --out "sweep-$grid-j$jobs.json" \
        --csv "sweep-$grid-j$jobs.csv"
    done
  done
  for bench in barnes dedup ocean-cont; do
    run "allarm_sim-$bench.txt" "$build/allarm_sim" --benchmark "$bench" \
      --mode both --accesses 3000 --full-stats --migrate-us 5
  done
  run trace-record.txt "$build/trace" record --workload barnes \
    --out barnes.altr --accesses 500
  run trace-replay.txt "$build/trace" replay barnes.altr --mode region \
    --cores 8
}

echo "cmp_reports: running the parent build ($PARENT)"
run_side "$PARENT" "$WORK/parent"
echo "cmp_reports: running the change build ($CHANGE)"
run_side "$CHANGE" "$WORK/change"

files=$(cd "$WORK/parent" && ls)
if [ "$files" != "$(cd "$WORK/change" && ls)" ]; then
  echo "cmp_reports: the builds wrote different sets of files" >&2
  exit 1
fi
for f in $files; do
  if ! cmp -s "$WORK/parent/$f" "$WORK/change/$f"; then
    trap - EXIT
    echo "cmp_reports: $f differs (outputs kept in $WORK)" >&2
    exit 1
  fi
done
echo "cmp_reports: $(echo "$files" | wc -l) outputs identical"

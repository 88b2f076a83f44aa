#!/usr/bin/env bash
# CI smoke for the trace capture + replay subsystem (also runs fine
# locally):
#
#  1. capture invisibility  - `sweep --capture DIR` must produce a report
#                             byte-identical to the direct run (capture is
#                             a pure side effect) and one .altr per job;
#  2. replay identity       - `sweep --replay DIR` at a DIFFERENT --jobs
#                             must reproduce the direct report byte for
#                             byte: the acceptance property of trace
#                             replay;
#  3. trace grid            - `sweep --grid trace` over a captured .altr
#                             is deterministic across --jobs;
#  4. trace CLI             - record -> info -> cat -> replay round trip;
#                             the replay result block must equal the
#                             record result block byte for byte, and a
#                             malformed `cat --limit` or an out-of-range
#                             `replay --cores` exits 2 with no output;
#  5. ablation replay       - `sweep --grid ablation` captured and replayed
#                             reproduces its report byte for byte,
#                             thread-migration cells included.
#
# Usage: scripts/ci_trace_smoke.sh [path-to-sweep] [path-to-trace]
set -euo pipefail

SWEEP=${1:-./build/sweep}
TRACE=${2:-./build/trace}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

ARGS=(--grid quick --seeds 2 --accesses 1000 --seed 42)

echo "== 1/5 capture is invisible to the report =="
"$SWEEP" "${ARGS[@]}" --jobs 2 --out "$WORK/direct.json" 2> "$WORK/direct.log"
cat "$WORK/direct.log" >&2
"$SWEEP" "${ARGS[@]}" --jobs 2 --capture "$WORK/traces" \
         --out "$WORK/captured.json"
cmp "$WORK/direct.json" "$WORK/captured.json"
# One .altr per job, numbered by grid index.
JOBS=$(sed -n "s/^sweep '.*': \([0-9][0-9]*\) jobs.*/\1/p" "$WORK/direct.log")
CAPTURED=$(ls "$WORK/traces"/job-*.altr | wc -l)
if [ -z "$JOBS" ] || [ "$CAPTURED" -ne "$JOBS" ]; then
    echo "FAIL: expected $JOBS captured traces, found $CAPTURED"
    exit 1
fi
echo "OK: captured report identical; $CAPTURED traces written"

echo "== 2/5 replay reproduces the direct report at any --jobs =="
"$SWEEP" "${ARGS[@]}" --jobs 3 --replay "$WORK/traces" \
         --out "$WORK/replayed.json"
cmp "$WORK/direct.json" "$WORK/replayed.json"
echo "OK: replayed report is byte-identical to the direct run"

echo "== 3/5 trace grid is deterministic across --jobs =="
"$SWEEP" --grid trace --trace "$WORK/traces/job-0.altr" --cores 16,8 \
         --seeds 1 --seed 42 --jobs 2 --out "$WORK/grid-a.json"
"$SWEEP" --grid trace --trace "$WORK/traces/job-0.altr" --cores 16,8 \
         --seeds 1 --seed 42 --jobs 1 --out "$WORK/grid-b.json"
cmp "$WORK/grid-a.json" "$WORK/grid-b.json"
echo "OK: trace grid byte-identical at any --jobs"

echo "== 4/5 trace CLI record / info / cat / replay =="
"$TRACE" record --workload barnes --accesses 500 --seed 7 \
         --out "$WORK/cli.altr" > "$WORK/record.txt"
"$TRACE" info "$WORK/cli.altr" > "$WORK/info.txt"
grep -q "workload        barnes" "$WORK/info.txt"
grep -q "captured_seed   7" "$WORK/info.txt"
# cat emits legacy text; every line must parse as "<tid> <L|S|I> <hex>".
"$TRACE" cat "$WORK/cli.altr" --limit 1000 > "$WORK/cat.txt"
LINES=$(wc -l < "$WORK/cat.txt")
BAD=$(grep -cvE '^[0-9]+ [LSI] [0-9a-f]+$' "$WORK/cat.txt" || true)
if [ "$LINES" -ne 1000 ] || [ "$BAD" -ne 0 ]; then
    echo "FAIL: trace cat emitted $LINES lines ($BAD malformed)"
    exit 1
fi
# A malformed --limit is a usage error, not "print every record".
RC=0
"$TRACE" cat "$WORK/cli.altr" --limit abc > "$WORK/cat-bad.txt" 2> /dev/null \
    || RC=$?
if [ "$RC" -ne 2 ] || [ -s "$WORK/cat-bad.txt" ]; then
    echo "FAIL: trace cat --limit abc exited $RC, want 2 and no output"
    exit 1
fi
# Replay defaults (mode/policy/seed) come from the trace itself; its
# result block must match the capture run's exactly.
"$TRACE" replay "$WORK/cli.altr" > "$WORK/replay.txt"
cmp "$WORK/record.txt" "$WORK/replay.txt"
# A core count the 32-bit field would truncate (2^32 + 1 used to replay on
# 1 core) is a usage error.
RC=0
"$TRACE" replay "$WORK/cli.altr" --cores 4294967297 \
    > "$WORK/replay-bad.txt" 2> /dev/null || RC=$?
if [ "$RC" -ne 2 ] || [ -s "$WORK/replay-bad.txt" ]; then
    echo "FAIL: trace replay --cores 4294967297 exited $RC, want 2 and no output"
    exit 1
fi
echo "OK: CLI replay result block matches the capture run"

echo "== 5/5 ablation grid replays byte for byte, migration included =="
ABLATION=(--grid ablation --seeds 1 --accesses 1000 --seed 42)
"$SWEEP" "${ABLATION[@]}" --jobs 2 --capture "$WORK/ablation" \
         --out "$WORK/ablation-captured.json"
"$SWEEP" "${ABLATION[@]}" --jobs 3 --replay "$WORK/ablation" \
         --out "$WORK/ablation-replayed.json"
cmp "$WORK/ablation-captured.json" "$WORK/ablation-replayed.json"
# The migration cells must actually have migrated threads, or the check
# above proves nothing about replaying them.
if ! grep -q '"os.migrations": {"count":1,"mean":[1-9]' \
        "$WORK/ablation-replayed.json"; then
    echo "FAIL: no ablation cell migrated a thread"
    exit 1
fi
echo "OK: ablation report (migration cells included) replays byte for byte"

echo "trace smoke: all checks passed"

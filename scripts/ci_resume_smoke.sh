#!/usr/bin/env bash
# CI smoke for the streaming sweep chassis (also runs fine locally):
#
#  1. determinism   - the quick grid at --jobs 2 vs --jobs 1 is byte-identical;
#  2. kill/resume   - a journaled sweep is SIGKILLed once ~40% of its jobs
#                     have been journaled, then rerun with --resume; the
#                     resumed report must be byte-identical to an
#                     uninterrupted run (and must actually have resumed
#                     jobs from the journal, not recomputed everything);
#  3. shard/merge   - --shard 1/2 and --shard 2/2 partial runs, folded with
#                     --merge, must reproduce the single-machine bytes for
#                     both the JSON and the CSV report;
#  4. resume-cells  - --resume-cells on a missing journal runs everything,
#                     an identical rerun runs nothing and resumes every job,
#                     and a --seed 43 rerun matches a fresh --seed 43 run;
#  5. cost-from     - a --timing journal plans --shard 1/2 and 2/2 with
#                     --cost-from; their merge reproduces the single-machine
#                     JSON and CSV.
#
# Usage: scripts/ci_resume_smoke.sh [path-to-sweep-binary]
set -euo pipefail

SWEEP=${1:-./build/sweep}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

ARGS=(--grid quick --seeds 2 --accesses 2000 --seed 42)
# Journal layout constants (docs/SWEEPS.md): 64-byte header, 40-byte records.
HEADER=64
RECORD=40

echo "== 1/5 determinism: --jobs 2 vs --jobs 1 =="
"$SWEEP" "${ARGS[@]}" --jobs 2 --out "$WORK/full.json" --csv "$WORK/full.csv" \
    2> "$WORK/full.log"
cat "$WORK/full.log" >&2
"$SWEEP" "${ARGS[@]}" --jobs 1 --out "$WORK/full-j1.json"
cmp "$WORK/full.json" "$WORK/full-j1.json"
echo "OK: byte-identical at any --jobs"

# Take the grid's job count from the sweep's own banner so the 40% kill
# target tracks any future change to the quick grid or the flags above.
TOTAL_JOBS=$(sed -n "s/^sweep '.*': \([0-9][0-9]*\) jobs.*/\1/p" "$WORK/full.log")
if [ -z "$TOTAL_JOBS" ] || [ "$TOTAL_JOBS" -lt 2 ]; then
    echo "FAIL: could not parse a usable job count from the sweep banner"
    exit 1
fi

echo "== 2/5 kill -9 at ~40% of journaled jobs, then --resume =="
TARGET=$(( (TOTAL_JOBS * 40 + 99) / 100 ))   # ceil(40%)
"$SWEEP" "${ARGS[@]}" --jobs 1 --journal "$WORK/run.journal" \
         --out "$WORK/interrupted.json" &
PID=$!
KILLED=0
for _ in $(seq 1 600); do
    if ! kill -0 "$PID" 2>/dev/null; then
        break  # Finished before we could kill it (very fast machine).
    fi
    SIZE=$(stat -c %s "$WORK/run.journal" 2>/dev/null || echo 0)
    RECORDS=$(( SIZE > HEADER ? (SIZE - HEADER) / RECORD : 0 ))
    if [ "$RECORDS" -ge "$TARGET" ]; then
        kill -9 "$PID"
        KILLED=1
        break
    fi
    sleep 0.05
done
wait "$PID" 2>/dev/null || true
if [ "$KILLED" -eq 1 ]; then
    echo "killed sweep (pid $PID) after >=$TARGET of $TOTAL_JOBS jobs journaled"
else
    echo "WARNING: sweep finished before the kill window; resume still checked"
fi

"$SWEEP" "${ARGS[@]}" --jobs 2 --journal "$WORK/run.journal" --resume \
         --out "$WORK/resumed.json" 2> "$WORK/resume.log"
cat "$WORK/resume.log"
cmp "$WORK/full.json" "$WORK/resumed.json"
RESUMED=$(sed -n 's/.* \([0-9][0-9]*\) resumed from journal.*/\1/p' "$WORK/resume.log")
if [ -z "$RESUMED" ]; then
    echo "FAIL: resume re-ran everything (no jobs resumed)"
    exit 1
fi
# Guards the hand-copied HEADER/RECORD constants above: if the journal
# layout drifts, the record arithmetic (and hence TARGET) is wrong and the
# resumed count will not line up with it (tolerate one torn tail record).
if [ "$KILLED" -eq 1 ] && [ "$RESUMED" -lt $((TARGET - 1)) ]; then
    echo "FAIL: killed after counting $TARGET journaled jobs but only" \
         "$RESUMED resumed — journal layout constants have drifted"
    exit 1
fi
echo "OK: resumed report is byte-identical to an uninterrupted run"

echo "== 3/5 2-shard run + --merge vs single-machine bytes =="
"$SWEEP" "${ARGS[@]}" --jobs 2 --shard 1/2 --journal "$WORK/s1.journal" \
         --out "$WORK/s1.json"
"$SWEEP" "${ARGS[@]}" --jobs 2 --shard 2/2 --journal "$WORK/s2.journal" \
         --out "$WORK/s2.json"
"$SWEEP" "${ARGS[@]}" --merge "$WORK/s1.journal" --merge "$WORK/s2.journal" \
         --out "$WORK/merged.json" --csv "$WORK/merged.csv"
cmp "$WORK/full.json" "$WORK/merged.json"
cmp "$WORK/full.csv" "$WORK/merged.csv"
# Shard reports must be genuine partials, not two copies of the whole.
[ "$(stat -c %s "$WORK/s1.json")" -lt "$(stat -c %s "$WORK/full.json")" ]
[ "$(stat -c %s "$WORK/s2.json")" -lt "$(stat -c %s "$WORK/full.json")" ]
echo "OK: shard+merge reproduces the single-machine bytes (json + csv)"

echo "== 4/5 --resume-cells: create, resume everything, re-run a new seed =="
"$SWEEP" "${ARGS[@]}" --jobs 2 --journal "$WORK/cells.journal" --resume-cells \
         --out "$WORK/cells.json"
cmp "$WORK/full.json" "$WORK/cells.json"
"$SWEEP" "${ARGS[@]}" --jobs 2 --journal "$WORK/cells.journal" --resume-cells \
         --out "$WORK/cells-again.json" 2> "$WORK/cells.log"
cat "$WORK/cells.log"
cmp "$WORK/full.json" "$WORK/cells-again.json"
grep -q ": 0 jobs run, $TOTAL_JOBS resumed from journal" "$WORK/cells.log" || {
    echo "FAIL: an identical --resume-cells rerun must resume all" \
         "$TOTAL_JOBS jobs and run none"
    exit 1
}
"$SWEEP" "${ARGS[@]}" --seed 43 --jobs 2 --out "$WORK/seed43.json"
"$SWEEP" "${ARGS[@]}" --seed 43 --jobs 2 --journal "$WORK/cells.journal" \
         --resume-cells --out "$WORK/cells-43.json"
cmp "$WORK/seed43.json" "$WORK/cells-43.json"
echo "OK: --resume-cells creates, resumes everything, and re-runs a new seed"

echo "== 5/5 --cost-from plans the shards; the merge is unchanged =="
"$SWEEP" "${ARGS[@]}" --jobs 2 --timing --journal "$WORK/timing.journal" \
         --out "$WORK/timing.json"
for K in 1 2; do
    "$SWEEP" "${ARGS[@]}" --jobs 2 --shard "$K/2" \
             --cost-from "$WORK/timing.journal" \
             --journal "$WORK/cost$K.journal" --out "$WORK/cost$K.json"
done
"$SWEEP" "${ARGS[@]}" --merge "$WORK/cost1.journal" \
         --merge "$WORK/cost2.journal" \
         --out "$WORK/cost-merged.json" --csv "$WORK/cost-merged.csv"
cmp "$WORK/full.json" "$WORK/cost-merged.json"
cmp "$WORK/full.csv" "$WORK/cost-merged.csv"
echo "OK: cost-planned shards merge to the single-machine bytes (json + csv)"

echo "resume smoke: all checks passed"

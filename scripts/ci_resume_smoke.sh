#!/usr/bin/env bash
# CI smoke for the streaming sweep chassis (also runs fine locally).  A
# journaled sweep resumes whenever its --journal FILE exists; there is no
# resume flag:
#
#  1. determinism   - the quick grid at --jobs 2 vs --jobs 1 is byte-identical;
#  2. kill/resume   - a journaled sweep is SIGKILLed once ~40% of its jobs
#                     have been journaled, then rerun on the same journal;
#                     the resumed report must be byte-identical to an
#                     uninterrupted run (and must actually have resumed
#                     jobs from the journal, not recomputed everything);
#  3. rerun         - an identical rerun on the finished journal runs no job
#                     and resumes every one, --capture on it exits 2 and
#                     creates no capture directory, and a --seed 43 rerun
#                     on the seed-42 journal matches a fresh --seed 43 run;
#  4. shard/merge   - --shard 1/2 and --shard 2/2 partial runs, folded with
#                     --merge, must reproduce the single-machine bytes for
#                     both the JSON and the CSV report;
#  5. shard rerun   - both shards re-run with --seed 43 on their seed-42
#                     journals merge to the fresh --seed 43 JSON and CSV,
#                     and merging a re-run shard with a stale one fails and
#                     names the stale journal, as does merging a shard whose
#                     re-run of an edited spec died right after rebinding
#                     its journal.
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

echo "== 2/5 kill -9 at ~40% of journaled jobs, then rerun on the journal =="
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

"$SWEEP" "${ARGS[@]}" --jobs 2 --journal "$WORK/run.journal" \
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

echo "== 3/5 rerun: an identical one resumes everything, a new seed re-runs =="
"$SWEEP" "${ARGS[@]}" --jobs 2 --journal "$WORK/run.journal" \
         --out "$WORK/again.json" 2> "$WORK/again.log"
cat "$WORK/again.log"
cmp "$WORK/full.json" "$WORK/again.json"
grep -q ": 0 jobs run, $TOTAL_JOBS resumed from journal" "$WORK/again.log" || {
    echo "FAIL: an identical rerun must resume all $TOTAL_JOBS jobs and run none"
    exit 1
}
# Resumed jobs never execute, so --capture on an existing journal is a
# usage error rather than a capture directory with missing traces.
RC=0
"$SWEEP" "${ARGS[@]}" --jobs 2 --journal "$WORK/run.journal" \
         --capture "$WORK/traces" --out "$WORK/capture.json" 2> /dev/null \
    || RC=$?
if [ "$RC" -ne 2 ] || [ -e "$WORK/capture.json" ] || [ -e "$WORK/traces" ]; then
    echo "FAIL: --capture on an existing journal exited $RC, want 2 with no"
    echo "      report and no capture directory"
    exit 1
fi
"$SWEEP" "${ARGS[@]}" --seed 43 --jobs 2 --out "$WORK/seed43.json" \
         --csv "$WORK/seed43.csv"
"$SWEEP" "${ARGS[@]}" --seed 43 --jobs 2 --journal "$WORK/run.journal" \
         --out "$WORK/run-43.json"
cmp "$WORK/seed43.json" "$WORK/run-43.json"
echo "OK: an identical rerun resumes everything; a new seed re-runs the grid"

echo "== 4/5 2-shard run + --merge vs single-machine bytes =="
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

echo "== 5/5 shards re-run a new seed on their journals; a stale shard is refused =="
"$SWEEP" "${ARGS[@]}" --seed 43 --jobs 2 --shard 1/2 \
         --journal "$WORK/s1.journal" --out "$WORK/s1-43.json"
# Shard 2 still holds the seed-42 sweep: the merge must refuse it by name.
RC=0
"$SWEEP" "${ARGS[@]}" --seed 43 --merge "$WORK/s1.journal" \
         --merge "$WORK/s2.journal" --out "$WORK/stale.json" \
         2> "$WORK/stale.log" || RC=$?
if [ "$RC" -eq 0 ] || ! grep -q "s2.journal" "$WORK/stale.log"; then
    echo "FAIL: merging a stale shard exited $RC without naming s2.journal:"
    cat "$WORK/stale.log"
    exit 1
fi
"$SWEEP" "${ARGS[@]}" --seed 43 --jobs 2 --shard 2/2 \
         --journal "$WORK/s2.journal" --out "$WORK/s2-43.json"
"$SWEEP" "${ARGS[@]}" --seed 43 --merge "$WORK/s1.journal" \
         --merge "$WORK/s2.journal" \
         --out "$WORK/merged-43.json" --csv "$WORK/merged-43.csv"
cmp "$WORK/seed43.json" "$WORK/merged-43.json"
cmp "$WORK/seed43.csv" "$WORK/merged-43.csv"
# A re-run of an edited spec (same seeds) that fails at once: the journal's
# header now names the edited spec while its records hold the old cells.
RC=0
"$SWEEP" "${ARGS[@]}" --seed 43 --accesses 2100 --jobs 2 --shard 2/2 \
         --journal "$WORK/s2.journal" --failpoints 'cell.job=err@0:0' \
         2> /dev/null || RC=$?
[ "$RC" -eq 1 ] || { echo "FAIL: the failing re-run exited $RC, want 1"; exit 1; }
RC=0
"$SWEEP" "${ARGS[@]}" --seed 43 --accesses 2100 --merge "$WORK/s2.journal" \
         --merge "$WORK/s1.journal" --out "$WORK/rebound.json" \
         2> "$WORK/rebound.log" || RC=$?
if [ "$RC" -eq 0 ] || ! grep -q "s2.journal.*stale record" "$WORK/rebound.log" \
        || [ -e "$WORK/rebound.json" ]; then
    echo "FAIL: merging a shard with stale records exited $RC:"
    cat "$WORK/rebound.log"
    exit 1
fi
echo "OK: re-run shards merge to the fresh seed-43 bytes; stale ones are named"

echo "resume smoke: all checks passed"

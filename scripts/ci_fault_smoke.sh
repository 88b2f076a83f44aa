#!/usr/bin/env bash
# CI smoke for the fault-injection layer and self-healing sweep execution
# (also runs fine locally):
#
#  1. baseline       - a clean journaled run of the quick grid (reference
#                      bytes for everything below);
#  2. fault/resume   - for a rotation of injected faults (journal fsync,
#                      torn pwrite, journal append, report sink write, and
#                      an open or header write failing while the journal is
#                      created) the sweep either absorbs the fault
#                      byte-identically or fails loudly; after a loud
#                      failure, a clean rerun on the same journal must
#                      resume it and reproduce the reference bytes;
#  3. retry          - a transient per-attempt fault plus --cell-retries
#                      heals in place: exit 0 and byte-identical output;
#  4. quarantine     - a permanent per-job fault plus --quarantine finishes
#                      the sweep with exit 3 and a structured "failed"
#                      report section; a clean rerun on its journal
#                      re-runs the failed job and recovers the reference
#                      bytes and exit 0;
#  5. watchdog       - an absurdly small --cell-timeout quarantines every
#                      job with a no-progress diagnostic; a generous one
#                      changes nothing, not one byte;
#  6. delay          - delay rules at journal.append, journal.fsync,
#                      sink.write and journal.read_payload sleep and
#                      proceed: the journaled sweep reproduces the
#                      reference bytes, and its rerun under a delayed
#                      payload read resumes every job and runs none.
#
# Usage: scripts/ci_fault_smoke.sh [path-to-sweep-binary]
set -euo pipefail

SWEEP=${1:-./build/sweep}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# --jobs 1 keeps counter-based failpoint ordinals deterministic.
ARGS=(--grid quick --seeds 2 --accesses 300 --seed 42 --jobs 1)

echo "== 1/6 baseline =="
"$SWEEP" "${ARGS[@]}" --out "$WORK/full.json" --csv "$WORK/full.csv"
echo "OK: baseline written"

echo "== 2/6 injected faults: absorb byte-identically or resume to reference =="
FAULTS=(
    "journal.fsync=err@1"
    "journal.append=err@5"
    "fileio.pwrite=torn@6"
    "fileio.pwrite=short@9"
    "sink.write=err@3"
    "fileio.open=err@2"
    "fileio.pwrite=err@1"
)
for FAULT in "${FAULTS[@]}"; do
    JOURNAL="$WORK/fault-${FAULT//[^a-z0-9]/_}.journal"
    OUT="$WORK/fault.json"
    rm -f "$JOURNAL" "${JOURNAL}.data" "$OUT"
    RC=0
    "$SWEEP" "${ARGS[@]}" --journal "$JOURNAL" --out "$OUT" \
        --failpoints "$FAULT" 2> "$WORK/fault.log" || RC=$?
    if [ "$RC" -eq 0 ]; then
        # The fault never fired or was absorbed: bytes must be untouched.
        cmp "$WORK/full.json" "$OUT"
        echo "OK: $FAULT absorbed, byte-identical"
    else
        grep -q "injected fault" "$WORK/fault.log" || {
            echo "FAIL: $FAULT failed without naming the injection:"
            cat "$WORK/fault.log"
            exit 1
        }
        "$SWEEP" "${ARGS[@]}" --journal "$JOURNAL" --out "$OUT" \
            2> "$WORK/resume.log"
        grep -q "resumed from journal" "$WORK/resume.log" || true
        cmp "$WORK/full.json" "$OUT"
        echo "OK: $FAULT failed loudly (exit $RC), resume reproduced the bytes"
    fi
done

echo "== 3/6 --cell-retries heals a transient fault in place =="
"$SWEEP" "${ARGS[@]}" --out "$WORK/retry.json" \
    --failpoints "cell.attempt=err@3" --cell-retries 2 --cell-backoff-ms 0 \
    2> "$WORK/retry.log"
grep -q "1 retries" "$WORK/retry.log"
cmp "$WORK/full.json" "$WORK/retry.json"
echo "OK: transient fault retried away, byte-identical"

echo "== 4/6 --quarantine: degraded completion (exit 3) then resume to clean =="
RC=0
"$SWEEP" "${ARGS[@]}" --journal "$WORK/q.journal" --out "$WORK/q.json" \
    --failpoints "cell.job=err@2" --quarantine 2> "$WORK/q.log" || RC=$?
[ "$RC" -eq 3 ] || {
    echo "FAIL: quarantined sweep exited $RC, want 3"
    cat "$WORK/q.log"
    exit 1
}
grep -q '"failed"' "$WORK/q.json"
grep -q "DEGRADED" "$WORK/q.log"
"$SWEEP" "${ARGS[@]}" --journal "$WORK/q.journal" \
    --out "$WORK/q-resumed.json"
cmp "$WORK/full.json" "$WORK/q-resumed.json"
echo "OK: quarantine exit 3 with structured failed section; resume is clean"

echo "== 5/6 cell watchdog: tiny timeout quarantines, generous one is a no-op =="
RC=0
"$SWEEP" "${ARGS[@]}" --out "$WORK/wd.json" \
    --cell-timeout 0.000001 --quarantine 2> "$WORK/wd.log" || RC=$?
[ "$RC" -eq 3 ] || {
    echo "FAIL: watchdogged sweep exited $RC, want 3"
    exit 1
}
grep -q "no-progress watchdog" "$WORK/wd.json"
"$SWEEP" "${ARGS[@]}" --out "$WORK/wd-off.json" --cell-timeout 60
cmp "$WORK/full.json" "$WORK/wd-off.json"
echo "OK: watchdog fires on a tiny deadline and perturbs nothing otherwise"

echo "== 6/6 delay rules sleep and proceed at every whole-operation site =="
DELAYS="journal.append=delay.5@1;journal.fsync=delay.5@1;sink.write=delay.5@1"
DELAYS="$DELAYS;journal.read_payload=delay.5@1"
rm -f "$WORK/delay.journal" "$WORK/delay.journal.data"
"$SWEEP" "${ARGS[@]}" --journal "$WORK/delay.journal" --out "$WORK/delay.json" \
    --failpoints "$DELAYS"
cmp "$WORK/full.json" "$WORK/delay.json"
"$SWEEP" "${ARGS[@]}" --journal "$WORK/delay.journal" \
    --out "$WORK/delay-rerun.json" \
    --failpoints "journal.read_payload=delay.5@1" 2> "$WORK/delay.log"
grep -q ": 0 jobs run," "$WORK/delay.log" || {
    echo "FAIL: a delayed payload read re-ran a job:"
    cat "$WORK/delay.log"
    exit 1
}
cmp "$WORK/full.json" "$WORK/delay-rerun.json"
echo "OK: delay rules proceed, bytes identical, the rerun resumed every job"

echo "fault smoke: all checks passed"

#!/usr/bin/env bash
# CI smoke for the crash-safe sweep service (also runs fine locally):
#
#  1. baseline       - direct CLI sweeps of the request grids (reference
#                      bytes for everything below);
#  2. batch          - enqueue two requests, run the service to idle:
#                      exit 0, both done, reports byte-identical to the
#                      direct sweeps, CSV written where asked, health
#                      file present;
#  3. SIGKILL        - kill -9 the service mid-sweep, restart it: the
#                      interrupted request resumes through its journal
#                      and the recovered report matches the reference
#                      bytes exactly;
#  4. SIGTERM drain  - the running service drains gracefully: exit 0,
#                      in-flight work journaled, state still `running`,
#                      no torn state files; the next start completes it
#                      byte-identically;
#  5. reject         - a malformed request is rejected with its reason
#                      recorded and the service exits 3 (degraded);
#  6. failpoint      - an injected queue-scan fault heals on the next
#                      poll without losing the request;
#  7. corrupt state   - a request whose state word is garbage is skipped
#                      and named in health.json's last_error; a queued
#                      request beside it still completes byte-identically
#                      and the service exits 3 (degraded);
#  8. state write    - an injected fault on the first terminal state write
#                      is retried on the next poll: exit 0, both requests
#                      done and byte-identical, health totals count both,
#                      and last_error names the request that met the fault;
#  9. resume gauge   - an unchanged request resubmitted after it finished
#                      resumes every job from its journal while polls
#                      sample it mid-run: health.json's jobs_per_s and
#                      metrics.prom's allarm_jobs_per_second stay finite
#                      and below 10^6, and the report is byte-identical to
#                      the first run's.
#
# Usage: scripts/ci_service_smoke.sh [path-to-allarm_serve] [path-to-sweep]
set -euo pipefail

SERVE=${1:-./build/allarm_serve}
SWEEP=${2:-./build/sweep}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

REQ_A='{"grid": "quick", "seeds": 2, "seed": 42, "accesses": 400, "csv": true}'
REQ_B='{"grid": "quick", "seeds": 2, "seed": 43, "accesses": 400}'

echo "== 1/9 baseline (direct CLI sweeps) =="
"$SWEEP" --grid quick --seeds 2 --seed 42 --accesses 400 \
    --out "$WORK/ref-a.json" --csv "$WORK/ref-a.csv"
"$SWEEP" --grid quick --seeds 2 --seed 43 --accesses 400 \
    --out "$WORK/ref-b.json"
echo "OK: references written"

echo "== 2/9 batch: enqueue two requests, run to idle =="
SPOOL="$WORK/spool-batch"
printf '%s' "$REQ_A" > "$WORK/req-a.json"
printf '%s' "$REQ_B" > "$WORK/req-b.json"
"$SERVE" --root "$SPOOL" --enqueue "$WORK/req-a.json" --as alpha
"$SERVE" --root "$SPOOL" --enqueue "$WORK/req-b.json" --as beta
"$SERVE" --root "$SPOOL" --exit-when-idle --workers 2 --max-active 2 --poll-ms 50
for ID in alpha beta; do
    [ "$(cat "$SPOOL/requests/$ID/state")" = "done" ] \
        || { echo "FAIL: $ID not done"; exit 1; }
done
cmp "$SPOOL/requests/alpha/report.json" "$WORK/ref-a.json"
cmp "$SPOOL/requests/alpha/report.csv" "$WORK/ref-a.csv"
cmp "$SPOOL/requests/beta/report.json" "$WORK/ref-b.json"
grep -q '"done":2' "$SPOOL/health.json" \
    || { echo "FAIL: health.json missing done count"; cat "$SPOOL/health.json"; exit 1; }
echo "OK: both requests done, reports byte-identical to the CLI"

echo "== 3/9 SIGKILL mid-sweep, restart resumes through the journal =="
SPOOL="$WORK/spool-kill"
"$SERVE" --root "$SPOOL" --enqueue "$WORK/req-a.json" --as victim
"$SERVE" --root "$SPOOL" --workers 2 --poll-ms 20 2> "$WORK/kill.log" &
SRV=$!
sleep 0.7
kill -9 "$SRV" 2>/dev/null || true
wait "$SRV" 2>/dev/null || true
# Whatever the kill tore, the state file must read as a whole word.
STATE=$(cat "$SPOOL/requests/victim/state" 2>/dev/null || echo "pending")
case "$STATE" in pending|running|done) ;; *)
    echo "FAIL: torn or unexpected state '$STATE' after SIGKILL"; exit 1;;
esac
"$SERVE" --root "$SPOOL" --exit-when-idle --workers 2 --poll-ms 50
[ "$(cat "$SPOOL/requests/victim/state")" = "done" ] \
    || { echo "FAIL: victim not done after restart"; exit 1; }
cmp "$SPOOL/requests/victim/report.json" "$WORK/ref-a.json"
echo "OK: killed at '$STATE', recovered byte-identical"

echo "== 4/9 SIGTERM drains gracefully and the next start completes =="
SPOOL="$WORK/spool-drain"
"$SERVE" --root "$SPOOL" --enqueue "$WORK/req-a.json" --as sleeper
"$SERVE" --root "$SPOOL" --workers 2 --poll-ms 20 --drain-ms 60000 \
    2> "$WORK/drain.log" &
SRV=$!
sleep 0.7
kill -TERM "$SRV"
RC=0; wait "$SRV" || RC=$?
[ "$RC" -eq 0 ] || { echo "FAIL: drain exited $RC"; cat "$WORK/drain.log"; exit 1; }
STATE=$(cat "$SPOOL/requests/sleeper/state")
case "$STATE" in running|done) ;; *)
    echo "FAIL: unexpected post-drain state '$STATE'"; exit 1;;
esac
ls "$SPOOL/requests/sleeper"/.tmp-* 2>/dev/null \
    && { echo "FAIL: torn temp file survived the drain"; exit 1; }
"$SERVE" --root "$SPOOL" --exit-when-idle --workers 2 --poll-ms 50
cmp "$SPOOL/requests/sleeper/report.json" "$WORK/ref-a.json"
echo "OK: drained with exit 0 at state '$STATE', completed byte-identical"

echo "== 5/9 malformed request is rejected with its reason =="
SPOOL="$WORK/spool-reject"
mkdir -p "$SPOOL/queue"
printf '{"grid": "quick", "seedz": 2}' > "$SPOOL/queue/typo.json"
RC=0
"$SERVE" --root "$SPOOL" --exit-when-idle --poll-ms 50 || RC=$?
[ "$RC" -eq 3 ] || { echo "FAIL: expected degraded exit 3, got $RC"; exit 1; }
[ "$(cat "$SPOOL/requests/typo/state")" = "rejected" ] \
    || { echo "FAIL: typo not rejected"; exit 1; }
grep -q "seedz" "$SPOOL/requests/typo/error" \
    || { echo "FAIL: reject reason not recorded"; exit 1; }
echo "OK: rejected with recorded reason, exit 3"

echo "== 6/9 injected queue-scan fault heals on the next poll =="
SPOOL="$WORK/spool-fault"
"$SERVE" --root "$SPOOL" --enqueue "$WORK/req-b.json" --as survivor
"$SERVE" --root "$SPOOL" --exit-when-idle --workers 2 --poll-ms 50 \
    --failpoints "service.scan=err@1" 2> "$WORK/fault.log"
[ "$(cat "$SPOOL/requests/survivor/state")" = "done" ] \
    || { echo "FAIL: survivor lost to the scan fault"; exit 1; }
grep -q "failpoint service.scan" "$WORK/fault.log" \
    || { echo "FAIL: the scan fault never fired"; exit 1; }
cmp "$SPOOL/requests/survivor/report.json" "$WORK/ref-b.json"
echo "OK: scan fault absorbed, request completed byte-identical"

echo "== 7/9 a garbage state word is skipped, named, and degrades the exit =="
SPOOL="$WORK/spool-corrupt"
mkdir -p "$SPOOL/requests/broken"
printf '%s' "$REQ_B" > "$SPOOL/requests/broken/request.json"
printf 'garbage\n' > "$SPOOL/requests/broken/state"
"$SERVE" --root "$SPOOL" --enqueue "$WORK/req-b.json" --as healthy
RC=0
"$SERVE" --root "$SPOOL" --exit-when-idle --workers 2 --poll-ms 50 \
    2> "$WORK/corrupt.log" || RC=$?
[ "$RC" -eq 3 ] || {
    echo "FAIL: expected degraded exit 3, got $RC"; cat "$WORK/corrupt.log"; exit 1; }
[ "$(cat "$SPOOL/requests/healthy/state")" = "done" ] \
    || { echo "FAIL: healthy request not done"; exit 1; }
cmp "$SPOOL/requests/healthy/report.json" "$WORK/ref-b.json"
grep -q '"last_error":"broken: ' "$SPOOL/health.json" \
    || { echo "FAIL: last_error does not name broken"; cat "$SPOOL/health.json"; exit 1; }
echo "OK: corrupt state skipped and named, neighbour completed byte-identical"

echo "== 8/9 a failed terminal state write is retried on the next poll =="
SPOOL="$WORK/spool-state"
"$SWEEP" --grid quick --accesses 300 --out "$WORK/ref-300.json"
"$SWEEP" --grid quick --accesses 3000 --out "$WORK/ref-3000.json"
printf '{"grid": "quick", "accesses": 300}' > "$WORK/req-300.json"
printf '{"grid": "quick", "accesses": 3000}' > "$WORK/req-3000.json"
"$SERVE" --root "$SPOOL" --enqueue "$WORK/req-300.json" --as a
"$SERVE" --root "$SPOOL" --enqueue "$WORK/req-3000.json" --as b
# State writes 1 and 2 are the two `running` words; 3 is the first
# terminal one.
RC=0
"$SERVE" --root "$SPOOL" --exit-when-idle --workers 2 --max-active 2 \
    --poll-ms 20 --failpoints 'service.state=err@3' \
    2> "$WORK/state.log" || RC=$?
[ "$RC" -eq 0 ] || {
    echo "FAIL: expected exit 0, got $RC"; cat "$WORK/state.log"; exit 1; }
for ID in a b; do
    [ "$(cat "$SPOOL/requests/$ID/state")" = "done" ] \
        || { echo "FAIL: $ID not done"; cat "$WORK/state.log"; exit 1; }
done
cmp "$SPOOL/requests/a/report.json" "$WORK/ref-300.json"
cmp "$SPOOL/requests/b/report.json" "$WORK/ref-3000.json"
grep -q '"jobs_executed":8,.*"requests_finished":2' "$SPOOL/health.json" \
    || { echo "FAIL: health totals"; cat "$SPOOL/health.json"; exit 1; }
ID=$(sed -n 's/.*"last_error":"\([ab]\): state write failed: .*/\1/p' \
    "$SPOOL/health.json")
if [ -z "$ID" ] || ! grep -q "\"last_error\":\"$ID: [^\"]*/requests/$ID/state" \
        "$SPOOL/health.json"; then
    echo "FAIL: last_error does not name the faulted write"
    cat "$SPOOL/health.json"; exit 1
fi
echo "OK: the write fault on '$ID' healed next poll, exit 0, both byte-identical"

echo "== 9/9 the jobs/s gauge stays finite across a resumed request =="
SPOOL="$WORK/spool-gauge"
# 24 jobs outnumber the admission window of 16, so the resume folds
# between payload reads; each read sleeps 20 ms, so polls sample it.
printf '{"grid": "quick", "seeds": 6, "accesses": 300}' > "$WORK/req-gauge.json"
"$SERVE" --root "$SPOOL" --enqueue "$WORK/req-gauge.json" --as g
"$SERVE" --root "$SPOOL" --exit-when-idle --workers 2 --poll-ms 20
cp "$SPOOL/requests/g/report.json" "$WORK/gauge-first.json"
"$SERVE" --root "$SPOOL" --enqueue "$WORK/req-gauge.json" --as g
"$SERVE" --root "$SPOOL" --exit-when-idle --workers 2 --poll-ms 1 \
    --failpoints 'journal.read_payload=delay.20@1:0' 2> "$WORK/gauge.log"
grep -q "g: done (0 run, 24 resumed)" "$WORK/gauge.log" \
    || { echo "FAIL: the resubmitted request did not resume"; cat "$WORK/gauge.log"; exit 1; }
cmp "$SPOOL/requests/g/report.json" "$WORK/gauge-first.json"
python3 - "$SPOOL" <<'EOF'
import json, math, sys
root = sys.argv[1]
rates = {"jobs_per_s": json.load(open(root + "/health.json"))["jobs_per_s"]}
for line in open(root + "/metrics.prom"):
    if line.startswith("allarm_jobs_per_second "):
        rates["allarm_jobs_per_second"] = float(line.split()[1])
assert len(rates) == 2, f"a gauge is missing: {rates}"
for name, value in rates.items():
    assert isinstance(value, (int, float)) and math.isfinite(value) \
        and 0 <= value < 1e6, f"FAIL: {name} = {value!r}"
print(f"OK: gauges finite after the resume: {rates}")
EOF
echo "OK: resumed byte-identical, the jobs/s gauge did not wrap"

echo "ALL SERVICE SMOKES PASSED"

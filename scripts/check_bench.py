#!/usr/bin/env python3
"""Paired throughput gate: the change's bench against the parent's build.

    scripts/check_bench.py PARENT_BIN CHANGE_BIN --out BENCH_pair.json

Both arguments are bench_kernel_throughput binaries, built from the parent
commit and from the change, run on the same machine in one job.  Each side
gets one discarded warm-up run, then ROUNDS rounds run both sides,
alternating which goes first.  For every row both sides report, a round
gives one change/parent ratio of ns_per_event, and the per-round geomean
over those shared rows gives one more.  The gate fails (exit 1) when

- the median over rounds of the geomean ratio exceeds GEOMEAN_MAX, or
- the median of any shared row's ratio exceeds ROW_MAX, or
- a change row reports event heap fallbacks (the allocation-free kernel
  regressed) or a non-positive events/time/rate field.

A row only one side reports prints as "new" or "gone" and is not gated.
The thresholds come from identical-build and injected-slowdown runs
(docs/PERF.md, "The paired gate").  BENCH_pair.json records every
per-round ratio with its min, median, max and MAD.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

ROUNDS = 30
BENCH_ARGS = ["--accesses", "2000", "--reps", "1"]
GEOMEAN_MAX = 1.04
ROW_MAX = 1.10
POSITIVE_FIELDS = ("events", "wall_seconds", "events_per_sec", "ns_per_event")


def spread(values):
    median = statistics.median(values)
    return {
        "min": min(values),
        "median": median,
        "max": max(values),
        "mad": statistics.median(abs(v - median) for v in values),
        "ratios": values,
    }


def row_faults(name, row):
    bad = [f for f in POSITIVE_FIELDS
           if not isinstance(row.get(f), (int, float)) or row[f] <= 0]
    if bad:
        return [f"{name}: non-positive {', '.join(bad)}"]
    if row.get("event_heap_fallbacks") != 0:
        return [f"{name}: {row.get('event_heap_fallbacks')} event heap "
                "fallbacks (allocation-free kernel regressed)"]
    return []


def decide(rounds):
    """The gate's verdict over `rounds`, a list of
    {"parent": {row name: row}, "change": {row name: row}} bench results.

    Returns the BENCH_pair.json document; its "failures" list is empty
    exactly when the gate passes."""
    parent, change = rounds[0]["parent"], rounds[0]["change"]
    shared = [name for name in change if name in parent]
    failures = []
    for name in change:
        for r in rounds:
            faults = row_faults(name, r["change"][name])
            if faults:
                failures += faults
                break

    rows = []
    per_round = {}
    for name in change:
        if name not in parent:
            rows.append({"name": name, "status": "new"})
            continue
        per_round[name] = [r["change"][name]["ns_per_event"] /
                           r["parent"][name]["ns_per_event"] for r in rounds]
        row = {"name": name, **spread(per_round[name])}
        row["status"] = "SLOWER" if row["median"] > ROW_MAX else "ok"
        if row["status"] == "SLOWER":
            failures.append(f"{name}: median ratio {row['median']:.3f} "
                            f"> {ROW_MAX}")
        rows.append(row)
    rows += [{"name": name, "status": "gone"}
             for name in parent if name not in change]

    geomean = None
    if shared:
        geomean = spread([
            math.exp(statistics.fmean(math.log(per_round[name][i])
                                      for name in shared))
            for i in range(len(rounds))])
        geomean["status"] = "SLOWER" if geomean["median"] > GEOMEAN_MAX else "ok"
        if geomean["status"] == "SLOWER":
            failures.append(f"geomean: median ratio {geomean['median']:.3f} "
                            f"> {GEOMEAN_MAX}")
    else:
        failures.append("no row is reported by both sides")
    return {"rounds": len(rounds), "row_max": ROW_MAX,
            "geomean_max": GEOMEAN_MAX, "rows": rows, "geomean": geomean,
            "failures": failures}


def run_bench(binary, out):
    subprocess.run([binary, *BENCH_ARGS, "--out", out], check=True,
                   stdout=subprocess.DEVNULL)
    with open(out) as f:
        return {row["name"]: row for row in json.load(f)["workloads"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent commit's bench binary")
    parser.add_argument("change", help="the change's bench binary")
    parser.add_argument("--out", required=True, help="BENCH_pair.json path")
    args = parser.parse_args()

    binaries = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory() as tmp:
        def run(side):
            return run_bench(binaries[side], os.path.join(tmp, side + ".json"))
        for side in binaries:
            run(side)  # Warm-up, discarded.
        rounds = []
        for i in range(ROUNDS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            rounds.append({side: run(side) for side in order})

    report = decide(rounds)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"change/parent ns_per_event over {ROUNDS} rounds "
          f"(gate: row median <= {ROW_MAX}, geomean median <= {GEOMEAN_MAX})")
    print(f"{'row':<14} {'status':<7} {'min':>6} {'median':>6} {'max':>6} "
          f"{'MAD':>6}")
    for row in report["rows"] + [dict(report["geomean"] or {}, name="geomean")]:
        stats = "".join(f" {row[k]:6.3f}" for k in ("min", "median", "max", "mad")
                        if k in row)
        print(f"{row['name']:<14} {row.get('status', '-'):<7}{stats}")
    for failure in report["failures"]:
        print(f"check_bench: FAIL: {failure}", file=sys.stderr)
    if report["failures"]:
        sys.exit(1)
    print("check_bench: OK")


if __name__ == "__main__":
    main()

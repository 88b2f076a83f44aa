#!/usr/bin/env python3
"""End-to-end benchmark of the ALLARM sweep simulator (see README.md).

One workload, one result -- run from the repository root:

    python3 perfbench/run.py --workload fig3 --seed 1 --seconds 30 --trace 0

builds perfbench/ (which compiles the simulator sources under src/) in
Release under $CARGO_TARGET_DIR, or .bench_build when that is unset, runs the
workload and prints its detail lines; the last line of stdout is the JSON
result.  --trace 1 runs the per-layer variant and writes a Perfetto-loadable
timeline to <build dir>/timelines/<workload>.json.

Steadiness mode -- every workload N times, seeds base..base+N-1, rounds
interleaved across workloads:

    python3 perfbench/run.py --steady 10 [--workloads fig3,serve]
        [--seconds S] [--trace 0|1] [--save runs.json] [--against old.json]

prints each metric's median and quartile spread against its bound in
BENCHMARK.json.  --save keeps the raw results; --against compares them with
a saved set: medians against the bounds, and, for runs of the same workload
and seed, the deterministic values (simulated metrics, counts, report
digests) byte for byte.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170
# Values that repeat exactly for one seed: simulated results and counts,
# except a queue depth, which host timing sets.
EXACT_UNITS = {"count", "x"}
EXACT_METRICS = {"sim_speedup", "pf_evict_ratio", "ok_frac"}
TIMED_COUNTS = {"service.backlog_max"}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (path if path.is_absolute() else ROOT / path) / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "core" / "experiment.hh").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(out / "CMakeFiles", ignore_errors=True)
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                fail("cmake configure failed")
        if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return out / "allarm_perfbench"


def run_one(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (stdout lines, parsed result)."""
    work = build_dir() / "work" / f"{workload}-{os.getpid()}"
    timelines = build_dir() / "timelines"
    timelines.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work),
           "--timeline", str(timelines / f"{workload}.json"), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"{workload} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} printed a malformed result")
    return lines, result


def digest_of(lines):
    return " ".join(l.split(None, 2)[2] for l in lines if l.startswith("digest "))


def spread(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def metric_specs(trace):
    spec = json.loads(SPEC.read_text())
    return spec["per_layer" if trace else "end_to_end"], spec


def steady(args, binary):
    specs, spec = metric_specs(args.trace)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for i in range(args.steady):
        for workload in workloads:
            seed = args.seed + i
            lines, result = run_one(binary, workload, seed, seconds, args.trace,
                                    args.extra)
            runs.append({"workload": workload, "seed": seed,
                         "trace": args.trace, "digest": digest_of(lines),
                         "result": result})
            print(f"round {i + 1}/{args.steady} {workload} seed {seed}: "
                  f"correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1) + "\n")
    old = json.loads(Path(args.against).read_text()) if args.against else None
    steady_ok = report(runs, old, specs, workloads)
    return 0 if steady_ok else 3


def values_of(runs, workload, name):
    return [r["result"]["metrics"][name]["value"] for r in runs
            if r["workload"] == workload and name in r["result"]["metrics"]]


def report(runs, old, specs, workloads):
    """Prints the spread table (and the comparison); True when steady."""
    ok = True
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        failed = sum(r["result"]["failed"] for r in mine)
        print(f"\n== {workload}: {len(mine)} runs, {failed} failed operations")
        print(f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}  verdict")
        for m in specs:
            values = values_of(runs, workload, m["name"])
            if not values:
                print(f"{m['name']:<28}  missing")
                ok = False
                continue
            med, q1, q3 = spread(values)
            width = (q3 - q1) / abs(med) if med else 0.0
            bound = m.get("bound")
            verdict = ""
            if bound is not None and m["name"] != "setup_s":
                verdict = ("steady" if width <= bound / 3 else
                           "within bound" if width <= bound else "TOO WIDE")
                ok = ok and width <= bound
            line = (f"{m['name']:<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                    f"{width:>9.4f}{bound if bound is not None else '':>8}  "
                    f"{verdict}")
            if old is not None:
                line += "  " + compare(old, workload, m, med)
            print(line)
        if old is not None:
            ok = exact_match(old, mine) and ok
    return ok


def compare(old, workload, m, med):
    """Verdict of this median against the saved runs' median."""
    before = values_of(old, workload, m["name"])
    if not before:
        return "no baseline"
    base, q1, q3 = spread(before)
    if not base:
        return "baseline 0"
    worse = (med - base) / abs(base)
    if m["better"] == "higher":
        worse = -worse
    bound = m.get("bound")
    text = f"vs {base:.6g}: {-worse:+.2%} better"
    if bound is None:
        return text
    if worse > bound:
        return text + " WORSE"
    if (q3 - q1) / abs(base) > bound:
        return text + " unresolved"
    return text + " unchanged"


def exact_match(old, mine):
    """Deterministic values of runs with the same workload and seed agree."""
    ok = True
    by_key = {(r["workload"], r["seed"], r.get("trace", 0)): r for r in old}
    for r in mine:
        prev = by_key.get((r["workload"], r["seed"], r.get("trace", 0)))
        if prev is None:
            continue
        if prev["digest"] != r["digest"]:
            print(f"  seed {r['seed']}: report digest {r['digest']} != "
                  f"{prev['digest']}")
            ok = False
        for name, m in r["result"]["metrics"].items():
            if name in TIMED_COUNTS or (m["unit"] not in EXACT_UNITS
                                        and name not in EXACT_METRICS):
                continue
            before = prev["result"]["metrics"].get(name, {}).get("value")
            if before != m["value"]:
                print(f"  seed {r['seed']}: {name} {m['value']} != {before}")
                ok = False
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="N")
    p.add_argument("--workloads", help="comma-separated (steadiness mode)")
    p.add_argument("--save")
    p.add_argument("--against")
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (the benchmark's own tests)")
    p.add_argument("--break-check", metavar="NAME",
                   help="invert one correctness check (tests)")
    args = p.parse_args()
    if args.seed < 0 or (args.seconds is not None and args.seconds < 1):
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    if args.steady is None and (args.workload is None or args.seconds is None):
        fail("--workload and --seconds are required", 2)
    args.extra = (["--tiny"] if args.tiny else []) + (
        ["--break-check", args.break_check] if args.break_check else [])
    binary = build()
    if args.steady is not None:
        return steady(args, binary)
    lines, _ = run_one(binary, args.workload, args.seed, args.seconds,
                       args.trace, args.extra)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

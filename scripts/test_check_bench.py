#!/usr/bin/env python3
"""Tests for check_bench.decide, the paired gate's verdict, over synthetic
rounds (no bench binary runs).

    python3 -m unittest discover -s scripts -p 'test_*.py' -v
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench  # noqa: E402

PARENT_NS = {"serial": 130.0, "multithreaded": 150.0, "migration": 160.0,
             "zipf": 180.0}


def bench(ns_per_event, fallbacks=0):
    """One bench run's rows, keyed by name, as run_bench returns them."""
    return {name: {"name": name, "events": 1_000_000,
                   "wall_seconds": ns * 1e-3,
                   "events_per_sec": 1e9 / ns, "ns_per_event": ns,
                   "event_heap_fallbacks": fallbacks}
            for name, ns in ns_per_event.items()}


def rounds(slowdown=None, change_rows=None, fallbacks=0):
    """check_bench.ROUNDS rounds on a machine whose speed drifts by +-5%
    from round to round, which both sides of a round share.  `slowdown`
    scales the change's rows by name; `change_rows` replaces the change's
    row set."""
    slowdown = slowdown or {}
    names = change_rows or list(PARENT_NS)
    result = []
    for i in range(check_bench.ROUNDS):
        drift = 1.0 + 0.05 * ((i % 3) - 1)
        parent = {n: ns * drift for n, ns in PARENT_NS.items()}
        change = {n: PARENT_NS.get(n, 200.0) * drift * slowdown.get(n, 1.0)
                  for n in names}
        result.append({"parent": bench(parent),
                       "change": bench(change, fallbacks)})
    return result


def statuses(report):
    return {row["name"]: row["status"] for row in report["rows"]}


class DecideTest(unittest.TestCase):
    def test_identical_rounds_pass(self):
        report = check_bench.decide(rounds())
        self.assertEqual(report["failures"], [])
        self.assertAlmostEqual(report["geomean"]["median"], 1.0)
        self.assertEqual(set(statuses(report).values()), {"ok"})

    def test_every_row_ten_percent_slower_fails(self):
        report = check_bench.decide(
            rounds(slowdown={n: 1.10 for n in PARENT_NS}))
        self.assertNotEqual(report["failures"], [])
        self.assertEqual(report["geomean"]["status"], "SLOWER")
        self.assertAlmostEqual(report["geomean"]["median"], 1.10)

    def test_one_row_far_slower_fails(self):
        report = check_bench.decide(rounds(slowdown={"zipf": 1.5}))
        self.assertEqual(statuses(report)["zipf"], "SLOWER")
        self.assertEqual(statuses(report)["serial"], "ok")
        self.assertTrue(any(f.startswith("zipf:") for f in report["failures"]))

    def test_heap_fallbacks_fail(self):
        report = check_bench.decide(rounds(fallbacks=1))
        self.assertTrue(any("heap fallbacks" in f for f in report["failures"]))

    def test_non_positive_field_fails(self):
        data = rounds()
        data[3]["change"]["serial"]["events"] = 0
        report = check_bench.decide(data)
        self.assertTrue(any(f.startswith("serial: non-positive")
                            for f in report["failures"]))

    def test_one_sided_rows_are_reported_not_gated(self):
        report = check_bench.decide(rounds(
            slowdown={"replay": 5.0},
            change_rows=["serial", "multithreaded", "zipf", "replay"]))
        self.assertEqual(report["failures"], [])
        self.assertEqual(statuses(report)["replay"], "new")
        self.assertEqual(statuses(report)["migration"], "gone")
        self.assertNotIn("median", next(r for r in report["rows"]
                                        if r["name"] == "replay"))

    def test_no_shared_row_fails(self):
        report = check_bench.decide(rounds(change_rows=["replay"]))
        self.assertIsNone(report["geomean"])
        self.assertNotEqual(report["failures"], [])


if __name__ == "__main__":
    unittest.main()

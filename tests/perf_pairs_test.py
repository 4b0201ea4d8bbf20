#!/usr/bin/env python3
"""Tests of scripts/perf_pairs.py's summary: wins, ties, quartiles and the
gain rule (at least nine tenths of the pairs won, ties counting for
neither, and a median gap wider than the parent's interquartile range).

Usage: perf_pairs_test.py
Exit status: 0 = all cases pass, 1 = a case failed.
"""

import importlib.util
import os
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "scripts", "perf_pairs.py")


def load_script():
    spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(name, values):
    return [{name: v} for v in values]


def main():
    perf_pairs = load_script()
    failures = []

    def check(label, got, want):
        if got != want:
            failures.append("%s: got %r, want %r" % (label, got, want))

    parent = [80, 82, 84, 86, 88, 90, 81, 83, 85, 87]

    # Higher is better; nine of ten pairs won by far more than the
    # parent's IQR: the rule holds.
    change = [v * 1.4 for v in parent]
    change[3] = 80
    row = perf_pairs.summarize(runs("ops_per_s", parent),
                               runs("ops_per_s", change),
                               [("ops_per_s", "higher")])[0]
    check("nine wins: wins", row["wins"], 9)
    check("nine wins: ties", row["ties"], 0)
    check("nine wins: parent quartiles", row["parent"], (82.25, 84.5, 86.75))
    check("nine wins: holds", row["holds"], True)

    # Eight wins and one tie: ties count for neither, so 8/10 fails.
    change[4] = parent[4]
    row = perf_pairs.summarize(runs("ops_per_s", parent),
                               runs("ops_per_s", change),
                               [("ops_per_s", "higher")])[0]
    check("a tie: wins", row["wins"], 8)
    check("a tie: ties", row["ties"], 1)
    check("a tie: holds", row["holds"], False)

    # Every pair won, but by less than the parent's own spread.
    small = [v + 1 for v in parent]
    row = perf_pairs.summarize(runs("ops_per_s", parent),
                               runs("ops_per_s", small),
                               [("ops_per_s", "higher")])[0]
    check("narrow gap: wins", row["wins"], 10)
    check("narrow gap: holds", row["holds"], False)

    # Lower is better: a drop wins; the same numbers with "higher" lose.
    lower = [v * 0.5 for v in parent]
    rows = perf_pairs.summarize(runs("cpu_ms_per_op", parent),
                                runs("cpu_ms_per_op", lower),
                                [("cpu_ms_per_op", "lower")])
    check("lower: wins", rows[0]["wins"], 10)
    check("lower: holds", rows[0]["holds"], True)
    rows = perf_pairs.summarize(runs("cpu_ms_per_op", parent),
                                runs("cpu_ms_per_op", lower),
                                [("cpu_ms_per_op", "higher")])
    check("lower read as higher: wins", rows[0]["wins"], 0)
    check("lower read as higher: holds", rows[0]["holds"], False)

    # A single pair has no spread: its quartiles are the value itself.
    row = perf_pairs.summarize([{"m": 1.0}], [{"m": 2.0}],
                               [("m", "higher")])[0]
    check("one pair: parent", row["parent"], (1.0, 1.0, 1.0))
    check("one pair: holds", row["holds"], True)

    try:
        perf_pairs.summarize([{"m": 1.0}], [], [("m", "higher")])
        failures.append("unequal run counts were accepted")
    except ValueError:
        pass

    for failure in failures:
        print("FAIL " + failure)
    if failures:
        return 1
    print("perf_pairs summary: all cases pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())

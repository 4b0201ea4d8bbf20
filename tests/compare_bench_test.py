#!/usr/bin/env python3
"""Negative test of scripts/compare_bench.py: the identity gate can fail.

Writes edited copies of a committed baseline into a work directory and
requires the comparator to
  * exit 1 and name the cell's JSON path when one table cell changes,
  * exit 1 when one note changes,
  * exit 0 when only the timing fields (wall_seconds, metrics, trace)
    change.

Usage: compare_bench_test.py <baseline.json> <work-dir>
Exit status: 0 = all cases pass, 1 = a case failed, 2 = usage error.
"""

import copy
import json
import os
import subprocess
import sys

COMPARATOR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "scripts", "compare_bench.py")


def edit_cell(doc):
    rows = doc["tables"][0]["rows"]
    row, col = len(rows) - 1, len(rows[-1]) - 1
    rows[row][col] += " (edited)"
    return f"tables[0].rows[{row}][{col}]"


def edit_note(doc):
    key = next(iter(doc["notes"]))
    value = doc["notes"][key]
    doc["notes"][key] = value + 1 if isinstance(value, (int, float)) \
        else value + " (edited)"
    return "notes"


def edit_timings(doc):
    doc["wall_seconds"] += 1.0
    doc["metrics"] = {"counters": {"edited": 1}, "gauges": {},
                      "histograms": {}}
    doc["trace"] = []
    return None


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline_path, work = sys.argv[1:]
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    os.makedirs(work, exist_ok=True)

    failures = 0
    for edit, want_status in ((edit_cell, 1), (edit_note, 1),
                              (edit_timings, 0)):
        doc = copy.deepcopy(baseline)
        want_path = edit(doc)
        path = os.path.join(work, f"{edit.__name__}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        run = subprocess.run([sys.executable, COMPARATOR, baseline_path, path],
                             capture_output=True, text=True, check=False)
        output = run.stdout + run.stderr
        ok = run.returncode == want_status and (
            want_path is None or f"  {want_path}" in output)
        print(f"{edit.__name__}: exit {run.returncode} "
              f"(want {want_status}) {'ok' if ok else 'FAILED'}")
        if not ok:
            print(output)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Alternating parent/change runs of the repository benchmark.

Usage:

    python3 scripts/perf_pairs.py PARENT_DIR CHANGE_DIR --workload NAME \\
        --seed N --pairs P --seconds S

PARENT_DIR and CHANGE_DIR are two checkouts of the repository. Each pair
runs `python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0` once in each; the parent goes first in even pairs and the change
in odd ones. The first run in a checkout also builds its benchmark.

Every run's metrics and output digest are printed as it finishes. At the
end, for each end-to-end metric named in CHANGE_DIR/BENCHMARK.json (read
only, for its names and directions), the summary gives both sides' median
and quartiles, the pairs the change won and tied, and whether the gain rule
holds: the change wins at least nine tenths of the pairs, ties counting for
neither, and its median is better than the parent's by more than the
distance between the parent's quartiles.

Exit status: 0 when every run reported `correct`, 1 when a run did not (or
printed no result), 2 on a usage error.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def quartiles(values):
    """(q1, median, q3) with inclusive linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent_runs, change_runs, metrics):
    """One row per metric over paired runs.

    parent_runs and change_runs are lists of {metric: value}, index i of
    each being pair i; metrics is a list of (name, better) with better
    "higher" or "lower". Each row is a dict with the metric's name, both
    sides' (q1, median, q3), the change's wins and ties, and `holds`, the
    gain rule.
    """
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same number (> 0) of runs on each side")
    rows = []
    for name, better in metrics:
        sign = 1.0 if better == "higher" else -1.0
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        ties = sum(1 for p, c in zip(parent, change) if c == p)
        parent_q = quartiles(parent)
        change_q = quartiles(change)
        gap = sign * (change_q[1] - parent_q[1])
        holds = (wins * 10 >= 9 * len(parent)
                 and gap > parent_q[2] - parent_q[0])
        rows.append({"name": name, "better": better, "parent": parent_q,
                     "change": change_q, "wins": wins, "ties": ties,
                     "pairs": len(parent), "holds": holds})
    return rows


def format_rows(rows):
    lines = ["%-14s %-7s %28s %28s %6s %5s  %s" % (
        "metric", "better", "parent q1/median/q3", "change q1/median/q3",
        "wins", "ties", "gain rule")]
    for row in rows:
        lines.append("%-14s %-7s %28s %28s %3d/%-2d %5d  %s" % (
            row["name"], row["better"],
            "/".join("%.4g" % v for v in row["parent"]),
            "/".join("%.4g" % v for v in row["change"]),
            row["wins"], row["pairs"], row["ties"],
            "holds" if row["holds"] else "no"))
    return "\n".join(lines)


def run_once(checkout, workload, seed, seconds):
    """One benchmark run: (result JSON or None, digest or None, stderr)."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    digest = None
    for line in lines:
        match = re.search(r"\bdigest=([0-9a-f]{8})", line)
        if match:
            digest = match.group(1)
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return result, digest, proc.stderr


def main():
    parser = argparse.ArgumentParser(
        description="Alternating parent/change runs of perfbench.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    for checkout in (args.parent, args.change):
        if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
            parser.error("%s has no perfbench/run.py" % checkout)
    with open(os.path.join(args.change, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        metrics = [(m["name"], m["better"])
                   for m in json.load(fh)["end_to_end"]]

    runs = {"parent": [], "change": []}
    digests = {"parent": set(), "change": set()}
    all_correct = True
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                             "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            result, digest, stderr = run_once(checkout, args.workload,
                                              args.seed, args.seconds)
            if result is None:
                sys.stderr.write(stderr)
                print("pair %d %s: no result" % (pair, side))
                return 1
            values = {name: result["metrics"][name]["value"]
                      for name, _ in metrics}
            runs[side].append(values)
            digests[side].add(digest)
            correct = bool(result.get("correct"))
            all_correct = all_correct and correct
            print("pair %d %-6s digest=%s correct=%s %s" % (
                pair, side, digest, correct,
                " ".join("%s=%.4g" % kv for kv in values.items())),
                flush=True)

    print()
    print("%s seed %d, %d pairs of %g s runs" % (
        args.workload, args.seed, args.pairs, args.seconds))
    print(format_rows(summarize(runs["parent"], runs["change"], metrics)))
    print("digests: parent %s, change %s" % (
        ",".join(sorted(str(d) for d in digests["parent"])),
        ",".join(sorted(str(d) for d in digests["change"]))))
    if not all_correct:
        print("a run was not correct")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

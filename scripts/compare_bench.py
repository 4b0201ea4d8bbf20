#!/usr/bin/env python3
"""Require a BENCH_*.json run to reproduce an expected one exactly.

Compares the deterministic payload of two schema-v1 BENCH_*.json files
emitted by the BenchReporter -- bench name, smoke flag, tables (titles,
headers, every cell) and notes -- and exits 1 on any difference, naming
the JSON path of the first differing value and both values:

    tables[0].rows[2][4]: expected "2", got "3"

Timing fields (wall_seconds, metrics, trace) are ignored: they differ run
to run. Metric counters are deterministic at a fixed thread count, but a
resumed run legitimately reports fewer fresh oracle queries than an
uninterrupted one (replayed answers come from the journal), so they stay
out of the comparison too.

It is the comparator behind the bench_smoke ctest (each bench against its
committed baseline in bench/baselines/) and the kill/resume gates (a
resumed run against an uninterrupted one). Stdlib-only:

    python3 scripts/compare_bench.py bench/baselines/BENCH_sat_attack.json \\
        /tmp/bj/BENCH_sat_attack.json

Exit status: 0 = identical payloads, 1 = mismatch, 2 = usage/parse error.
"""

import json
import sys

PAYLOAD = ("bench", "smoke", "tables", "notes")
ABSENT = object()


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"compare_bench: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema_version") != 1:
        print(f"compare_bench: {path}: expected schema_version 1, "
              f"got {doc.get('schema_version')!r}", file=sys.stderr)
        sys.exit(2)
    return {key: doc.get(key) for key in PAYLOAD}


def child(path, key):
    if isinstance(key, int):
        return f"{path}[{key}]"
    if key.isidentifier():
        return f"{path}.{key}" if path else key
    return f"{path}[{json.dumps(key)}]"


def first_difference(expected, actual, path=""):
    """The (path, expected, actual) of the first differing value, or None."""
    if expected == actual:
        return None
    if isinstance(expected, dict) and isinstance(actual, dict):
        keys = list(expected) + [key for key in actual if key not in expected]
        pairs = [(key, expected.get(key, ABSENT), actual.get(key, ABSENT))
                 for key in keys]
    elif isinstance(expected, list) and isinstance(actual, list):
        pairs = [(i, expected[i] if i < len(expected) else ABSENT,
                  actual[i] if i < len(actual) else ABSENT)
                 for i in range(max(len(expected), len(actual)))]
    else:
        return path, expected, actual
    for key, old, new in pairs:
        found = first_difference(old, new, child(path, key))
        if found:
            return found
    return path, expected, actual


def show(value):
    return "nothing" if value is ABSENT else json.dumps(value, sort_keys=True)


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    expected_path, actual_path = sys.argv[1:]
    found = first_difference(load(expected_path), load(actual_path))
    if found is None:
        print(f"compare_bench: {actual_path}: identical deterministic "
              f"payload")
        return 0
    where, expected, actual = found
    print(f"compare_bench: {actual_path} differs from {expected_path}\n"
          f"  {where}: expected {show(expected)}, got {show(actual)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())

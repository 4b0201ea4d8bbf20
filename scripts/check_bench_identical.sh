#!/bin/sh
# Output-identity gate: run a bench in smoke mode and require its
# deterministic payload (tables + notes) to equal a committed baseline
# exactly, via compare_bench.py --identical. Timings are ignored, so only a
# change in what the bench computes can fail it.
#
# Usage: check_bench_identical.sh <bench-bin> <baseline.json> [work-dir]
#
# Exits 0 when identical, 1 on a mismatch or a failed run, 2 on usage
# errors, and 77 (the ctest SKIP_RETURN_CODE) when python3 is unavailable.
set -u

if [ "$#" -lt 2 ]; then
  echo "usage: $0 <bench-bin> <baseline.json> [work-dir]" >&2
  exit 2
fi

bench=$1
baseline=$2
work=${3:-bench_identical_work}
script_dir=$(dirname "$0")

if [ ! -x "$bench" ]; then
  echo "check_bench_identical: missing bench binary $bench" >&2
  exit 2
fi
if [ ! -f "$baseline" ]; then
  echo "check_bench_identical: missing baseline $baseline" >&2
  exit 2
fi
if ! command -v python3 > /dev/null 2>&1; then
  echo "check_bench_identical: python3 unavailable, skipping"
  exit 77
fi

rm -rf "$work"
mkdir -p "$work"
json="$work/$(basename "$baseline")"
if ! "$bench" --smoke --json "$json" > "$work/output.txt" 2>&1; then
  echo "check_bench_identical: $bench failed; tail of output:" >&2
  tail -n 20 "$work/output.txt" >&2
  exit 1
fi
python3 "$script_dir/compare_bench.py" --identical "$baseline" "$json"

#!/bin/sh
# The bench identity gate. Runs every bench that has a committed baseline
# in bench/baselines/ once, with --smoke --json --trace, and requires of
# each run:
#
#   1. a BENCH_<name>.json that check_bench_json accepts (schema v1),
#   2. a deterministic payload (bench, smoke, tables, notes) equal to the
#      baseline's, via compare_bench.py, and
#   3. a TRACE_<name>.json that check_trace.py loads.
#
# A bench_* binary with no baseline fails the gate too, so every bench is
# gated (bench/baselines/README.md says how to add or refresh one).
#
# Usage: run_benches.sh <bench-bin-dir> <check_bench_json-path> [<out-dir>]
#
# Exits 0 when every bench passes, 1 on any failure, 2 on usage errors and
# 77 (the ctest SKIP_RETURN_CODE) when python3 is unavailable: the runs and
# the schema check still happen, the payload and trace checks are skipped.
# The `bench_smoke` ctest runs it; by hand:
#   sh scripts/run_benches.sh build/bench build/bench/check_bench_json /tmp/bj
set -eu

if [ "$#" -lt 2 ]; then
  echo "usage: $0 <bench-bin-dir> <check_bench_json-path> [<out-dir>]" >&2
  exit 2
fi

bin_dir=$1
checker=$2
out_dir=${3:-bench_json}
script_dir=$(dirname "$0")
baselines=$script_dir/../bench/baselines

mkdir -p "$out_dir"
status=0

for bench in "$bin_dir"/bench_*; do
  [ -f "$bench" ] && [ -x "$bench" ] || continue
  if [ ! -f "$baselines/BENCH_${bench##*/bench_}.json" ]; then
    echo "run_benches: $bench has no baseline in $baselines" >&2
    status=1
  fi
done

names=""
for baseline in "$baselines"/BENCH_*.json; do
  name=${baseline##*/BENCH_}
  name=${name%.json}
  bench="$bin_dir/bench_$name"
  json="$out_dir/BENCH_$name.json"
  trace="$out_dir/TRACE_$name.json"
  rm -f "$json" "$trace"
  if [ ! -x "$bench" ]; then
    echo "run_benches: missing bench binary $bench" >&2
    status=1
    continue
  fi
  echo "== bench_$name --smoke --json --trace =="
  if ! "$bench" --smoke --json "$json" --trace "$trace" \
      > "$out_dir/bench_$name.out" 2>&1; then
    echo "run_benches: bench_$name exited non-zero; tail of output:" >&2
    tail -n 20 "$out_dir/bench_$name.out" >&2
    status=1
    continue
  fi
  if [ ! -s "$json" ]; then
    echo "run_benches: bench_$name produced no JSON at $json" >&2
    status=1
    continue
  fi
  names="$names $name"
done

for name in $names; do
  "$checker" "$out_dir/BENCH_$name.json" || status=1
done

if ! command -v python3 > /dev/null 2>&1; then
  echo "run_benches: python3 unavailable, skipping the payload and trace" \
       "checks"
  [ "$status" -eq 0 ] && exit 77
  exit "$status"
fi

for name in $names; do
  python3 "$script_dir/compare_bench.py" "$baselines/BENCH_$name.json" \
    "$out_dir/BENCH_$name.json" || status=1
  python3 "$script_dir/check_trace.py" "$out_dir/TRACE_$name.json" ||
    status=1
done

if [ "$status" -eq 0 ]; then
  echo "run_benches: every bench matches its baseline in $baselines"
fi
exit "$status"

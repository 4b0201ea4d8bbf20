#!/bin/sh
# Build the concurrency-sensitive test suites under ThreadSanitizer and run
# them with the pool forced wide (PITFALLS_THREADS=8), so data races in the
# parallel layer or the metrics registry surface as hard failures instead of
# flaky tests.
#
# Usage: check_tsan.sh [<build-dir>]      (default: build-tsan)
#
# Uses a dedicated build tree configured with -DPITFALLS_SANITIZE=thread;
# the regular `build/` tree is left untouched. Exits non-zero on any
# configure/build failure, test failure, or TSan report (TSan aborts the
# test with halt_on_error so races cannot pass silently).
set -eu

src_dir=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$src_dir/build-tsan"}

echo "== configure ($build_dir, -DPITFALLS_SANITIZE=thread) =="
cmake -B "$build_dir" -S "$src_dir" -DPITFALLS_SANITIZE=thread

echo "== build parallel_test obs_test robust_test solver_test serve_test =="
cmake --build "$build_dir" -j --target parallel_test obs_test robust_test \
  solver_test serve_test

export TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}"
export PITFALLS_THREADS=8

status=0
for test in parallel_test obs_test robust_test solver_test serve_test; do
  echo "== $test (PITFALLS_THREADS=8, TSan) =="
  if ! "$build_dir/tests/$test"; then
    echo "check_tsan: $test FAILED under ThreadSanitizer" >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "check_tsan: parallel_test, obs_test, robust_test, solver_test and" \
    "serve_test are race-free under TSan"
fi
exit "$status"

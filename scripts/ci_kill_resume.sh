#!/bin/sh
# Kill/resume determinism gate.
#
# Proves the crash-safety contract end to end on a real bench binary:
#
#   1. run bench_noise_tolerance --smoke uninterrupted  -> reference JSON
#   2. run it again with --checkpoint (cadence 1, so the journal flushes on
#      every recorded oracle event) and SIGKILL it mid-flight
#   3. run it a third time with --resume pointing at the survivor snapshot
#   4. require the resumed run's deterministic payload (tables + notes) to
#      match the reference exactly, via compare_bench.py
#
# bench_noise_tolerance is the learner bench with timing-free tables, so
# "identical" really means identical — no tolerance, no flaky columns. The
# whole cycle repeats at each thread count in PITFALLS_KILL_RESUME_THREADS
# (default "1 4"): resume determinism must not depend on parallelism.
#
# Usage: ci_kill_resume.sh <bench_bin_dir> [work_dir]
set -u

bin_dir=${1:?usage: ci_kill_resume.sh <bench_bin_dir> [work_dir]}
work=${2:-kill_resume_work}
# The runs below cd into per-cycle work directories, so both the bench and
# the comparator need absolute paths.
bench=$(cd "$bin_dir" && pwd)/bench_noise_tolerance
script_dir=$(cd "$(dirname "$0")" && pwd)
threads_list=${PITFALLS_KILL_RESUME_THREADS:-"1 4"}

if [ ! -x "$bench" ]; then
  echo "ci_kill_resume: missing bench binary $bench" >&2
  exit 2
fi

rm -rf "$work"
mkdir -p "$work"

status=0
for threads in $threads_list; do
  dir="$work/t$threads"
  mkdir -p "$dir/ref" "$dir/crash"
  echo "== kill/resume cycle at PITFALLS_THREADS=$threads =="

  # --- 1. uninterrupted reference -------------------------------------
  if ! (cd "$dir/ref" && PITFALLS_THREADS=$threads "$bench" --smoke --json \
        > output.txt 2>&1); then
    echo "ci_kill_resume: reference run failed; output follows" >&2
    cat "$dir/ref/output.txt" >&2
    exit 1
  fi
  ref_json="$dir/ref/BENCH_noise_tolerance.json"

  # --- 2. checkpointed run, SIGKILLed mid-flight ----------------------
  # Cadence 1 makes the run fsync-bound (seconds instead of ~100ms), so a
  # kill after a short delay lands mid-run with near certainty. We still
  # verify it did: a mid-run death leaves a snapshot but no BENCH json.
  # Too-early kills (no snapshot yet) and too-late kills (bench finished)
  # retry with an adjusted delay.
  caught=0
  attempt=0
  for delay in 1.0 0.5 1.5 0.2 2.0 0.8 1.2 0.4 1.8 0.6; do
    attempt=$((attempt + 1))
    rm -f "$dir/crash/snap.bin" "$dir/crash/BENCH_noise_tolerance.json"
    (cd "$dir/crash" && exec env PITFALLS_THREADS=$threads "$bench" \
        --smoke --json --checkpoint=snap.bin --checkpoint-every=1 \
        > output.txt 2>&1) &
    pid=$!
    sleep "$delay"
    kill -9 "$pid" 2>/dev/null
    wait "$pid" 2>/dev/null
    if [ -f "$dir/crash/BENCH_noise_tolerance.json" ]; then
      echo "  attempt $attempt: bench finished before the kill" \
           "(delay ${delay}s); retrying"
    elif [ ! -s "$dir/crash/snap.bin" ]; then
      echo "  attempt $attempt: killed before the first journal flush" \
           "(delay ${delay}s); retrying"
    else
      caught=1
      echo "  SIGKILLed mid-run after ${delay}s;" \
           "snapshot: $(wc -c < "$dir/crash/snap.bin") bytes"
      break
    fi
  done
  if [ "$caught" != 1 ]; then
    echo "ci_kill_resume: could not catch the bench mid-run after" \
         "$attempt attempts" >&2
    exit 1
  fi

  # --- 3. resume from the survivor snapshot ---------------------------
  if ! (cd "$dir/crash" && PITFALLS_THREADS=$threads "$bench" --smoke \
        --json --resume=snap.bin --checkpoint-every=1 \
        > resume_output.txt 2>&1); then
    echo "ci_kill_resume: resumed run failed; output follows" >&2
    cat "$dir/crash/resume_output.txt" >&2
    exit 1
  fi
  resumed_json="$dir/crash/BENCH_noise_tolerance.json"

  # --- 4. deterministic payload must match exactly --------------------
  if python3 "$script_dir/compare_bench.py" "$ref_json" "$resumed_json"; then
    echo "  threads=$threads: resumed run is identical to uninterrupted"
  else
    echo "ci_kill_resume: resumed run diverged at threads=$threads" >&2
    status=1
  fi
done

if [ "$status" = 0 ]; then
  echo "ci_kill_resume: all cycles byte-identical"
fi
exit $status

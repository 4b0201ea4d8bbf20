#!/bin/sh
# Deterministic kill/resume gate for cell-checkpointed sweep benches.
#
# Unlike ci_kill_resume.sh (which SIGKILLs bench_noise_tolerance mid-flush
# and retries until the timing lands), this gate uses the
# PITFALLS_EXIT_AFTER_CELLS hook: the bench itself requests termination
# after the N-th completed cell and exits 143 at the next poll, so the
# "crash" lands between cells on the first try, every time.
#
#   1. run <bench> --smoke uninterrupted             -> reference JSON
#   2. run it with --checkpoint and
#      PITFALLS_EXIT_AFTER_CELLS=<cells>             -> exit 143, snapshot
#      present, no BENCH json (died mid-run by construction)
#   3. run it with --resume from the survivor        -> full JSON
#   4. require the resumed deterministic payload (tables + notes) to match
#      the reference exactly, via compare_bench.py
#
# Usage: check_kill_resume_cells.sh <bench_bin> <json_name> <cells> [work_dir]
#   bench_bin  absolute or relative path to the bench binary
#   json_name  the BENCH_<name>.json the reporter writes (e.g. lstar_fsm)
#   cells      crash after this many completed cells (must be mid-sweep)
set -u

bench_arg=${1:?usage: check_kill_resume_cells.sh <bench_bin> <json_name> <cells> [work_dir]}
json_name=${2:?usage: check_kill_resume_cells.sh <bench_bin> <json_name> <cells> [work_dir]}
cells=${3:?usage: check_kill_resume_cells.sh <bench_bin> <json_name> <cells> [work_dir]}
work=${4:-kill_resume_cells_work}

# The runs below cd into work subdirectories, so the bench and the
# comparator need absolute paths.
bench=$(cd "$(dirname "$bench_arg")" && pwd)/$(basename "$bench_arg")
script_dir=$(cd "$(dirname "$0")" && pwd)
json="BENCH_${json_name}.json"

if [ ! -x "$bench" ]; then
  echo "check_kill_resume_cells: missing bench binary $bench" >&2
  exit 2
fi

rm -rf "$work"
mkdir -p "$work/ref" "$work/crash"

# --- 1. uninterrupted reference ---------------------------------------
if ! (cd "$work/ref" && "$bench" --smoke --json > output.txt 2>&1); then
  echo "check_kill_resume_cells: reference run failed; output follows" >&2
  cat "$work/ref/output.txt" >&2
  exit 1
fi
ref_json="$work/ref/$json"
if [ ! -f "$ref_json" ]; then
  echo "check_kill_resume_cells: reference run left no $json" >&2
  exit 1
fi

# --- 2. deterministic crash after <cells> completed cells -------------
(cd "$work/crash" && PITFALLS_EXIT_AFTER_CELLS=$cells "$bench" \
    --smoke --json --checkpoint=snap.bin > output.txt 2>&1)
crash_status=$?
if [ "$crash_status" != 143 ]; then
  echo "check_kill_resume_cells: crash run exited $crash_status, want 143;" \
       "output follows" >&2
  cat "$work/crash/output.txt" >&2
  exit 1
fi
if [ ! -s "$work/crash/snap.bin" ]; then
  echo "check_kill_resume_cells: crash run left no snapshot" >&2
  exit 1
fi
if [ -f "$work/crash/$json" ]; then
  echo "check_kill_resume_cells: crash run wrote $json — it did not die" \
       "mid-run" >&2
  exit 1
fi
echo "  crashed after $cells cells;" \
     "snapshot: $(wc -c < "$work/crash/snap.bin") bytes"

# --- 3. resume from the survivor snapshot -----------------------------
if ! (cd "$work/crash" && "$bench" --smoke --json \
      --checkpoint=snap.bin --resume > resume_output.txt 2>&1); then
  echo "check_kill_resume_cells: resumed run failed; output follows" >&2
  cat "$work/crash/resume_output.txt" >&2
  exit 1
fi
resumed_json="$work/crash/$json"

# --- 4. deterministic payload must match exactly ----------------------
if python3 "$script_dir/compare_bench.py" "$ref_json" "$resumed_json"; then
  echo "check_kill_resume_cells: $json_name resume is identical to" \
       "uninterrupted"
  exit 0
fi
echo "check_kill_resume_cells: resumed $json_name run diverged" >&2
exit 1

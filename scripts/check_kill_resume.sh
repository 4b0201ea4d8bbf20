#!/bin/sh
# The bench kill/resume gate (DESIGN.md §14).
#
# Proves on a real bench binary that a crashed checkpointed run resumes
# from its snapshot and ends byte-identical to an uninterrupted run:
#
#   1. reference: <bench> --smoke --json at PITFALLS_THREADS=1
#   2. crash: the same run at 2 threads with --checkpoint=snap.bin and the
#      store's crash hook, PITFALLS_CRASH_AFTER_FLUSHES=<flushes>. It must
#      exit 137 (SIGKILL's status) and leave a non-empty snapshot and no
#      JSON.
#   3. resume: --checkpoint=snap.bin --resume at 4 threads. Its JSON must
#      show that the snapshot was loaded: store.snapshot.resumed 1, no
#      corrupt, mismatch or divergence, and at least <min_replayed>
#      replayed oracle queries. Its payload (tables + notes) must equal the
#      reference's (compare_bench.py).
#
# Usage: check_kill_resume.sh <bench_bin> <json_name> <flushes> <min_replayed> [work_dir]
#   bench_bin     path to the bench binary
#   json_name     the BENCH_<name>.json the reporter writes (e.g. lstar_fsm)
#   flushes       crash right after this many checkpoint flushes (mid-run)
#   min_replayed  least store.snapshot.replayed_queries the resume must show
# Exits 0 when every check passes, 1 on a failure, 2 on usage errors, and 77
# (the ctest SKIP_RETURN_CODE) when python3 is unavailable.
set -u

if [ $# -lt 4 ]; then
  echo "usage: check_kill_resume.sh <bench_bin> <json_name> <flushes>" \
       "<min_replayed> [work_dir]" >&2
  exit 2
fi
json_name=$2
flushes=$3
min_replayed=$4
work=${5:-kill_resume_work}
# The runs below cd into work subdirectories, so the bench and the
# comparator need absolute paths.
bench=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
script_dir=$(cd "$(dirname "$0")" && pwd)
json="BENCH_${json_name}.json"

if [ ! -x "$bench" ]; then
  echo "check_kill_resume: missing bench binary $bench" >&2
  exit 2
fi
if ! command -v python3 > /dev/null 2>&1; then
  echo "check_kill_resume: python3 unavailable, skipping"
  exit 77
fi

rm -rf "$work"
mkdir -p "$work/ref" "$work/crash"

fail() {  # <message> [output file to show]
  echo "check_kill_resume: $json_name: $1" >&2
  if [ $# -gt 1 ]; then cat "$2" >&2; fi
  exit 1
}

# --- 1. uninterrupted reference ---------------------------------------
(cd "$work/ref" && PITFALLS_THREADS=1 "$bench" --smoke --json \
    > output.txt 2>&1) || fail "reference run failed" "$work/ref/output.txt"
[ -f "$work/ref/$json" ] || fail "reference run left no $json"

# --- 2. crash right after the <flushes>-th checkpoint flush -----------
(cd "$work/crash" && PITFALLS_THREADS=2 PITFALLS_CRASH_AFTER_FLUSHES=$flushes \
    "$bench" --smoke --json --checkpoint=snap.bin > output.txt 2>&1)
crash_status=$?
[ "$crash_status" = 137 ] ||
  fail "crash run exited $crash_status, want 137" "$work/crash/output.txt"
[ -s "$work/crash/snap.bin" ] || fail "crash run left no snapshot"
[ ! -f "$work/crash/$json" ] ||
  fail "crash run wrote $json, so it did not die mid-run"

# --- 3. resume, prove it loaded the snapshot, compare payloads ---------
(cd "$work/crash" && PITFALLS_THREADS=4 "$bench" --smoke --json \
    --checkpoint=snap.bin --resume > resume_output.txt 2>&1) ||
  fail "resumed run failed" "$work/crash/resume_output.txt"
resumed_json="$work/crash/$json"
python3 - "$resumed_json" "$min_replayed" <<'EOF' || fail "resume did not load the snapshot"
import json
import sys

counters = json.load(open(sys.argv[1]))["metrics"]["counters"]
count = lambda name: counters.get("store.snapshot." + name, 0)
problems = [f"{name} {count(name)}, want {want}"
            for name, want in [("resumed", 1), ("corrupt", 0),
                               ("mismatch", 0), ("divergence", 0)]
            if count(name) != want]
if count("replayed_queries") < int(sys.argv[2]):
    problems.append(f"replayed_queries {count('replayed_queries')}, "
                    f"want at least {sys.argv[2]}")
for problem in problems:
    print("  store.snapshot." + problem, file=sys.stderr)
sys.exit(1 if problems else 0)
EOF
python3 "$script_dir/compare_bench.py" "$work/ref/$json" "$resumed_json" ||
  fail "resumed payload differs from the uninterrupted run"
echo "check_kill_resume: $json_name crashed after $flushes flushes" \
     "($(wc -c < "$work/crash/snap.bin") byte snapshot), resumed, and" \
     "matches the uninterrupted run"

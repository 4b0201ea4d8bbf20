#!/bin/sh
# Serve-plane smoke gate (DESIGN.md $16).
#
# Proves the pitfalls-served contract end to end on the real daemon binary:
#
#   1. a mixed batch (12 concurrent auth/attack/query jobs in one wave, two
#      more after it) over a 1M-token fleet, streamed output schema-checked
#      by check_serve_stream.py
#   2. the full output stream is byte-identical at PITFALLS_THREADS 1/2/4/8
#   3. kill -9 mid-wave (deterministic stand-in: the store's crash hook,
#      PITFALLS_CRASH_AFTER_FLUSHES, hard-exits 137 right after the 3rd
#      checkpoint flush, i.e. the 3rd journaled job) and a --resume run that
#      must serve the journaled outcomes back -- the complete outcome stream
#      has to match the uninterrupted reference byte for byte; then the same
#      resume from a copy of the journal that ends in a torn frame
#   4. continuations follow their own spec: a lockdown-tripped attack
#      session continued with a larger query budget, and three fresh
#      sessions continued with a smaller budget, another flip rate and
#      another drop rate. Each is checked against a no-session run of the
#      continued spec: the first three outcome lines must be byte-identical
#      to it; another drop rate sends other challenges to the token, so
#      that continuation must end in one error line naming the divergence,
#      with no outcome and exit 0
#   5. golden streams: the mixed batch, an edge-case script (query budgets
#      0/1/2, lockdown amid drops, bursts with metastability, auth and query
#      at --sigma 0 and 0.3), both refill legs and a script of one of each
#      refusal (identical at PITFALLS_THREADS 1/2/4/8) must reproduce the
#      streams committed under tests/golden/serve byte for byte, so the
#      outcome values and error messages themselves are pinned, not only
#      their stability
#   6. hostile lines through stdin's buffered reads: a 2 MB balanced nested
#      run line, a 1 MB line with an unterminated string, three jobs over a
#      work cap (attack budget, attack eval and auth rounds at 2^53), then
#      one auth job must give a clean exit, four error lines and the job's
#      outcome
#   7. unservable fleets: a signed or out-of-range integer flag, zero
#      stages, and a negative, NaN or infinite sigma must each exit non-zero
#      before the hello, with nothing on stdout
#
# Usage: serve_smoke.sh <build_dir> [work_dir]
# Exits 0 when every leg passes, 1 on a failure, 2 on usage errors, and 77
# (the ctest SKIP_RETURN_CODE) when python3 is unavailable.
set -u

build=${1:?usage: serve_smoke.sh <build_dir> [work_dir]}
work=${2:-serve_smoke_work}
served=$(cd "$build" && pwd)/tools/served/pitfalls-served
script_dir=$(cd "$(dirname "$0")" && pwd)
check="python3 $script_dir/check_serve_stream.py"
golden=$script_dir/../tests/golden/serve

if [ ! -x "$served" ]; then
  echo "serve_smoke: missing daemon binary $served" >&2
  exit 2
fi
if ! command -v python3 > /dev/null 2>&1; then
  echo "serve_smoke: python3 unavailable, skipping"
  exit 77
fi

rm -rf "$work"
mkdir -p "$work"

# 64-bit challenge blocks for the query jobs (fleet default: 64 stages).
C1=0110100101101001011010010110100101101001011010010110100101101001
C2=1101001011010010110100101101001011010010110100101101001011010010
C3=0010110100101101001011010010110100101101001011010010110100101101

cat > "$work/jobs.txt" <<EOF
{"type":"job","id":"a1","kind":"auth","token":999999,"seed":7,"rounds":16}
{"type":"job","id":"a2","kind":"auth","token":31337,"seed":9,"rounds":8}
{"type":"job","id":"a3","kind":"auth","token":0,"seed":5,"rounds":12}
{"type":"job","id":"x1","kind":"attack","token":12,"seed":3,"budget":60,"eval":100,"policy":{"flip_rate":0.05,"drop_rate":0.02}}
{"type":"job","id":"x2","kind":"attack","token":77,"seed":4,"budget":50,"eval":50}
{"type":"job","id":"x3","kind":"attack","token":500000,"seed":6,"budget":40,"eval":60,"policy":{"burst_rate":0.1,"burst_length":5}}
{"type":"job","id":"x4","kind":"attack","token":999998,"seed":8,"budget":60,"eval":80,"policy":{"flip_rate":0.02}}
{"type":"job","id":"q1","kind":"query","token":5,"seed":1,"challenges":["$C1"]}
{"type":"job","id":"q2","kind":"query","token":123456,"seed":1,"challenges":["$C2","$C3"]}
{"type":"job","id":"q3","kind":"query","token":42,"seed":1,"challenges":["$C1","$C2","$C3"]}
{"type":"job","id":"a4","kind":"auth","token":250000,"seed":10,"rounds":10}
{"type":"job","id":"x5","kind":"attack","token":7,"seed":12,"budget":30,"eval":40}
{"type":"run"}
{"type":"job","id":"a5","kind":"auth","token":888888,"seed":13,"rounds":6}
{"type":"job","id":"q4","kind":"query","token":999997,"seed":1,"challenges":["$C3"]}
{"type":"drain"}
EOF

# Edge cases: e0/e1 starve with 0 and 1 CRPs, e2 locks down after 2, e3
# locks down amid drops, e4 completes through heavy drops, bursts and
# metastability.
cat > "$work/edge.txt" <<EOF
{"type":"job","id":"e0","kind":"attack","token":4242,"seed":21,"budget":50,"eval":40,"policy":{"query_budget":0}}
{"type":"job","id":"e1","kind":"attack","token":4242,"seed":22,"budget":50,"eval":40,"policy":{"query_budget":1}}
{"type":"job","id":"e2","kind":"attack","token":4242,"seed":23,"budget":50,"eval":40,"policy":{"query_budget":2}}
{"type":"job","id":"e3","kind":"attack","token":271828,"seed":24,"budget":90,"eval":80,"policy":{"flip_rate":0.1,"drop_rate":0.3,"query_budget":90}}
{"type":"run"}
{"type":"job","id":"e4","kind":"attack","token":314159,"seed":25,"budget":60,"eval":80,"policy":{"drop_rate":0.6,"burst_rate":0.05,"burst_length":4,"metastable_sigma":0.2}}
{"type":"job","id":"e5","kind":"auth","token":161803,"seed":26,"rounds":24}
{"type":"job","id":"e6","kind":"query","token":161803,"seed":27,"challenges":["$C1","$C2"]}
{"type":"drain"}
EOF

# One of each refusal, in order: grammar error, unknown request type,
# missing field, ill-typed field, unknown kind, work field over its cap,
# a policy the fault layer refuses, a token outside the fleet, a duplicate
# id, and a query of the wrong arity, which fails at run time with its id.
cat > "$work/errors.txt" <<EOF
this is not json
{"type":"frobnicate"}
{"type":"job","id":"r1","kind":"auth","token":1,"seed":1}
{"type":"job","id":"r2","kind":"auth","token":"1","seed":1,"rounds":4}
{"type":"job","id":"r3","kind":"dance","token":1,"seed":1}
{"type":"job","id":"r4","kind":"attack","token":1,"seed":1,"budget":65537,"eval":8}
{"type":"job","id":"r5","kind":"attack","token":1,"seed":1,"budget":8,"eval":8,"policy":{"flip_rate":0.5}}
{"type":"job","id":"r6","kind":"auth","token":1000000,"seed":1,"rounds":4}
{"type":"job","id":"ok","kind":"auth","token":1,"seed":1,"rounds":4}
{"type":"job","id":"ok","kind":"auth","token":2,"seed":1,"rounds":4}
{"type":"job","id":"r7","kind":"query","token":5,"seed":1,"challenges":["0101"]}
{"type":"drain"}
EOF

status=0

# --- 1+2. byte-identical streams at every thread count ------------------
echo "== mixed batch over 1M tokens, threads 1/2/4/8 =="
for threads in 1 2 4 8; do
  if ! PITFALLS_THREADS=$threads "$served" --tokens 1000000 --seed 42 \
      < "$work/jobs.txt" > "$work/t$threads.out"; then
    echo "serve_smoke: daemon failed at PITFALLS_THREADS=$threads" >&2
    exit 1
  fi
done
if ! $check "$work/t1.out" --expect-outcomes 14; then
  echo "serve_smoke: reference stream failed schema validation" >&2
  exit 1
fi
for threads in 2 4 8; do
  if cmp -s "$work/t1.out" "$work/t$threads.out"; then
    echo "  threads=$threads: stream byte-identical to threads=1"
  else
    echo "serve_smoke: stream diverged at PITFALLS_THREADS=$threads" >&2
    diff "$work/t1.out" "$work/t$threads.out" | head -10 >&2
    status=1
  fi
done

# --- 3. kill -9 mid-wave, then resume -----------------------------------
echo "== crash after 3 journaled jobs, then --resume =="
PITFALLS_THREADS=2 PITFALLS_CRASH_AFTER_FLUSHES=3 \
  "$served" --tokens 1000000 --seed 42 --checkpoint "$work/ck.snap" \
  < "$work/jobs.txt" > "$work/crash.out"
crash_status=$?
if [ "$crash_status" != 137 ]; then
  echo "serve_smoke: crash leg exited $crash_status, expected 137" >&2
  exit 1
fi
if [ ! -s "$work/ck.snap" ]; then
  echo "serve_smoke: crash left no checkpoint journal" >&2
  exit 1
fi
cp "$work/ck.snap" "$work/ck_torn.snap"
python3 -c 'import sys; open(sys.argv[1], "ab").write(
    b"\xff\xff\x00\x00" + b"\x12\x34\x56\x78" + b"partial")' \
  "$work/ck_torn.snap"
if ! PITFALLS_THREADS=3 "$served" --tokens 1000000 --seed 42 \
    --checkpoint "$work/ck.snap" --resume \
    < "$work/jobs.txt" > "$work/resume.out"; then
  echo "serve_smoke: resume run failed" >&2
  exit 1
fi
if ! $check "$work/resume.out" --expect-outcomes 14 --expect-resumed 3; then
  echo "serve_smoke: resumed stream failed schema validation" >&2
  exit 1
fi
grep '"type":"outcome"' "$work/t1.out" > "$work/ref_outcomes.txt"
grep '"type":"outcome"' "$work/resume.out" > "$work/resume_outcomes.txt"
if cmp -s "$work/ref_outcomes.txt" "$work/resume_outcomes.txt"; then
  echo "  resumed outcomes byte-identical to the uninterrupted reference"
else
  echo "serve_smoke: resumed outcomes diverged from the reference" >&2
  diff "$work/ref_outcomes.txt" "$work/resume_outcomes.txt" | head -10 >&2
  status=1
fi

# The same resume from a copy of the crash journal that ends in a torn
# frame, one whose append never finished: its header declares 65535 body
# bytes and 7 follow. The frame must be skipped and the resume must
# continue from the flushes before it.
echo "== crash journal with a torn last frame, then --resume =="
if ! PITFALLS_THREADS=3 "$served" --tokens 1000000 --seed 42 \
    --checkpoint "$work/ck_torn.snap" --resume \
    < "$work/jobs.txt" > "$work/resume_torn.out"; then
  echo "serve_smoke: resume across a torn tail failed" >&2
  exit 1
fi
if ! $check "$work/resume_torn.out" --expect-outcomes 14 --expect-resumed 3
then
  echo "serve_smoke: torn-tail resumed stream failed schema validation" >&2
  exit 1
fi
grep '"type":"outcome"' "$work/resume_torn.out" > "$work/torn_outcomes.txt"
if cmp -s "$work/ref_outcomes.txt" "$work/torn_outcomes.txt"; then
  echo "  outcomes resumed across the torn tail byte-identical"
else
  echo "serve_smoke: outcomes resumed across the torn tail diverged" >&2
  diff "$work/ref_outcomes.txt" "$work/torn_outcomes.txt" | head -10 >&2
  status=1
fi

# --- 4. budget-refill continuation --------------------------------------
echo "== lockdown session continued with a refilled budget =="
printf '%s\n%s\n' \
  '{"type":"job","id":"L1a","kind":"attack","token":500000,"seed":11,"budget":120,"eval":80,"policy":{"flip_rate":0.03,"query_budget":60},"session":"L1"}' \
  '{"type":"drain"}' > "$work/lockdown.txt"
printf '%s\n%s\n' \
  '{"type":"job","id":"L1b","kind":"attack","token":500000,"seed":11,"budget":120,"eval":80,"policy":{"flip_rate":0.03,"query_budget":300},"session":"L1"}' \
  '{"type":"drain"}' > "$work/continue.txt"
printf '%s\n%s\n' \
  '{"type":"job","id":"L1b","kind":"attack","token":500000,"seed":11,"budget":120,"eval":80,"policy":{"flip_rate":0.03,"query_budget":300}}' \
  '{"type":"drain"}' > "$work/fresh.txt"

if ! "$served" --tokens 1000000 --seed 42 --checkpoint "$work/ck2.snap" \
    < "$work/lockdown.txt" > "$work/lockdown.out"; then
  echo "serve_smoke: lockdown leg failed" >&2
  exit 1
fi
if ! grep -q '"status":"lockdown"' "$work/lockdown.out"; then
  echo "serve_smoke: lockdown leg never tripped the query budget" >&2
  exit 1
fi
if ! "$served" --tokens 1000000 --seed 42 --checkpoint "$work/ck2.snap" \
    --resume < "$work/continue.txt" > "$work/continue.out"; then
  echo "serve_smoke: continuation leg failed" >&2
  exit 1
fi
if ! "$served" --tokens 1000000 --seed 42 \
    < "$work/fresh.txt" > "$work/fresh.out"; then
  echo "serve_smoke: fresh-reference leg failed" >&2
  exit 1
fi
grep '"type":"outcome"' "$work/continue.out" > "$work/continue_outcome.txt"
grep '"type":"outcome"' "$work/fresh.out" > "$work/fresh_outcome.txt"
if ! grep -q '"status":"modeled"' "$work/continue_outcome.txt"; then
  echo "serve_smoke: continuation did not complete the refilled attack" >&2
  status=1
fi
if cmp -s "$work/continue_outcome.txt" "$work/fresh_outcome.txt"; then
  echo "  continuation outcome byte-identical to the uninterrupted run"
else
  echo "serve_smoke: continuation outcome diverged from fresh run" >&2
  diff "$work/continue_outcome.txt" "$work/fresh_outcome.txt" >&2
  status=1
fi

# Three more continuations of fresh sessions, each against a no-session run
# of the continued spec. The journal holds what the token answered, beneath
# the fault channel, so the continuation re-walks its own channel.
echo "== continuations under a smaller budget, another flip rate, another drop rate =="
continuation_job() {  # <id> <policy> [session]
  printf '%s\n%s\n' \
    "{\"type\":\"job\",\"id\":\"$1\",\"kind\":\"attack\",\"token\":500000,\"seed\":11,\"budget\":120,\"eval\":80,\"policy\":$2${3:+,\"session\":\"$3\"}}" \
    '{"type":"drain"}'
}
continuation() {  # <name> <first policy> <next policy>
  continuation_job "$1a" "$2" "$1" | "$served" --tokens 1000000 --seed 42 \
    --checkpoint "$work/$1.snap" > "$work/$1_first.out" &&
  continuation_job "$1b" "$3" "$1" | "$served" --tokens 1000000 --seed 42 \
    --checkpoint "$work/$1.snap" --resume > "$work/$1_next.out" &&
  continuation_job "$1b" "$3" | "$served" --tokens 1000000 --seed 42 \
    > "$work/$1_ref.out"
}
if ! continuation shrink '{"flip_rate":0.03,"query_budget":300}' \
      '{"flip_rate":0.03,"query_budget":60}' ||
    ! continuation reflip '{"flip_rate":0.03,"query_budget":60}' \
      '{"flip_rate":0.2,"query_budget":300}' ||
    ! continuation redrop '{"drop_rate":0.05,"query_budget":60}' \
      '{"drop_rate":0.2,"query_budget":300}'; then
  echo "serve_smoke: a continuation leg failed" >&2
  exit 1
fi
for name in shrink reflip; do
  grep '"type":"outcome"' "$work/${name}_next.out" > "$work/${name}_next_outcome.txt"
  grep '"type":"outcome"' "$work/${name}_ref.out" > "$work/${name}_ref_outcome.txt"
  if [ -s "$work/${name}_ref_outcome.txt" ] &&
      cmp -s "$work/${name}_next_outcome.txt" "$work/${name}_ref_outcome.txt"; then
    echo "  $name: continuation outcome byte-identical to the no-session run"
  else
    echo "serve_smoke: $name continuation diverged from the no-session run" >&2
    diff "$work/${name}_next_outcome.txt" "$work/${name}_ref_outcome.txt" >&2
    status=1
  fi
done
if $check "$work/redrop_next.out" --allow-errors 1 --expect-outcomes 0 &&
    grep -q '"type":"error","id":"redropb",.*diverged' "$work/redrop_next.out"
then
  echo "  redrop: one error line naming the divergence, no outcome"
else
  echo "serve_smoke: the drop-rate continuation was not refused" >&2
  cat "$work/redrop_next.out" >&2
  status=1
fi

# --- 5. golden streams ---------------------------------------------------
echo "== streams byte-identical to tests/golden/serve =="
for sigma in 0 0.3; do
  if ! "$served" --tokens 1000000 --seed 42 --sigma "$sigma" \
      < "$work/edge.txt" > "$work/edge_sigma$sigma.out"; then
    echo "serve_smoke: edge script failed at --sigma $sigma" >&2
    exit 1
  fi
  if ! $check "$work/edge_sigma$sigma.out" --expect-outcomes 7; then
    echo "serve_smoke: edge stream failed schema validation" >&2
    exit 1
  fi
done
check_golden() {  # <stream> <golden file name>
  if cmp -s "$golden/$2" "$1"; then
    echo "  $2: byte-identical"
  else
    echo "serve_smoke: $1 differs from golden $2" >&2
    diff "$golden/$2" "$1" | head -10 >&2
    status=1
  fi
}
check_golden "$work/t1.out" mixed.out
check_golden "$work/edge_sigma0.out" edge_sigma0.out
check_golden "$work/edge_sigma0.3.out" edge_sigma0.3.out
check_golden "$work/lockdown.out" lockdown.out
check_golden "$work/continue.out" continue.out
for threads in 1 2 4 8; do
  if ! PITFALLS_THREADS=$threads "$served" --tokens 1000000 --seed 42 \
      < "$work/errors.txt" > "$work/errors_t$threads.out"; then
    echo "serve_smoke: refusal script failed at PITFALLS_THREADS=$threads" >&2
    exit 1
  fi
done
if ! $check "$work/errors_t1.out" --allow-errors 10 --expect-outcomes 1; then
  echo "serve_smoke: refusal stream failed schema validation" >&2
  exit 1
fi
for threads in 1 2 4 8; do
  check_golden "$work/errors_t$threads.out" errors.out
done

# --- 6. hostile lines ----------------------------------------------------
echo "== hostile lines: 2 MB nested run, 1 MB unterminated string, over-cap jobs =="
python3 - "$work/hostile.txt" <<'EOF'
import sys

depth = 1000000  # a million nested arrays: 2 MB of brackets
with open(sys.argv[1], "w") as out:
    out.write('{"type":"run","x":' + "[" * depth + "]" * depth + "}\n")
    out.write('{"type":"job","id":"h0","x":"' + "0" * 1000000 + "\n")
    huge = 2 ** 53  # a cap refuses each before anything reserves its work
    out.write('{"type":"job","id":"c1","kind":"attack","token":4,"seed":3,'
              '"budget":%d,"eval":8}\n' % huge)
    out.write('{"type":"job","id":"c2","kind":"attack","token":4,"seed":3,'
              '"budget":8,"eval":%d}\n' % huge)
    out.write('{"type":"job","id":"c3","kind":"auth","token":4,"seed":3,'
              '"rounds":%d}\n' % huge)
    out.write('{"type":"job","id":"h1","kind":"auth","token":4,"seed":3,'
              '"rounds":8}\n')
    out.write('{"type":"drain"}\n')
EOF
if ! "$served" --tokens 1000000 --seed 42 \
    < "$work/hostile.txt" > "$work/hostile.out"; then
  echo "serve_smoke: daemon failed on the hostile lines" >&2
  status=1
elif ! $check "$work/hostile.out" --allow-errors 4 --expect-outcomes 1; then
  echo "serve_smoke: hostile-line stream failed schema validation" >&2
  status=1
fi

# --- 7. unservable fleets -------------------------------------------------
echo "== unservable fleets exit before the hello =="
for flags in "--tokens -1" "--resident 99999999999999999999" "--stages 0" \
    "--sigma -1" "--sigma nan" "--sigma inf"; do
  # $flags is split on purpose: it holds one flag and its value.
  "$served" $flags < "$work/jobs.txt" > "$work/refused.out" 2> /dev/null
  refused_status=$?
  if [ "$refused_status" = 0 ] || [ -s "$work/refused.out" ]; then
    echo "serve_smoke: $flags exited $refused_status with" \
      "$(wc -c < "$work/refused.out") bytes on stdout" >&2
    status=1
  else
    echo "  $flags: exit $refused_status, empty stdout"
  fi
done

if [ "$status" = 0 ]; then
  echo "serve_smoke: all legs passed"
fi
exit $status

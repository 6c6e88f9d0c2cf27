#!/bin/sh
# End-to-end exercise of the goofi_serve daemon: submissions over the
# Unix socket, multi-tenant scheduling, kill -9 mid-campaign, restart,
# graceful drain — and the robustness contract at the center of it all:
# the daemon's results databases must be BYTE-identical to one-shot
# goofi_tool runs of the same campaign inis, at different worker counts.
set -eu

SERVE="$1"
SUBMIT="$2"
TOOL="$3"
WORK=$(mktemp -d)
SERVE_PID=""
trap 'test -n "$SERVE_PID" && kill -9 "$SERVE_PID" 2>/dev/null; rm -rf "$WORK"' EXIT
cd "$WORK"

fail() { echo "FAIL: $1" >&2; exit 1; }

SOCK="$WORK/serve.sock"
ROOT="$WORK/root"

# Wait for the daemon to answer pings (it unlinks/creates the socket).
await_daemon() {
  i=0
  while ! "$SUBMIT" --socket "$SOCK" ping >/dev/null 2>&1; do
    i=$((i + 1))
    test "$i" -lt 100 || fail "daemon never answered ping"
    sleep 0.1
  done
}

# Wait until the submission with id $1 reaches journal state $2.
await_state() {
  i=0
  while true; do
    STATE=$("$SUBMIT" --socket "$SOCK" status "$1" | awk '{print $3}')
    test "$STATE" = "$2" && return 0
    case "$STATE" in failed|cancelled)
      test "$STATE" = "$2" || fail "submission $1 is $STATE, wanted $2";;
    esac
    i=$((i + 1))
    test "$i" -lt 1200 || fail "submission $1 stuck in $STATE, wanted $2"
    sleep 0.1
  done
}

# Two campaigns, one serial and one sharded (the daemon multiplexes both
# over its fleet), each sized to run for seconds so that the kill -9
# below lands mid-run; the step asserts that it did.
cat > alpha.ini <<'EOF'
[campaign]
name = alpha
workload = fib
technique = scifi
experiments = 12000
seed = 9
location[] = cpu.regs.*
EOF
cat > beta.ini <<'EOF'
[campaign]
name = beta
workload = isort
technique = scifi
experiments = 12000
seed = 23
location[] = cpu.regs.*
jobs = 2
EOF

# --- malformed [service] values are rejected at boot ---------------------
# Each value is one the ini parser rejects before the daemon starts (no
# fleet is ever created); `timeout` bounds a daemon that starts anyway.
for BAD in "fleet_workers = four" "queue_limit = -1" "max_campaign_jobs = -1"; do
  printf '[service]\nroot = %s\n%s\n' "$WORK/bad_root" "$BAD" > bad_serve.ini
  if timeout 10 "$SERVE" --config bad_serve.ini > bad_serve.log 2>&1; then
    fail "'$BAD' must be rejected"
  fi
  grep -q "INVALID_ARGUMENT: ${BAD%% *}" bad_serve.log \
    || fail "'$BAD' must be rejected naming the key: $(cat bad_serve.log)"
  test ! -e "$WORK/bad_root" || fail "'$BAD' must be rejected before start"
done
# The count flags take the same rule, so "-1" cannot wrap to a huge fleet
# and "four" cannot become 0.
for BAD in "--fleet four" "--fleet -1" "--queue 0" "--max-jobs 3x"; do
  # $BAD is unquoted on purpose: it is a flag and its value.
  if timeout 10 "$SERVE" --root "$WORK/bad_root" $BAD > bad_serve.log 2>&1
  then
    fail "'$BAD' must be rejected"
  fi
  grep -q "INVALID_ARGUMENT: ${BAD%% *} must be" bad_serve.log \
    || fail "'$BAD' must be rejected naming the flag: $(cat bad_serve.log)"
  test ! -e "$WORK/bad_root" || fail "'$BAD' must be rejected before start"
done

# --- reference: one-shot goofi_tool runs of the same inis ---------------
"$TOOL" run alpha.ini --db ref_alpha > /dev/null 2>&1 || fail "ref alpha"
"$TOOL" run beta.ini --db ref_beta > /dev/null 2>&1 || fail "ref beta"

# --- life 1: submit both, then kill -9 mid-run ---------------------------
"$SERVE" --root "$ROOT" --socket "$SOCK" --fleet 3 > serve1.log 2>&1 &
SERVE_PID=$!
await_daemon

"$SUBMIT" --socket "$SOCK" ping | grep -q pong || fail "ping"
OUT=$("$SUBMIT" --socket "$SOCK" submit alpha.ini) || fail "submit alpha"
echo "$OUT" | grep -q "id 1" || fail "alpha must get id 1, got: $OUT"
OUT=$("$SUBMIT" --socket "$SOCK" submit beta.ini) || fail "submit beta"
echo "$OUT" | grep -q "id 2" || fail "beta must get id 2, got: $OUT"

# Duplicate names are rejected at submit time, not at run time.
if "$SUBMIT" --socket "$SOCK" submit alpha.ini > dup.out 2>&1; then
  fail "duplicate submit must fail"
fi
grep -q ALREADY_EXISTS dup.out || fail "duplicate must say ALREADY_EXISTS"

await_state 1 running
await_state 2 running
# SIGKILL: no drain, no cleanup. The journal and the campaigns' WAL
# checkpoints are all that survives.
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
# Both campaigns were in flight when the daemon died: the journal, the
# restart's only record of them, still holds each as running, so life 2
# must resume both. (Campaigns that had already completed would turn the
# restart into a plain reload, and this step would prove nothing.)
"$TOOL" sql "SELECT name FROM SubmissionQueue WHERE state = 'running'" \
  --db "$ROOT/journal" > inflight.out 2>&1 \
  || fail "journal unreadable after kill -9: $(cat inflight.out)"
grep -q "'alpha'" inflight.out && grep -q "'beta'" inflight.out \
  || fail "kill -9 must land with both campaigns running: $(cat inflight.out)"

# --- life 2: restart resumes both in-flight campaigns --------------------
# This life boots from a [service] deployment ini (the same format
# goofi_lint checks) instead of flags, at a different fleet width.
cat > serve.ini <<EOF
[service]
root = $ROOT
socket = $SOCK
fleet_workers = 2
EOF
"$SERVE" --config serve.ini > serve2.log 2>&1 &
SERVE_PID=$!
await_daemon
# The journal replay must show both campaigns, still owned by the fleet.
"$SUBMIT" --socket "$SOCK" status | grep -q "alpha" || fail "alpha in status"
"$SUBMIT" --socket "$SOCK" status | grep -q "beta" || fail "beta in status"
await_state 1 completed
await_state 2 completed

# watch on a completed campaign terminates immediately with its state.
"$SUBMIT" --socket "$SOCK" watch 1 | grep -q "end completed" || fail "watch"

# --- the robustness claim: byte-identical to the one-shot runs -----------
cmp -s "$ROOT/campaigns/alpha/wal.log" ref_alpha/wal.log \
  || fail "alpha database differs from one-shot goofi_tool run"
cmp -s "$ROOT/campaigns/beta/wal.log" ref_beta/wal.log \
  || fail "beta database differs from one-shot goofi_tool run"
# And readable by the ordinary toolchain.
"$TOOL" analyze alpha --db "$ROOT/campaigns/alpha" \
  | grep -q "12000 experiments" \
  || fail "daemon database must analyze like any other"

# --- backpressure: a full queue is an explicit error ---------------------
if "$SUBMIT" --socket "$SOCK" submit alpha.ini > dup2.out 2>&1; then
  fail "resubmitting a completed campaign must still fail (name taken)"
fi

# --- single instance: a second daemon on the same root is refused --------
if "$SERVE" --root "$ROOT" --socket "$WORK/second.sock" > second.log 2>&1; then
  fail "a second daemon on the same root must fail"
fi
grep -q ALREADY_EXISTS second.log || fail "second daemon must say ALREADY_EXISTS"
# ... and it must not have stolen the live daemon's socket.
"$SUBMIT" --socket "$SOCK" ping | grep -q pong || fail "ping after second daemon"

# --- watch exit code: cancelled/failed is not success --------------------
# Ten million experiments: once running, delta cannot finish before the
# cancel lands, at any plausible simulator speed.
cat > delta.ini <<'EOF'
[campaign]
name = delta
workload = fib
technique = scifi
experiments = 10000000
seed = 3
location[] = cpu.regs.*
EOF
"$SUBMIT" --socket "$SOCK" submit delta.ini > /dev/null || fail "submit delta"
await_state 3 running
"$SUBMIT" --socket "$SOCK" cancel 3 > /dev/null || fail "cancel delta"
await_state 3 cancelled
if "$SUBMIT" --socket "$SOCK" watch 3 > watch3.out; then
  fail "watch of a cancelled campaign must exit nonzero"
fi
grep -q "end cancelled" watch3.out || fail "watch must report end cancelled"

# --- graceful drain: SIGTERM => exit 0 -----------------------------------
kill -TERM "$SERVE_PID"
i=0
while kill -0 "$SERVE_PID" 2>/dev/null; do
  i=$((i + 1))
  test "$i" -lt 300 || fail "daemon did not drain after SIGTERM"
  sleep 0.1
done
wait "$SERVE_PID" && RC=0 || RC=$?
SERVE_PID=""
test "$RC" -eq 0 || fail "SIGTERM drain must exit 0, got $RC"

# --- client-side failure modes ------------------------------------------
if "$SUBMIT" --socket "$SOCK" ping > /dev/null 2>&1; then
  fail "ping must fail once the daemon is gone"
fi

# --- one-shot goofi_tool drains on SIGINT with exit code 3 ---------------
# The signal must land while the run is provably in flight, whatever the
# simulator speed. A scripted link hang wedges the first attempt of
# experiment 100 for 3 s, below the campaign's watchdog deadline, so the
# attempt fails and is retried without abandoning a thread. The progress
# line [100/4000] is printed after the drain handler is installed and
# right before that attempt: once it is out, the run has started and
# cannot finish for 3 s.
cat > gamma.ini <<'EOF'
[campaign]
name = gamma
workload = fib
technique = scifi
experiments = 4000
seed = 5
location[] = cpu.regs.*
experiment_timeout_ms = 60000
EOF
"$TOOL" run gamma.ini --db gamma_db --flaky "hang@100;hang_ms=3000" \
  > gamma.out 2>&1 &
TOOL_PID=$!
i=0
until grep -q '\[100/4000\]' gamma.out; do
  kill -0 "$TOOL_PID" 2>/dev/null || fail "goofi_tool ended before [100/4000]"
  i=$((i + 1))
  test "$i" -lt 1200 || fail "goofi_tool never reached [100/4000]"
  sleep 0.05
done
kill -INT "$TOOL_PID"
wait "$TOOL_PID" && RC=0 || RC=$?
test "$RC" -eq 3 || fail "interrupted goofi_tool must exit 3, got $RC"
grep -q "checkpoint saved" gamma.out || fail "drain message"
# The checkpointed campaign resumes to completion.
"$TOOL" resume gamma --db gamma_db > /dev/null 2>&1 || fail "resume gamma"
"$TOOL" analyze gamma --db gamma_db | grep -q "4000 experiments" \
  || fail "resumed gamma incomplete"

echo "goofi_serve CLI: all checks passed"

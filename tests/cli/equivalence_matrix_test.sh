#!/bin/sh
# The execution-knob equivalence matrix: every execution choice —
# worker count, checkpoint fork, a flaky target under supervision — must
# persist a byte-identical results directory (WAL log and snapshots).
# One row per shipped campaign; each row runs the campaign one way per
# knob through goofi_tool and diffs the directories, plus the row's own
# assertions (retries happened, experiments forked, duplicates pruned).
#
#   equivalence_matrix_test.sh <goofi_tool> <campaigns dir> <row>
#
# Rows: regs_scifi, supervised, checkpoint, mission, cache, equivalence,
# preinjection.
set -eu

TOOL="$1"
CAMPAIGNS="$2"
ROW="$3"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fail() { echo "FAIL [$ROW]: $1" >&2; exit 1; }

# run <campaign> <db dir> [goofi_tool flags...]: one run, output kept in
# <db dir>.log for the row's greps.
run() {
  ini="$1"
  db="$2"
  shift 2
  "$TOOL" run "$CAMPAIGNS/$ini.ini" --db "$db" "$@" > "$db.log" \
    || fail "goofi_tool run $ini --db $db $* exited $?"
}

same() {
  diff -r "$1" "$2" || fail "$1 and $2 differ"
}

forked() {
  grep -E 'checkpoint-fork: .* [1-9][0-9]*/[0-9]+ experiments forked' \
    "$1.log" || fail "$1: no experiment forked"
}

# Forked experiments that rejoined the golden run and stopped early.
converged() {
  grep -E 'checkpoint-fork: .*, [1-9][0-9]* converged' "$1.log" \
    || fail "$1: no experiment converged"
}

case "$ROW" in
  regs_scifi)
    # Worker count and checkpoint fork on the WAL format.
    run regs_scifi serial
    run regs_scifi jobs4 --jobs 4
    run regs_scifi nockpt --checkpoint off
    test -f serial/wal.log || fail "no wal.log in the results directory"
    same serial jobs4
    same serial nockpt
    ;;
  supervised)
    # Scripted transport faults and hangs: no experiment lost, retries
    # happened, and the dispositions are the same at every worker count.
    SCRIPT="io@3;hang@5;target_fault@7:1;io@7:2;io@9:*;hang_ms=3000"
    run regs_scifi_supervised serial --flaky "$SCRIPT"
    run regs_scifi_supervised jobs4 --flaky "$SCRIPT" --jobs 4
    for db in serial jobs4; do
      grep -E 'supervision: [1-9][0-9]* retries' "$db.log" \
        || fail "$db: no retries"
      grep -F 'campaign regs_scifi_supervised: 500 experiments run (0 skipped early)' \
        "$db.log" || fail "$db: experiments lost"
    done
    same serial jobs4
    ;;
  checkpoint)
    # Forked (the campaign's stored default), replayed from reset, and
    # forked under four workers.
    run regs_scifi_checkpoint fork
    run regs_scifi_checkpoint replay --checkpoint off
    run regs_scifi_checkpoint jobs4 --jobs 4
    forked fork
    converged fork
    same fork replay
    same fork jobs4
    ;;
  mission)
    # Runtime SWIFI on a long engine mission: most forked experiments
    # rejoin the golden run and stop early, and the bytes are those of
    # full replay and of four workers.
    run engine_mission fork
    run engine_mission replay --checkpoint off
    run engine_mission jobs4 --jobs 4
    forked fork
    converged fork
    converged jobs4
    same fork replay
    same fork jobs4
    ;;
  cache)
    # Access-path injection into the D-cache data array.
    run regs_cache_parity fork
    run regs_cache_parity replay --checkpoint off
    run regs_cache_parity jobs4 --jobs 4
    grep -F 'campaign regs_cache_parity: 300 experiments run (0 skipped early)' \
      fork.log || fail "fork: experiments lost"
    forked fork
    same fork replay
    same fork jobs4
    ;;
  equivalence)
    # >= 30% of the plan pruned as duplicates, the same bytes at four
    # workers, and a bounded re-injection audit of class homogeneity.
    run regs_scifi_equivalence serial
    run regs_scifi_equivalence jobs4 --jobs 4
    PRUNED=$(sed -nE 's/.*\(([0-9]+) duplicates pruned\).*/\1/p' serial.log)
    PLANNED=$(sed -nE 's/.*, [0-9]+\/([0-9]+) experiments injected.*/\1/p' \
      serial.log)
    echo "pruned $PRUNED of $PLANNED planned experiments"
    test -n "$PRUNED" && test -n "$PLANNED" || fail "no pruning summary"
    test $((PRUNED * 100)) -ge $((PLANNED * 30)) || fail "pruned < 30%"
    same serial jobs4
    "$TOOL" equivcheck regs_scifi_equivalence 200 --db serial \
      > equivcheck.log || fail "equivcheck exited $?"
    grep -F 'all outcome-homogeneous' equivcheck.log \
      || fail "equivcheck found a heterogeneous class"
    ;;
  preinjection)
    # The liveness filter alone: the resample sequence is a pure
    # function of the plan, so workers and checkpoint fork change no
    # byte.
    run engine_preinjection serial
    run engine_preinjection jobs4 --jobs 4
    run engine_preinjection nockpt --checkpoint off
    run engine_preinjection fork --checkpoint on
    grep -F 'campaign engine_preinjection: 400 experiments run (0 skipped early)' \
      serial.log || fail "serial: experiments lost"
    forked fork
    same serial jobs4
    same serial nockpt
    same serial fork
    ;;
  *)
    fail "unknown row '$ROW'"
    ;;
esac
echo "PASS [$ROW]"

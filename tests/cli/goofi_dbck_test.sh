#!/bin/sh
# End-to-end exercise of goofi_dbck: verify of a shipped campaign's
# results directory, verify/repair/compact on a damaged WAL directory
# produced by goofi_tool, plus the one-way import of the committed
# text-format fixture (tests/fixtures/legacy_text_db, the dbck_demo
# campaign below, with the analyze report recorded beside it).
#   sh goofi_dbck_test.sh <goofi_dbck> <goofi_tool> <fixtures> <campaigns>
set -eu

DBCK="$1"
TOOL="$2"
FIXTURES="$3"
CAMPAIGNS="$4"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fail() { echo "FAIL: $1" >&2; exit 1; }

cat > campaign.ini <<'EOF'
[campaign]
name = dbck_demo
workload = fib
technique = scifi
experiments = 10
seed = 4
location[] = cpu.regs.*
EOF
"$TOOL" run campaign.ini --db dbdir > /dev/null 2>&1 || fail "seed campaign"

# --- verify of a shipped campaign's results ----------------------------
"$TOOL" run "$CAMPAIGNS/regs_scifi.ini" --db regs_scifi > /dev/null 2>&1 \
  || fail "regs_scifi campaign"
"$DBCK" verify regs_scifi > verify_regs.out \
  || fail "verify must exit 0 on the regs_scifi results"
grep -q "verdict: clean" verify_regs.out || fail "regs_scifi clean verdict"

# --- verify on a healthy WAL directory ---------------------------------
"$DBCK" verify dbdir > verify.out || fail "verify must exit 0 when clean"
grep -q "WAL format" verify.out || fail "verify must report the format"
grep -q "verdict: clean" verify.out || fail "clean verdict"

# --- torn tail: verify flags it, repair heals it ------------------------
cp dbdir/wal.log wal.log.bak
printf 'torn-frame-garbage' >> dbdir/wal.log
if "$DBCK" verify dbdir > verify2.out; then
  fail "verify must exit nonzero on a torn log"
fi
grep -q "verdict: recoverable" verify2.out || fail "recoverable verdict"
"$DBCK" repair dbdir > repair.out || fail "repair"
grep -q "tail bytes dropped" repair.out || fail "repair must report the drop"
"$DBCK" verify dbdir > /dev/null || fail "verify must be clean after repair"
cmp -s dbdir/wal.log wal.log.bak || fail "repair must restore the exact log"

# --- compact ------------------------------------------------------------
"$DBCK" compact dbdir > compact.out || fail "compact"
grep -q "generation" compact.out || fail "compact must report the generation"
"$TOOL" analyze dbck_demo --db dbdir | grep -q "10 experiments" \
  || fail "analyze after compact"

# --- one-way import of the text-format fixture ---------------------------
cp -R "$FIXTURES/legacy_text_db" legacy
if "$DBCK" verify legacy > /dev/null 2> verify_legacy.err; then
  fail "verify must refuse a text-format directory"
fi
grep -q "goofi_dbck migrate" verify_legacy.err \
  || fail "verify must name the migration"
if "$TOOL" analyze dbck_demo --db legacy > /dev/null 2>&1; then
  fail "a text-format directory must not open before migration"
fi
"$DBCK" migrate legacy > /dev/null || fail "migrate"
test -f legacy/wal.log || fail "migrate must create the log"
test ! -f legacy/manifest.txt || fail "migrate must retire manifest.txt"
"$DBCK" verify legacy > verify3.out || fail "verify after migrate"
grep -q "verdict: clean" verify3.out || fail "migrated db must verify clean"
"$TOOL" analyze dbck_demo --db legacy > analyze.out \
  || fail "analyze on migrated db"
cmp -s analyze.out "$FIXTURES/legacy_text_db.analyze.txt" \
  || fail "analyze of the migrated db must equal the recorded report"

# --- error paths --------------------------------------------------------
"$DBCK" verify /nonexistent 2>&1 | grep -qi "error" \
  || fail "verify of a missing dir must error"
if "$DBCK" bogus dbdir > /dev/null 2>&1; then
  fail "unknown subcommand must fail"
fi

echo "goofi_dbck CLI: all checks passed"

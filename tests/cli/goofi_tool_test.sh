#!/bin/sh
# End-to-end exercise of the goofi_tool CLI: the four phases of §3 run
# as separate processes against a persisted database directory, the way
# the paper's tool is operated across GUI sessions.
set -eu

TOOL="$1"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fail() { echo "FAIL: $1" >&2; exit 1; }

# --- configuration-phase listings -------------------------------------
"$TOOL" targets | grep -q thor_rd || fail "targets must list thor_rd"
"$TOOL" targets | grep -q "thor " || fail "targets must list thor"
"$TOOL" workloads | grep -q engine_control || fail "workloads listing"
"$TOOL" schema | grep -q "CREATE TABLE LoggedSystemState" \
  || fail "schema printout"

# --- set-up + fault-injection phase ------------------------------------
cat > campaign.ini <<'EOF'
[campaign]
name = cli_demo
workload = fib
technique = scifi
experiments = 25
seed = 9
location[] = cpu.regs.*
EOF
"$TOOL" run campaign.ini --db dbdir > run.out 2>&1 \
  || fail "run exited nonzero: $(cat run.out)"
grep -q "25 experiments run" run.out || fail "run must report 25 experiments"
grep -q "Detection coverage" run.out || fail "run must print the analysis"
# New databases are created in the WAL format (src/db/wal.h).
test -f dbdir/wal.log || fail "database directory must persist (wal.log)"
test -f dbdir/snapshot.manifest || fail "snapshot manifest must persist"

# --- analysis phase (separate process, reloaded database) ---------------
"$TOOL" analyze cli_demo --db dbdir | grep -q "25 experiments" \
  || fail "analyze from persisted db"
"$TOOL" export cli_demo --db dbdir > export.csv || fail "export"
# header + 25 rows
LINES=$(grep -c . export.csv)
test "$LINES" -eq 26 || fail "export must have 26 lines, got $LINES"
grep -q "^experiment,location,category" export.csv || fail "csv header"

# --- SQL access ----------------------------------------------------------
"$TOOL" sql "SELECT COUNT(*) FROM LoggedSystemState WHERE campaign_name = 'cli_demo'" \
  --db dbdir | grep -q "26" || fail "sql count (25 + reference)"
"$TOOL" sql "SELECT experiment_name FROM LoggedSystemState WHERE \
experiment_name LIKE '%reference' OR experiment_name IN ('cli_demo/exp00003')" \
  --db dbdir | grep -q "exp00003" || fail "sql boolean WHERE"

# --- detail re-run (parentExperiment) ------------------------------------
"$TOOL" rerun cli_demo/exp00001 --db dbdir | grep -q "detail0" \
  || fail "rerun"
"$TOOL" sql "SELECT COUNT(*) FROM LoggedSystemState WHERE parent_experiment IS NOT NULL" \
  --db dbdir | grep -q "1" || fail "child row persisted"

# --- resume is a no-op on a completed campaign ---------------------------
"$TOOL" resume cli_demo --db dbdir > resume.out 2>&1 || fail "resume"
grep -q "0 experiments run" resume.out || fail "resume no-op"

# --- error paths ----------------------------------------------------------
"$TOOL" analyze nonexistent --db dbdir 2>&1 | grep -qi "error" \
  || fail "analyze of unknown campaign must error"
"$TOOL" sql "SELEC broken" --db dbdir 2>&1 | grep -qi "error" \
  || fail "bad SQL must error"
if "$TOOL" run campaign.ini --db dbdir > rerun2.out 2>&1; then
  fail "re-running a completed campaign must fail (use resume)"
fi

# --- a bad ini is rejected before anything is stored ---------------------
# An unknown trigger once committed the campaign row and failed only at
# sampling time; the stored row then beat the corrected ini.
sed 's/^name = cli_demo/name = cli_fixed/' campaign.ini > fixed.ini
{ cat fixed.ini; echo "trigger = instrett"; } > typo.ini
if "$TOOL" run typo.ini --db dbdir > typo.out 2>&1; then
  fail "an unknown trigger kind must be rejected"
fi
grep -q "INVALID_ARGUMENT.*trigger kind 'instrett'" typo.out \
  || fail "the error must name the bad value: $(cat typo.out)"
"$TOOL" sql "SELECT COUNT(*) FROM CampaignData WHERE campaign_name = 'cli_fixed'" \
  --db dbdir | grep -qx "0" || fail "a rejected ini must store no campaign row"
{ cat fixed.ini; echo "experiments = 3x"; } > typed.ini
if "$TOOL" run typed.ini --db dbdir > typed.out 2>&1; then
  fail "a malformed count must be rejected, not read as the default"
fi
grep -q "experiments" typed.out || fail "the error must name the key"
"$TOOL" run fixed.ini --db dbdir > fixed.out 2>&1 \
  || fail "the corrected ini must run on the same --db: $(cat fixed.out)"
grep -q "25 experiments run" fixed.out || fail "corrected run"

# --- bad counts on the command line are rejected before any database ----
for JOBS in four -1 0 3x; do
  if "$TOOL" run fixed.ini --db jobsdb --jobs "$JOBS" > jobs.out 2>&1; then
    fail "--jobs $JOBS must be rejected"
  fi
  grep -q "INVALID_ARGUMENT.*--jobs" jobs.out \
    || fail "the --jobs $JOBS error must name the flag: $(cat jobs.out)"
  test ! -e jobsdb || fail "a rejected --jobs $JOBS must open no database"
done
if "$TOOL" equivcheck cli_demo 3x --db dbdir > equiv.out 2>&1; then
  fail "a malformed max_classes must be rejected"
fi
grep -q "INVALID_ARGUMENT.*max_classes" equiv.out \
  || fail "the error must name max_classes: $(cat equiv.out)"

echo "goofi_tool CLI: all checks passed"

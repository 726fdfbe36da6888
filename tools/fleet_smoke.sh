#!/usr/bin/env bash
# fleet_smoke.sh — end-to-end smoke test for the sharded fleet pipeline.
#
# Proves the whole chain — chaser_hubd, two `chaser_run --shard` workers
# publishing taint through it (one of them on two worker threads) into
# per-shard CTR stores, a SIGKILL once a data block is on disk, a resume
# that replays the stored blocks (a nonzero "resumed" count), and the
# chaser_fleet merge over the shard stores passed in reverse order —
# reproduces an unsharded single-process run byte for byte (report, and
# records CSV via export-csv), and that `chaser_analyze summarize` merges the
# two shards' exported CSVs and refuses one passed twice. Each shard spans
# more than three 512-record blocks, and a remote-hub matvec trial is slow
# enough (~0.6 ms) for the kill to land mid-run. Companion to
# kill_resume_smoke.sh, one layer up the stack.
#
# usage: tools/fleet_smoke.sh [path/to/build/tools]
#
# Exits 0 on success, 1 on any divergence. Safe to run repeatedly.
set -u

TOOLS="${1:-build/tools}"
RUN="$TOOLS/chaser_run"
HUBD="$TOOLS/chaser_hubd"
FLEET="$TOOLS/chaser_fleet"
ANALYZE="$TOOLS/chaser_analyze"
APP=matvec
RUNS=3200
SEED=20260807

for bin in "$RUN" "$HUBD" "$FLEET" "$ANALYZE"; do
  if [[ ! -x "$bin" ]]; then
    echo "fleet_smoke: binary not found at '$bin'" >&2
    echo "  build first (cmake --build build) or pass the tools dir" >&2
    exit 1
  fi
done

source "$(dirname "$0")/smoke_lib.sh"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/chaser-fleet-smoke.XXXXXX")"
HUB_PID=
trap '[[ -n "$HUB_PID" ]] && kill "$HUB_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

echo "== reference: unsharded single-process campaign ($RUNS trials)"
"$RUN" --app "$APP" --runs "$RUNS" --seed "$SEED" --jobs 1 \
       --out "$WORK/ref.csv" --report "$WORK/ref.report" \
       >"$WORK/ref.log" 2>&1 || {
  echo "fleet_smoke: FAIL (reference run crashed; see $WORK/ref.log)"; exit 1; }

echo "== hub: chaser_hubd on an ephemeral port"
"$HUBD" --port 0 >"$WORK/hubd.log" 2>&1 &
HUB_PID=$!
for _ in $(seq 1 500); do
  grep -q 'listening on' "$WORK/hubd.log" 2>/dev/null && break
  sleep 0.01
done
ENDPOINT="$(sed -n 's/^chaser_hubd: listening on //p' "$WORK/hubd.log" | head -1)"
if [[ -z "$ENDPOINT" ]]; then
  echo "fleet_smoke: FAIL (chaser_hubd never came up; see $WORK/hubd.log)"
  exit 1
fi
echo "   hub at $ENDPOINT"

shard() {  # shard <i> <jobs> -> runs shard i/2 against the hub, resumable
  local i="$1" jobs="$2"
  "$RUN" --app "$APP" --runs "$RUNS" --seed "$SEED" --jobs "$jobs" \
         --shard "$i/2" --hub "$ENDPOINT" \
         --resume --records-format ctr --out "$WORK/shard-$i.ctr"
}

echo "== shards: worker 0 runs clean on 2 threads; worker 1 is SIGKILLed mid-run"
shard 0 2 >"$WORK/shard-0.log" 2>&1 || {
  echo "fleet_smoke: FAIL (shard 0 crashed; see $WORK/shard-0.log)"; exit 1; }

shard 1 1 >"$WORK/shard-1.log" 2>&1 &
kill_after_first_block $! "$WORK/shard-1.ctr/seg-000000.ctr"

echo "== resume: shard 1 reruns from its store"
shard 1 1 >"$WORK/shard-1.resume.log" 2>&1 || {
  echo "fleet_smoke: FAIL (shard 1 resume crashed; see $WORK/shard-1.resume.log)"
  exit 1; }
fail=0
check_resumed "$WORK/shard-1.resume.log" fleet_smoke || fail=1

echo "== merge: chaser_fleet merge over both shard stores, last shard first"
"$FLEET" merge --app "$APP" --runs "$RUNS" --seed "$SEED" \
         --out "$WORK/merged.ctr" --report "$WORK/merged.report" \
         "$WORK/shard-1.ctr" "$WORK/shard-0.ctr" \
         >"$WORK/merge.log" 2>&1 || {
  echo "fleet_smoke: FAIL (merge crashed; see $WORK/merge.log)"; exit 1; }

"$ANALYZE" export-csv "$WORK/merged.ctr" --out "$WORK/merged.csv" \
    >"$WORK/export.log" 2>&1 || {
  echo "fleet_smoke: FAIL (export-csv of the merged store crashed)"; exit 1; }
if ! diff -q "$WORK/ref.csv" "$WORK/merged.csv" >/dev/null; then
  echo "fleet_smoke: FAIL — merged records differ from the unsharded reference"
  diff "$WORK/ref.csv" "$WORK/merged.csv" | head -20
  fail=1
fi
if ! diff -q "$WORK/ref.report" "$WORK/merged.report" >/dev/null; then
  echo "fleet_smoke: FAIL — merged report differs from the unsharded reference"
  diff "$WORK/ref.report" "$WORK/merged.report" | head -20
  fail=1
fi

echo "== analyze: chaser_analyze summarize merges both shards' CSVs"
for i in 0 1; do
  "$ANALYZE" export-csv "$WORK/shard-$i.ctr" --out "$WORK/shard-$i.csv" \
      >>"$WORK/export.log" 2>&1 || {
    echo "fleet_smoke: FAIL (export-csv of shard $i's store crashed)"; fail=1; }
done
"$ANALYZE" summarize "$WORK/shard-0.csv" "$WORK/shard-1.csv" \
    >"$WORK/summary.txt" 2>&1 || {
  echo "fleet_smoke: FAIL (chaser_analyze summarize crashed)"; fail=1; }
grep -q "$RUNS records" "$WORK/summary.txt" || {
  echo "fleet_smoke: FAIL — summarize did not see all $RUNS records"
  head -5 "$WORK/summary.txt"; fail=1; }
if "$ANALYZE" summarize "$WORK/shard-0.csv" "$WORK/shard-0.csv" \
    >"$WORK/overlap.txt" 2>&1; then
  echo "fleet_smoke: FAIL — summarize counted one shard's CSV twice"
  fail=1
fi

kill "$HUB_PID" 2>/dev/null
wait "$HUB_PID" 2>/dev/null
HUB_PID=

if [[ "$fail" -eq 0 ]]; then
  echo "fleet_smoke: PASS — 2-shard remote-hub run (with a kill+resume from its store) is byte-identical to the unsharded reference"
fi
exit "$fail"

#!/usr/bin/env bash
# fleet_smoke.sh — end-to-end smoke test for the sharded fleet pipeline.
#
# Proves the whole chain — chaser_hubd, two `chaser_run --shard` workers
# publishing taint through it (one of them on two worker threads), a SIGKILL
# mid-run, a journal resume, and the chaser_fleet merge over the shard CSVs
# passed in reverse order — reproduces an unsharded single-process run byte
# for byte (records CSV and report). Companion to kill_resume_smoke.sh, one
# layer up the stack.
#
# usage: tools/fleet_smoke.sh [path/to/build/tools]
#
# Exits 0 on success, 1 on any divergence. Safe to run repeatedly.
set -u

TOOLS="${1:-build/tools}"
RUN="$TOOLS/chaser_run"
HUBD="$TOOLS/chaser_hubd"
FLEET="$TOOLS/chaser_fleet"
APP=matvec
RUNS=80
SEED=20260807

for bin in "$RUN" "$HUBD" "$FLEET"; do
  if [[ ! -x "$bin" ]]; then
    echo "fleet_smoke: binary not found at '$bin'" >&2
    echo "  build first (cmake --build build) or pass the tools dir" >&2
    exit 1
  fi
done

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

shard() {  # shard <i> <jobs> -> runs shard i/2 against the hub, journaled
  local i="$1" jobs="$2"
  "$RUN" --app "$APP" --runs "$RUNS" --seed "$SEED" --jobs "$jobs" \
         --shard "$i/2" --hub "$ENDPOINT" \
         --resume "$WORK/shard-$i.journal" \
         --out "$WORK/shard-$i.csv"
}

echo "== shards: worker 0 runs clean on 2 threads; worker 1 is SIGKILLed mid-run"
shard 0 2 >"$WORK/shard-0.log" 2>&1 || {
  echo "fleet_smoke: FAIL (shard 0 crashed; see $WORK/shard-0.log)"; exit 1; }

shard 1 1 >"$WORK/shard-1.log" 2>&1 &
VICTIM=$!
for _ in $(seq 1 500); do
  size=$(stat -c %s "$WORK/shard-1.journal" 2>/dev/null || echo 0)
  [[ "$size" -gt 256 ]] && break
  kill -0 "$VICTIM" 2>/dev/null || break
  sleep 0.01
done
# $VICTIM is the subshell running the backgrounded function: kill its
# chaser_run child too, or that keeps running and races the resume for
# the same output files.
if kill -9 $(pgrep -P "$VICTIM") "$VICTIM" 2>/dev/null; then
  echo "   killed shard 1 (pid $VICTIM) with journal at $(stat -c %s "$WORK/shard-1.journal" 2>/dev/null || echo 0) bytes"
else
  echo "   shard 1 finished before the kill landed; resume becomes a replay"
fi
wait "$VICTIM" 2>/dev/null

echo "== resume: shard 1 reruns from its journal"
shard 1 1 >"$WORK/shard-1.resume.log" 2>&1 || {
  echo "fleet_smoke: FAIL (shard 1 resume crashed; see $WORK/shard-1.resume.log)"
  exit 1; }

echo "== merge: chaser_fleet merge over both shard CSVs, last shard first"
"$FLEET" merge --app "$APP" --runs "$RUNS" --seed "$SEED" \
         --out "$WORK/merged.csv" --report "$WORK/merged.report" \
         "$WORK/shard-1.csv" "$WORK/shard-0.csv" \
         >"$WORK/merge.log" 2>&1 || {
  echo "fleet_smoke: FAIL (merge crashed; see $WORK/merge.log)"; exit 1; }

fail=0
if ! diff -q "$WORK/ref.csv" "$WORK/merged.csv" >/dev/null; then
  echo "fleet_smoke: FAIL — merged CSV differs from the unsharded reference"
  diff "$WORK/ref.csv" "$WORK/merged.csv" | head -20
  fail=1
fi
if ! diff -q "$WORK/ref.report" "$WORK/merged.report" >/dev/null; then
  echo "fleet_smoke: FAIL — merged report differs from the unsharded reference"
  diff "$WORK/ref.report" "$WORK/merged.report" | head -20
  fail=1
fi

echo "== analyze: chaser_analyze summarize merges both shard CSVs"
ANALYZE="$TOOLS/chaser_analyze"
if [[ -x "$ANALYZE" ]]; then
  "$ANALYZE" summarize "$WORK/shard-0.csv" "$WORK/shard-1.csv" \
      >"$WORK/summary.txt" 2>&1 || {
    echo "fleet_smoke: FAIL (chaser_analyze summarize crashed)"; fail=1; }
  grep -q "$RUNS records" "$WORK/summary.txt" || {
    echo "fleet_smoke: FAIL — summarize did not see all $RUNS records"
    head -5 "$WORK/summary.txt"; fail=1; }
fi

kill "$HUB_PID" 2>/dev/null
wait "$HUB_PID" 2>/dev/null
HUB_PID=

if [[ "$fail" -eq 0 ]]; then
  echo "fleet_smoke: PASS — 2-shard remote-hub run (with a kill+resume) is byte-identical to the unsharded reference"
fi
exit "$fail"

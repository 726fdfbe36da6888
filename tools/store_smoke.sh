#!/usr/bin/env bash
# store_smoke.sh — end-to-end smoke test for the CTR columnar trial store.
#
# Proves the whole columnar chain: a `chaser_run --records-format ctr`
# campaign SIGKILLed mid-run, on one worker thread and on two, a journal+store
# resume that converges back to the uninterrupted byte stream, a 3-shard
# fleet producing per-shard stores,
# a streaming `chaser_fleet merge` into one merged store, and
# `chaser_analyze query` / `export-csv` over the result — with the exported
# CSV byte-identical to what a plain `--records-format csv` run writes.
# Companion to fleet_smoke.sh, one storage layer down.
#
# usage: tools/store_smoke.sh [path/to/build/tools]
#
# Exits 0 on success, 1 on any divergence. Safe to run repeatedly.
set -u

TOOLS="${1:-build/tools}"
RUN="$TOOLS/chaser_run"
FLEET="$TOOLS/chaser_fleet"
ANALYZE="$TOOLS/chaser_analyze"
APP=matvec
RUNS=120
SEED=20260807

for bin in "$RUN" "$FLEET" "$ANALYZE"; do
  if [[ ! -x "$bin" ]]; then
    echo "store_smoke: binary not found at '$bin'" >&2
    echo "  build first (cmake --build build) or pass the tools dir" >&2
    exit 1
  fi
done

WORK="$(mktemp -d "${TMPDIR:-/tmp}/chaser-store-smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

echo "== reference: records CSV from an uninterrupted run ($RUNS trials)"
"$RUN" --app "$APP" --runs "$RUNS" --seed "$SEED" --jobs 1 \
       --out "$WORK/ref.csv" --report "$WORK/ref.report" \
       >"$WORK/ref.log" 2>&1 || {
  echo "store_smoke: FAIL (reference run crashed; see $WORK/ref.log)"; exit 1; }

echo "== store: same campaign into a CTR store, uninterrupted"
"$RUN" --app "$APP" --runs "$RUNS" --seed "$SEED" --jobs 1 \
       --out "$WORK/clean.ctr" --records-format ctr \
       >"$WORK/clean.log" 2>&1 || {
  echo "store_smoke: FAIL (clean store run crashed; see $WORK/clean.log)"
  exit 1; }

store_run() {  # store_run <name> <jobs> -> journaled CTR run into $WORK/<name>.ctr
  "$RUN" --app "$APP" --runs "$RUNS" --seed "$SEED" --jobs "$2" \
         --resume "$WORK/$1.journal" \
         --out "$WORK/$1.ctr" --records-format ctr
}

fail=0
for jobs in 1 2; do
  name="kill-j$jobs"
  echo "== kill: journaled CTR run on $jobs worker(s) is SIGKILLed mid-campaign"
  store_run "$name" "$jobs" >"$WORK/$name.log" 2>&1 &
  VICTIM=$!
  for _ in $(seq 1 500); do
    size=$(stat -c %s "$WORK/$name.journal" 2>/dev/null || echo 0)
    [[ "$size" -gt 256 ]] && break
    kill -0 "$VICTIM" 2>/dev/null || break
    sleep 0.01
  done
  # $VICTIM is the subshell running the backgrounded function: kill its
  # chaser_run child too, or that keeps running and races the resume for
  # the same output files.
  if kill -9 $(pgrep -P "$VICTIM") "$VICTIM" 2>/dev/null; then
    echo "   killed pid $VICTIM with journal at $(stat -c %s "$WORK/$name.journal" 2>/dev/null || echo 0) bytes"
  else
    echo "   run finished before the kill landed; resume becomes a replay"
  fi
  wait "$VICTIM" 2>/dev/null

  echo "== resume: rerun from journal + torn store"
  store_run "$name" "$jobs" >"$WORK/$name.resume.log" 2>&1 || {
    echo "store_smoke: FAIL (resume crashed; see $WORK/$name.resume.log)"; exit 1; }

  if ! diff -r "$WORK/clean.ctr" "$WORK/$name.ctr" >/dev/null; then
    echo "store_smoke: FAIL — resumed $jobs-worker store differs from the uninterrupted store"
    diff -rq "$WORK/clean.ctr" "$WORK/$name.ctr" | head -10
    fail=1
  fi
done

echo "== shards: 3-shard fleet into per-shard stores, streaming merge"
"$FLEET" run --app "$APP" --runs "$RUNS" --seed "$SEED" --shards 3 \
         --records-format ctr --dir "$WORK/fleet" \
         >"$WORK/fleet.log" 2>&1 || {
  echo "store_smoke: FAIL (fleet run crashed; see $WORK/fleet.log)"; exit 1; }
if [[ ! -d "$WORK/fleet/merged.ctr" ]]; then
  echo "store_smoke: FAIL — fleet left no merged.ctr store"; exit 1
fi
if ! diff -q "$WORK/ref.report" "$WORK/fleet/report.txt" >/dev/null; then
  echo "store_smoke: FAIL — fleet report differs from the unsharded reference"
  diff "$WORK/ref.report" "$WORK/fleet/report.txt" | head -20
  fail=1
fi

echo "== export: every store must reproduce the reference CSV byte for byte"
for store in "$WORK/clean.ctr" "$WORK/kill-j1.ctr" "$WORK/kill-j2.ctr" \
             "$WORK/fleet/merged.ctr"; do
  "$ANALYZE" export-csv "$store" --out "$WORK/export.csv" \
      >"$WORK/export.log" 2>&1 || {
    echo "store_smoke: FAIL (export-csv crashed on $store)"; fail=1; continue; }
  if ! diff -q "$WORK/ref.csv" "$WORK/export.csv" >/dev/null; then
    echo "store_smoke: FAIL — export of $store differs from the native CSV"
    diff "$WORK/ref.csv" "$WORK/export.csv" | head -10
    fail=1
  fi
done

echo "== query: summarize and a filtered group-by over the merged store"
"$ANALYZE" summarize "$WORK/fleet/merged.ctr" >"$WORK/summary.txt" 2>&1 || {
  echo "store_smoke: FAIL (summarize over the store crashed)"; fail=1; }
grep -q "$RUNS records" "$WORK/summary.txt" || {
  echo "store_smoke: FAIL — store summarize did not see all $RUNS records"
  head -5 "$WORK/summary.txt"; fail=1; }
"$ANALYZE" query "$WORK/fleet/merged.ctr" --group-by outcome \
    >"$WORK/query.txt" 2>&1 || {
  echo "store_smoke: FAIL (query over the store crashed)"; fail=1; }
grep -q "$RUNS records scanned" "$WORK/query.txt" || {
  echo "store_smoke: FAIL — query did not scan all $RUNS records"
  head -5 "$WORK/query.txt"; fail=1; }

if [[ "$fail" -eq 0 ]]; then
  echo "store_smoke: PASS — kill+resume, 3-shard streaming merge, query, and export-csv all byte-identical to the CSV reference"
fi
exit "$fail"

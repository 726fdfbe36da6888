#!/usr/bin/env bash
# store_smoke.sh — end-to-end smoke test for the CTR columnar trial store.
#
# Proves the whole columnar chain: a `chaser_run --resume --out` campaign
# SIGKILLed once a data block is on disk, on one worker thread and on two, a
# resume that replays the stored blocks (a nonzero "resumed" count) and
# converges back to the uninterrupted store byte for byte, a 3-shard fleet
# producing per-shard stores, a streaming `chaser_fleet merge` into one
# merged store, and `chaser_analyze query` / `summarize` / `export-csv` over
# the result — every store exporting the same records CSV as the
# uninterrupted one. Records CSVs are an export only: handed to `chaser_fleet
# merge` or `summarize`, one is refused (exit 2). The campaign spans more
# than three 512-record blocks of lud (~0.5 ms a trial), so the kill lands
# mid-run. Companion to fleet_smoke.sh, one storage layer down.
#
# usage: tools/store_smoke.sh [path/to/build/tools]
#
# Exits 0 on success, 1 on any divergence. Safe to run repeatedly.
set -u

TOOLS="${1:-build/tools}"
RUN="$TOOLS/chaser_run"
FLEET="$TOOLS/chaser_fleet"
ANALYZE="$TOOLS/chaser_analyze"
APP=lud
RUNS=1600
SEED=20260807

for bin in "$RUN" "$FLEET" "$ANALYZE"; do
  if [[ ! -x "$bin" ]]; then
    echo "store_smoke: binary not found at '$bin'" >&2
    echo "  build first (cmake --build build) or pass the tools dir" >&2
    exit 1
  fi
done

source "$(dirname "$0")/smoke_lib.sh"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/chaser-store-smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

echo "== reference: an uninterrupted run into a CTR store ($RUNS trials)"
"$RUN" --app "$APP" --runs "$RUNS" --seed "$SEED" --jobs 1 \
       --out "$WORK/clean.ctr" --report "$WORK/ref.report" \
       >"$WORK/clean.log" 2>&1 || {
  echo "store_smoke: FAIL (reference run crashed; see $WORK/clean.log)"
  exit 1; }
"$ANALYZE" export-csv "$WORK/clean.ctr" --out "$WORK/ref.csv" \
    >"$WORK/ref-export.log" 2>&1 || {
  echo "store_smoke: FAIL (export-csv of the reference store crashed)"; exit 1; }

store_run() {  # store_run <name> <jobs> -> resumable CTR run into $WORK/<name>.ctr
  "$RUN" --app "$APP" --runs "$RUNS" --seed "$SEED" --jobs "$2" \
         --resume --out "$WORK/$1.ctr"
}

fail=0
for jobs in 1 2; do
  name="kill-j$jobs"
  echo "== kill: resumable CTR run on $jobs worker(s) is SIGKILLed mid-campaign"
  store_run "$name" "$jobs" >"$WORK/$name.log" 2>&1 &
  kill_after_first_block $! "$WORK/$name.ctr/seg-000000.ctr"

  echo "== resume: rerun from the torn store"
  store_run "$name" "$jobs" >"$WORK/$name.resume.log" 2>&1 || {
    echo "store_smoke: FAIL (resume crashed; see $WORK/$name.resume.log)"; exit 1; }
  check_resumed "$WORK/$name.resume.log" store_smoke || fail=1

  if ! diff -r "$WORK/clean.ctr" "$WORK/$name.ctr" >/dev/null; then
    echo "store_smoke: FAIL — resumed $jobs-worker store differs from the uninterrupted store"
    diff -rq "$WORK/clean.ctr" "$WORK/$name.ctr" | head -10
    fail=1
  fi
done

echo "== shards: 3-shard fleet into per-shard stores, streaming merge"
"$FLEET" run --app "$APP" --runs "$RUNS" --seed "$SEED" --shards 3 \
         --dir "$WORK/fleet" \
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

echo "== export: every store must export the reference's CSV byte for byte"
for store in "$WORK/kill-j1.ctr" "$WORK/kill-j2.ctr" "$WORK/fleet/merged.ctr"; do
  "$ANALYZE" export-csv "$store" --out "$WORK/export.csv" \
      >"$WORK/export.log" 2>&1 || {
    echo "store_smoke: FAIL (export-csv crashed on $store)"; fail=1; continue; }
  if ! diff -q "$WORK/ref.csv" "$WORK/export.csv" >/dev/null; then
    echo "store_smoke: FAIL — export of $store differs from the reference's"
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

echo "== csv: a records CSV is an export only; merge and summarize refuse it"
"$FLEET" merge --app "$APP" --runs "$RUNS" --seed "$SEED" "$WORK/ref.csv" \
    >"$WORK/merge-csv.log" 2>&1
if [[ $? -ne 2 ]]; then
  echo "store_smoke: FAIL — chaser_fleet merge of a records CSV did not exit 2"
  cat "$WORK/merge-csv.log"; fail=1
fi
"$ANALYZE" summarize "$WORK/ref.csv" >"$WORK/summarize-csv.log" 2>&1
if [[ $? -ne 2 ]]; then
  echo "store_smoke: FAIL — summarize of a records CSV did not exit 2"
  cat "$WORK/summarize-csv.log"; fail=1
fi

echo "== flags: a --top-k above 2^32-1 is refused, not wrapped"
"$ANALYZE" query "$WORK/clean.ctr" --top-k 4294967296 \
    >"$WORK/top-k.log" 2>&1
if [[ $? -ne 2 ]]; then
  echo "store_smoke: FAIL — query --top-k 4294967296 did not exit 2"
  cat "$WORK/top-k.log"; fail=1
fi

if [[ "$fail" -eq 0 ]]; then
  echo "store_smoke: PASS — kill+resume from the store, 3-shard streaming merge, query, and export-csv all byte-identical to the uninterrupted store's"
fi
exit "$fail"

#!/usr/bin/env bash
# obs_smoke.sh — end-to-end smoke test for the fleet observability plane.
#
# Proves the plane is live AND inert: runs the same 2-shard fleet twice,
# once with --obs 1 and once dark. While the watched fleet runs it scrapes
# /healthz and /metrics on every advertised endpoint (workers + hubd) via
# `chaser_analyze scrape`, renders one `chaser_analyze top --once` frame,
# then checks fleet-status.json carries the rollup, fleet-trace.json is a
# stitched Chrome trace, and — the identity guarantee — the merged CTR store
# and report are byte-identical to the dark run's. Companion to
# fleet_smoke.sh.
#
# usage: tools/obs_smoke.sh [path/to/build/tools]
#
# Exits 0 on success, 1 on any divergence. Safe to run repeatedly.
set -u

TOOLS="${1:-build/tools}"
FLEET="$TOOLS/chaser_fleet"
ANALYZE="$TOOLS/chaser_analyze"
APP=kmeans
RUNS=160
SEED=20260807

for bin in "$FLEET" "$ANALYZE" "$TOOLS/chaser_run" "$TOOLS/chaser_hubd"; do
  if [[ ! -x "$bin" ]]; then
    echo "obs_smoke: binary not found at '$bin'" >&2
    echo "  build first (cmake --build build) or pass the tools dir" >&2
    exit 1
  fi
done

WORK="$(mktemp -d "${TMPDIR:-/tmp}/chaser-obs-smoke.XXXXXX")"
FLEET_PID=
trap '[[ -n "$FLEET_PID" ]] && kill "$FLEET_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

fleet_run() {  # fleet_run <dir> <obs 0|1>
  "$FLEET" run --app "$APP" --runs "$RUNS" --seed "$SEED" \
      --shards 2 --spawn-hub 1 --dir "$1" --obs "$2"
}

echo "== reference: same fleet with the plane dark (--obs 0)"
fleet_run "$WORK/dark" 0 >"$WORK/dark.log" 2>&1 || {
  echo "obs_smoke: FAIL (dark fleet crashed; see $WORK/dark.log)"; exit 1; }

echo "== watched fleet: 2 shards + hubd, all serving /metrics (--obs 1)"
fleet_run "$WORK/obs" 1 >"$WORK/obs.log" 2>&1 &
FLEET_PID=$!

# Wait for fleet-status.json to advertise obs endpoints ("obs": "H:P"
# appears once per live worker, plus one per spawned hubd under "hubs").
ENDPOINTS=
for _ in $(seq 1 600); do
  ENDPOINTS="$(grep -o '"obs": "[0-9.:]*"' "$WORK/obs/fleet-status.json" \
      2>/dev/null | sed 's/.*"obs": "//; s/"//' | sort -u)"
  [[ -n "$ENDPOINTS" ]] && break
  kill -0 "$FLEET_PID" 2>/dev/null || break
  sleep 0.05
done
if [[ -z "$ENDPOINTS" ]]; then
  echo "obs_smoke: FAIL — no obs endpoints ever appeared in fleet-status.json"
  exit 1
fi

fail=0
echo "== scrape: /healthz + /metrics on every advertised endpoint"
scraped=0
for ep in $ENDPOINTS; do
  # Endpoints are ephemeral; a worker that finished its shard between the
  # status snapshot and our scrape is gone, not broken. Require at least
  # one endpoint to answer both paths, don't fail on any one vanishing.
  if "$ANALYZE" scrape "$ep" /healthz >/dev/null 2>&1 &&
     "$ANALYZE" scrape "$ep" /metrics >"$WORK/metrics-$ep.txt" 2>&1; then
    grep -q '^# TYPE ' "$WORK/metrics-$ep.txt" || {
      echo "obs_smoke: FAIL — $ep /metrics has no # TYPE lines"; fail=1; }
    scraped=$((scraped + 1))
    echo "   $ep ok ($(grep -c '^# TYPE ' "$WORK/metrics-$ep.txt") families)"
  else
    echo "   $ep gone (finished before the scrape landed)"
  fi
done
if [[ "$scraped" -eq 0 ]]; then
  echo "obs_smoke: FAIL — every advertised endpoint refused the scrape"
  fail=1
fi

echo "== top: one dashboard frame against the live fleet"
"$ANALYZE" top --dir "$WORK/obs" --once >"$WORK/top.txt" 2>&1 || {
  echo "obs_smoke: FAIL (chaser_analyze top --once crashed)"; fail=1; }
grep -q 'ENDPOINT' "$WORK/top.txt" || {
  echo "obs_smoke: FAIL — top frame missing its header"; fail=1; }

wait "$FLEET_PID" || {
  echo "obs_smoke: FAIL (watched fleet exited nonzero; see $WORK/obs.log)"
  FLEET_PID=; exit 1; }
FLEET_PID=

echo "== artifacts: rollup + merged trace"
grep -q '"fleet"' "$WORK/obs/fleet-status.json" || {
  echo "obs_smoke: FAIL — fleet-status.json has no rollup"; fail=1; }
grep -q '"traceEvents"' "$WORK/obs/fleet-trace.json" 2>/dev/null || {
  echo "obs_smoke: FAIL — fleet-trace.json missing or not a Chrome trace"
  fail=1; }

echo "== identity: watched run's merged outputs == dark run's"
if ! diff -rq "$WORK/dark/merged.ctr" "$WORK/obs/merged.ctr" >/dev/null 2>&1; then
  echo "obs_smoke: FAIL — merged store differs with the plane on"
  diff -rq "$WORK/dark/merged.ctr" "$WORK/obs/merged.ctr" 2>&1 | head -20
  fail=1
fi
if ! diff -q "$WORK/dark/report.txt" "$WORK/obs/report.txt" >/dev/null; then
  echo "obs_smoke: FAIL — merged report differs with the plane on"
  diff "$WORK/dark/report.txt" "$WORK/obs/report.txt" | head -20
  fail=1
fi

if [[ "$fail" -ne 0 ]]; then
  echo "obs_smoke: FAIL"
  exit 1
fi
echo "obs_smoke: PASS — scraped $scraped endpoint(s), dashboard rendered," \
     "trace merged, outputs byte-identical with the plane on"

#!/usr/bin/env bash
# injector_smoke.sh — smoke test for every registered fault injector.
#
# Runs a short matvec campaign through `chaser_run --injector NAME --out
# STORE` for each bundled fault family, checks the campaign exits cleanly,
# that custom injectors stamp their identity into the records CSV v9 the
# store exports (chaser_analyze export-csv), and that the default family's
# export stays on the narrow v7 layout, without the injector columns. Also
# checks that count flags above 2^32-1 are refused, not wrapped. Companion
# to fleet_smoke.sh, one subsystem over.
#
# usage: tools/injector_smoke.sh [path/to/build/tools]
#
# Exits 0 on success, 1 on any failure. Safe to run repeatedly.
set -u

TOOLS="${1:-build/tools}"
RUN="$TOOLS/chaser_run"
ANALYZE="$TOOLS/chaser_analyze"
APP=matvec
RUNS=12
SEED=20260807

for bin in "$RUN" "$ANALYZE"; do
  if [[ ! -x "$bin" ]]; then
    echo "injector_smoke: binary not found at '$bin'" >&2
    echo "  build first (cmake --build build) or pass the tools dir" >&2
    exit 1
  fi
done

# run_and_export <name> [chaser_run flags...]: a campaign into
# $WORK/<name>.ctr, exported to $WORK/<name>.csv.
run_and_export() {
  local name="$1"
  shift
  "$RUN" --app "$APP" --runs "$RUNS" --seed "$SEED" --jobs 1 "$@" \
         --out "$WORK/$name.ctr" >"$WORK/$name.log" 2>&1 &&
    "$ANALYZE" export-csv "$WORK/$name.ctr" --out "$WORK/$name.csv" \
               >>"$WORK/$name.log" 2>&1
}

WORK="$(mktemp -d "${TMPDIR:-/tmp}/chaser-injector-smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

# Every bundled family, with one parameterised spelling each where the
# family takes parameters — so the smoke also exercises the key=val path.
SPECS=(
  "probabilistic"
  "probabilistic:bits=2,width=32"
  "deterministic:operand=0,mask=0x3"
  "group"
  "multibit:bits=4"
  "burst:span=3,bits=1"
  "stuckat:value=1,bits=2"
  "iskip"
  "rank-crash"
)

fail=0
for spec in "${SPECS[@]}"; do
  name="${spec%%:*}"
  slug="${spec//[:,=]/_}"
  csv="$WORK/$slug.csv"
  if ! run_and_export "$slug" --injector "$spec"; then
    echo "injector_smoke: FAIL — '$spec' campaign crashed (see $WORK/$slug.log)"
    tail -5 "$WORK/$slug.log"
    fail=1
    continue
  fi
  if ! head -1 "$csv" | grep -q '^#chaser-records-csv v9$'; then
    echo "injector_smoke: FAIL — '$spec' did not emit a records CSV v9"
    head -1 "$csv"
    fail=1
    continue
  fi
  rows=$(($(wc -l < "$csv") - 2))  # minus version line and header
  if [[ "$rows" -ne "$RUNS" ]]; then
    echo "injector_smoke: FAIL — '$spec' wrote $rows rows, expected $RUNS"
    fail=1
    continue
  fi
  if ! tail -1 "$csv" | grep -q ",$name,"; then
    echo "injector_smoke: FAIL — '$spec' rows missing the injector column"
    tail -1 "$csv"
    fail=1
    continue
  fi
  echo "   ok $spec ($rows trials)"
done

echo "== default fault model stays on the v7 layout"
run_and_export default || {
  echo "injector_smoke: FAIL (default campaign crashed; see $WORK/default.log)"
  fail=1; }
if [[ -f "$WORK/default.csv" ]] &&
   ! head -1 "$WORK/default.csv" | grep -q '^#chaser-records-csv v7$'; then
  echo "injector_smoke: FAIL — default campaign no longer emits CSV v7"
  head -1 "$WORK/default.csv"
  fail=1
fi

echo "== unknown injector name fails with the registered-name list"
if "$RUN" --app "$APP" --runs 1 --seed "$SEED" --injector bogus \
     >"$WORK/bogus.log" 2>&1; then
  echo "injector_smoke: FAIL — '--injector bogus' exited 0"
  fail=1
elif ! grep -q 'rank-crash' "$WORK/bogus.log"; then
  echo "injector_smoke: FAIL — unknown-name error does not list choices"
  tail -3 "$WORK/bogus.log"
  fail=1
fi

echo "== count flags above 2^32-1 are refused, not wrapped"
for flag in --jobs --trial-retries; do
  "$RUN" --app "$APP" --runs 1 --seed "$SEED" "$flag" 4294967296 \
         >"$WORK/count.log" 2>&1
  if [[ $? -ne 2 ]]; then
    echo "injector_smoke: FAIL — '$flag 4294967296' did not exit 2"
    tail -3 "$WORK/count.log"
    fail=1
  fi
done

if [[ "$fail" -eq 0 ]]; then
  echo "injector_smoke: PASS — ${#SPECS[@]} injector specs ran a $RUNS-trial $APP campaign each"
fi
exit "$fail"

#!/usr/bin/env bash
# identity_sweep.sh — byte-identity check of two chaser_run builds.
#
# Runs the same campaigns through two builds (typically the parent commit
# and a change on top of it) and compares every output file. A change that
# claims "outputs unchanged" must pass this before it lands.
#
# The matrix: --runs 200 --seed 11 at --jobs 1 and --jobs 4 over
#   app       bfs, kmeans, lud, matvec, clamr
#   sampling  uniform, and --sample weighted --stop-ci 0.05
# plus the rarer branches of the golden-prefix restore path:
#   lud, clamr       --sample stratified --stop-ci 0.05
#   matvec, lud      --injector iskip | stuckat:value=1,bits=2 | rank-crash
#   kmeans           --tb-cache-cap 8, at --runs 40: a cache that small
#                    flushes thousands of times per trial
#   clamr            --no-trace
#   matvec           --hub-fault | --hub-fault-trigger
#                    drop=0.3,delay=1,outage=3-9,retries=1: a degraded hub
#                    ambient (checkpoints past 0) and per trial (checkpoint 0
#                    only), both losing taint on some messages
#   matvec           --inject-ranks 0,1,2,3: one table of trial-captured
#                    slots per inject rank
# 46 cells. Each cell runs once per build, writing --report, --status,
# --metrics and an --out CTR store (plus a --spool directory on cells
# without a --sample flag); chaser_analyze export-csv then exports the store
# as the records CSV. The report, store, export and spool are compared. The
# PR build's status.json and campaign_outcome_<name> counters must also
# count the report's trials and outcomes.
#
# usage: tools/identity_sweep.sh PARENT_TOOLS_DIR PR_TOOLS_DIR
#   each *_TOOLS_DIR holds chaser_run and chaser_analyze, e.g. build/tools
#
# Exits 0 when every file matches, 1 naming the first file that differs, run
# that failed or count that disagrees with its report, 2 on bad usage. The
# scratch directory is deleted on exit either way.
set -u

if [[ $# -ne 2 ]]; then
  echo "usage: tools/identity_sweep.sh PARENT_TOOLS_DIR PR_TOOLS_DIR" >&2
  exit 2
fi
declare -A RUN=([parent]="$1/chaser_run" [pr]="$2/chaser_run")
declare -A ANALYZE=([parent]="$1/chaser_analyze" [pr]="$2/chaser_analyze")
for side in parent pr; do
  for bin in "${RUN[$side]}" "${ANALYZE[$side]}"; do
    if [[ ! -x "$bin" ]]; then
      echo "identity_sweep: binary not found at '$bin'" >&2
      exit 2
    fi
  done
done

WORK="$(mktemp -d "${TMPDIR:-/tmp}/chaser-identity-sweep.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

# One cell per line: app, a cell name, then the extra chaser_run flags.
CELLS=()
for app in bfs kmeans lud matvec clamr; do
  CELLS+=("$app uniform" "$app weighted --sample weighted --stop-ci 0.05")
done
for app in lud clamr; do
  CELLS+=("$app stratified --sample stratified --stop-ci 0.05")
done
for app in matvec lud; do
  CELLS+=("$app iskip --injector iskip"
          "$app stuckat --injector stuckat:value=1,bits=2"
          "$app rank-crash --injector rank-crash")
done
CELLS+=("kmeans tb-cache-cap-8 --tb-cache-cap 8 --runs 40"
        "clamr no-trace --no-trace"
        "matvec hub-fault --hub-fault drop=0.3,delay=1,outage=3-9,retries=1"
        "matvec hub-fault-trigger --hub-fault-trigger drop=0.3,delay=1,outage=3-9,retries=1"
        "matvec all-ranks --inject-ranks 0,1,2,3")

# Prints what in report run directory $1 disagrees with its report.txt:
# status.json's done and outcome counts, campaign_outcome_<name> counters.
count_mismatches() {
  local dir="$1" key name want
  num() { grep -oE "\"$1\": [0-9]+" "$dir/$2" | grep -oE '[0-9]+$'; }
  want="$(awk 'NR == 1 {print $2}' "$dir/report.txt")"
  [[ "$(num done status.json)" == "$want" ]] || echo "status.json done"
  grep -q '"campaign_outcome_' "$dir/metrics.json" || echo "no outcome counters"
  for key in $(grep -oE '"campaign_outcome_[a-z]+"' "$dir/metrics.json" |
               tr -d '"'); do
    name="${key#campaign_outcome_}"
    want="$(awk -v n="$name" '$1 == n && $3 ~ /^\(/ {print $2}' \
              "$dir/report.txt")"
    [[ "$(num "$name" status.json)" == "${want:-0}" ]] ||
      echo "status.json $name"
    [[ "$(num "$key" metrics.json)" == "${want:-0}" ]] || echo "$key"
  done
}

cells=0
for spec in "${CELLS[@]}"; do
  read -r app name cell_flags <<<"$spec"
  read -r -a cell_flags <<<"$cell_flags"
  for jobs in 1 4; do
    cell="$app-j$jobs-$name"
    flags=(--app "$app" --runs 200 --seed 11 --jobs "$jobs" "${cell_flags[@]}")
    for side in parent pr; do
      dir="$WORK/$side/$cell"
      mkdir -p "$dir"
      extra=()
      [[ " ${cell_flags[*]} " == *" --sample "* ]] || extra=(--spool "$dir/spool")
      if ! "${RUN[$side]}" "${flags[@]}" "${extra[@]}" \
             --report "$dir/report.txt" --out "$dir/store" \
             --status "$dir/status.json" --metrics "$dir/metrics.json" \
             >"$WORK/$side-$cell.log" 2>&1 ||
         ! "${ANALYZE[$side]}" export-csv "$dir/store" \
             --out "$dir/records.csv" >>"$WORK/$side-$cell.log" 2>&1; then
        echo "identity_sweep: FAIL — $side run of $cell exited non-zero:"
        tail -5 "$WORK/$side-$cell.log"
        exit 1
      fi
    done
    for out in report.txt records.csv store spool; do
      want="$WORK/parent/$cell/$out"
      got="$WORK/pr/$cell/$out"
      [[ -e "$want" || -e "$got" ]] || continue
      if ! diff -rq "$want" "$got" >/dev/null 2>&1; then
        echo "identity_sweep: FAIL — $cell/$out differs:"
        diff -rq "$want" "$got" 2>&1 | head -3
        exit 1
      fi
    done
    mismatches="$(count_mismatches "$WORK/pr/$cell")"
    if [[ -n "$mismatches" ]]; then
      echo "identity_sweep: FAIL — $cell counts differ from its report:"
      echo "$mismatches" | head -3
      exit 1
    fi
    cells=$((cells + 1))
    echo "   ok $cell"
  done
done

echo "identity_sweep: PASS — $cells cells byte-identical"

#!/usr/bin/env bash
# identity_sweep.sh — byte-identity check of chaser_run's outputs.
#
# Two-build mode runs the same campaigns through two builds (typically the
# parent commit and a change on top of it) and compares every output file,
# naming the first that differs. One-build mode compares one build against
# sha256 digests pinned in a file (tests/identity_digests.txt, checked by
# the `identity` ctests). A change that claims "outputs unchanged" must pass
# either; a change meant to alter outputs re-pins the file and says why.
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
#   clamr            --hub-fault drop=0.3,delay=1,outage=3-9,retries=1:
#                    matvec's clean prefixes never poll the hub, clamr's do,
#                    so only this cell restores a hub that has moved
#   matvec           --inject-ranks 0,1,2,3: one table of trial-captured
#                    slots per inject rank
# 48 cells. Each cell runs once per build, writing --report, --status,
# --metrics and an --out CTR store (plus a --spool directory on cells
# without a --sample flag); chaser_analyze export-csv then exports the store
# as the records CSV. The report, store, export and spool are compared. The
# status.json and campaign_outcome_<name> counters of the build under test
# must also count the report's trials and outcomes.
#
# usage: tools/identity_sweep.sh PARENT_TOOLS_DIR PR_TOOLS_DIR
#        tools/identity_sweep.sh --pin FILE TOOLS_DIR
#        tools/identity_sweep.sh --check FILE TOOLS_DIR [APP]
#   each *TOOLS_DIR holds chaser_run and chaser_analyze, e.g. build/tools.
#   --pin writes FILE: "SHA256  CELL/OUTPUT" for each cell's report.txt,
#   records.csv, store and spool (a directory's digest covers its files).
#   --check runs every cell, or only APP's, and compares against FILE; use
#   two-build mode against a build of the pinned commit to find the file.
#
# Exits 0 when every file matches, 1 naming the first file that differs, run
# that failed or count that disagrees with its report, 2 on bad usage. The
# scratch directory is deleted on exit either way.
set -u

usage() {
  sed -n 's/^# usage: /usage: /p; s/^#        tools/       tools/p' "$0" >&2
  exit 2
}
MODE=diff PINS="" ONLY=""
case "${1:-}" in
  --pin)
    [[ $# -eq 3 ]] || usage
    MODE=pin PINS="$2"
    set -- "$3" "$3" ;;
  --check)
    [[ $# -eq 3 || $# -eq 4 ]] || usage
    MODE=check PINS="$2" ONLY="${4:-}"
    [[ -r "$PINS" ]] || { echo "identity_sweep: cannot read '$PINS'" >&2; exit 2; }
    set -- "$3" "$3" ;;
  *) [[ $# -eq 2 ]] || usage ;;
esac
# One-build modes run only the "pr" side.
SIDES=(parent pr)
[[ "$MODE" == diff ]] || SIDES=(pr)
declare -A RUN=([parent]="$1/chaser_run" [pr]="$2/chaser_run")
declare -A ANALYZE=([parent]="$1/chaser_analyze" [pr]="$2/chaser_analyze")
for side in "${SIDES[@]}"; do
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
        "clamr hub-fault --hub-fault drop=0.3,delay=1,outage=3-9,retries=1"
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

# Prints "SHA256  CELL/OUTPUT" for each output of cell $1 on the pr side. A
# directory's digest is that of its files' sorted sha256sum listing.
cell_digests() {
  local out path
  for out in report.txt records.csv store spool; do
    path="$WORK/pr/$1/$out"
    [[ -e "$path" ]] || continue
    if [[ -d "$path" ]]; then
      (cd "$path" && find . -type f | LC_ALL=C sort | xargs -r sha256sum) |
        sha256sum
    else
      sha256sum <"$path"
    fi | sed "s|-\$|$1/$out|"
  done | LC_ALL=C sort -k2
}

cells=0
for spec in "${CELLS[@]}"; do
  read -r app name cell_flags <<<"$spec"
  [[ -z "$ONLY" || "$app" == "$ONLY" ]] || continue
  read -r -a cell_flags <<<"$cell_flags"
  for jobs in 1 4; do
    cell="$app-j$jobs-$name"
    flags=(--app "$app" --runs 200 --seed 11 --jobs "$jobs" "${cell_flags[@]}")
    for side in "${SIDES[@]}"; do
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
    if [[ "$MODE" == diff ]]; then
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
    else
      cell_digests "$cell" >"$WORK/$cell.sha256"
      if [[ "$MODE" == check ]] &&
         ! awk -v c="$cell/" 'index($2, c) == 1' "$PINS" |
           diff - "$WORK/$cell.sha256" >"$WORK/$cell.diff"; then
        echo "identity_sweep: FAIL — $cell differs from $PINS" \
             "(< pinned, > this build):"
        grep '^[<>]' "$WORK/$cell.diff" | head -4
        exit 1
      fi
    fi
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

if [[ $cells -eq 0 ]]; then
  echo "identity_sweep: no cell of app '$ONLY'" >&2
  exit 2
fi
case "$MODE" in
  diff) echo "identity_sweep: PASS — $cells cells byte-identical" ;;
  pin)
    {
      echo "# sha256 of each identity_sweep.sh cell's report, records CSV,"
      echo "# CTR store and spool; checked by the identity ctests. Regenerate:"
      echo "#   tools/identity_sweep.sh --pin tests/identity_digests.txt build/tools"
      cat "$WORK"/*.sha256 | LC_ALL=C sort -k2
    } >"$PINS"
    echo "identity_sweep: pinned $cells cells to $PINS" ;;
  check) echo "identity_sweep: PASS — $cells cells match $PINS" ;;
esac

#!/usr/bin/env bash
# identity_sweep.sh — byte-identity check of two chaser_run builds.
#
# Runs the same campaigns through two builds (typically the parent commit
# and a change on top of it) and compares every output file. A change that
# claims "outputs unchanged" must pass this before it lands.
#
# The matrix: --runs 200 --seed 11 over every combination of
#   app       bfs, kmeans, lud, matvec, clamr
#   jobs      --jobs 1 (serial engine) and --jobs 4 (parallel driver)
#   sampling  uniform, and --sample weighted --stop-ci 0.05
# Each cell runs twice per build: once writing --report and a records CSV
# --out (plus a --spool directory on uniform cells), once writing a
# --records-format ctr store.
#
# usage: tools/identity_sweep.sh PARENT_TOOLS_DIR PR_TOOLS_DIR
#   each *_TOOLS_DIR holds a chaser_run binary, e.g. build/tools
#
# Exits 0 when every file matches, 1 naming the first file that differs (or
# the first run that failed), 2 on bad usage. The scratch directory is
# deleted on exit either way.
set -u

if [[ $# -ne 2 ]]; then
  echo "usage: tools/identity_sweep.sh PARENT_TOOLS_DIR PR_TOOLS_DIR" >&2
  exit 2
fi
declare -A RUN=([parent]="$1/chaser_run" [pr]="$2/chaser_run")
for side in parent pr; do
  if [[ ! -x "${RUN[$side]}" ]]; then
    echo "identity_sweep: binary not found at '${RUN[$side]}'" >&2
    exit 2
  fi
done

WORK="$(mktemp -d "${TMPDIR:-/tmp}/chaser-identity-sweep.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

APPS=(bfs kmeans lud matvec clamr)
JOBS=(1 4)
SAMPLINGS=(uniform weighted)

cells=0
for app in "${APPS[@]}"; do
  for jobs in "${JOBS[@]}"; do
    for sampling in "${SAMPLINGS[@]}"; do
      cell="$app-j$jobs-$sampling"
      flags=(--app "$app" --runs 200 --seed 11 --jobs "$jobs")
      if [[ "$sampling" == weighted ]]; then
        flags+=(--sample weighted --stop-ci 0.05)
      fi
      for side in parent pr; do
        dir="$WORK/$side/$cell"
        mkdir -p "$dir"
        extra=()
        [[ "$sampling" == uniform ]] && extra=(--spool "$dir/spool")
        if ! "${RUN[$side]}" "${flags[@]}" "${extra[@]}" \
               --report "$dir/report.txt" --out "$dir/records.csv" \
               >"$WORK/$side-$cell.log" 2>&1 ||
           ! "${RUN[$side]}" "${flags[@]}" --records-format ctr \
               --out "$dir/store" >>"$WORK/$side-$cell.log" 2>&1; then
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
      cells=$((cells + 1))
      echo "   ok $cell"
    done
  done
done

echo "identity_sweep: PASS — $cells cells byte-identical"

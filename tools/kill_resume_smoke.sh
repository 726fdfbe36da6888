#!/usr/bin/env bash
# kill_resume_smoke.sh — end-to-end crash-safety smoke test for chaser_run.
#
# Proves a campaign resumes from its CTR store after a SIGKILL: a
# `--resume --records-format ctr` campaign is killed once its first data
# block (512 records) is on disk, rerun with --resume, and must report a
# nonzero number of resumed records. Its store and report must then be
# byte-identical to an uninterrupted reference run of the same campaign.
# The campaign spans more than three blocks of an app slow enough (kmeans,
# ~2.5 ms a trial on one worker) for the kill to land mid-run.
#
# usage: tools/kill_resume_smoke.sh [path/to/chaser_run] [jobs]
#
# Exits 0 on success, 1 on any divergence. Safe to run repeatedly.
set -u

BIN="${1:-build/tools/chaser_run}"
JOBS="${2:-4}"
APP=kmeans
RUNS=1600
SEED=20260806

if [[ ! -x "$BIN" ]]; then
  echo "kill_resume_smoke: chaser_run binary not found at '$BIN'" >&2
  echo "  build it first (cmake --build build) or pass its path" >&2
  exit 1
fi

source "$(dirname "$0")/smoke_lib.sh"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/chaser-kill-resume.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

run() {  # run <store> <report> [extra flags...]
  local store="$1" report="$2"
  shift 2
  "$BIN" --app "$APP" --runs "$RUNS" --seed "$SEED" --jobs "$JOBS" \
         --records-format ctr --out "$store" "$@" >"$report" 2>&1
}

echo "== flags: --resume refuses a records CSV and names the export path"
if "$BIN" --app "$APP" --runs 1 --resume --out "$WORK/x.csv" \
     >"$WORK/csv.log" 2>&1 || ! grep -q "export-csv" "$WORK/csv.log"; then
  echo "kill_resume_smoke: FAIL — --resume with a CSV --out was not refused"
  cat "$WORK/csv.log"
  exit 1
fi

echo "== reference: uninterrupted campaign ($RUNS trials, --jobs $JOBS)"
run "$WORK/ref.ctr" "$WORK/ref.report" || {
  echo "kill_resume_smoke: FAIL (reference run crashed)"; exit 1; }

echo "== victim: same campaign with --resume, SIGKILLed once a block is on disk"
run "$WORK/resumed.ctr" "$WORK/victim.report" --resume &
kill_after_first_block $! "$WORK/resumed.ctr/seg-000000.ctr"

echo "== resume: rerun with --resume; only trials past the stored blocks execute"
run "$WORK/resumed.ctr" "$WORK/resumed.report" --resume || {
  echo "kill_resume_smoke: FAIL (resumed run crashed)"
  cat "$WORK/resumed.report"
  exit 1; }

fail=0
check_resumed "$WORK/resumed.report" kill_resume_smoke || fail=1
if ! diff -r "$WORK/ref.ctr" "$WORK/resumed.ctr" >/dev/null; then
  echo "kill_resume_smoke: FAIL — resumed store differs from reference"
  diff -rq "$WORK/ref.ctr" "$WORK/resumed.ctr" | head -10
  fail=1
fi
# The "wrote N records to DIR (...)" line names the store and its resumed
# count, which legitimately differ between the two runs — normalize them
# away. Ditto the live shared-tb-cache counters: replayed trials are
# accounted without re-executing, so the resumed process performs less
# translation work than the reference. The campaign *results* must still
# match byte for byte.
norm() { sed -e 's| to .*(ctr store, \(.*\), [0-9]* resumed)$| to STORE (ctr store, \1)|' \
             -e 's|^shared tb cache: .*|shared tb cache: (live counters)|' "$1"; }
norm "$WORK/ref.report" >"$WORK/ref.report.norm"
norm "$WORK/resumed.report" >"$WORK/resumed.report.norm"
if ! diff -q "$WORK/ref.report.norm" "$WORK/resumed.report.norm" >/dev/null; then
  echo "kill_resume_smoke: FAIL — resumed report differs from reference"
  diff "$WORK/ref.report.norm" "$WORK/resumed.report.norm" | head -20
  fail=1
fi

if [[ "$fail" -eq 0 ]]; then
  echo "kill_resume_smoke: PASS — resumed from the store; store and report byte-identical to reference"
fi
exit "$fail"

#!/usr/bin/env bash
# kill_resume_smoke.sh — end-to-end crash-safety smoke test for chaser_run.
#
# Proves the trial journal survives a SIGKILL mid-campaign: a campaign is
# started with --resume, killed hard partway through, resumed, and the
# resumed run's CSV + report must be byte-identical to an uninterrupted
# reference run of the same campaign.
#
# usage: tools/kill_resume_smoke.sh [path/to/chaser_run] [jobs]
#
# Exits 0 on success, 1 on any divergence. Safe to run repeatedly.
set -u

BIN="${1:-build/tools/chaser_run}"
JOBS="${2:-4}"
APP=matvec
RUNS=60
SEED=20260806

if [[ ! -x "$BIN" ]]; then
  echo "kill_resume_smoke: chaser_run binary not found at '$BIN'" >&2
  echo "  build it first (cmake --build build) or pass its path" >&2
  exit 1
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/chaser-kill-resume.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

run() {  # run <csv> <report> [extra flags...]
  local csv="$1" report="$2"
  shift 2
  "$BIN" --app "$APP" --runs "$RUNS" --seed "$SEED" --jobs "$JOBS" \
         --out "$csv" "$@" >"$report" 2>&1
}

echo "== reference: uninterrupted campaign ($RUNS trials, --jobs $JOBS)"
run "$WORK/ref.csv" "$WORK/ref.report" || {
  echo "kill_resume_smoke: FAIL (reference run crashed)"; exit 1; }

echo "== victim: same campaign with --resume, SIGKILLed mid-flight"
JOURNAL="$WORK/trials.journal"
run "$WORK/victim.csv" "$WORK/victim.report" --resume "$JOURNAL" &
VICTIM=$!

# Wait until the journal shows real progress (some frames past the header),
# then kill -9 with trials still outstanding. If the run is so fast it
# finishes first, that's fine — the resume below is then a pure replay.
for _ in $(seq 1 500); do
  size=$(stat -c %s "$JOURNAL" 2>/dev/null || echo 0)
  [[ "$size" -gt 256 ]] && break
  kill -0 "$VICTIM" 2>/dev/null || break
  sleep 0.01
done
# $VICTIM is the subshell running the backgrounded function: kill its
# chaser_run child too, or that keeps running and races the resume for
# the same output files.
if kill -9 $(pgrep -P "$VICTIM") "$VICTIM" 2>/dev/null; then
  echo "   killed pid $VICTIM with journal at $(stat -c %s "$JOURNAL" 2>/dev/null || echo 0) bytes"
else
  echo "   victim finished before the kill landed; resume becomes a replay"
fi
wait "$VICTIM" 2>/dev/null

echo "== resume: rerun with the same journal; only missing seeds execute"
run "$WORK/resumed.csv" "$WORK/resumed.report" --resume "$JOURNAL" || {
  echo "kill_resume_smoke: FAIL (resumed run crashed)"; exit 1; }

fail=0
if ! diff -q "$WORK/ref.csv" "$WORK/resumed.csv" >/dev/null; then
  echo "kill_resume_smoke: FAIL — resumed CSV differs from reference"
  diff "$WORK/ref.csv" "$WORK/resumed.csv" | head -20
  fail=1
fi
# The report embeds the CSV output path ("wrote N records to .../x.csv"),
# which legitimately differs between the two runs — normalize it away.
# Ditto the live shared-tb-cache counters: replayed trials are accounted
# without re-executing, so the resumed process performs less translation
# work than the reference. The campaign *results* (CSV + report body)
# must still match byte for byte.
norm() { sed -e 's| to .*\.csv$| to CSV|' \
             -e 's|^shared tb cache: .*|shared tb cache: (live counters)|' "$1"; }
norm "$WORK/ref.report" >"$WORK/ref.report.norm"
norm "$WORK/resumed.report" >"$WORK/resumed.report.norm"
if ! diff -q "$WORK/ref.report.norm" "$WORK/resumed.report.norm" >/dev/null; then
  echo "kill_resume_smoke: FAIL — resumed report differs from reference"
  diff "$WORK/ref.report.norm" "$WORK/resumed.report.norm" | head -20
  fail=1
fi

if [[ "$fail" -eq 0 ]]; then
  echo "kill_resume_smoke: PASS — resumed run is byte-identical to reference"
fi
exit "$fail"

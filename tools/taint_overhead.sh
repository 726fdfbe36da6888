#!/usr/bin/env bash
# taint_overhead.sh — the cost of propagation tracing, as a paired ratio.
#
# Runs the same campaign PAIRS times traced and PAIRS times with --no-trace,
# interleaved (traced, untraced, traced, ...) so that drift on a shared host
# hits both sides alike. Every run writes --metrics; from it the script takes
# the time per *executed* guest instruction,
#
#   (phase_execute_ns - phase_restore_ns) /
#       (guest_instructions_total - guest_instructions_restored_total)
#
# (the execute phase includes restoring a golden-prefix checkpoint, and the
# restored instructions never ran in the trial). It prints the median of each
# side, then the median of the per-pair ratios traced / untraced.
#
# The campaign: chaser_run --app APP --runs RUNS --seed 11 --sample weighted
# --jobs 1.
#
# usage: tools/taint_overhead.sh APP RUNS PAIRS [TOOLS_DIR]
#   TOOLS_DIR holds chaser_run (default build/tools)
#
# Exits 0 after printing, 1 when a run fails, 2 on bad usage.
set -u

if [[ $# -lt 3 || $# -gt 4 ]]; then
  echo "usage: tools/taint_overhead.sh APP RUNS PAIRS [TOOLS_DIR]" >&2
  exit 2
fi
APP="$1"
RUNS="$2"
PAIRS="$3"
RUN="${4:-build/tools}/chaser_run"
if [[ ! -x "$RUN" ]]; then
  echo "taint_overhead: binary not found at '$RUN'" >&2
  exit 2
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/chaser-taint-overhead.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

for ((i = 0; i < PAIRS; ++i)); do
  for side in traced untraced; do
    flags=()
    [[ "$side" == untraced ]] && flags=(--no-trace)
    if ! "$RUN" --app "$APP" --runs "$RUNS" --seed 11 --sample weighted \
        --jobs 1 "${flags[@]}" --metrics "$WORK/$side-$i.json" \
        > /dev/null 2> "$WORK/err"; then
      echo "taint_overhead: $side run $i failed:" >&2
      cat "$WORK/err" >&2
      exit 1
    fi
  done
done

python3 - "$WORK" "$PAIRS" <<'EOF'
import json, statistics, sys

work, pairs = sys.argv[1], int(sys.argv[2])

def ns_per_insn(path):
    m = json.load(open(path))
    c, h = m["counters"], m["histograms"]
    restore = h.get("phase_restore_ns", {}).get("sum", 0)
    executed = (c["guest_instructions_total"]
                - c.get("guest_instructions_restored_total", 0))
    return (h["phase_execute_ns"]["sum"] - restore) / executed

traced = [ns_per_insn(f"{work}/traced-{i}.json") for i in range(pairs)]
untraced = [ns_per_insn(f"{work}/untraced-{i}.json") for i in range(pairs)]
ratios = [t / u for t, u in zip(traced, untraced)]
print(f"traced    {statistics.median(traced):.3f} ns/insn (median of {pairs})")
print(f"untraced  {statistics.median(untraced):.3f} ns/insn (median of {pairs})")
print(f"ratio     {statistics.median(ratios):.3f} (median of {pairs} pair ratios "
      f"traced/untraced; range {min(ratios):.3f}-{max(ratios):.3f})")
EOF

#!/usr/bin/env sh
# Run a --json-capable bench binary and atomically record its output as
# BENCH_<name>.json at the repo root, so perf claims in the tree always have
# a checked-in, machine-readable measurement behind them.
#
# Usage: tools/bench_to_json.sh <bench_name> [build_dir]
#   bench_name  bench binary under <build_dir>/bench/ (required), e.g.
#               bench_ablation_obs
#   build_dir   CMake build tree (default: build)
#
# The JSON is written to BENCH_<suffix>.json where <suffix> is the bench name
# without its bench_ prefix, via a temp file + rename so a crashed run never
# leaves a truncated file behind.
#
# bench_ablation_obs additionally stamps the observability-plane ladder: its
# "+export" row and per-workload "overhead_export_vs_off_pct" record what a
# scraped worker (live /metrics endpoint + ~100ms-cadence scraper) costs over
# telemetry-off, alongside the original quiet-vs-off figure. Both ratios sit
# under the same <2% guard ("guard_passed").
#
# Optional end-to-end comparison against a pre-PR build: set CHASER_SEED_BIN
# to a chaser_run binary built from the baseline commit, e.g.
#
#   git worktree add .bench-seed <seed-commit>
#   cmake -S .bench-seed -B .bench-seed/build -DCMAKE_BUILD_TYPE=Release
#   cmake --build .bench-seed/build -j --target chaser_run
#   CHASER_SEED_BIN=.bench-seed/build/tools/chaser_run \
#     tools/bench_to_json.sh bench_ablation_obs
#
# Seed and current campaigns are then run strictly alternated and the median
# per-pair wall-time ratio is spliced into the JSON as "vs_seed" — pairing
# cancels host frequency drift that poisons absolute times. This covers the
# optimisations a bench's in-binary ladder cannot toggle (optimizer fusion
# passes, the radix page table, elastic taint scans).
set -eu

if [ $# -lt 1 ] || [ -z "$1" ]; then
  echo "usage: tools/bench_to_json.sh <bench_name> [build_dir]" >&2
  exit 2
fi
repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
bench_name=$1
build_dir=${2:-"$repo_root/build"}

bench_bin="$build_dir/bench/$bench_name"
if [ ! -x "$bench_bin" ]; then
  echo "bench_to_json: $bench_bin not found or not executable" >&2
  echo "bench_to_json: build it first: cmake --build $build_dir --target $bench_name" >&2
  exit 1
fi

suffix=${bench_name#bench_}
out="$repo_root/BENCH_${suffix}.json"
tmp="$out.tmp.$$"

trap 'rm -f "$tmp" "$tmp.spliced"' EXIT
"$bench_bin" --json > "$tmp"

# Stamp the records-CSV format version the build writes, so a recorded bench
# is traceable to the exact CSV schema of its era. kRecordsCsvVersion in
# src/campaign/report.h is the single source of truth — grep it rather than
# duplicating the number here.
csv_version=$(sed -n \
  's/.*constexpr unsigned kRecordsCsvVersion = \([0-9][0-9]*\);.*/\1/p' \
  "$repo_root/src/campaign/report.h")
if [ -z "$csv_version" ]; then
  echo "bench_to_json: cannot find kRecordsCsvVersion in src/campaign/report.h" >&2
  exit 1
fi
sed '$d' "$tmp" > "$tmp.spliced"
sed -i '$s/$/,/' "$tmp.spliced"
printf '  "records_csv_version": %s\n}\n' "$csv_version" >> "$tmp.spliced"
mv "$tmp.spliced" "$tmp"

# Same for the CTR segment format version (src/store/ctr.h), so a recorded
# columnar-store bench is traceable to the exact segment layout it measured.
ctr_version=$(sed -n \
  's/.*constexpr std::uint64_t kCtrFormatVersion = \([0-9][0-9]*\);.*/\1/p' \
  "$repo_root/src/store/ctr.h")
if [ -z "$ctr_version" ]; then
  echo "bench_to_json: cannot find kCtrFormatVersion in src/store/ctr.h" >&2
  exit 1
fi
sed '$d' "$tmp" > "$tmp.spliced"
sed -i '$s/$/,/' "$tmp.spliced"
printf '  "ctr_format_version": %s\n}\n' "$ctr_version" >> "$tmp.spliced"
mv "$tmp.spliced" "$tmp"

# Median wall-ms over strictly alternated runs of two binaries. Emits
# "<median_seed_ms> <median_cur_ms> <median_ratio>" for `pairs` pairs.
paired_ratio() {
  # $1=seed_bin $2=cur_bin $3=app $4=runs $5=pairs
  "$1" --app "$3" --runs "$4" --seed 42 --jobs 1 > /dev/null  # warm-up
  "$2" --app "$3" --runs "$4" --seed 42 --jobs 1 > /dev/null
  p=0
  ratios=""
  while [ "$p" -lt "$5" ]; do
    t0=$(date +%s%N)
    "$1" --app "$3" --runs "$4" --seed 42 --jobs 1 > /dev/null
    t1=$(date +%s%N)
    "$2" --app "$3" --runs "$4" --seed 42 --jobs 1 > /dev/null
    t2=$(date +%s%N)
    ratios="$ratios$(awk -v a="$t0" -v b="$t1" -v c="$t2" \
      'BEGIN{s=(b-a)/1e6; u=(c-b)/1e6; printf "%.2f %.2f %.4f\n", s, u, s/u}')
"
    p=$((p + 1))
  done
  printf '%s' "$ratios" | sort -g -k3 | awk -v n="$5" 'NR == int(n / 2) + 1'
}

if [ -n "${CHASER_SEED_BIN:-}" ]; then
  cur_run="$build_dir/tools/chaser_run"
  if [ ! -x "$CHASER_SEED_BIN" ] || [ ! -x "$cur_run" ]; then
    echo "bench_to_json: CHASER_SEED_BIN or $cur_run missing/not executable" >&2
    exit 1
  fi
  pairs=7
  echo "bench_to_json: pairing seed vs current ($pairs pairs per workload)..." >&2
  set -- "matvec 120" "lud 60"
  vs_seed=""
  for wl in "$@"; do
    app=${wl% *}
    runs=${wl#* }
    med=$(paired_ratio "$CHASER_SEED_BIN" "$cur_run" "$app" "$runs" "$pairs")
    seed_ms=$(printf '%s' "$med" | awk '{print $1}')
    cur_ms=$(printf '%s' "$med" | awk '{print $2}')
    ratio=$(printf '%s' "$med" | awk '{printf "%.2f", $3}')
    echo "bench_to_json:   $app: seed ${seed_ms} ms, current ${cur_ms} ms, ${ratio}x" >&2
    [ -n "$vs_seed" ] && vs_seed="$vs_seed, "
    vs_seed="$vs_seed{\"app\": \"$app\", \"runs\": $runs, \"seed_ms\": $seed_ms, \"current_ms\": $cur_ms, \"speedup\": $ratio}"
  done
  # Splice before the closing brace of the bench's JSON object.
  sed '$d' "$tmp" > "$tmp.spliced"
  # Turn the last remaining line's value into a comma-terminated member.
  sed -i '$s/$/,/' "$tmp.spliced"
  printf '  "vs_seed": {"pairs": %s, "note": "median paired campaign ratio vs pre-PR seed binary", "workloads": [%s]}\n}\n' \
    "$pairs" "$vs_seed" >> "$tmp.spliced"
  mv "$tmp.spliced" "$tmp"
fi

mv "$tmp" "$out"
trap - EXIT
echo "bench_to_json: wrote $out"

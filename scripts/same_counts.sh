#!/usr/bin/env bash
# Check that two checkouts compute the same simulated run: for every
# workload BENCHMARK.json lists, run the benchmark on each checkout once
# traced (`--trace 1`: the per-layer metrics) and once untraced for a
# single pass (`sim_answer_s`), then compare `sim_answer_s` and every
# per-layer metric whose unit is `count` or `bytes` — the exact ones; the
# rest are host timings and rates. Prints each value that differs, any run with
# failed operations, and how many values were compared; exits 1 on any of
# them.
#
#   scripts/same_counts.sh <parent> <change> [seed]
#
# Each side is a checkout directory of this repository or a commit of it,
# exported with `git archive` under ${TMPDIR:-/tmp} (scripts/side.sh).
# Each side's benchmark package is built into <dir>/.bench_build, as
# scripts/ab.sh does; the `benchmark/Cargo.lock` the build rewrites is put
# back. Default seed 0.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  sed -n '2,17p' "$0" >&2
  exit 2
fi
source "$(dirname "$0")/side.sh"
parent=$(resolve_side "$1")
change=$(resolve_side "$2")
seed=${3:-0}

# the entries that carry a "why" are the workloads
mapfile -t workloads < <(grep -o '{"name": *"[^"]*", *"why"' "$change/BENCHMARK.json" | cut -d'"' -f4)
exact=$(grep -o '{"name": *"[^"]*", *"unit": *"\(count\|bytes\)"' "$change/BENCHMARK.json" | cut -d'"' -f4)

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

build_bench "$parent"
build_bench "$change"

# "<name> <value>" lines of one side's exact metrics for $workload, plus
# each run's failed operations (a run with any exits nonzero, and its
# numbers still count)
measure() {
  local dir=$1 bin=$1/.bench_build/release/gridsat-benchmark
  echo "== $workload on $dir" >&2
  { "$bin" --workload "$workload" --seed "$seed" --seconds 0 --trace 0 || true; } |
    awk '$1 == "workload" { print "failed_untraced", $NF } $1 == "sim_answer_s" { print $1, $2 }'
  { "$bin" --workload "$workload" --seed "$seed" --trace 1 || true; } |
    awk '$1 == "workload" { print "failed_traced", $NF } $3 == "count" || $3 == "bytes" { print $1, $2 }'
}

compared=0
differ=0
for workload in "${workloads[@]}"; do
  measure "$parent" >"$out/parent"
  measure "$change" >"$out/change"
  for side in parent change; do
    failed=$(awk '$1 ~ /^failed_/ { n += $2 } END { print n + 0 }' "$out/$side")
    if [[ $failed != 0 ]]; then
      echo "$workload: $failed failed operations on the $side side"
      differ=$((differ + 1))
    fi
  done
  # every exact metric BENCHMARK.json declares, plus sim_answer_s, on both sides
  for name in sim_answer_s $exact; do
    p=$(awk -v n="$name" '$1 == n { print $2 }' "$out/parent")
    c=$(awk -v n="$name" '$1 == n { print $2 }' "$out/change")
    if [[ -z $p || -z $c ]]; then
      echo "$workload $name: missing (parent '${p}', change '${c}')"
      differ=$((differ + 1))
    elif [[ $p != "$c" ]]; then
      echo "$workload $name: $p -> $c"
      differ=$((differ + 1))
    fi
    compared=$((compared + 1))
  done
done

echo "seed $seed: compared $compared values (sim_answer_s and the count/bytes metrics of ${#workloads[@]} workloads), $differ differ or failed"
[[ $differ -eq 0 ]]

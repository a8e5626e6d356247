#!/usr/bin/env bash
# A/B the repository benchmark (BENCHMARK.json) between two checkouts:
# alternating parent/change runs of one workload, then per side the median
# and quartiles of every end-to-end metric, the change's win count, and
# whether the difference clears the gain rule — change better in at least
# nine tenths of the pairs (ties count for neither) and the medians apart
# by more than the distance between the parent's own quartiles. Each
# workload's block ends with one line on bit identity: sim_answer_s the
# same in all 2 x pairs runs, or the runs whose value differs from the
# parent's first.
#
#   scripts/ab.sh <parent> <change> <workload>|all [pairs] [seed]
#
# `all` measures every workload BENCHMARK.json lists, one after the other,
# and prints one table with a block of rows per workload.
#
# Each side is a checkout directory of this repository or a commit of it
# (e.g. `HEAD~1`), which is exported with `git archive` into a directory
# under ${TMPDIR:-/tmp} (scripts/side.sh). Each side's benchmark package
# is built once into <dir>/.bench_build; the built executables are then
# run directly, with the run length BENCHMARK.json declares, the side
# that goes first swapping every pair. Defaults: 10 pairs, seed 0 —
# repeat with a seed not used while writing the change before claiming.
set -euo pipefail

if [[ $# -lt 3 ]]; then
  sed -n '2,23p' "$0" >&2
  exit 2
fi
source "$(dirname "$0")/side.sh"
parent=$(resolve_side "$1")
change=$(resolve_side "$2")
workload=$3
pairs=${4:-10}
seed=${5:-0}

# the end-to-end metrics of BENCHMARK.json; lower is better for all four
metrics=(sim_answer_s host_wall_s setup_s peak_rss_mb)

seconds=$(grep -o '"run_seconds": *[0-9]*' "$change/BENCHMARK.json" | grep -o '[0-9]*$')
if [[ $workload == all ]]; then
  # the entries that carry a "why" are the workloads
  mapfile -t workloads < <(grep -o '{"name": *"[^"]*", *"why"' "$change/BENCHMARK.json" | cut -d'"' -f4)
else
  workloads=("$workload")
fi

build_bench "$parent"
build_bench "$change"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# one run of $workload; appends "<value> ..." (one per metric) to $out/<side>.$workload
run() {
  local side=$1 dir=$2 line name values=""
  line=$("$dir/.bench_build/release/gridsat-benchmark" \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
  if ! grep -q '"failed": *0[,}]' <<<"$line"; then
    echo "ab: $side run reported failed operations: $line" >&2
    exit 1
  fi
  for name in "${metrics[@]}"; do
    values+="$(grep -o "\"$name\": *{\"value\": *[-0-9.e+]*" <<<"$line" | grep -o '[-0-9.e+]*$') "
  done
  echo "$values" >>"$out/$side.$workload"
  echo "   $side: $values" >&2
}

for workload in "${workloads[@]}"; do
  for ((i = 1; i <= pairs; i++)); do
    echo "== $workload pair $i/$pairs" >&2
    if ((i % 2)); then
      run parent "$parent"
      run change "$change"
    else
      run change "$change"
      run parent "$parent"
    fi
  done
done

# median and nearest-rank quartiles of column $2 of file $1: "med q1 q3"
summary() {
  awk -v c="$2" '{ print $c }' "$1" | sort -g | awk '
    { v[NR] = $1 }
    END {
      med = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
      q1 = v[int((NR + 3) / 4)]; q3 = v[int((3 * NR + 3) / 4)]
      printf "%.9g %.9g %.9g", med, q1, q3
    }'
}

echo
echo "seed $seed, $pairs pairs of ${seconds}-second runs per workload"
printf '%-13s %-13s %-34s %-34s %8s %7s  %s\n' workload metric "parent median [q1, q3]" "change median [q1, q3]" delta wins gain
for workload in "${workloads[@]}"; do
  col=0
  for name in "${metrics[@]}"; do
    col=$((col + 1))
    read -r pm p1 p3 <<<"$(summary "$out/parent.$workload" "$col")"
    read -r cm c1 c3 <<<"$(summary "$out/change.$workload" "$col")"
    # pair k is line k of each file: the two runs that ran back to back
    wins=$(paste "$out/parent.$workload" "$out/change.$workload" | awk -v c="$col" -v n="${#metrics[@]}" \
      '$(c + n) < $c { w++ } END { print w + 0 }')
    awk -v workload="$workload" -v name="$name" -v pm="$pm" -v p1="$p1" -v p3="$p3" -v cm="$cm" -v c1="$c1" -v c3="$c3" \
      -v wins="$wins" -v pairs="$pairs" 'BEGIN {
        delta = (pm != 0) ? sprintf("%+.1f%%", 100 * (cm - pm) / pm) : "n/a"
        gain = (wins * 10 >= pairs * 9 && pm - cm > p3 - p1) ? "yes" : "no"
        printf "%-13s %-13s %-34s %-34s %8s %4d/%-2d  %s\n", workload, name,
          sprintf("%.6g [%.6g, %.6g]", pm, p1, p3), sprintf("%.6g [%.6g, %.6g]", cm, c1, c3),
          delta, wins, pairs, gain
      }'
  done
  # bit identity, the precondition of a host-side claim: every run's
  # sim_answer_s (column 1) against the parent's first, compared as the
  # printed text (the shortest that reads back to the same f64)
  awk -v workload="$workload" -v runs=$((2 * pairs)) '
    NR == 1 { ref = $1 "" }
    FNR == 1 { side = (NR == 1) ? "parent" : "change" }
    $1 "" != ref { diff = diff sprintf(" %s %d (%s)", side, FNR, $1) }
    END {
      if (diff == "") printf "%-13s sim_answer_s identical in all %d runs (%s)\n", workload, runs, ref
      else printf "%-13s sim_answer_s differs from parent run 1 (%s) in:%s\n", workload, ref, diff
    }' "$out/parent.$workload" "$out/change.$workload"
done

#!/usr/bin/env bash
# Compare two checkouts of this repository: the same simulated runs, the
# same chaos soaks and, when asked, the benchmark's end-to-end metrics.
#
#   scripts/compare.sh <parent> <change> [pairs [seed [workload]]]
#
# The identity half always runs. Each workload BENCHMARK.json lists runs
# on each side once traced (`--trace 1`) and once for a single untraced
# pass (`--seconds 0`): `sim_answer_s` and every per-layer metric whose
# unit is `count` or `bytes` must be equal. Then the chaos gate's four
# soaks (scripts/check.sh) and `--seeds 1000 --repro` under both presets
# must print the same stdout and exit status (stderr carries backtraces
# with paths). Like the chaos gate, they run with debug assertions on,
# so a change that trips a `debug_assert` fails here too. Each value and
# each chaos line that differs is printed.
#
# With pairs > 0 the timing half follows: alternating runs of every
# workload, or of the one named, at BENCHMARK.json's run length, the side
# going first swapping every pair; then per metric each side's median and
# quartiles, the change's wins, and the gain rule: change better in at
# least nine tenths of the pairs (ties count for neither) and the medians
# apart by more than the distance between the parent's quartiles.
# Defaults: 0 pairs, seed 0, every workload. Exits 1 when a value or a
# chaos command differs or a run reports failed operations.
#
# A side is a checkout directory or a commit (e.g. `HEAD~1`), exported
# with `git archive` into ${TMPDIR:-/tmp}/gridsat-<full hash> and reused
# with its build by later calls (delete it when done). Each side builds
# once: the benchmark package into <dir>/.bench_build, then `chaos_soak`
# through the same manifest with debug assertions on into
# <dir>/.chaos_build. The `benchmark/Cargo.lock` cargo rewrites is put
# back.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 5 ]]; then
  sed -n '2,32p' "$0" >&2
  exit 2
fi

# a directory as it is; a commit exported once under ${TMPDIR:-/tmp}
resolve_side() {
  if [[ -d $1 ]]; then
    (cd "$1" && pwd)
    return
  fi
  local repo sha dir
  repo=$(cd "$(dirname "$0")/.." && pwd)
  if ! sha=$(git -C "$repo" rev-parse --verify --quiet "$1^{commit}"); then
    echo "$1: neither a directory nor a commit of $repo" >&2
    return 2
  fi
  dir=${TMPDIR:-/tmp}/gridsat-$sha
  if [[ ! -e $dir/.exported ]]; then
    echo "== exporting $1 ($sha) into $dir" >&2
    rm -rf "$dir"
    mkdir -p "$dir"
    git -C "$repo" archive "$sha" | tar -x -C "$dir"
    touch "$dir/.exported"
  fi
  echo "$dir"
}
parent=$(resolve_side "$1")
change=$(resolve_side "$2")
pairs=${3:-0}
seed=${4:-0}

# the entries that carry a "why" are the workloads
mapfile -t workloads < <(grep -o '{"name": *"[^"]*", *"why"' "$change/BENCHMARK.json" | cut -d'"' -f4)
exact=$(grep -o '{"name": *"[^"]*", *"unit": *"\(count\|bytes\)"' "$change/BENCHMARK.json" | cut -d'"' -f4)
seconds=$(grep -o '"run_seconds": *[0-9]*' "$change/BENCHMARK.json" | grep -o '[0-9]*$')
timed=("${@:5}")
((${#timed[@]})) || timed=("${workloads[@]}")
# the end-to-end metrics of BENCHMARK.json; lower is better for all four
metrics=(sim_answer_s host_wall_s setup_s peak_rss_mb)
chaos=(
  "--fast"
  "--plan submaster-loss --seeds 20 --repro"
  "--plan master-gone --seeds 1000 --repro"
  "--preset paper --seeds 20 --repro"
  "--seeds 1000 --repro"
  "--preset paper --seeds 1000 --repro"
)

build() {
  echo "== building $1" >&2
  local lock
  lock=$(cat "$1/benchmark/Cargo.lock")
  CARGO_TARGET_DIR="$1/.bench_build" cargo build --release --offline --quiet \
    --manifest-path "$1/benchmark/Cargo.toml"
  CARGO_TARGET_DIR="$1/.chaos_build" RUSTFLAGS="-C debug-assertions=on" \
    cargo build --release --offline --quiet \
    --manifest-path "$1/benchmark/Cargo.toml" -p gridsat-bench --bin chaos_soak
  echo "$lock" >"$1/benchmark/Cargo.lock"
}
build "$parent"
build "$change"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# "<name> <value>" lines of one side's exact metrics for $workload:
# sim_answer_s untraced, the count/bytes metrics traced, then both runs'
# failed operations (a run with any exits nonzero; its numbers still count)
measure() {
  local bin=$1/.bench_build/release/gridsat-benchmark
  echo "== $workload on $1" >&2
  { "$bin" --workload "$workload" --seed "$seed" --seconds 0 --trace 0 || true
    "$bin" --workload "$workload" --seed "$seed" --trace 1 || true; } |
    awk '$1 == "workload" { failed += $NF; traced = ($6 == "1:") }
      traced ? ($3 == "count" || $3 == "bytes") : ($1 == "sim_answer_s") { print $1, $2 }
      END { print "failed", failed + 0 }'
}

for workload in "${workloads[@]}"; do
  measure "$parent" >"$out/parent"
  measure "$change" >"$out/change"
  # values compared as printed: the shortest text that reads back the same
  awk -v workload="$workload" -v names="sim_answer_s $exact" '
    { if (FNR == NR) p[$1] = $2 ""; else c[$1] = $2 "" }
    END {
      if (p["failed"] + c["failed"] > 0)
        printf "%s: failed operations, %d on the parent side, %d on the change side\n", workload, p["failed"], c["failed"]
      n = split(names, m)
      for (i = 1; i <= n; i++)
        if (!(m[i] in p) || !(m[i] in c) || p[m[i]] != c[m[i]])
          printf "%s %s: %s -> %s\n", workload, m[i], (m[i] in p) ? p[m[i]] : "missing", (m[i] in c) ? c[m[i]] : "missing"
    }' "$out/parent" "$out/change" | tee -a "$out/report"
done
compared=$(((1 + $(wc -w <<<"$exact")) * ${#workloads[@]}))
differ=$(grep -vc 'failed operations' "$out/report" || true)

chaos_differ=0
for args in "${chaos[@]}"; do
  for side in parent change; do
    echo "== chaos_soak $args on ${!side}" >&2
    # a soak with failures exits nonzero: the status is compared too
    # shellcheck disable=SC2086
    { "${!side}/.chaos_build/release/chaos_soak" $args 2>/dev/null || echo "exit $?"; } >"$out/$side"
  done
  if ! cmp -s "$out/parent" "$out/change"; then
    echo "chaos_soak $args: stdout differs (< parent, > change)"
    diff "$out/parent" "$out/change" | grep '^[<>]' || true
    chaos_differ=$((chaos_differ + 1))
  fi
done

# one timed run of $workload; appends its metrics, in the order of
# $metrics, as a line of $out/<side>.$workload
run() {
  local side=$1 values
  values=$({ "${!side}/.bench_build/release/gridsat-benchmark" \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 || true; } |
    awk -v names="${metrics[*]}" '{ v[$1] = $2 } $1 == "workload" { failed = $NF }
      END { n = split(names, m); for (i = 1; i <= n; i++) printf "%s ", v[m[i]]; print "failed=" failed }')
  echo "   $side: $values" >&2
  [[ $values == *" failed=0" ]] || echo "$workload: failed operations in a $side run: $values" | tee -a "$out/report"
  echo "${values% failed=*}" >>"$out/$side.$workload"
}

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

if ((pairs > 0)); then
  for workload in "${timed[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
      echo "== $workload pair $i/$pairs" >&2
      sides=(parent change)
      ((i % 2)) || sides=(change parent)
      run "${sides[0]}"
      run "${sides[1]}"
    done
  done

  echo
  echo "seed $seed, $pairs pairs of ${seconds}-second runs per workload"
  printf '%-13s %-13s %-34s %-34s %8s %7s  %s\n' workload metric "parent median [q1, q3]" "change median [q1, q3]" delta wins gain
  for workload in "${timed[@]}"; do
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
  done
fi

failed=$(grep -c 'failed operations' "$out/report" || true)
echo "seed $seed: $differ of $compared values differ (sim_answer_s and the count/bytes metrics of ${#workloads[@]} workloads)," \
  "$chaos_differ of ${#chaos[@]} chaos_soak commands differ, $failed reports of failed operations"
[[ $differ -eq 0 && $chaos_differ -eq 0 && $failed -eq 0 ]]

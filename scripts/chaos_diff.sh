#!/usr/bin/env bash
# Check that two checkouts' chaos soaks print the same thing: build
# `chaos_soak` for each, run the three commands the chaos gate runs
# (scripts/check.sh) plus `--seeds 1000 --repro` under both presets, and
# compare what each command prints on stdout (repro lines, failures,
# totals) and its exit status. stderr is not compared: it carries panic
# messages with backtraces and source paths. Prints the lines that differ,
# command by command, and exits 1 on any difference.
#
#   scripts/chaos_diff.sh <parent> <change>
#
# Each side is a checkout directory of this repository or a commit of it,
# exported with `git archive` under ${TMPDIR:-/tmp} (scripts/side.sh).
# Each side's `chaos_soak` is built into <dir>/.chaos_build (git-ignored).
# After the builds, ~35 s per side; the 1000-seed commands take ~8 s each.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  sed -n '2,15p' "$0" >&2
  exit 2
fi
source "$(dirname "$0")/side.sh"
parent=$(resolve_side "$1")
change=$(resolve_side "$2")

commands=(
  "--fast"
  "--plan submaster-loss --seeds 20 --repro"
  "--preset paper --seeds 20 --repro"
  "--seeds 1000 --repro"
  "--preset paper --seeds 1000 --repro"
)

build() {
  echo "== building $1" >&2
  CARGO_TARGET_DIR="$1/.chaos_build" cargo build --release --offline --locked --quiet \
    --manifest-path "$1/Cargo.toml" -p gridsat-bench --bin chaos_soak
}
build "$parent"
build "$change"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

differ=0
for args in "${commands[@]}"; do
  for side in parent change; do
    dir=${!side}
    echo "== chaos_soak $args on $dir" >&2
    # a soak with failures exits nonzero: the status is compared too
    # shellcheck disable=SC2086
    { "$dir/.chaos_build/release/chaos_soak" $args 2>/dev/null || echo "exit $?"; } >"$out/$side"
  done
  if ! cmp -s "$out/parent" "$out/change"; then
    echo "chaos_soak $args: stdout differs (< parent, > change)"
    diff "$out/parent" "$out/change" | grep '^[<>]' || true
    differ=$((differ + 1))
  fi
done

echo "compared the stdout of ${#commands[@]} chaos_soak commands, $differ differ"
[[ $differ -eq 0 ]]

# Sourced by scripts/ab.sh, scripts/same_counts.sh and scripts/chaos_diff.sh:
# resolve one side of a comparison to a checkout directory.
#
#   dir=$(resolve_side <dir-or-commit>)
#
# A directory is used as it is. Anything else must name a commit of the
# repository these scripts live in; it is exported with `git archive` into
# ${TMPDIR:-/tmp}/gridsat-<full hash>, which later calls reuse, and the
# builds the scripts put inside it with it. Delete that directory when done.

resolve_side() {
  if [[ -d $1 ]]; then
    (cd "$1" && pwd)
    return
  fi
  local repo sha dir
  repo=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
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

# build_bench <dir>: build its benchmark package into <dir>/.bench_build and
# put back the benchmark/Cargo.lock cargo rewrites (unused [patch] entries).
build_bench() {
  echo "== building $1" >&2
  local lock
  lock=$(cat "$1/benchmark/Cargo.lock")
  CARGO_TARGET_DIR="$1/.bench_build" cargo build --release --offline --quiet \
    --manifest-path "$1/benchmark/Cargo.toml"
  echo "$lock" >"$1/benchmark/Cargo.lock"
}

#!/usr/bin/env bash
# Offline quality gate: formatting, lints-as-errors, tests.
# Run from the repo root. Everything works without network access: the
# workspace depends on no crate outside the tree, and the first gate
# keeps it that way.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== no registry dependencies (Cargo.lock sources, [workspace.dependencies] paths)"
if grep -n '^source = ' Cargo.lock; then
  echo "Cargo.lock lists a package from outside the workspace" >&2
  exit 1
fi
if awk '/^\[/ { deps = ($0 == "[workspace.dependencies]"); next }
        deps && NF && !/^#/ && !/path *=/' Cargo.toml | grep .; then
  echo "[workspace.dependencies] names a crate without a path" >&2
  exit 1
fi

echo "== every binary the docs, scripts and CI run exists"
# EXPERIMENTS.md's "History" section records outputs of binaries that
# were removed on purpose; everything above it must name live ones.
named=$({ cat README.md DESIGN.md scripts/*.sh .github/workflows/ci.yml
          sed '/^## History/,$d' EXPERIMENTS.md; } |
  grep -oE -- '--bin +[A-Za-z0-9_]+' | awk '{ print $2 }' | sort -u)
for name in $named; do
  if [[ ! -f "crates/bench/src/bin/$name.rs" && ! -f "examples/$name.rs" ]]; then
    echo "the docs, scripts or CI run a binary '$name' that is neither under crates/bench/src/bin/ nor examples/" >&2
    exit 1
  fi
done

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline --locked -- -D warnings

echo "== cargo build + test"
cargo build --release --offline --locked
cargo test -q --workspace --offline --locked

echo "== grid_report causal smoke (13-client sim, anomaly/path gate)"
cargo run --release -p gridsat-bench --bin grid_report -- --sim --check > /dev/null

# Opt-in: the chaos soak runs in its own CI job and only here when
# explicitly requested. The fast profile samples 5 seeds of every plan;
# the hierarchical plan gets its full 20 as well (60 runs, seconds): the
# ghost-Busy thief it found at seed 10 is a two-message race the fast
# profile never sampled. Then 20 seeds of every plan under the paper's
# share protocol (`--preset paper`: share_round_s None, the flood).
if [[ "${CHECK_CHAOS:-0}" == "1" ]]; then
  echo "== chaos soak (fast profile)"
  cargo run --release -p gridsat-bench --bin chaos_soak -- --fast
  echo "== chaos soak (submaster-loss, 20 seeds)"
  cargo run --release -p gridsat-bench --bin chaos_soak -- --plan submaster-loss --seeds 20 --repro
  echo "== chaos soak (paper share protocol, every plan, 20 seeds)"
  cargo run --release -p gridsat-bench --bin chaos_soak -- --preset paper --seeds 20 --repro
fi

# Opt-in: the data-integrity gate — a decode-fuzz smoke pass over every
# wire decoder, share batches through both the uncached decode and the
# memoised accessor receivers use (reduced iteration count; the full 10k
# runs in the normal test suite) plus a bit-rot-only soak: every payload
# kind sees bit flips and the runs must still end with the oracle's
# answer.
if [[ "${CHECK_CORRUPT:-0}" == "1" ]]; then
  echo "== decode fuzz smoke (truncation / bit flips / garbage; uncached + memoised share decode)"
  DECODE_FUZZ_ITERS=2000 cargo test --release -q -p gridsat --test decode_fuzz
  echo "== bit-rot soak (fast profile)"
  cargo run --release -p gridsat-bench --bin chaos_soak -- --fast --plan bit-rot --repro
fi

# Opt-in: the search-space conservation audit — journal/auditor unit
# tests plus the failover integration tests with the auditor armed
# (any lost or double-assigned cube panics the run).
if [[ "${CHECK_AUDIT:-0}" == "1" ]]; then
  echo "== conservation audit (journal + failover under the auditor)"
  cargo test --release -q -p gridsat -- audit journal
  cargo test --release -q -p gridsat-tests --test reliability -- \
    dead_master_fails_over_to_the_standby failover_preserves_sat_models
fi

# Opt-in: the control-plane scaling smoke — flat vs hierarchical at
# n ∈ {12, 100} with the conservation auditor armed, gating on the
# oracle outcome, the O(sites) root-queue bound and the bound on what
# one foreign-clause merge may charge (a quantum plus one clause).
if [[ "${CHECK_SCALE:-0}" == "1" ]]; then
  echo "== scaling smoke (scaling_1k --fast --check)"
  cargo run --release -p gridsat-bench --bin scaling_1k -- --fast --check > /dev/null
fi

# Opt-in: the repository benchmark (BENCHMARK.json) is a package of its
# own that compiles against the public API of the crates here, so a
# signature change that breaks it fails this gate, not the next
# benchmark run. Its unit tests, then every workload once at toy size.
if [[ "${CHECK_BENCH:-0}" == "1" ]]; then
  echo "== benchmark package (unit tests + smoke run of all workloads)"
  cargo test --offline --manifest-path benchmark/Cargo.toml
  cargo run --release --offline --manifest-path benchmark/Cargo.toml -- all --smoke --seconds 0
fi

# Opt-in: the solver's own tests at optimised speed with debug assertions
# on. BCP walks its watch list and the assignment through raw pointers;
# the `debug_assert!`s beside those accesses (and in the clause arena)
# compile out of a plain release build, and a debug build is too slow to
# push the fuzzers far. Unit tests, gc_relocation, invariant_fuzz, the
# trajectory pins and the rest of crates/solver/tests — then the grid
# crate's tests and the 24-client bit-identity runs the same way: the
# share path asserts there that the client's fingerprint window is the
# only dedup fence it needs and that every inbox record is whole.
if [[ "${CHECK_SOLVER:-0}" == "1" ]]; then
  echo "== solver, grid and bit-identity tests, release + debug assertions"
  RUSTFLAGS="-C debug-assertions=on" cargo test --release -q -p gridsat-solver
  RUSTFLAGS="-C debug-assertions=on" cargo test --release -q -p gridsat
  RUSTFLAGS="-C debug-assertions=on" cargo test --release -q -p gridsat-tests --test bit_identity
fi

# Not a gate: `scripts/ab.sh <parent-dir> <change-dir> <workload>|all
# [pairs] [seed]` measures a change against its parent with the same
# benchmark (alternating runs, medians, quartiles, win count).

echo "OK"

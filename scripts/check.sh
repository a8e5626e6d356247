#!/usr/bin/env bash
# Offline quality gate: formatting, lints-as-errors, tests.
# Run from the repo root. Everything works without network access: the
# workspace depends on no crate outside the tree, and the first gate
# keeps it that way.
#
#   scripts/check.sh                  the prelude: fmt, clippy, docs, build,
#                                     tests, causal smoke, fault-tolerance
#                                     example
#   CHECK_<GATE>=1 scripts/check.sh   the prelude, then that opt-in gate
#   scripts/check.sh --only <gate>    that gate alone — what each CI job
#                                     runs, so a gate's commands live here
#                                     and nowhere else
#
# Gates: chaos (CHECK_CHAOS), integrity (CHECK_CORRUPT), scaling
# (CHECK_SCALE), benchmark (CHECK_BENCH), solver-asserts (CHECK_SOLVER).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# The chaos soak against the sequential oracle, with the master's cube
# ledger checking every run (a lost cube holds the verdict; an illegal
# transition panics the run). First the journal and ledger unit tests
# and the two failover integration tests. The fast profile samples 5
# seeds of every plan; the hierarchical plan gets its full 20 as well
# (60 runs, seconds): the ghost-Busy thief it found at seed 10 is a
# two-message race the fast profile never sampled. The master-gone plan
# gets 1000 seeds (3,000 runs, ~7 s on two cores): it is the one plan
# that runs on the standby's journal feed, which the fast profile
# samples at 5 seeds. Then 20 seeds of
# every plan under the paper's share protocol (`--preset paper`:
# share_round_s None, the all-pairs flood as soon as learned; what
# Table 1 runs): 420 runs, under a second. Then 1000 seeds of every
# plan under the paper's protocol (21,000 runs, ~20 s on two cores),
# which must all end with the oracle's answer; the default preset's
# 1000-seed sweep joins once it is green too. Then the two Table 1 rows a
# migration wedged until the 12,000 s cap, with no fault injected: the
# peer's confirmation closed the grant first and the source stayed Busy
# on a cube it had given away. Their GridSAT column must not read
# TIME_OUT. Everything runs optimised with debug assertions on, so a
# fault reaches every `debug_assert` in master, client and journal —
# among them the restart's check that the replayed core equals the live
# one, and the check that no roster row names a cube the ledger has
# elsewhere or queued.
gate_chaos() {
  echo "== journal + cube ledger tests, failover under the ledger (release + debug assertions)"
  RUSTFLAGS="-C debug-assertions=on" cargo test --release -q -p gridsat -- journal
  RUSTFLAGS="-C debug-assertions=on" cargo test --release -q -p gridsat-tests --test reliability -- \
    dead_master_fails_over_to_the_standby failover_preserves_sat_models
  echo "== chaos soak (fast profile)"
  RUSTFLAGS="-C debug-assertions=on" cargo run --release -p gridsat-bench --bin chaos_soak -- --fast
  echo "== chaos soak (submaster-loss, 20 seeds)"
  RUSTFLAGS="-C debug-assertions=on" cargo run --release -p gridsat-bench --bin chaos_soak -- \
    --plan submaster-loss --seeds 20 --repro
  # every default-preset plan but crash-restart, whose php/seed629 is
  # still red at 1000 seeds
  for plan in drop-happy flaky-links master-blink bit-rot submaster-loss master-gone; do
    echo "== chaos soak ($plan, 1000 seeds)"
    RUSTFLAGS="-C debug-assertions=on" cargo run --release -p gridsat-bench --bin chaos_soak -- \
      --plan "$plan" --seeds 1000 --repro
  done
  echo "== chaos soak (paper share protocol, every plan, 20 seeds)"
  RUSTFLAGS="-C debug-assertions=on" cargo run --release -p gridsat-bench --bin chaos_soak -- \
    --preset paper --seeds 20 --repro
  echo "== chaos soak (paper share protocol, every plan, 1000 seeds)"
  RUSTFLAGS="-C debug-assertions=on" cargo run --release -p gridsat-bench --bin chaos_soak -- \
    --preset paper --seeds 1000 --repro
  for row in Mat26 pyhala-braun-unsat-40-4-01; do
    echo "== table1 $row (the GridSAT column must not read TIME_OUT)"
    table=$(RUSTFLAGS="-C debug-assertions=on" cargo run --release -q -p gridsat-bench --bin table1 -- "$row")
    echo "$table"
    awk -v cnf="$row.cnf" '$1 == cnf { seen = 1; if ($4 == "TIME_OUT") bad = 1 } END { exit !seen || bad }' <<<"$table"
  done
}

# Data integrity: every wire decoder against truncated, bit-flipped and
# garbage bytes (share batches through both the uncached decode and the
# memoised accessor receivers use), optimised, then a bit-rot-only soak:
# every payload kind sees bit flips, checksum failures must be dropped
# and recovered, never acted on, and each run must still end with the
# oracle's answer. Like the chaos gate, optimised with debug assertions
# on.
gate_integrity() {
  echo "== decode fuzz (truncation / bit flips / garbage; uncached + memoised share decode)"
  RUSTFLAGS="-C debug-assertions=on" cargo test --release -q -p gridsat --test decode_fuzz
  echo "== bit-rot soak (fast profile)"
  RUSTFLAGS="-C debug-assertions=on" cargo run --release -p gridsat-bench --bin chaos_soak -- \
    --fast --plan bit-rot --repro
}

# The control-plane scaling smoke: flat vs hierarchical at n ∈ {12, 100}
# under the master's cube ledger, gating on the oracle outcome, the
# O(sites) root-queue bound and the bound on what one foreign-clause
# merge may charge (a quantum plus one clause).
gate_scaling() {
  echo "== scaling smoke (scaling_1k --fast --check)"
  cargo run --release -p gridsat-bench --bin scaling_1k -- --fast --check > /dev/null
}

# The repository benchmark (BENCHMARK.json) is a package of its own that
# compiles against the public API of the crates here — it reads `Stats`,
# `ClientStats`, `SolverConfig`'s presets and `GridConfig`, which lose a
# field when a counter or a switch turns out to have one value in use as
# well as gain one when a layer is measured anew — so a signature change
# that breaks it fails this gate, not the next benchmark run. Its unit
# tests, then every workload once at toy size.
gate_benchmark() {
  echo "== benchmark package (unit tests + smoke run of all workloads)"
  cargo test --offline --manifest-path benchmark/Cargo.toml
  cargo run --release --offline --manifest-path benchmark/Cargo.toml -- all --smoke --seconds 0
}

# The solver's own tests at optimised speed with debug assertions on.
# BCP walks its watch list and the assignment through raw pointers; the
# `debug_assert!`s beside those accesses (and in the clause arena)
# compile out of a plain release build, and a debug build is too slow to
# push the fuzzers far. Unit tests, gc_relocation, invariant_fuzz, the
# trajectory pins and the rest of crates/solver/tests — then the grid
# crate's tests and the 24-client bit-identity runs the same way, where
# every quantum of every client goes through the same walk and the merge
# asserts that every inbox record is whole. First the CNF crate's tests
# and the generator pins, where every formula's clause list checks its
# end offsets as it is read. Last the threads backend's tests, where
# solvers (and their watch lists, `Send` by an unsafe impl) move between
# OS threads.
gate_solver_asserts() {
  echo "== cnf, solver, grid, bit-identity and threads-backend tests, release + debug assertions"
  RUSTFLAGS="-C debug-assertions=on" cargo test --release -q -p gridsat-cnf
  RUSTFLAGS="-C debug-assertions=on" cargo test --release -q -p gridsat-tests --test generator_pins
  RUSTFLAGS="-C debug-assertions=on" cargo test --release -q -p gridsat-solver
  RUSTFLAGS="-C debug-assertions=on" cargo test --release -q -p gridsat
  RUSTFLAGS="-C debug-assertions=on" cargo test --release -q -p gridsat-tests --test bit_identity
  RUSTFLAGS="-C debug-assertions=on" cargo test --release -q -p gridsat-tests --test threads_backend
}

if [[ $# -gt 0 ]]; then
  case "$*" in
    "--only chaos" | "--only integrity" | "--only scaling" | "--only benchmark")
      "gate_$2"
      ;;
    "--only solver-asserts") gate_solver_asserts ;;
    *)
      echo "usage: scripts/check.sh [--only chaos|integrity|scaling|benchmark|solver-asserts]" >&2
      exit 2
      ;;
  esac
  echo "OK"
  exit 0
fi

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

echo "== every script parses (bash -n)"
for script in scripts/*.sh; do
  bash -n "$script"
done

echo "== every binary and script the docs, scripts and CI run exists"
# EXPERIMENTS.md's "History" section records outputs of binaries and
# scripts that were removed on purpose; everything above it must name
# live ones.
# A binary is named by a command (`--bin <name>`) or by its source file
# (`bin/<name>.rs`).
named=$({ cat README.md DESIGN.md .claude/skills/verify/SKILL.md scripts/*.sh .github/workflows/ci.yml
          sed '/^## History/,$d' EXPERIMENTS.md; } |
  grep -oE -- '--bin +[A-Za-z0-9_]+|bin/[A-Za-z0-9_]+\.rs' |
  sed -E 's/^--bin +//; s/^bin\/([A-Za-z0-9_]+)\.rs$/\1/' | sort -u)
for name in $named; do
  if [[ ! -f "crates/bench/src/bin/$name.rs" && ! -f "examples/$name.rs" ]]; then
    echo "the docs, scripts or CI name a binary '$name' that is neither under crates/bench/src/bin/ nor examples/" >&2
    exit 1
  fi
done
# DESIGN.md is not searched for scripts: its measurements keep the name
# of the script that took them.
scripts=$({ cat README.md .claude/skills/verify/SKILL.md scripts/*.sh .github/workflows/ci.yml
            sed '/^## History/,$d' EXPERIMENTS.md; } |
  grep -oE 'scripts/[A-Za-z0-9_]+\.sh' | sort -u)
for script in $scripts; do
  if [[ ! -f $script ]]; then
    echo "the docs, scripts or CI name a script '$script' that does not exist" >&2
    exit 1
  fi
done

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline --locked -- -D warnings

# Docs as errors: a link to a deleted or renamed item, or a public doc
# linking a private one, fails here instead of rotting unnoticed.
echo "== cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --locked

echo "== cargo build + test"
cargo build --release --offline --locked
cargo test -q --workspace --offline --locked

echo "== grid_report causal smoke (13-client sim, anomaly/path gate)"
cargo run --release -p gridsat-bench --bin grid_report -- --sim --check > /dev/null

echo "== fault_tolerance example (a busy client lost: CLIENT_LOST without reliability, UNSAT with it)"
cargo run --release -p gridsat-examples --bin fault_tolerance > /dev/null

if [[ "${CHECK_CHAOS:-0}" == "1" ]]; then gate_chaos; fi
if [[ "${CHECK_CORRUPT:-0}" == "1" ]]; then gate_integrity; fi
if [[ "${CHECK_SCALE:-0}" == "1" ]]; then gate_scaling; fi
if [[ "${CHECK_BENCH:-0}" == "1" ]]; then gate_benchmark; fi
if [[ "${CHECK_SOLVER:-0}" == "1" ]]; then gate_solver_asserts; fi

# Not a gate: `scripts/compare.sh <parent> <change> [pairs [seed
# [workload]]]` checks that a change computes the same `sim_answer_s` and
# exact per-layer counts as its parent and prints the same chaos soaks,
# and with pairs > 0 measures it against the parent with the benchmark
# (alternating runs, medians, quartiles, win count). Each side is a
# checkout directory or a commit.

echo "OK"

//! Trajectory pins for host-side solver changes.
//!
//! The work counters are the simulation clock, so a change that claims to
//! be host-side only (a faster BCP walk, buffer reuse, a cheaper
//! subproblem loader) may not move one search step. These runs pin the
//! counters at the verdict for three generators that draw no random
//! numbers — the pins do not depend on which `rand` the workspace was
//! built against — under the sequential-baseline and the grid-client
//! presets, plus one scripted split with both halves run to a verdict and
//! one foreign-clause merge at level 0. Same contract as
//! `tests/bit_identity.rs`: the numbers were captured on the commit
//! *before* the pointer-walked BCP loop / slice loader (PR 14) was
//! applied; a change that moves them on purpose (heuristics, work
//! accounting) re-captures them and says so.

use gridsat_cnf::Formula;
use gridsat_satgen as satgen;
use gridsat_solver::{FpWindow, SolveStatus, Solver, SolverConfig, Stats, Step};

const MEM: usize = 1 << 30;

/// The pinned slice of [`Stats`].
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    work: u64,
    propagations: u64,
    decisions: u64,
    conflicts: u64,
    learned: u64,
    deleted: u64,
    pruned: u64,
    gc_runs: u64,
    max_level: u64,
}

impl Pins {
    fn of(s: &Stats) -> Pins {
        Pins {
            work: s.work,
            propagations: s.propagations,
            decisions: s.decisions,
            conflicts: s.conflicts,
            learned: s.learned,
            deleted: s.deleted,
            pruned: s.pruned,
            gc_runs: s.gc_runs,
            max_level: s.max_level,
        }
    }
}

/// Step in client-sized quanta to a verdict, checking the solver's
/// invariants at every quantum boundary.
fn run_to_verdict(s: &mut Solver) -> SolveStatus {
    loop {
        match s.step(20_000) {
            Step::Sat => return SolveStatus::Sat,
            Step::Unsat => return SolveStatus::Unsat,
            Step::Running | Step::MemoryPressure => s.check_invariants(),
        }
    }
}

fn solve(f: &Formula, config: SolverConfig) -> (SolveStatus, Pins) {
    let mut s = Solver::new(f, config);
    let status = run_to_verdict(&mut s);
    (status, Pins::of(s.stats()))
}

fn sequential() -> SolverConfig {
    SolverConfig::sequential_baseline(MEM)
}

fn grid() -> SolverConfig {
    SolverConfig::grid_client(10, MEM)
}

#[test]
fn php_8_7_is_pinned_under_both_presets() {
    let f = satgen::php::php(8, 7);
    let want = Pins {
        work: 220663,
        propagations: 16039,
        decisions: 890,
        conflicts: 850,
        learned: 850,
        deleted: 0,
        pruned: 489,
        gc_runs: 1,
        max_level: 22,
    };
    assert_eq!(solve(&f, sequential()), (SolveStatus::Unsat, want));
    // sharing only fills the outbox: the search itself is the same
    let (status, pins) = solve(&f, grid());
    assert_eq!(status, SolveStatus::Unsat);
    assert_eq!(pins, solve(&f, sequential()).1);
}

#[test]
fn hanoi_4_15_is_pinned_under_both_presets() {
    let f = satgen::hanoi::hanoi(4, 15);
    let want = Pins {
        work: 310958,
        propagations: 41302,
        decisions: 2380,
        conflicts: 834,
        learned: 834,
        deleted: 0,
        pruned: 2494,
        gc_runs: 2,
        max_level: 134,
    };
    assert_eq!(solve(&f, sequential()), (SolveStatus::Sat, want));
    assert_eq!(solve(&f, grid()).1, solve(&f, sequential()).1);
}

#[test]
fn mult_miter_5_is_pinned_under_both_presets() {
    let f = satgen::pipe::mult_miter(5, false);
    let want = Pins {
        work: 982338,
        propagations: 143689,
        decisions: 1617,
        conflicts: 1365,
        learned: 1365,
        deleted: 0,
        pruned: 2373,
        gc_runs: 6,
        max_level: 13,
    };
    assert_eq!(solve(&f, sequential()), (SolveStatus::Unsat, want));
    assert_eq!(solve(&f, grid()).1, solve(&f, sequential()).1);
}

/// Database reduction and the relocating GC under the default preset
/// (the two presets above never reduce): deletion order and collection
/// points are part of the trajectory.
#[test]
fn php_9_8_with_reductions_is_pinned() {
    let f = satgen::php::php(9, 8);
    let want = Pins {
        work: 1081052,
        propagations: 74475,
        decisions: 3993,
        conflicts: 3572,
        learned: 3572,
        deleted: 2198,
        pruned: 0,
        gc_runs: 4,
        max_level: 29,
    };
    let (status, pins) = solve(&f, SolverConfig::default());
    assert_eq!(status, SolveStatus::Unsat);
    assert!(pins.deleted > 0 && pins.gc_runs > 0, "{pins:?}");
    assert_eq!(pins, want);
}

/// The benchmark's steady `seq_suite` case: random 3-SAT above the
/// threshold under the default preset, stopped at a work budget. Its many
/// decays halve the counters into ties, so this run pins how the decision
/// heap breaks them. Captured on the per-literal heap, before the heap
/// went to one entry per variable.
#[test]
fn a_budgeted_3sat_run_with_tied_counters_is_pinned() {
    const BUDGET: u64 = 2_000_000;
    let f = satgen::random_ksat::random_ksat(300, 1380, 3, 7);
    let mut s = Solver::new(&f, SolverConfig::default());
    while s.stats().work < BUDGET {
        let left = BUDGET - s.stats().work;
        assert_eq!(s.step(left.min(20_000)), Step::Running);
        s.check_invariants();
    }
    assert_eq!(
        Pins::of(s.stats()),
        Pins {
            work: 2000026,
            propagations: 219596,
            decisions: 4631,
            conflicts: 3477,
            learned: 3477,
            deleted: 0,
            pruned: 0,
            gc_runs: 0,
            max_level: 37,
        }
    );
}

/// One scripted hand-off: search a while, split at the first decision,
/// rebuild the other half from its spec, run both halves to a verdict.
#[test]
fn a_scripted_split_pins_both_halves() {
    let f = satgen::php::php(8, 7);
    let mut donor = Solver::new(&f, grid());
    assert_eq!(donor.step(30_000), Step::Running);
    let spec = donor.split_off().expect("an open decision after 30k work");
    assert_eq!(
        (spec.num_vars, spec.assumptions.len(), spec.clauses.len()),
        (56, 1, 431)
    );
    let mut heir = Solver::from_split(&spec, grid());
    heir.check_invariants();
    // what loading the spec itself charged
    assert_eq!(
        Pins::of(heir.stats()),
        Pins {
            work: 23,
            propagations: 8,
            decisions: 0,
            conflicts: 0,
            learned: 0,
            deleted: 0,
            pruned: 0,
            gc_runs: 0,
            max_level: 0,
        }
    );
    assert_eq!(run_to_verdict(&mut donor), SolveStatus::Unsat);
    assert_eq!(run_to_verdict(&mut heir), SolveStatus::Unsat);
    assert_eq!(
        Pins::of(donor.stats()),
        Pins {
            work: 215175,
            propagations: 15452,
            decisions: 830,
            conflicts: 798,
            learned: 798,
            deleted: 0,
            pruned: 437,
            gc_runs: 1,
            max_level: 22,
        }
    );
    assert_eq!(
        Pins::of(heir.stats()),
        Pins {
            work: 79129,
            propagations: 6452,
            decisions: 304,
            conflicts: 297,
            learned: 297,
            deleted: 0,
            pruned: 313,
            gc_runs: 1,
            max_level: 5,
        }
    );
}

/// One foreign-clause merge at level 0: the clauses one solver offers for
/// sharing are queued on a freshly loaded subproblem, which merges them
/// before its first decision — under its assumption some are satisfied
/// and dropped, some imply a literal, the rest join the learned set.
#[test]
fn a_level0_merge_of_foreign_clauses_is_pinned() {
    let f = satgen::php::php(8, 7);
    let mut source = Solver::new(&f, grid());
    assert_eq!(source.step(200_000), Step::Running);
    let shared = source.take_shared();
    assert_eq!(shared.len(), 158);

    let mut donor = Solver::new(&f, grid());
    assert_eq!(donor.step(30_000), Step::Running);
    let spec = donor.split_off().expect("an open decision after 30k work");
    let mut sink = Solver::from_split(&spec, grid());
    // the caller's window, as a grid client holds one: the second offer of
    // a clause is a duplicate and never reaches the solver
    let mut window = FpWindow::new(1 << 16);
    for (clause, fp) in shared.iter().chain(&shared) {
        if window.insert(*fp) {
            sink.queue_fresh(clause.lits());
        }
    }
    assert_eq!(sink.pending_foreign(), shared.len());
    assert_eq!(sink.step(1), Step::Running);
    sink.check_invariants();
    let s = *sink.stats();
    assert_eq!(
        (
            s.merged_in,
            s.merge_discarded,
            s.merge_implications,
            s.max_merge_burst
        ),
        (149, 9, 7, 1360)
    );
    assert_eq!(run_to_verdict(&mut sink), SolveStatus::Unsat);
    assert_eq!(
        Pins::of(sink.stats()),
        Pins {
            work: 44881,
            propagations: 3446,
            decisions: 190,
            conflicts: 184,
            learned: 184,
            deleted: 0,
            pruned: 344,
            gc_runs: 1,
            max_level: 5,
        }
    );
}

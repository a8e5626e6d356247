//! Solver correctness against ground truth: brute force on random small
//! instances, and the generator families' known statuses.

use gridsat_cnf::rng::Rng;
use gridsat_cnf::{Formula, Lit, Value};
use gridsat_satgen as satgen;
use gridsat_solver::{driver, SolveStatus, SolverConfig};

/// Cases per property; a failing assertion names its case seed.
const CASES: u64 = 200;

/// Exponential reference check (small instances only).
fn brute_force(f: &Formula) -> bool {
    let n = f.num_vars();
    assert!(n <= 20);
    let mut a = f.empty_assignment();
    fn rec(f: &Formula, a: &mut gridsat_cnf::Assignment, v: usize) -> bool {
        match f.eval(a) {
            Value::True => return true,
            Value::False => return false,
            Value::Unassigned => {}
        }
        if v == a.num_vars() {
            return false;
        }
        for val in [Value::True, Value::False] {
            a.set((v as u32).into(), val);
            if rec(f, a, v + 1) {
                return true;
            }
        }
        a.set((v as u32).into(), Value::Unassigned);
        false
    }
    rec(f, &mut a, 0)
}

fn check(f: &Formula, seed: u64) {
    let expected = brute_force(f);
    let report = driver::solve(f, SolverConfig::default(), driver::Limits::default());
    match report.outcome {
        gridsat_solver::Outcome::Sat(model) => {
            assert!(
                expected,
                "solver said SAT, brute force says UNSAT: {f:?}, case seed {seed}"
            );
            assert!(
                f.is_satisfied_by(&model),
                "model does not verify: {f:?}, case seed {seed}"
            );
        }
        gridsat_solver::Outcome::Unsat => {
            assert!(
                !expected,
                "solver said UNSAT, brute force says SAT: {f:?}, case seed {seed}"
            );
        }
        other => panic!("unexpected outcome {other:?}, case seed {seed}"),
    }
}

/// Random 3-SAT across densities agrees with brute force, and SAT
/// models verify.
#[test]
fn random_3sat_agrees_with_brute_force() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let n = rng.range_usize(3..12);
        let m = n * rng.range_usize(1..8);
        let f = satgen::random_ksat::random_ksat(n, m, 3, rng.next_u64());
        check(&f, seed);
    }
}

/// Random mixed-width clauses (including units and binaries).
#[test]
fn random_mixed_agrees_with_brute_force() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let n = rng.range_usize(2..10);
        let mut f = Formula::new(n);
        for _ in 0..rng.range_usize(1..25) {
            let len = rng.range_usize(1..5);
            f.add_clause(
                (0..len).map(|_| Lit::new(rng.range_u32(0..n as u32).into(), rng.next_bool())),
            );
        }
        check(&f, seed);
    }
}

/// With level-0 pruning and restarts both on, answers stay correct.
#[test]
fn extensions_preserve_correctness() {
    // a case that failed once, then `CASES` fresh ones
    let regression = (8, 3043869692080702881);
    let fresh = (0..CASES).map(|seed| {
        let mut rng = Rng::seed_from_u64(seed);
        (rng.range_usize(3..10), rng.next_u64())
    });
    for (n, gen_seed) in std::iter::once(regression).chain(fresh) {
        let f = satgen::random_ksat::random_ksat(n, n * 5, 3, gen_seed);
        let expected = brute_force(&f);
        let config = SolverConfig {
            level0_pruning: true,
            restart: Some(gridsat_solver::RestartConfig {
                first_interval: 5,
                geometric_factor: 1.2,
            }),
            ..SolverConfig::default()
        };
        let report = driver::solve(&f, config, driver::Limits::default());
        let case = format!("random_ksat({n}, {}, 3, {gen_seed})", n * 5);
        match report.outcome {
            gridsat_solver::Outcome::Sat(model) => {
                assert!(expected, "{case}");
                assert!(f.is_satisfied_by(&model), "{case}");
            }
            gridsat_solver::Outcome::Unsat => assert!(!expected, "{case}"),
            other => panic!("unexpected outcome {other:?} on {case}"),
        }
    }
}

// ---------------------------------------------------------------------
// Generator families at small scale: solver answer matches ground truth
// ---------------------------------------------------------------------

#[test]
fn php_statuses() {
    assert_eq!(driver::decide(&satgen::php::php(4, 4)), SolveStatus::Sat);
    assert_eq!(driver::decide(&satgen::php::php(5, 4)), SolveStatus::Unsat);
    assert_eq!(driver::decide(&satgen::php::php(8, 7)), SolveStatus::Unsat);
}

#[test]
fn parity_statuses() {
    for seed in 0..3 {
        let sat = satgen::xor::parity(20, 16, 4, true, seed);
        assert_eq!(driver::decide(&sat), SolveStatus::Sat, "seed {seed}");
        let unsat = satgen::xor::parity(20, 16, 4, false, seed);
        assert_eq!(driver::decide(&unsat), SolveStatus::Unsat, "seed {seed}");
    }
}

#[test]
fn urquhart_is_unsat() {
    for rungs in [3, 6, 10] {
        let f = satgen::xor::urquhart(rungs, 7);
        assert_eq!(driver::decide(&f), SolveStatus::Unsat, "rungs {rungs}");
    }
}

#[test]
fn counter_statuses() {
    assert_eq!(
        driver::decide(&satgen::counter::counter(4, 12, 9)),
        SolveStatus::Sat
    );
    assert_eq!(
        driver::decide(&satgen::counter::counter(5, 12, 20)),
        SolveStatus::Unsat
    );
}

#[test]
fn coloring_statuses() {
    assert_eq!(
        driver::decide(&satgen::coloring::grid_coloring(4, 5, 2)),
        SolveStatus::Sat
    );
    let c9 = satgen::coloring::Graph::cycle(9);
    assert_eq!(
        driver::decide(&satgen::coloring::coloring(&c9, 2, "c9-2")),
        SolveStatus::Unsat
    );
    let k6 = satgen::coloring::Graph::complete(6);
    assert_eq!(
        driver::decide(&satgen::coloring::coloring(&k6, 5, "k6-5")),
        SolveStatus::Unsat
    );
}

#[test]
fn qg_statuses() {
    assert_eq!(
        driver::decide(&satgen::qg::qg_sat(5, 8, 3)),
        SolveStatus::Sat
    );
    assert_eq!(
        driver::decide(&satgen::qg::qg_unsat(5, 6, 3)),
        SolveStatus::Unsat
    );
}

#[test]
fn factoring_statuses() {
    // 77 = 7 * 11
    let sat = satgen::factoring::factoring(77, 4, 7);
    match driver::solve(&sat, SolverConfig::default(), driver::Limits::default()).outcome {
        gridsat_solver::Outcome::Sat(model) => assert!(sat.is_satisfied_by(&model)),
        other => panic!("expected SAT, got {other:?}"),
    }
    // 83 is prime
    assert_eq!(
        driver::decide(&satgen::factoring::factoring(83, 4, 7)),
        SolveStatus::Unsat
    );
}

#[test]
fn hanoi_statuses() {
    assert_eq!(
        driver::decide(&satgen::hanoi::hanoi(3, 7)),
        SolveStatus::Sat
    );
    assert_eq!(
        driver::decide(&satgen::hanoi::hanoi(3, 6)),
        SolveStatus::Unsat
    );
    assert_eq!(
        driver::decide(&satgen::hanoi::hanoi(4, 15)),
        SolveStatus::Sat
    );
}

#[test]
fn miter_statuses() {
    assert_eq!(
        driver::decide(&satgen::pipe::adder_miter(8, 3, false)),
        SolveStatus::Unsat
    );
    assert_eq!(
        driver::decide(&satgen::pipe::adder_miter(8, 3, true)),
        SolveStatus::Sat
    );
    assert_eq!(
        driver::decide(&satgen::pipe::mult_miter(4, false)),
        SolveStatus::Unsat
    );
    assert_eq!(
        driver::decide(&satgen::pipe::mult_miter(4, true)),
        SolveStatus::Sat
    );
}

#[test]
fn planted_instances_sat_with_verified_models() {
    for seed in 0..3 {
        let f = satgen::random_ksat::planted_ksat(40, 170, 3, seed);
        match driver::solve(&f, SolverConfig::default(), driver::Limits::default()).outcome {
            gridsat_solver::Outcome::Sat(model) => assert!(f.is_satisfied_by(&model)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }
}

#[test]
fn determinism_same_input_same_stats() {
    let f = satgen::php::php(7, 6);
    let a = driver::solve(&f, SolverConfig::default(), driver::Limits::default());
    let b = driver::solve(&f, SolverConfig::default(), driver::Limits::default());
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.outcome, b.outcome);
}

#[test]
fn empty_and_trivial_formulas() {
    // no clauses: trivially SAT
    let f = Formula::new(3);
    assert_eq!(driver::decide(&f), SolveStatus::Sat);
    // empty clause: UNSAT
    let mut g = Formula::new(1);
    g.push_clause(gridsat_cnf::Clause::empty());
    assert_eq!(driver::decide(&g), SolveStatus::Unsat);
    // contradictory units
    let mut h = Formula::new(1);
    h.add_dimacs_clause([1]);
    h.add_dimacs_clause([-1]);
    assert_eq!(driver::decide(&h), SolveStatus::Unsat);
    // tautological clause only
    let mut t = Formula::new(1);
    t.add_dimacs_clause([1, -1]);
    assert_eq!(driver::decide(&t), SolveStatus::Sat);
    // duplicate literals
    let mut d = Formula::new(2);
    d.add_dimacs_clause([1, 1, 2]);
    d.add_dimacs_clause([-1, -1]);
    d.add_dimacs_clause([-2, -2, -1]);
    assert_eq!(driver::decide(&d), SolveStatus::Sat);
}

#[test]
fn level0_pruning_deletes_satisfied_clauses() {
    let mut f = Formula::new(4);
    f.add_dimacs_clause([1]); // unit: V1 true at level 0
    f.add_dimacs_clause([1, 2, 3]); // satisfied at level 0
    f.add_dimacs_clause([-1, 2, 4]); // not satisfied
    f.add_dimacs_clause([-2, -4]);
    let config = SolverConfig {
        level0_pruning: true,
        ..SolverConfig::default()
    };
    let report = driver::solve(&f, config, driver::Limits::default());
    assert!(report.outcome.is_decided());
    assert!(
        report.stats.pruned >= 1,
        "pruning should delete the satisfied clause"
    );
}

//! Integration test for the Figure 2 reproduction: the split stack
//! transformation and clause reduction, checked end to end.

use gridsat_cnf::{paper, Clause, Lit, Value};
use gridsat_solver::{Solver, SolverConfig};
use gridsat_tests::solve_to_end;

/// Reach the paper's post-conflict stack state.
fn post_conflict_solver() -> Solver {
    let mut s = Solver::new(&paper::fig1_formula(), SolverConfig::default());
    for d in &paper::fig1_decisions()[..5] {
        s.assume_decision(*d).unwrap();
        assert!(s.propagate_manual().is_none());
    }
    s.assume_decision(paper::fig1_decisions()[5]).unwrap();
    let (confl, _) = s.propagate_manual().expect("conflict");
    let a = s.analyze(confl);
    s.learn(&a);
    s
}

#[test]
fn split_promotes_level_one_and_complements_the_decision() {
    let mut a = post_conflict_solver();
    let levels_before = a.decision_level();
    assert_eq!(levels_before, 4);

    let spec = a.split_off().expect("splittable");

    // client A: old level 1 (V10, ~V13) absorbed into level 0
    assert_eq!(a.decision_level(), levels_before - 1);
    assert_eq!(a.var_decision_level(gridsat_cnf::Var(9)), Some(0));
    assert_eq!(a.var_decision_level(gridsat_cnf::Var(12)), Some(0));
    a.check_invariants();

    // client B: level 0 + complement of the first decision
    let lits: Vec<Lit> = spec.assumptions.iter().map(|&(l, _)| l).collect();
    assert_eq!(lits, vec![Lit::from_dimacs(14), Lit::from_dimacs(-10)]);

    // clause reduction: clauses 7, 8, 9 and the learned clause are
    // satisfied at B's level 0 and do not transfer
    assert_eq!(spec.clauses.len(), 6, "10 clauses minus 4 satisfied");

    // clauses transfer unstripped (no false-literal removal), so they
    // stay valid for the original problem
    for c in &spec.clauses {
        let orig = paper::fig1_formula();
        let cn = c.normalized().unwrap();
        assert!(
            orig.clauses()
                .any(|o| Clause::from(o).normalized().unwrap().lits() == cn.lits()),
            "transferred clause {c} must be an original clause, unstripped"
        );
    }
}

#[test]
fn both_halves_solve_and_cover_the_space() {
    let mut a = post_conflict_solver();
    let spec = a.split_off().unwrap();
    let mut b = Solver::from_split(&spec, SolverConfig::default());

    let sa = solve_to_end(&mut a);
    let sb = solve_to_end(&mut b);
    // the fig1 formula is satisfiable; at least one half must find it
    assert!(sa == gridsat_solver::SolveStatus::Sat || sb == gridsat_solver::SolveStatus::Sat);
    for (s, solver) in [(sa, &a), (sb, &b)] {
        if s == gridsat_solver::SolveStatus::Sat {
            let model = solver.model().unwrap();
            assert!(paper::fig1_formula().is_satisfied_by(&model));
        }
    }
}

#[test]
fn b_side_assumption_forces_the_complement() {
    let mut a = post_conflict_solver();
    let spec = a.split_off().unwrap();
    let b = Solver::from_split(&spec, SolverConfig::default());
    if b.status().is_none() {
        assert_eq!(b.lit_value(Lit::from_dimacs(-10)), Value::True);
        assert_eq!(b.var_decision_level(gridsat_cnf::Var(9)), Some(0));
    }
}

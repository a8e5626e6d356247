//! Behavioural tests for the solver's operational surface: bounded
//! stepping, memory pressure, sharing outbox discipline,
//! statistics, and the paper-era configuration knobs.

use gridsat_cnf::{Clause, Formula, Lit};
use gridsat_satgen as satgen;
use gridsat_solver::{driver, SolveStatus, Solver, SolverConfig, SplitSpec, Step};

fn run_to_end(s: &mut Solver) -> SolveStatus {
    loop {
        match s.step(1_000_000) {
            Step::Sat => return SolveStatus::Sat,
            Step::Unsat => return SolveStatus::Unsat,
            _ => {}
        }
    }
}

#[test]
fn step_budget_is_respected_roughly() {
    let f = satgen::php::php(8, 7);
    let mut s = Solver::new(&f, SolverConfig::default());
    let w0 = s.stats().work;
    let r = s.step(1000);
    assert_eq!(r, Step::Running);
    let done = s.stats().work - w0;
    // the budget is a soft target: one extra propagation pass may overshoot
    assert!(done >= 1000, "did {done}");
    assert!(done < 50_000, "overshot wildly: {done}");
}

#[test]
fn stepping_is_resumable_and_terminal_states_are_sticky() {
    let f = satgen::php::php(7, 6);
    let mut s = Solver::new(&f, SolverConfig::default());
    let mut steps = 0;
    loop {
        match s.step(5_000) {
            Step::Running => steps += 1,
            Step::Unsat => break,
            other => panic!("{other:?}"),
        }
        assert!(steps < 10_000);
    }
    assert!(steps > 3, "php(7,6) takes several 5k-quanta");
    assert_eq!(s.status(), Some(SolveStatus::Unsat));
    // stepping after termination stays terminal and does no work
    let w = s.stats().work;
    assert_eq!(s.step(1000), Step::Unsat);
    assert_eq!(s.stats().work, w);
}

#[test]
fn memory_pressure_is_reported_and_search_can_continue() {
    let f = satgen::php::php(9, 8);
    let config = SolverConfig {
        mem_budget: Some(150_000),
        max_learned_factor: 1e18,
        ..SolverConfig::default()
    };
    let mut s = Solver::new(&f, config);
    let mut pressured = false;
    loop {
        match s.step(50_000) {
            Step::MemoryPressure => {
                pressured = true;
                assert!(s.db_bytes() > 150_000);
            }
            Step::Unsat => break,
            Step::Running => {}
            Step::Sat => panic!("php(9,8) is UNSAT"),
        }
    }
    assert!(pressured, "the tiny budget must be exceeded along the way");
}

#[test]
fn reduce_db_frees_memory_and_preserves_answers() {
    let f = satgen::php::php(8, 7);
    let mut s = Solver::new(&f, SolverConfig::default());
    let _ = s.step(300_000);
    let before = s.db_bytes();
    let learned_before = s.num_learned();
    s.reduce_db();
    assert!(s.db_bytes() < before);
    assert!(s.num_learned() < learned_before);
    assert_eq!(run_to_end(&mut s), SolveStatus::Unsat);
    assert!(s.stats().deleted > 0);
}

#[test]
fn outbox_respects_the_share_length_limit() {
    let f = satgen::php::php(8, 7);
    let config = SolverConfig {
        share_len_limit: Some(4),
        ..SolverConfig::default()
    };
    let mut s = Solver::new(&f, config);
    while s.status().is_none() {
        let _ = s.step(50_000);
        for (c, _) in s.take_shared() {
            assert!(c.len() <= 4, "shared clause {c} exceeds the limit");
        }
    }
    assert!(s.stats().shared_out > 0, "php learns some short clauses");
}

#[test]
fn no_sharing_collection_when_disabled() {
    let f = satgen::php::php(8, 7);
    let mut s = Solver::new(&f, SolverConfig::default()); // share_len_limit: None
    while s.status().is_none() {
        let _ = s.step(100_000);
    }
    assert!(s.take_shared().is_empty());
    assert_eq!(s.stats().shared_out, 0);
}

#[test]
fn stats_are_internally_consistent() {
    let f = satgen::random_ksat::random_ksat(60, 255, 3, 5);
    let r = driver::solve(&f, SolverConfig::default(), driver::Limits::default());
    let st = r.stats;
    assert!(st.propagations >= st.decisions);
    assert!(st.learned <= st.conflicts + 1);
    assert!(st.work >= st.propagations);
    assert!(st.peak_db_bytes > 0);
}

#[test]
fn foreign_units_force_assignments_globally() {
    // a shared unit clause must pin the variable at level 0 everywhere
    let mut f = Formula::new(3);
    f.add_dimacs_clause([1, 2, 3]);
    f.add_dimacs_clause([-1, 2]);
    let mut s = Solver::new(&f, SolverConfig::default());
    s.queue_fresh(&[Lit::from_dimacs(-2)]);
    assert_eq!(run_to_end(&mut s), SolveStatus::Sat);
    let m = s.model().unwrap();
    assert!(m.satisfies(Lit::from_dimacs(-2)));
}

#[test]
fn contradictory_foreign_units_refute_the_subproblem() {
    let mut f = Formula::new(2);
    f.add_dimacs_clause([1, 2]);
    let mut s = Solver::new(&f, SolverConfig::default());
    s.queue_fresh(&[Lit::from_dimacs(1)]);
    s.queue_fresh(&[Lit::from_dimacs(-1)]);
    assert_eq!(run_to_end(&mut s), SolveStatus::Unsat);
}

#[test]
fn split_off_refuses_without_decisions() {
    let f = satgen::php::php(6, 5);
    let mut s = Solver::new(&f, SolverConfig::default());
    // fresh solver at level 0
    assert!(!s.can_split());
    assert!(s.split_off().is_none());
}

#[test]
fn split_off_refuses_after_termination() {
    let f = gridsat_cnf::paper::fig1_formula();
    let mut s = Solver::new(&f, SolverConfig::default());
    assert_eq!(run_to_end(&mut s), SolveStatus::Sat);
    assert!(!s.can_split());
}

#[test]
fn repeated_splits_shrink_to_nothing() {
    // splitting over and over eventually exhausts the decision stack
    let f = satgen::php::php(7, 6);
    let mut s = Solver::new(&f, SolverConfig::default());
    let mut halves = Vec::new();
    for _ in 0..200 {
        if s.status().is_some() {
            break;
        }
        if s.can_split() {
            halves.push(s.split_off().unwrap());
        } else {
            let _ = s.step(50);
        }
    }
    // the owner plus every half must jointly refute php(7,6)
    let mut any_sat = run_to_end(&mut s) == SolveStatus::Sat;
    for spec in &halves {
        let mut h = Solver::from_split(spec, SolverConfig::default());
        any_sat |= run_to_end(&mut h) == SolveStatus::Sat;
    }
    assert!(!any_sat);
    assert!(
        halves.len() > 5,
        "expected many splits, got {}",
        halves.len()
    );
}

#[test]
fn subproblem_memory_footprint_reported() {
    let f = satgen::php::php(8, 7);
    let mut s = Solver::new(&f, SolverConfig::default());
    let _ = s.step(100_000);
    if let Some(spec) = s.split_off() {
        assert!(!spec.assumptions.is_empty());
    }
    assert!(s.db_bytes() > 0);
    assert!(s.stats().peak_db_bytes >= s.db_bytes());
}

#[test]
fn vsids_scores_grow_with_clause_additions() {
    let f = satgen::php::php(7, 6);
    let mut s = Solver::new(&f, SolverConfig::default());
    let initial: u64 = (0..f.num_vars() as u32)
        .map(|v| s.vsids_score(Lit::pos(v)) + s.vsids_score(Lit::neg(v)))
        .sum();
    let _ = s.step(100_000);
    let later: u64 = (0..f.num_vars() as u32)
        .map(|v| s.vsids_score(Lit::pos(v)) + s.vsids_score(Lit::neg(v)))
        .sum();
    assert!(later > initial, "learning bumps literal counters");
}

#[test]
fn level0_assignment_export_matches_assumptions() {
    let f = satgen::php::php(7, 6);
    let mut a = Solver::new(&f, SolverConfig::default());
    while !a.can_split() && a.status().is_none() {
        let _ = a.step(10);
    }
    let spec = a.split_off().unwrap();
    let b = Solver::from_split(&spec, SolverConfig::default());
    let level0 = b.level0_assignment();
    // every assumption appears in B's level 0 (implications may add more)
    for (l, _) in &spec.assumptions {
        assert!(
            level0.iter().any(|(bl, _)| bl == l),
            "assumption {l} missing from level 0"
        );
    }
}

/// `f` solved with `assumptions` pinned at level 0, as a split's
/// receiver pins its guiding path: a GridSAT subproblem *is* the original
/// formula solved under its split assumptions.
fn solve_under(f: &Formula, assumptions: &[Lit]) -> driver::Report {
    let spec = SplitSpec {
        num_vars: f.num_vars(),
        assumptions: assumptions.iter().map(|&l| (l, false)).collect(),
        clauses: f.clauses().map(Clause::from).collect(),
    };
    let mut solver = Solver::from_split(&spec, SolverConfig::default());
    driver::run(&mut solver, driver::Limits::default())
}

#[test]
fn assumption_branches_partition_like_a_split() {
    // phi is SAT; under x1 it may or may not be, but the disjunction of
    // the two assumption branches must agree with the unassumed answer
    for seed in 0..6u64 {
        let f = satgen::random_ksat::random_ksat(25, 105, 3, seed);
        let whole = driver::solve(&f, SolverConfig::default(), driver::Limits::default());
        let x1 = Lit::from_dimacs(1);
        let pos = solve_under(&f, &[x1]);
        let neg = solve_under(&f, &[!x1]);
        let whole_sat = matches!(whole.outcome, driver::Outcome::Sat(_));
        let branch_sat = matches!(pos.outcome, driver::Outcome::Sat(_))
            || matches!(neg.outcome, driver::Outcome::Sat(_));
        assert_eq!(whole_sat, branch_sat, "seed {seed}");
    }
}

#[test]
fn assumption_models_satisfy_the_assumptions() {
    let f = satgen::random_ksat::planted_ksat(30, 120, 3, 9);
    let a = Lit::from_dimacs(5);
    let r = solve_under(&f, &[a]);
    if let driver::Outcome::Sat(model) = r.outcome {
        assert!(model.satisfies(a));
        assert!(f.is_satisfied_by(&model));
    }
}

#[test]
fn contradictory_assumptions_are_unsat_immediately() {
    let f = satgen::php::php(5, 5); // SAT instance
    let x = Lit::from_dimacs(1);
    let r = solve_under(&f, &[x, !x]);
    assert_eq!(r.outcome, driver::Outcome::Unsat);
    assert_eq!(r.stats.conflicts, 0, "refuted at construction");
}

#[test]
fn splitting_relieves_memory_via_level0_pruning() {
    // Paper Section 4.2: "a client that runs into [memory trouble] might
    // be relieved when it splits ... unnecessary clauses will be
    // discarded and therefore more memory will be available." After a
    // split absorbs the first decision level into level 0, the pruning
    // pass deletes clauses newly satisfied there.
    let f = satgen::php::php(9, 8);
    let config = SolverConfig {
        level0_pruning: true,
        ..SolverConfig::default()
    };
    let mut s = Solver::new(&f, config);
    let _ = s.step(200_000);
    if !s.can_split() {
        let _ = s.step(200_000);
    }
    let pruned_before = s.stats().pruned;
    let _ = s.split_off().expect("splittable");
    // continue briefly so the level-0 pruning pass runs
    let _ = s.step(50_000);
    assert!(
        s.stats().pruned >= pruned_before,
        "pruning counter never decreases"
    );
    s.check_invariants();
}

#[test]
fn antecedent_clauses_survive_reduction() {
    // Paper Section 4.2: "a sequential solver cannot delete antecedent
    // clauses" — reduce_db must never delete a locked clause.
    let f = satgen::php::php(8, 7);
    let mut s = Solver::new(&f, SolverConfig::default());
    let _ = s.step(200_000);
    s.reduce_db();
    // every assigned implied variable still has a live antecedent:
    // check_invariants dereferences watches; a deleted antecedent would
    // panic the db on next conflict analysis. Run to completion to prove it.
    assert_eq!(run_to_end(&mut s), SolveStatus::Unsat);
}

#[test]
fn model_enumeration_counts_match_brute_force() {
    use std::collections::BTreeSet;
    for seed in 0..6u64 {
        let f = satgen::random_ksat::random_ksat(8, 20, 3, seed);
        // brute-force model count
        let mut expected = 0usize;
        for mask in 0u32..(1 << 8) {
            let mut a = f.empty_assignment();
            for v in 0..8 {
                a.set(
                    (v as u32).into(),
                    gridsat_cnf::Value::from_bool(mask >> v & 1 == 1),
                );
            }
            if f.is_satisfied_by(&a) {
                expected += 1;
            }
        }
        let models = driver::enumerate_models(&f, 1 << 9);
        assert_eq!(models.len(), expected, "seed {seed}");
        // all models distinct and valid
        let set: BTreeSet<Vec<gridsat_cnf::Lit>> = models.iter().map(|m| m.to_lits()).collect();
        assert_eq!(set.len(), models.len());
        for m in &models {
            assert!(f.is_satisfied_by(m));
        }
    }
}

#[test]
fn enumeration_respects_the_limit() {
    let f = Formula::new(4); // empty formula: 16 models
    let models = driver::enumerate_models(&f, 5);
    assert_eq!(models.len(), 5);
}

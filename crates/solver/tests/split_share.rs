//! Splitting and clause-sharing soundness.
//!
//! These are the properties GridSAT's distributed correctness rests on:
//!
//! 1. a split partitions the search space — the original instance is SAT
//!    iff some side of the split is SAT;
//! 2. every clause a client offers for sharing is logically implied by the
//!    *original* formula (so broadcasting it to every peer is sound even
//!    though peers work under different split assumptions);
//! 3. merging foreign clauses follows the paper's four cases.

use gridsat_cnf::rng::Rng;
use gridsat_cnf::{Clause, Formula, Lit, Value};
use gridsat_satgen as satgen;
use gridsat_solver::{SolveStatus, Solver, SolverConfig, SplitSpec, Step};

fn brute_force(f: &Formula) -> bool {
    let n = f.num_vars();
    assert!(n <= 22);
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

/// Is `clause` implied by `f`? (f AND NOT clause must be UNSAT.)
fn implied_by(f: &Formula, clause: &Clause) -> bool {
    let mut g = f.clone();
    for l in clause {
        g.add_clause([!l]);
    }
    !brute_force(&g)
}

/// Drive a solver until it can split, then split. Returns `None` if it
/// solves before reaching a decision.
fn split_when_possible(s: &mut Solver) -> Option<SplitSpec> {
    for _ in 0..10_000 {
        if s.can_split() {
            return s.split_off();
        }
        match s.step(1) {
            Step::Running => {}
            _ => return None,
        }
    }
    panic!("no split after many steps");
}

fn solve_solver(s: &mut Solver) -> SolveStatus {
    loop {
        match s.step(100_000) {
            Step::Sat => return SolveStatus::Sat,
            Step::Unsat => return SolveStatus::Unsat,
            Step::Running | Step::MemoryPressure => {}
        }
    }
}

/// SAT(original) == SAT(left half) OR SAT(right half), recursively.
#[test]
fn split_partitions_the_search_space() {
    for seed in 0..60 {
        let mut rng = Rng::seed_from_u64(seed);
        let n = rng.range_usize(4..12);
        let density = rng.range_usize(3..6);
        let gen_seed = rng.next_u64();
        let f = satgen::random_ksat::random_ksat(n, n * density, 3, gen_seed);
        let expected = brute_force(&f);

        let mut left = Solver::new(&f, SolverConfig::default());
        let status = match split_when_possible(&mut left) {
            None => solve_solver(&mut left),
            Some(spec) => {
                let mut right = Solver::from_split(&spec, SolverConfig::default());
                let sl = solve_solver(&mut left);
                let sr = solve_solver(&mut right);
                if sl == SolveStatus::Sat {
                    assert!(
                        f.is_satisfied_by(&left.model().unwrap()),
                        "left model must satisfy the ORIGINAL formula, case seed {seed}"
                    );
                }
                if sr == SolveStatus::Sat {
                    assert!(
                        f.is_satisfied_by(&right.model().unwrap()),
                        "right model must satisfy the ORIGINAL formula, case seed {seed}"
                    );
                }
                if sl == SolveStatus::Sat || sr == SolveStatus::Sat {
                    SolveStatus::Sat
                } else {
                    SolveStatus::Unsat
                }
            }
        };
        assert_eq!(status == SolveStatus::Sat, expected, "case seed {seed}");
    }
}

/// Clauses offered for sharing are implied by the original formula,
/// even when learned under split assumptions.
#[test]
fn shared_clauses_are_globally_valid() {
    for seed in 0..60 {
        let mut rng = Rng::seed_from_u64(seed);
        let n = rng.range_usize(4..10);
        let gen_seed = rng.next_u64();
        let f = satgen::random_ksat::random_ksat(n, n * 5, 3, gen_seed);
        let config = SolverConfig {
            share_len_limit: Some(10),
            ..SolverConfig::default()
        };
        let mut a = Solver::new(&f, config.clone());
        // split twice to create genuinely assumption-laden clients
        if let Some(spec) = split_when_possible(&mut a) {
            let mut b = Solver::from_split(&spec, config.clone());
            let spec2 = split_when_possible(&mut b);
            let mut solvers = vec![a, b];
            if let Some(s2) = spec2 {
                solvers.push(Solver::from_split(&s2, config.clone()));
            }
            for s in &mut solvers {
                let _ = s.step(20_000);
                for (clause, fp) in s.take_shared() {
                    assert!(
                        implied_by(&f, &clause),
                        "shared clause {clause} is not implied by the original formula, case seed {seed}"
                    );
                    assert_eq!(fp, clause.fingerprint(), "case seed {seed}");
                }
            }
        }
    }
}

/// Splitting repeatedly and solving every leaf gives the right answer.
#[test]
fn recursive_splits_cover_everything() {
    for seed in 0..60 {
        let mut rng = Rng::seed_from_u64(seed);
        let n = rng.range_usize(4..10);
        let gen_seed = rng.next_u64();
        let f = satgen::random_ksat::random_ksat(n, (n as f64 * 4.3) as usize, 3, gen_seed);
        let expected = brute_force(&f);

        let mut frontier = vec![Solver::new(&f, SolverConfig::default())];
        let mut any_sat = false;
        let mut splits = 0;
        while let Some(mut s) = frontier.pop() {
            if splits < 7 {
                if let Some(spec) = split_when_possible(&mut s) {
                    splits += 1;
                    frontier.push(Solver::from_split(&spec, SolverConfig::default()));
                    frontier.push(s);
                    continue;
                }
            }
            if solve_solver(&mut s) == SolveStatus::Sat {
                assert!(f.is_satisfied_by(&s.model().unwrap()), "case seed {seed}");
                any_sat = true;
            }
        }
        assert_eq!(any_sat, expected, "case seed {seed}");
    }
}

/// Exchanging shared clauses between split halves never changes the
/// answer — through the unbounded inbox merged whole, and through a
/// fixed-size one merged a slice per level-0 visit, where a verdict can
/// arrive with clauses still queued (or evicted unmerged).
#[test]
fn sharing_preserves_answers() {
    let mut verdicts_over_a_residue = 0;
    for (inbox_lits, budget) in [(None, 200), (Some(12), 5)] {
        for seed in 0..60 {
            let mut rng = Rng::seed_from_u64(seed);
            let n = rng.range_usize(4..10);
            let gen_seed = rng.next_u64();
            let f = satgen::random_ksat::random_ksat(n, n * 4, 3, gen_seed);
            let expected = brute_force(&f);
            let config = SolverConfig {
                share_len_limit: Some(10),
                inbox_lits,
                ..SolverConfig::default()
            };
            let mut a = Solver::new(&f, config.clone());
            let Some(spec) = split_when_possible(&mut a) else {
                continue;
            };
            let mut b = Solver::from_split(&spec, config);

            let mut sat = None;
            for _round in 0..10_000 {
                let mut done = true;
                for s in [&mut a, &mut b] {
                    match s.step(budget) {
                        Step::Sat => {
                            sat = Some(s.model().unwrap());
                            done = true;
                        }
                        Step::Running => done = false,
                        Step::Unsat | Step::MemoryPressure => {}
                    }
                    if sat.is_some() {
                        break;
                    }
                }
                if sat.is_some() {
                    break;
                }
                // exchange clauses both ways
                for (c, _) in a.take_shared() {
                    b.queue_fresh(c.lits());
                }
                for (c, _) in b.take_shared() {
                    a.queue_fresh(c.lits());
                }
                if done
                    && a.status() == Some(SolveStatus::Unsat)
                    && b.status() == Some(SolveStatus::Unsat)
                {
                    break;
                }
            }
            for s in [&a, &b] {
                let waiting = s.pending_foreign() as u64 + s.stats().merge_dropped;
                let sliced = inbox_lits.is_some() && s.status().is_some();
                verdicts_over_a_residue += u64::from(sliced && waiting > 0);
                assert!(inbox_lits.is_some() || s.stats().merge_dropped == 0);
            }
            match sat {
                Some(model) => {
                    assert!(expected, "case seed {seed}");
                    assert!(f.is_satisfied_by(&model), "case seed {seed}");
                }
                None => {
                    assert_eq!(a.status(), Some(SolveStatus::Unsat), "case seed {seed}");
                    assert_eq!(b.status(), Some(SolveStatus::Unsat), "case seed {seed}");
                    assert!(!expected, "case seed {seed}");
                }
            }
        }
    }
    assert!(verdicts_over_a_residue > 10, "{verdicts_over_a_residue}");
}

// ---------------------------------------------------------------------
// Directed merge-case tests (paper Section 3.2's four cases)
// ---------------------------------------------------------------------

fn lit(d: i64) -> Lit {
    Lit::from_dimacs(d)
}

/// A solver at level 0 with V1 true and V2 false pinned.
fn fixture() -> Solver {
    let mut f = Formula::new(5);
    f.add_dimacs_clause([1]);
    f.add_dimacs_clause([-2]);
    f.add_dimacs_clause([3, 4, 5]);
    Solver::new(&f, SolverConfig::default())
}

#[test]
fn merge_case_satisfied_is_discarded() {
    let mut s = fixture();
    s.queue_fresh(&[lit(1), lit(3)]);
    let _ = s.step(100);
    assert_eq!(s.stats().merge_discarded, 1);
    assert_eq!(s.stats().merged_in, 0);
}

#[test]
fn merge_case_implication() {
    let mut s = fixture();
    // (V2 + V3): V2 is false, so V3 is implied
    s.queue_fresh(&[lit(2), lit(3)]);
    let _ = s.step(100);
    assert_eq!(s.stats().merge_implications, 1);
    assert_eq!(s.var_value(gridsat_cnf::Var(2)), Value::True);
}

#[test]
fn merge_case_added() {
    let mut s = fixture();
    let before = s.num_learned();
    s.queue_fresh(&[lit(3), lit(4)]);
    let _ = s.step(100);
    assert_eq!(s.stats().merged_in, 1);
    assert_eq!(s.stats().merge_implications, 0);
    assert_eq!(s.num_learned(), before + 1);
}

#[test]
fn merge_case_conflict_is_unsat() {
    let mut s = fixture();
    // (~V1 + V2): both literals false at level 0
    s.queue_fresh(&[lit(-1), lit(2)]);
    let step = s.step(100);
    assert_eq!(step, Step::Unsat);
    assert_eq!(s.status(), Some(SolveStatus::Unsat));
}

#[test]
fn merge_tautology_is_skipped() {
    let mut s = fixture();
    s.queue_fresh(&[lit(3), lit(-3)]);
    let _ = s.step(100);
    assert_eq!(s.stats().merged_in, 0);
    assert_eq!(s.stats().merge_discarded, 0);
}

#[test]
fn merge_waits_until_level_zero() {
    let f = satgen::random_ksat::random_ksat(12, 30, 3, 3);
    let mut s = Solver::new(&f, SolverConfig::default());
    // get above level 0
    while s.decision_level() == 0 && s.status().is_none() {
        let _ = s.step(1);
    }
    if s.status().is_some() {
        return; // solved instantly; nothing to test
    }
    s.queue_fresh(&[lit(1), lit(2)]);
    assert_eq!(
        s.pending_foreign(),
        1,
        "clause parked until back at level 0"
    );
}

#[test]
fn split_spec_roundtrips_and_reports_size() {
    let f = satgen::php::php(5, 4);
    let mut s = Solver::new(&f, SolverConfig::default());
    let spec = split_when_possible(&mut s).expect("php(5,4) needs decisions");
    assert!(!spec.assumptions.is_empty());
}

#[test]
fn split_assumption_complement_is_respected() {
    let f = satgen::random_ksat::random_ksat(10, 30, 3, 99);
    let mut s = Solver::new(&f, SolverConfig::default());
    let Some(spec) = split_when_possible(&mut s) else {
        return;
    };
    // the last assumption is the complemented first decision
    let (neg_d1, global) = *spec.assumptions.last().unwrap();
    assert!(!global);
    let r = Solver::from_split(&spec, SolverConfig::default());
    if r.status().is_none() {
        assert_eq!(r.lit_value(neg_d1), Value::True);
    }
    // the splitter keeps its decision, now absorbed at level 0
    assert_eq!(s.lit_value(!neg_d1), Value::True);
    assert_eq!(s.var_decision_level(neg_d1.var()), Some(0));
    s.check_invariants();
}

#[test]
fn split_drops_satisfied_clauses_only() {
    // Paper Fig. 2 semantics: the spec's clause list excludes exactly the
    // clauses satisfied under the other side's level-0 assignment, and
    // clauses are transferred unstripped.
    let f = gridsat_cnf::paper::fig1_formula();
    let mut s = Solver::new(&f, SolverConfig::default());
    s.assume_decision(lit(10)).unwrap(); // V10, as in the paper
    assert!(s.propagate_manual().is_none());
    let spec = s.split_off().unwrap();

    // other side: V14 (level 0) + ~V10
    let lits: Vec<Lit> = spec.assumptions.iter().map(|&(l, _)| l).collect();
    assert_eq!(lits, vec![lit(14), lit(-10)]);

    // clauses 7 (contains ~V10), 8 (~V10) and 9 (V14) are satisfied at the
    // other side; 6 others transfer, full length preserved
    assert_eq!(spec.clauses.len(), 6);
    for c in &spec.clauses {
        let orig = f
            .clauses()
            .map(Clause::from)
            .find(|o| o.normalized().unwrap().lits() == c.lits())
            .unwrap_or_else(|| panic!("clause {c} not found unstripped in the original"));
        assert_eq!(orig.normalized().unwrap().len(), c.len());
    }
}

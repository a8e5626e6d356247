//! End-to-end DRAT proof tests: every UNSAT answer the solver produces on
//! real instances is backed by a trace the independent RUP checker
//! accepts; corrupted traces are rejected.

use gridsat_cnf::rng::Rng;
use gridsat_satgen as satgen;
use gridsat_solver::{proof, Solver, SolverConfig, Step};

fn prove_unsat(f: &gridsat_cnf::Formula, config: SolverConfig) -> proof::Proof {
    let mut s = Solver::new(f, config);
    s.enable_proof();
    loop {
        match s.step(200_000) {
            Step::Unsat => break,
            Step::Sat => panic!("instance is UNSAT"),
            _ => {}
        }
    }
    s.take_proof().expect("proof recorded")
}

#[test]
fn php_proofs_check() {
    for holes in 3..=6 {
        let f = satgen::php::php(holes + 1, holes);
        let p = prove_unsat(&f, SolverConfig::default());
        assert!(p.ends_with_empty_clause());
        proof::check(&f, &p).unwrap_or_else(|e| panic!("php({holes}): {e}"));
    }
}

#[test]
fn urquhart_proof_checks() {
    let f = satgen::xor::urquhart(8, 3);
    let p = prove_unsat(&f, SolverConfig::default());
    proof::check(&f, &p).expect("urquhart proof");
    assert!(p.additions() > 10, "a real refutation has many lemmas");
}

#[test]
fn parity_proof_checks() {
    let f = satgen::xor::parity(24, 20, 4, false, 7);
    let p = prove_unsat(&f, SolverConfig::default());
    proof::check(&f, &p).expect("parity proof");
}

#[test]
fn proofs_check_with_deletion_heavy_configs() {
    // pruning + forced database reductions exercise Delete lines
    let config = SolverConfig {
        level0_pruning: true,
        ..SolverConfig::default()
    };
    let f = satgen::php::php(8, 7);
    let mut s = Solver::new(&f, config);
    s.enable_proof();
    loop {
        match s.step(20_000) {
            Step::Unsat => break,
            Step::Sat => panic!("UNSAT instance"),
            _ => s.reduce_db(), // force deletions between quanta
        }
    }
    let p = s.take_proof().expect("proof");
    assert!(
        p.steps
            .iter()
            .any(|st| matches!(st, proof::ProofStep::Delete(_))),
        "expected deletion lines"
    );
    proof::check(&f, &p).expect("proof with deletions");
}

#[test]
fn corrupting_a_proof_makes_it_fail() {
    let f = satgen::php::php(5, 4);
    let p = prove_unsat(&f, SolverConfig::default());
    proof::check(&f, &p).expect("baseline");

    // drop the first addition: later steps lose their support or the
    // empty clause disappears — either way the checker objects
    let mut broken = p.clone();
    let first_add = broken
        .steps
        .iter()
        .position(|s| matches!(s, proof::ProofStep::Add(_)))
        .unwrap();
    broken.steps.remove(first_add);
    // also flip a literal in the next addition if one exists, to make the
    // corruption definitely material
    if let Some(proof::ProofStep::Add(lits)) = broken
        .steps
        .iter_mut()
        .find(|s| matches!(s, proof::ProofStep::Add(l) if !l.is_empty()))
    {
        lits[0] = !lits[0];
    }
    assert!(proof::check(&f, &broken).is_err());
}

#[test]
fn foreign_clauses_void_the_local_proof() {
    let f = satgen::php::php(5, 4);
    let mut s = Solver::new(&f, SolverConfig::default());
    s.enable_proof();
    s.queue_fresh(&[gridsat_cnf::Lit::pos(0)]);
    loop {
        match s.step(100_000) {
            Step::Unsat | Step::Sat => break,
            _ => {}
        }
    }
    assert!(
        s.take_proof().is_none(),
        "tainted proof must not be returned"
    );
}

#[test]
fn drat_text_export_is_wellformed() {
    let f = satgen::php::php(5, 4);
    let p = prove_unsat(&f, SolverConfig::default());
    let text = p.to_drat();
    assert!(text.lines().count() == p.steps.len());
    assert!(text.lines().all(|l| l.ends_with(" 0") || l == "0"));
}

/// Every UNSAT random instance yields a checkable proof.
#[test]
fn random_unsat_proofs_check() {
    for seed in 0..40 {
        let mut rng = Rng::seed_from_u64(seed);
        let n = rng.range_usize(5..12);
        let gen_seed = rng.next_u64();
        let f = satgen::random_ksat::random_ksat(n, n * 6, 3, gen_seed);
        let mut s = Solver::new(&f, SolverConfig::default());
        s.enable_proof();
        let unsat = loop {
            match s.step(200_000) {
                Step::Unsat => break true,
                Step::Sat => break false,
                _ => {}
            }
        };
        if unsat {
            let p = s.take_proof().expect("proof");
            assert!(proof::check(&f, &p).is_ok(), "case seed {seed}");
        }
    }
}

#[test]
fn pruning_of_original_units_does_not_break_proofs() {
    // an UNSAT instance with original unit clauses: pruning deletes the
    // satisfied units from the solver's database, but the proof trace must
    // keep them live so later RUP steps that rely on them still check
    let mut f = satgen::php::php(5, 4);
    f.add_dimacs_clause([1]); // original unit, satisfied at level 0
    f.add_dimacs_clause([2]);
    let config = SolverConfig {
        level0_pruning: true,
        ..SolverConfig::default()
    };
    let p = prove_unsat(&f, config);
    proof::check(&f, &p).expect("proof with pruned units");
}

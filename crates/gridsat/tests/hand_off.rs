//! A cube hand-off without heap clauses is the same hand-off.
//!
//! The donor streams the half it gives away — or, migrating, the whole
//! subproblem ([`SpecFrame::export`]) — from its clause arena into the
//! spec encoder ([`SpecFrame::split_off`]), and the thief walks the
//! frame straight into its solver's arena ([`SpecFrame::load`]). These
//! tests hold both against the
//! `SplitSpec` path they replace — [`Solver::split_off`] sealed with
//! [`SpecFrame::seal`], [`SpecFrame::open`] loaded with
//! [`Solver::from_split`] — on the bytes sent and on every counter,
//! clause and score a later search can see.

use gridsat::wire::SpecFrame;
use gridsat_cnf::rng::Rng;
use gridsat_cnf::{Clause, Lit, Var};
use gridsat_satgen::random_ksat::random_ksat;
use gridsat_solver::{Solver, SolverConfig, SplitSpec, Step};

/// The thief both ways: loaded from the frame, and from the `SplitSpec`
/// the same frame opens to. They must load alike, into arenas of the same
/// size, and then search alike, to the same verdict.
fn assert_thieves_agree(frame: &SpecFrame, config: &SolverConfig, what: &str) {
    let mut lean = frame.load(config.clone()).expect("clean frame");
    let spec = frame.open().expect("clean frame");
    let mut heavy = Solver::from_split(&spec, config.clone());
    lean.check_invariants();
    assert_eq!(lean.loaded_state(), heavy.loaded_state(), "{what}: loaded");
    assert_eq!(
        lean.arena_capacity(),
        heavy.arena_capacity(),
        "{what}: arena"
    );
    let verdict = lean.step(u64::MAX);
    assert_eq!(verdict, heavy.step(u64::MAX), "{what}: verdict");
    assert_ne!(verdict, Step::Running, "{what}");
    assert_eq!(lean.stats(), heavy.stats(), "{what}: search");
    assert_eq!(lean.model(), heavy.model(), "{what}: model");
}

/// Twin donors driven through the same seeded schedule — search steps,
/// forced reductions and collections, foreign clauses merged at level
/// 0 — split at the same moments, one by `split_off` and a sealed
/// `SplitSpec`, the other by streaming its arena into the frame. The
/// frames must be the same bytes, and the donors must stay twins. After
/// every round the streamed export of the whole subproblem
/// ([`SpecFrame::export`]) must be the sealed `SplitSpec` of level 0 and
/// every live clause, byte for byte, and leave the donor as it was.
#[test]
fn a_streamed_split_is_the_sealed_split_off_byte_for_byte() {
    let (mut splits, mut gcs, mut reductions, mut merged) = (0u64, 0u64, 0u64, 0u64);
    let mut exports = 0u64;
    for seed in 0..60u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let n = rng.range_usize(60..120);
        let f = random_ksat(n, n * 42 / 10, 3, seed);
        let config = SolverConfig::default();
        let mut heavy = Solver::new(&f, config.clone());
        let mut lean = Solver::new(&f, config.clone());
        for round in 0..60 {
            let what = format!("seed {seed} round {round}");
            match rng.range_u32(0..10) {
                0..=4 => {
                    let budget = rng.range_u32(20..400) as u64;
                    assert_eq!(heavy.step(budget), lean.step(budget), "{what}");
                }
                5 => {
                    heavy.force_gc();
                    lean.force_gc();
                    gcs += 1;
                }
                6 => {
                    heavy.reduce_db();
                    lean.reduce_db();
                    reductions += 1;
                }
                7 => {
                    // an input clause comes back as a peer's share: merged
                    // on the next visit to level 0
                    let c = f.clause(rng.range_usize(0..f.num_clauses()));
                    heavy.queue_fresh(c.lits());
                    lean.queue_fresh(c.lits());
                }
                _ => {
                    if !heavy.can_split() {
                        assert!(!lean.can_split(), "{what}");
                        continue;
                    }
                    let spec = heavy.split_off().expect("can split");
                    let (frame, assumptions) = SpecFrame::split_off(&mut lean).expect("twin");
                    assert_eq!(frame, SpecFrame::seal(&spec), "{what}: frame bytes");
                    assert_eq!(assumptions, spec.assumptions, "{what}");
                    assert_thieves_agree(&frame, &config, &what);
                    splits += 1;
                }
            }
            // the whole subproblem, as a migration or a retiring standby
            // sends it: streamed from the arena, it is the sealed export
            let export = SplitSpec {
                num_vars: heavy.num_vars(),
                assumptions: heavy.level0_assignment(),
                clauses: heavy.export_clauses(),
            };
            assert_eq!(
                SpecFrame::export(&lean),
                SpecFrame::seal(&export),
                "{what}: export bytes"
            );
            exports += 1;
            lean.check_invariants();
            assert_eq!(heavy.stats(), lean.stats(), "{what}");
            assert_eq!(heavy.loaded_state(), lean.loaded_state(), "{what}");
            if heavy.status().is_some() {
                break;
            }
        }
        let s = heavy.stats();
        merged += s.merged_in + s.merge_discarded;
    }
    assert!(
        splits > 100 && gcs > 50 && reductions > 50 && merged > 50 && exports > 1000,
        "{splits} / {gcs} / {reductions} / {merged} / {exports}"
    );
}

/// A clause as a peer or a generator may send one: ascending, shuffled,
/// with repeated literals, a tautology, a unit, now and then empty.
fn arbitrary_clause(rng: &mut Rng, num_vars: usize) -> Clause {
    let lit = |rng: &mut Rng| Lit::new(Var(rng.range_u32(0..num_vars as u32)), rng.next_bool());
    let len = match rng.range_u32(0..20) {
        0 => 0,
        1..=4 => 1,
        _ => rng.range_usize(2..6),
    };
    let mut lits: Vec<Lit> = (0..len).map(|_| lit(rng)).collect();
    match rng.range_u32(0..3) {
        0 => {}
        1 => lits.sort_unstable(),
        _ => {
            lits.sort_unstable();
            lits.dedup();
        }
    }
    Clause::new(lits)
}

/// Every shape of spec the loader special-cases, sealed and loaded both
/// ways: the thief loaded from the frame and the `SplitSpec` thief are
/// one solver.
#[test]
fn a_thief_loaded_from_the_frame_is_the_thief_from_split_spec() {
    let mut rng = Rng::seed_from_u64(28);
    for case in 0..2000 {
        let num_vars = rng.range_usize(1..13);
        let spec = SplitSpec {
            num_vars,
            assumptions: (0..rng.range_usize(0..3))
                .map(|_| {
                    let var = Var(rng.range_u32(0..num_vars as u32));
                    (Lit::new(var, rng.next_bool()), rng.next_bool())
                })
                .collect(),
            clauses: (0..rng.range_usize(0..24))
                .map(|_| arbitrary_clause(&mut rng, num_vars))
                .collect(),
        };
        let frame = SpecFrame::seal(&spec);
        assert_eq!(frame.open().as_ref(), Ok(&spec), "case {case}");
        assert_thieves_agree(&frame, &SolverConfig::default(), &format!("case {case}"));
    }
}

//! Invariant fuzzing: drive the solver through randomized interleavings
//! of stepping, splitting, foreign-clause merging and database reduction,
//! checking the internal invariants after every operation.

use gridsat_cnf::rng::Rng;
use gridsat_cnf::Lit;
use gridsat_satgen as satgen;
use gridsat_solver::{SolveStatus, Solver, SolverConfig, Step};

#[derive(Debug)]
enum Op {
    Step(u64),
    Split,
    Reduce,
    Foreign(u32),
}

/// Steps four times in seven; splits, reductions and foreign clauses (on
/// a variable below `n_vars`) once each.
fn arb_op(rng: &mut Rng, n_vars: u32) -> Op {
    match rng.range_u32(0..7) {
        0..=3 => Op::Step(u64::from(rng.range_u32(1..2000))),
        4 => Op::Split,
        5 => Op::Reduce,
        _ => Op::Foreign(rng.range_u32(0..n_vars)),
    }
}

/// The invariant checks panic inside the solver, where no message can
/// carry the case seed: this prints it while such a panic unwinds.
struct CaseSeed(u64);

impl Drop for CaseSeed {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("case seed {}", self.0);
        }
    }
}

/// Random operation sequences never violate the solver's invariants,
/// and all produced halves jointly agree with ground truth.
#[test]
fn random_interleavings_keep_invariants() {
    for seed in 0..40 {
        let _case = CaseSeed(seed);
        let mut rng = Rng::seed_from_u64(seed);
        let gen_seed = rng.next_u64();
        let n = rng.range_usize(8..16);
        let ops: Vec<Op> = (0..rng.range_usize(1..30))
            .map(|_| arb_op(&mut rng, n as u32))
            .collect();
        let f = satgen::random_ksat::random_ksat(n, (n as f64 * 4.3) as usize, 3, gen_seed);
        let truth = {
            // ground truth from a clean solve
            gridsat_solver::driver::decide(&f)
        };

        let mut s = Solver::new(&f, SolverConfig::default());
        let mut halves = Vec::new();
        for op in &ops {
            if s.status().is_some() {
                break;
            }
            match op {
                Op::Step(q) => {
                    let _ = s.step(*q);
                }
                Op::Split => {
                    if let Some(spec) = s.split_off() {
                        halves.push(spec);
                    }
                }
                Op::Reduce => s.reduce_db(),
                Op::Foreign(v) => {
                    // only share clauses implied by the formula: a clause
                    // containing some var twice with both signs is a
                    // tautology, trivially sound to merge
                    s.queue_fresh(&[Lit::pos(*v), Lit::neg(*v)]);
                }
            }
            s.check_invariants();
        }

        // finish everything and cross-check the partition answer
        let mut any_sat = finish(&mut s) == SolveStatus::Sat;
        for spec in &halves {
            let mut h = Solver::from_split(spec, SolverConfig::default());
            any_sat |= finish(&mut h) == SolveStatus::Sat;
        }
        assert_eq!(any_sat, truth == SolveStatus::Sat);
    }
}

fn finish(s: &mut Solver) -> SolveStatus {
    loop {
        match s.step(1_000_000) {
            Step::Sat => return SolveStatus::Sat,
            Step::Unsat => return SolveStatus::Unsat,
            _ => {}
        }
    }
}

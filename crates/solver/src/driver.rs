//! Sequential solving driver: the "zChaff on the fastest dedicated
//! machine" baseline of the paper's evaluation.
//!
//! Runs the CDCL core to completion under *work* and *memory* limits,
//! mirroring the paper's three sequential outcomes: solved, `TIME_OUT`
//! (the 6000/12000/18000-second caps), and `MEM_OUT` (the learned-clause
//! database overflows memory and the solver "cannot make any further
//! progress").
//!
//! The memory limit is judged against the solver's *model bytes* (live
//! clauses only — see the `ClauseDb` module docs), so transient arena
//! garbage awaiting the relocating collection never tips a run into
//! `MEM_OUT`.

use crate::{SolveStatus, Solver, SolverConfig, Stats, Step};
use gridsat_cnf::{Assignment, Formula};

/// Outcome of a sequential run.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Satisfiable, with the model found.
    Sat(Assignment),
    /// Unsatisfiable.
    Unsat,
    /// Work limit exhausted before an answer.
    TimeOut,
    /// Memory budget exceeded and database reduction could not recover.
    MemOut,
}

impl Outcome {
    /// Paper-style table cell for this outcome.
    pub fn table_cell(&self) -> String {
        match self {
            Outcome::Sat(_) => "SAT".into(),
            Outcome::Unsat => "UNSAT".into(),
            Outcome::TimeOut => "TIME_OUT".into(),
            Outcome::MemOut => "MEM_OUT".into(),
        }
    }

    /// `true` for SAT/UNSAT (an actual answer).
    pub fn is_decided(&self) -> bool {
        matches!(self, Outcome::Sat(_) | Outcome::Unsat)
    }
}

/// A finished sequential run: outcome plus statistics.
#[derive(Clone, Debug)]
pub struct Report {
    pub outcome: Outcome,
    pub stats: Stats,
}

/// Limits for a sequential run.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Total work-unit budget (the simulator's time proxy); `None` = no cap.
    pub max_work: Option<u64>,
    /// Work units per [`Solver::step`] call.
    pub step_quantum: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_work: None,
            step_quantum: 100_000,
        }
    }
}

impl Limits {
    /// A work cap expressed directly.
    pub fn with_max_work(work: u64) -> Limits {
        Limits {
            max_work: Some(work),
            ..Limits::default()
        }
    }
}

/// Solve a formula sequentially under the given configuration and limits.
///
/// A [`Step::MemoryPressure`] report from the core is terminal here
/// (`MEM_OUT`): a sequential solver has nowhere to offload its database —
/// exactly the failure mode the paper's Table 1 records for zChaff.
pub fn solve(formula: &Formula, config: SolverConfig, limits: Limits) -> Report {
    let mut solver = Solver::new(formula, config);
    run(&mut solver, limits)
}

/// Drive an existing solver to completion under limits.
pub fn run(solver: &mut Solver, limits: Limits) -> Report {
    loop {
        let step = solver.step(limits.step_quantum);
        let outcome = match step {
            Step::Sat => Some(Outcome::Sat(solver.model().expect("sat has model"))),
            Step::Unsat => Some(Outcome::Unsat),
            Step::MemoryPressure => Some(Outcome::MemOut),
            Step::Running => None,
        };
        if let Some(outcome) = outcome {
            return Report {
                outcome,
                stats: *solver.stats(),
            };
        }
        if let Some(cap) = limits.max_work {
            if solver.stats().work >= cap {
                return Report {
                    outcome: Outcome::TimeOut,
                    stats: *solver.stats(),
                };
            }
        }
    }
}

/// Convenience: solve with defaults and return just SAT/UNSAT.
/// Panics on TIME_OUT/MEM_OUT (tests use this on decidable instances).
pub fn decide(formula: &Formula) -> SolveStatus {
    match solve(formula, SolverConfig::default(), Limits::default()).outcome {
        Outcome::Sat(_) => SolveStatus::Sat,
        Outcome::Unsat => SolveStatus::Unsat,
        other => panic!("expected a decision, got {other:?}"),
    }
}

/// Enumerate up to `limit` distinct models by adding blocking clauses
/// (each found model's complement) and re-solving. Returns every model
/// found; fewer than `limit` means the enumeration is exhaustive.
pub fn enumerate_models(formula: &Formula, limit: usize) -> Vec<Assignment> {
    let mut working = formula.clone();
    let mut models = Vec::new();
    while models.len() < limit {
        match solve(&working, SolverConfig::default(), Limits::default()).outcome {
            Outcome::Sat(model) => {
                // block exactly this total assignment
                let blocking: Vec<gridsat_cnf::Lit> = model.to_lits().iter().map(|&l| !l).collect();
                working.add_clause(blocking);
                models.push(model);
            }
            Outcome::Unsat => break,
            other => panic!("enumeration hit {other:?}"),
        }
    }
    models
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsat_cnf::paper;

    #[test]
    fn paper_formula_is_sat_and_model_verifies() {
        let f = paper::fig1_formula();
        let report = solve(&f, SolverConfig::default(), Limits::default());
        match report.outcome {
            Outcome::Sat(model) => assert!(f.is_satisfied_by(&model)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn work_cap_gives_timeout() {
        // php(7,6) needs more than a handful of work units
        let f = gridsat_satgen::php::php(7, 6);
        let report = solve(
            &f,
            SolverConfig::default(),
            Limits {
                max_work: Some(10),
                step_quantum: 5,
            },
        );
        assert_eq!(report.outcome, Outcome::TimeOut);
    }

    #[test]
    fn tiny_mem_budget_gives_memout() {
        let f = gridsat_satgen::php::php(9, 8);
        let config = SolverConfig {
            mem_budget: Some(2_000),
            ..SolverConfig::default()
        };
        let report = solve(&f, config, Limits::default());
        // php(9,8)'s original clauses alone approach the budget; learning
        // pushes it over and reduction cannot recover
        assert_eq!(report.outcome, Outcome::MemOut);
    }

    #[test]
    fn outcome_cells() {
        assert_eq!(Outcome::Unsat.table_cell(), "UNSAT");
        assert_eq!(Outcome::TimeOut.table_cell(), "TIME_OUT");
        assert_eq!(Outcome::MemOut.table_cell(), "MEM_OUT");
        assert!(!Outcome::TimeOut.is_decided());
        assert!(Outcome::Unsat.is_decided());
    }
}

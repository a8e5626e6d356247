//! DRAT proof logging and checking.
//!
//! Production SAT solvers substantiate UNSAT answers with a clausal
//! proof. The solver can record every learned-clause addition and every
//! clause deletion as a DRAT trace; [`check`] replays the trace against
//! the original formula, verifying each added clause by *reverse unit
//! propagation* (RUP) and requiring the trace to end in the empty clause.
//!
//! Proof logging covers the sequential solving path (the zChaff-baseline
//! role). Distributed runs would need a global, merged log across
//! clients — clauses arrive from peers with their derivations elsewhere —
//! which is out of scope here and noted in DESIGN.md.
//!
//! ```
//! use gridsat_solver::{driver, proof, Solver, SolverConfig, Step};
//!
//! let f = gridsat_satgen::php::php(5, 4); // UNSAT
//! let mut s = Solver::new(&f, SolverConfig::default());
//! s.enable_proof();
//! while !matches!(s.step(100_000), Step::Unsat) {}
//! let p = s.take_proof().unwrap();
//! proof::check(&f, &p).expect("proof verifies");
//! ```

use gridsat_cnf::{Formula, Lit, Value};
use std::fmt;

/// One step of a DRAT trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// Add a clause that must be RUP with respect to everything live.
    /// The empty clause ends an UNSAT proof.
    Add(Vec<Lit>),
    /// Delete a clause (matched up to literal order).
    Delete(Vec<Lit>),
}

/// A recorded proof trace.
#[derive(Clone, Debug, Default)]
pub struct Proof {
    pub steps: Vec<ProofStep>,
}

impl Proof {
    /// Number of addition steps.
    pub fn additions(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, ProofStep::Add(_)))
            .count()
    }

    /// `true` iff the trace ends with the empty clause.
    pub fn ends_with_empty_clause(&self) -> bool {
        self.steps
            .iter()
            .rev()
            .find_map(|s| match s {
                ProofStep::Add(lits) => Some(lits.is_empty()),
                ProofStep::Delete(_) => None,
            })
            .unwrap_or(false)
    }

    /// Render in the standard textual DRAT format.
    pub fn to_drat(&self) -> String {
        let mut out = String::new();
        for step in &self.steps {
            match step {
                ProofStep::Add(lits) => {
                    for l in lits {
                        out.push_str(&l.to_dimacs().to_string());
                        out.push(' ');
                    }
                    out.push_str("0\n");
                }
                ProofStep::Delete(lits) => {
                    out.push_str("d ");
                    for l in lits {
                        out.push_str(&l.to_dimacs().to_string());
                        out.push(' ');
                    }
                    out.push_str("0\n");
                }
            }
        }
        out
    }
}

/// Why a proof failed to check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// Step `index`: the added clause is not RUP.
    NotRup { index: usize },
    /// Step `index`: deletion of a clause that is not live.
    DeleteMissing { index: usize },
    /// The trace never derives the empty clause.
    NoEmptyClause,
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofError::NotRup { index } => write!(f, "step {index}: clause is not RUP"),
            ProofError::DeleteMissing { index } => {
                write!(f, "step {index}: deleting a clause that is not live")
            }
            ProofError::NoEmptyClause => write!(f, "trace does not derive the empty clause"),
        }
    }
}

impl std::error::Error for ProofError {}

/// A deliberately simple checker database: live clauses plus a
/// fixpoint unit propagator. Clarity over speed — this is the
/// *independent* verifier, so it shares no code with the solver's BCP.
struct CheckDb {
    clauses: Vec<Option<Vec<Lit>>>,
    num_vars: usize,
}

impl CheckDb {
    fn key(lits: &[Lit]) -> Vec<Lit> {
        let mut k = lits.to_vec();
        k.sort_unstable();
        k.dedup();
        k
    }

    /// Unit-propagate `assumed` literals over the live clauses.
    /// Returns `true` iff a conflict is reached.
    fn propagate_conflicts(&self, assumed: &[Lit]) -> bool {
        let mut value = vec![Value::Unassigned; self.num_vars];
        let mut queue: Vec<Lit> = Vec::new();
        for &l in assumed {
            match l.value_under(value[l.var().index()]) {
                Value::False => return true,
                Value::True => {}
                Value::Unassigned => {
                    value[l.var().index()] = l.satisfying_value();
                    queue.push(l);
                }
            }
        }
        loop {
            let mut changed = false;
            for c in self.clauses.iter().flatten() {
                let mut unassigned: Option<Lit> = None;
                let mut satisfied = false;
                let mut n_unassigned = 0;
                for &l in c {
                    match l.value_under(value[l.var().index()]) {
                        Value::True => {
                            satisfied = true;
                            break;
                        }
                        Value::Unassigned => {
                            n_unassigned += 1;
                            unassigned = Some(l);
                        }
                        Value::False => {}
                    }
                }
                if satisfied {
                    continue;
                }
                match n_unassigned {
                    0 => return true, // conflict
                    1 => {
                        let l = unassigned.expect("counted one");
                        value[l.var().index()] = l.satisfying_value();
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                return false;
            }
        }
    }
}

/// Check a DRAT trace against the formula: every added clause must be
/// RUP at its point in the trace, deletions must hit live clauses, and
/// the trace must derive the empty clause.
pub fn check(formula: &Formula, proof: &Proof) -> Result<(), ProofError> {
    let mut db = CheckDb {
        clauses: formula
            .clauses()
            .map(|c| Some(CheckDb::key(c.lits())))
            .collect(),
        num_vars: formula.num_vars(),
    };
    let mut derived_empty = false;

    for (index, step) in proof.steps.iter().enumerate() {
        match step {
            ProofStep::Add(lits) => {
                // RUP: asserting the negation of every literal must yield
                // a unit-propagation conflict
                let negated: Vec<Lit> = lits.iter().map(|&l| !l).collect();
                if !db.propagate_conflicts(&negated) {
                    return Err(ProofError::NotRup { index });
                }
                if lits.is_empty() {
                    derived_empty = true;
                    break; // nothing after the empty clause matters
                }
                db.clauses.push(Some(CheckDb::key(lits)));
            }
            ProofStep::Delete(lits) => {
                let key = CheckDb::key(lits);
                let slot = db
                    .clauses
                    .iter_mut()
                    .find(|c| c.as_deref() == Some(key.as_slice()));
                match slot {
                    Some(s) => *s = None,
                    None => return Err(ProofError::DeleteMissing { index }),
                }
            }
        }
    }
    if derived_empty {
        Ok(())
    } else {
        Err(ProofError::NoEmptyClause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsat_cnf::Formula;

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn trivial_unsat_proof_checks() {
        // (x) & (~x): empty clause is RUP immediately
        let mut f = Formula::new(1);
        f.add_dimacs_clause([1]);
        f.add_dimacs_clause([-1]);
        let p = Proof {
            steps: vec![ProofStep::Add(vec![])],
        };
        assert!(check(&f, &p).is_ok());
    }

    #[test]
    fn non_rup_addition_is_rejected() {
        // (x + y): clause (x) is not RUP
        let mut f = Formula::new(2);
        f.add_dimacs_clause([1, 2]);
        let p = Proof {
            steps: vec![ProofStep::Add(vec![lit(1)])],
        };
        assert_eq!(check(&f, &p), Err(ProofError::NotRup { index: 0 }));
    }

    #[test]
    fn resolution_chain_checks() {
        // (x + y) & (x + ~y) & (~x + y) & (~x + ~y) is UNSAT;
        // derive (x), then empty
        let mut f = Formula::new(2);
        f.add_dimacs_clause([1, 2]);
        f.add_dimacs_clause([1, -2]);
        f.add_dimacs_clause([-1, 2]);
        f.add_dimacs_clause([-1, -2]);
        let p = Proof {
            steps: vec![ProofStep::Add(vec![lit(1)]), ProofStep::Add(vec![])],
        };
        assert!(check(&f, &p).is_ok());
    }

    #[test]
    fn missing_empty_clause_is_rejected() {
        let mut f = Formula::new(2);
        f.add_dimacs_clause([1, 2]);
        f.add_dimacs_clause([-1, 2]);
        let p = Proof {
            steps: vec![ProofStep::Add(vec![lit(2)])],
        };
        assert_eq!(check(&f, &p), Err(ProofError::NoEmptyClause));
    }

    #[test]
    fn deletion_bookkeeping() {
        let mut f = Formula::new(2);
        f.add_dimacs_clause([1, 2]);
        f.add_dimacs_clause([-1, 2]);
        f.add_dimacs_clause([-2, 1]);
        f.add_dimacs_clause([-1, -2]);
        // delete a live clause then a missing one
        let ok = Proof {
            steps: vec![ProofStep::Delete(vec![lit(1), lit(2)])],
        };
        assert_eq!(check(&f, &ok), Err(ProofError::NoEmptyClause)); // deletion fine, no empty
        let missing = Proof {
            steps: vec![ProofStep::Delete(vec![lit(1), lit(-2), lit(2)])],
        };
        assert_eq!(
            check(&f, &missing),
            Err(ProofError::DeleteMissing { index: 0 })
        );
    }

    #[test]
    fn drat_rendering() {
        let p = Proof {
            steps: vec![
                ProofStep::Add(vec![lit(1), lit(-2)]),
                ProofStep::Delete(vec![lit(3)]),
                ProofStep::Add(vec![]),
            ],
        };
        assert_eq!(p.to_drat(), "1 -2 0\nd 3 0\n0\n");
        assert!(p.ends_with_empty_clause());
        assert_eq!(p.additions(), 2);
    }
}

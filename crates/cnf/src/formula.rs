//! CNF formulas.

use crate::{Assignment, Clause, Lit, Value, Var};
use std::fmt;

/// A CNF formula: a conjunction of clauses over `num_vars` variables.
///
/// This is the interchange representation produced by parsers and
/// generators and consumed by the solver; it is also what travels between
/// GridSAT master and clients when a whole problem is shipped.
#[derive(Clone, PartialEq, Eq)]
pub struct Formula {
    num_vars: usize,
    clauses: Vec<Clause>,
    /// Optional human-readable instance name (e.g. `php-8-7` or a file name).
    name: Option<String>,
}

impl Formula {
    /// An empty formula over `num_vars` variables (trivially satisfiable).
    pub fn new(num_vars: usize) -> Formula {
        Formula {
            num_vars,
            clauses: Vec::new(),
            name: None,
        }
    }

    /// Attach an instance name (builder style).
    pub fn with_name(mut self, name: impl Into<String>) -> Formula {
        self.name = Some(name.into());
        self
    }

    /// Set the instance name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = Some(name.into());
    }

    /// The instance name, if any.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Number of variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    #[inline]
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Total number of literal occurrences across all clauses.
    pub fn num_lits(&self) -> usize {
        self.clauses.iter().map(Clause::len).sum()
    }

    /// The clauses.
    #[inline]
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Iterate over the clauses.
    pub fn iter(&self) -> impl Iterator<Item = &Clause> {
        self.clauses.iter()
    }

    /// Grow the variable universe to at least `n` variables.
    pub fn ensure_vars(&mut self, n: usize) {
        if n > self.num_vars {
            self.num_vars = n;
        }
    }

    /// Allocate a fresh variable and return it.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars as u32);
        self.num_vars += 1;
        v
    }

    /// Add a clause. Grows the variable universe if the clause mentions
    /// variables beyond it.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let clause = Clause::new(lits);
        for l in &clause {
            self.ensure_vars(l.var().index() + 1);
        }
        self.clauses.push(clause);
    }

    /// Add an already-built [`Clause`].
    pub fn push_clause(&mut self, clause: Clause) {
        for l in &clause {
            self.ensure_vars(l.var().index() + 1);
        }
        self.clauses.push(clause);
    }

    /// Add a clause given in DIMACS numbering (no terminating 0).
    pub fn add_dimacs_clause(&mut self, lits: impl IntoIterator<Item = i64>) {
        self.add_clause(lits.into_iter().map(Lit::from_dimacs));
    }

    /// A fresh all-unassigned [`Assignment`] sized for this formula.
    pub fn empty_assignment(&self) -> Assignment {
        Assignment::new(self.num_vars)
    }

    /// Evaluate the formula under a (possibly partial) assignment.
    ///
    /// True iff every clause is true; false iff some clause is false;
    /// unassigned otherwise.
    pub fn eval(&self, a: &Assignment) -> Value {
        let mut all_true = true;
        for c in &self.clauses {
            match c.eval(a) {
                Value::False => return Value::False,
                Value::Unassigned => all_true = false,
                Value::True => {}
            }
        }
        if all_true {
            Value::True
        } else {
            Value::Unassigned
        }
    }

    /// `true` iff the assignment satisfies every clause.
    ///
    /// This is the verification step the GridSAT master performs on a
    /// client-reported satisfying assignment before declaring SAT
    /// (paper Section 3.4).
    pub fn is_satisfied_by(&self, a: &Assignment) -> bool {
        self.eval(a) == Value::True
    }

    /// Remove clauses already satisfied by the given level-0 assignment and
    /// drop false literals from the remaining clauses.
    ///
    /// This is the paper's *clause reduction* applied after a split
    /// (Section 3.1: "a clause is removed from a client's database when it
    /// evaluates to true because of the assignments made at level 0") and
    /// the "pruning optimization" retro-fitted into sequential zChaff.
    ///
    /// Returns the number of clauses removed.
    pub fn reduce_under(&mut self, a: &Assignment) -> usize {
        let before = self.clauses.len();
        self.clauses.retain(|c| c.eval(a) != Value::True);
        for c in &mut self.clauses {
            c.lits_mut().retain(|&l| a.lit_value(l) != Value::False);
        }
        before - self.clauses.len()
    }

    /// Basic clause-length histogram (index = length, capped at `max_len`).
    pub fn length_histogram(&self, max_len: usize) -> Vec<usize> {
        let mut h = vec![0usize; max_len + 1];
        for c in &self.clauses {
            h[c.len().min(max_len)] += 1;
        }
        h
    }
}

impl fmt::Debug for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Formula({} vars, {} clauses{})",
            self.num_vars,
            self.clauses.len(),
            self.name
                .as_deref()
                .map(|n| format!(", {n}"))
                .unwrap_or_default()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        let f = crate::paper::fig1_formula();
        assert_eq!(f.num_vars(), 14);
        assert_eq!(f.num_clauses(), 9);
        assert!(f.num_lits() > 9);
        assert_eq!(f.name(), Some("paper-fig1"));
    }

    #[test]
    fn add_clause_grows_vars() {
        let mut f = Formula::new(0);
        f.add_dimacs_clause([3, -7]);
        assert_eq!(f.num_vars(), 7);
        let v = f.new_var();
        assert_eq!(v, Var(7));
        assert_eq!(f.num_vars(), 8);
    }

    #[test]
    fn eval_and_satisfaction() {
        // (x1 + ~x2) & (x2)
        let mut f = Formula::new(2);
        f.add_dimacs_clause([1, -2]);
        f.add_dimacs_clause([2]);

        let mut a = f.empty_assignment();
        assert_eq!(f.eval(&a), Value::Unassigned);
        a.set(Var(1), Value::True);
        assert_eq!(f.eval(&a), Value::Unassigned);
        a.set(Var(0), Value::False);
        assert_eq!(f.eval(&a), Value::False);
        a.set(Var(0), Value::True);
        assert!(f.is_satisfied_by(&a));
    }

    #[test]
    fn reduce_under_removes_satisfied_and_false_lits() {
        // clauses: (V10 + ~V13), (V14), (~V10 + V1)
        let mut f = Formula::new(14);
        f.add_dimacs_clause([10, -13]);
        f.add_dimacs_clause([14]);
        f.add_dimacs_clause([-10, 1]);

        // level-0 assignment: V10 = false (paper Fig. 2 client A keeps ~V10),
        // V14 = true.
        let mut a = f.empty_assignment();
        a.set(Var(9), Value::False);
        a.set(Var(13), Value::True);

        // (~V10 + V1) is satisfied by ~V10, (V14) is satisfied; only clause
        // (V10 + ~V13) remains, with the false literal V10 dropped.
        let removed = f.reduce_under(&a);
        assert_eq!(removed, 2);
        assert_eq!(f.num_clauses(), 1);
        assert_eq!(f.clauses()[0].lits(), &[Lit::from_dimacs(-13)]);
    }

    #[test]
    fn length_histogram_caps() {
        let f = crate::paper::fig1_formula();
        let h = f.length_histogram(3);
        assert_eq!(h.iter().sum::<usize>(), 9);
        assert_eq!(h[1], 1); // clause 9 is the only unit
    }
}

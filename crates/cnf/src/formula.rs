//! CNF formulas.

use crate::clause_list::eval_lits;
use crate::{Assignment, Clause, ClauseList, ClauseLits, Clauses, Lit, Value, Var};
use std::fmt;

/// A CNF formula: a conjunction of clauses over `num_vars` variables.
///
/// This is the interchange representation produced by parsers and
/// generators and consumed by the solver; it is also what travels between
/// GridSAT master and clients when a whole problem is shipped. Its
/// clauses are kept back to back in one [`ClauseList`], in the order
/// added.
#[derive(Clone, PartialEq, Eq)]
pub struct Formula {
    num_vars: usize,
    clauses: ClauseList,
    /// Optional human-readable instance name (e.g. `php-8-7` or a file name).
    name: Option<String>,
}

impl Formula {
    /// An empty formula over `num_vars` variables (trivially satisfiable).
    pub fn new(num_vars: usize) -> Formula {
        Formula {
            num_vars,
            clauses: ClauseList::default(),
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
        self.clauses.num_lits()
    }

    /// Each clause's literals, in order.
    #[inline]
    pub fn clauses(&self) -> Clauses<'_> {
        self.clauses.iter()
    }

    /// The `i`th clause.
    ///
    /// # Panics
    /// Panics if `i >= self.num_clauses()`.
    #[inline]
    pub fn clause(&self, i: usize) -> ClauseLits<'_> {
        self.clauses.get(i)
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
        let clause = self.clauses.push(lits);
        let top = clause.iter().map(|l| l.var().index() + 1).max();
        self.ensure_vars(top.unwrap_or(0));
    }

    /// Add an already-built [`Clause`].
    pub fn push_clause(&mut self, clause: Clause) {
        self.add_clause(clause.into_lits());
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
        for c in self.clauses() {
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
        self.clauses.retain(
            |c| eval_lits(c, a) != Value::True,
            |l| a.lit_value(l) != Value::False,
        )
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
        // a clause within the universe, or empty, leaves it alone
        f.add_clause([Lit::neg(2)]);
        f.push_clause(Clause::empty());
        assert_eq!(f.num_vars(), 8);
        f.add_clause([Lit::pos(1), Lit::neg(11)]);
        assert_eq!(f.num_vars(), 12);
        f.push_clause(Clause::new([Lit::pos(20)]));
        assert_eq!(f.num_vars(), 21);
        assert_eq!(f.num_clauses(), 5);
    }

    fn dimacs(clauses: &[&[i64]]) -> Formula {
        let mut f = Formula::new(0);
        for c in clauses {
            f.add_dimacs_clause(c.iter().copied());
        }
        f
    }

    #[test]
    fn clause_boundaries_survive_empty_clauses() {
        let shape: &[&[i64]] = &[&[], &[1, -2], &[], &[], &[3], &[-1, 2, -3, 4], &[]];
        let f = dimacs(shape);
        assert_eq!(f.num_clauses(), shape.len());
        assert_eq!(f.num_lits(), 7);
        assert_eq!(f.clauses().len(), shape.len());
        for (i, (c, want)) in f.clauses().zip(shape).enumerate() {
            let want: Vec<Lit> = want.iter().map(|&d| Lit::from_dimacs(d)).collect();
            assert_eq!(c.lits(), want, "clause {i}");
            assert_eq!(f.clause(i), c, "clause {i}");
        }
        // the iterator counts down as it goes, and restarts from a clone
        let mut it = f.clauses();
        it.nth(4);
        assert_eq!(it.len(), 2);
        assert_eq!(it.iter().count(), 2);
        assert_eq!(it.next().map(|c| c.len()), Some(4));
        assert!(it.next().is_some_and(|c| c.is_empty()));
        assert!(it.next().is_none());
        // an empty clause falsifies the formula under any assignment
        assert_eq!(f.eval(&f.empty_assignment()), Value::False);
    }

    #[test]
    fn reduce_under_can_empty_a_clause_and_keeps_the_order() {
        let mut f = dimacs(&[&[1, 2], &[-1, 3], &[2], &[4, -1], &[-2, 1, 5], &[1]]);
        let mut a = f.empty_assignment();
        a.set(Var(0), Value::False); // x1 false
        a.set(Var(1), Value::False); // x2 false
                                     // (x1 + x2) and (x2) lose every literal; (~x1 + x3), (x4 + ~x1)
                                     // and (~x2 + x1 + x5) are satisfied; (x1) becomes empty too
        assert_eq!(f.reduce_under(&a), 3);
        assert_eq!(f.clauses(), dimacs(&[&[], &[], &[]]).clauses());
        assert_eq!(f.num_lits(), 0);
        assert_eq!(f.eval(&a), Value::False);

        let mut g = dimacs(&[&[1, -2, 3], &[-1], &[2, 4], &[5, -3]]);
        let mut b = g.empty_assignment();
        b.set(Var(2), Value::False); // x3 false
        b.set(Var(3), Value::False); // x4 false
        assert_eq!(g.reduce_under(&b), 1, "(x5 + ~x3) is satisfied");
        assert_eq!(g.clauses(), dimacs(&[&[1, -2], &[-1], &[2]]).clauses());
        assert_eq!(g.reduce_under(&b), 0, "reducing again changes nothing");
    }

    #[test]
    fn equal_iff_the_same_clauses_in_the_same_order() {
        let f = dimacs(&[&[1, -2], &[3], &[]]);
        assert_eq!(f, dimacs(&[&[1, -2], &[3], &[]]));
        assert_eq!(f.clone(), f);
        // the same literals, cut into clauses differently
        assert_ne!(f, dimacs(&[&[1], &[-2, 3], &[]]));
        assert_ne!(f, dimacs(&[&[1, -2, 3], &[]]));
        // reordered clauses, reordered literals, a clause missing
        assert_ne!(f, dimacs(&[&[3], &[1, -2], &[]]));
        assert_ne!(f, dimacs(&[&[-2, 1], &[3], &[]]));
        assert_ne!(f, dimacs(&[&[1, -2], &[3]]));
        // the same clauses over a wider universe
        let mut wider = f.clone();
        wider.ensure_vars(4);
        assert_ne!(f, wider);
        assert_eq!(f.clauses(), wider.clauses());
        // a formula reduced to the same clauses equals one built so
        let mut g = dimacs(&[&[1, -2, 4], &[3], &[-4], &[]]);
        let mut a = g.empty_assignment();
        a.set(Var(3), Value::False);
        g.reduce_under(&a);
        assert_eq!(g, wider);
    }

    #[test]
    fn three_literal_clauses_take_at_most_32_bytes_each() {
        let mut f = Formula::new(0);
        for i in 0..10_000u32 {
            f.add_clause([Lit::pos(i), Lit::neg(i + 1), Lit::pos(i + 2)]);
        }
        assert_eq!(f.num_lits(), 30_000);
        let per_clause = f.clauses.capacity_bytes() as f64 / 10_000.0;
        assert!(per_clause <= 32.0, "{per_clause} bytes per clause");
        // a clone holds exactly the literals and the ends
        assert_eq!(f.clone().clauses.capacity_bytes(), 10_000 * 16);
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
        assert_eq!(f.clause(0).lits(), &[Lit::from_dimacs(-13)]);
    }
}

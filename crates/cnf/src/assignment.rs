//! Partial and total variable assignments.

use crate::{Lit, Value, Var};

/// A (partial) assignment of truth values to variables.
///
/// Backed by a dense `Vec<Value>` indexed by variable; all variables start
/// [`Value::Unassigned`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Assignment {
    values: Vec<Value>,
    assigned: usize,
}

impl Assignment {
    /// An empty assignment over `num_vars` variables.
    pub fn new(num_vars: usize) -> Assignment {
        Assignment {
            values: vec![Value::Unassigned; num_vars],
            assigned: 0,
        }
    }

    /// Number of variables (assigned or not).
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Number of currently assigned variables.
    #[inline]
    pub fn num_assigned(&self) -> usize {
        self.assigned
    }

    /// `true` iff every variable is assigned.
    #[inline]
    pub fn is_total(&self) -> bool {
        self.assigned == self.values.len()
    }

    /// The value of a variable.
    #[inline]
    pub fn value(&self, v: Var) -> Value {
        self.values[v.index()]
    }

    /// The value a literal takes under this assignment.
    #[inline]
    pub fn lit_value(&self, l: Lit) -> Value {
        l.value_under(self.values[l.var().index()])
    }

    /// `true` iff the literal evaluates to true.
    #[inline]
    pub fn satisfies(&self, l: Lit) -> bool {
        self.lit_value(l) == Value::True
    }

    /// Set a variable's value, tracking the assigned count.
    pub fn set(&mut self, v: Var, val: Value) {
        let slot = &mut self.values[v.index()];
        match (slot.is_assigned(), val.is_assigned()) {
            (false, true) => self.assigned += 1,
            (true, false) => self.assigned -= 1,
            _ => {}
        }
        *slot = val;
    }

    /// Assign the variable so that the literal becomes true.
    pub fn assign_lit(&mut self, l: Lit) {
        self.set(l.var(), l.satisfying_value());
    }

    /// Clear a variable back to unassigned.
    pub fn unset(&mut self, v: Var) {
        self.set(v, Value::Unassigned);
    }

    /// Iterate over `(Var, Value)` pairs of *assigned* variables.
    pub fn iter_assigned(&self) -> impl Iterator<Item = (Var, Value)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_assigned())
            .map(|(i, &v)| (Var(i as u32), v))
    }

    /// The assigned variables as true literals (e.g. for messages).
    pub fn to_lits(&self) -> Vec<Lit> {
        self.iter_assigned()
            .map(|(var, val)| var.lit(val == Value::False))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_count() {
        let mut a = Assignment::new(4);
        assert_eq!(a.num_vars(), 4);
        assert_eq!(a.num_assigned(), 0);
        assert!(!a.is_total());

        a.set(Var(0), Value::True);
        a.set(Var(2), Value::False);
        assert_eq!(a.num_assigned(), 2);
        assert_eq!(a.value(Var(0)), Value::True);
        assert_eq!(a.value(Var(1)), Value::Unassigned);

        // overwriting an assigned var does not change the count
        a.set(Var(0), Value::False);
        assert_eq!(a.num_assigned(), 2);

        a.unset(Var(0));
        assert_eq!(a.num_assigned(), 1);
        // unsetting an unassigned var is a no-op
        a.unset(Var(0));
        assert_eq!(a.num_assigned(), 1);

        a.set(Var(0), Value::True);
        a.set(Var(1), Value::True);
        a.set(Var(3), Value::False);
        assert!(a.is_total());
    }

    #[test]
    fn lit_value_and_satisfies() {
        let mut a = Assignment::new(2);
        a.set(Var(0), Value::False);
        assert_eq!(a.lit_value(Var(0).positive()), Value::False);
        assert_eq!(a.lit_value(Var(0).negative()), Value::True);
        assert!(a.satisfies(Var(0).negative()));
        assert!(!a.satisfies(Var(1).positive()));
    }

    #[test]
    fn assign_lit_makes_lit_true() {
        let mut a = Assignment::new(2);
        a.assign_lit(Var(1).negative());
        assert!(a.satisfies(Var(1).negative()));
        assert_eq!(a.value(Var(1)), Value::False);
    }

    #[test]
    fn to_lits_roundtrip() {
        let mut a = Assignment::new(5);
        a.set(Var(0), Value::True);
        a.set(Var(3), Value::False);
        let lits = a.to_lits();
        assert_eq!(lits, vec![Var(0).positive(), Var(3).negative()]);

        let mut b = Assignment::new(5);
        for l in lits {
            b.assign_lit(l);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn iter_assigned_skips_unassigned() {
        let mut a = Assignment::new(3);
        a.set(Var(1), Value::True);
        let pairs: Vec<_> = a.iter_assigned().collect();
        assert_eq!(pairs, vec![(Var(1), Value::True)]);
    }
}

//! Variables, literals and truth values.

use std::fmt;

/// A propositional variable, identified by a zero-based index.
///
/// DIMACS numbers variables from 1; [`Var::from_dimacs`] and
/// [`Var::to_dimacs`] convert. The paper's `V14` is `Var(13)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// Zero-based index of this variable, usable to index per-variable arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Convert a 1-based DIMACS variable number.
    ///
    /// # Panics
    /// Panics if `d < 1`.
    #[inline]
    pub fn from_dimacs(d: i64) -> Var {
        assert!(d >= 1, "DIMACS variables are numbered from 1, got {d}");
        Var((d - 1) as u32)
    }

    /// The 1-based DIMACS number of this variable.
    #[inline]
    pub fn to_dimacs(self) -> i64 {
        i64::from(self.0) + 1
    }

    /// The positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit::pos(self.0)
    }

    /// The negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit::neg(self.0)
    }

    /// The literal of this variable with the given sign
    /// (`negated == true` yields `~V`).
    #[inline]
    pub fn lit(self, negated: bool) -> Lit {
        Lit::new(self, negated)
    }
}

impl From<u32> for Var {
    #[inline]
    fn from(v: u32) -> Var {
        Var(v)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.to_dimacs())
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{}", self.to_dimacs())
    }
}

/// A literal: a variable or its complement.
///
/// Encoded as `var << 1 | sign` so literals index watch lists and score
/// tables directly ([`Lit::code`]). `sign == 1` means negated.
///
/// `repr(transparent)`: a `Lit` is layout-identical to its `u32` code, so
/// flat storage (the solver's clause arena) can reinterpret `u32` words
/// written via [`Lit::code`] as `&[Lit]` without copying.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of variable index `v`.
    #[inline]
    pub fn pos(v: u32) -> Lit {
        Lit(v << 1)
    }

    /// The negative literal of variable index `v`.
    #[inline]
    pub fn neg(v: u32) -> Lit {
        Lit(v << 1 | 1)
    }

    /// Build a literal from a variable and a sign (`negated == true` => `~V`).
    #[inline]
    pub fn new(var: Var, negated: bool) -> Lit {
        Lit(var.0 << 1 | u32::from(negated))
    }

    /// Parse a DIMACS literal: positive integers are positive literals,
    /// negative integers are negated literals.
    ///
    /// # Panics
    /// Panics if `d == 0` (DIMACS uses 0 as the clause terminator).
    #[inline]
    pub fn from_dimacs(d: i64) -> Lit {
        assert!(d != 0, "0 is the DIMACS clause terminator, not a literal");
        Lit::new(Var::from_dimacs(d.abs()), d < 0)
    }

    /// The DIMACS encoding of this literal.
    #[inline]
    pub fn to_dimacs(self) -> i64 {
        let v = self.var().to_dimacs();
        if self.is_negated() {
            -v
        } else {
            v
        }
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` iff this is the complemented literal `~V`.
    #[inline]
    pub fn is_negated(self) -> bool {
        self.0 & 1 == 1
    }

    /// The dense code `var << 1 | sign`, for indexing per-literal arrays.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Rebuild a literal from its dense code.
    #[inline]
    pub const fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }

    /// The truth value this literal takes when its variable is assigned `v`.
    #[inline]
    pub fn value_under(self, v: Value) -> Value {
        match v {
            Value::Unassigned => Value::Unassigned,
            Value::True => {
                if self.is_negated() {
                    Value::False
                } else {
                    Value::True
                }
            }
            Value::False => {
                if self.is_negated() {
                    Value::True
                } else {
                    Value::False
                }
            }
        }
    }

    /// The variable assignment that makes this literal true.
    #[inline]
    pub fn satisfying_value(self) -> Value {
        if self.is_negated() {
            Value::False
        } else {
            Value::True
        }
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    /// The complement literal (`!V == ~V`, `!~V == V`).
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negated() {
            write!(f, "~{}", self.var())
        } else {
            write!(f, "{}", self.var())
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A three-valued truth value: the state of a variable during search.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum Value {
    True,
    False,
    #[default]
    Unassigned,
}

impl Value {
    /// `true` iff assigned (not [`Value::Unassigned`]).
    #[inline]
    pub fn is_assigned(self) -> bool {
        self != Value::Unassigned
    }

    /// The opposite truth value; `Unassigned` negates to itself.
    #[inline]
    pub fn negate(self) -> Value {
        match self {
            Value::True => Value::False,
            Value::False => Value::True,
            Value::Unassigned => Value::Unassigned,
        }
    }

    /// Convert a `bool`.
    #[inline]
    pub fn from_bool(b: bool) -> Value {
        if b {
            Value::True
        } else {
            Value::False
        }
    }

    /// `Some(bool)` if assigned, `None` otherwise.
    #[inline]
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Value::True => Some(true),
            Value::False => Some(false),
            Value::Unassigned => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_dimacs_roundtrip() {
        for d in 1..100 {
            assert_eq!(Var::from_dimacs(d).to_dimacs(), d);
        }
        assert_eq!(Var::from_dimacs(14), Var(13));
    }

    #[test]
    #[should_panic]
    fn var_from_dimacs_rejects_zero() {
        let _ = Var::from_dimacs(0);
    }

    #[test]
    fn lit_encoding() {
        let v = Var(7);
        assert_eq!(v.positive().code(), 14);
        assert_eq!(v.negative().code(), 15);
        assert_eq!(v.positive().var(), v);
        assert_eq!(v.negative().var(), v);
        assert!(!v.positive().is_negated());
        assert!(v.negative().is_negated());
        assert_eq!(Lit::from_code(15), v.negative());
    }

    #[test]
    fn lit_negation_is_involution() {
        for code in 0..64 {
            let l = Lit::from_code(code);
            assert_eq!(!!l, l);
            assert_ne!(!l, l);
            assert_eq!((!l).var(), l.var());
        }
    }

    #[test]
    fn lit_dimacs_roundtrip() {
        for d in [-99, -2, -1, 1, 2, 37] {
            assert_eq!(Lit::from_dimacs(d).to_dimacs(), d);
        }
        assert_eq!(Lit::from_dimacs(-3), Var(2).negative());
    }

    #[test]
    #[should_panic]
    fn lit_from_dimacs_rejects_zero() {
        let _ = Lit::from_dimacs(0);
    }

    #[test]
    fn value_under_assignment() {
        let p = Lit::pos(0);
        let n = Lit::neg(0);
        assert_eq!(p.value_under(Value::True), Value::True);
        assert_eq!(p.value_under(Value::False), Value::False);
        assert_eq!(n.value_under(Value::True), Value::False);
        assert_eq!(n.value_under(Value::False), Value::True);
        assert_eq!(p.value_under(Value::Unassigned), Value::Unassigned);
        assert_eq!(n.value_under(Value::Unassigned), Value::Unassigned);
    }

    #[test]
    fn satisfying_value_satisfies() {
        for l in [Lit::pos(3), Lit::neg(3)] {
            assert_eq!(l.value_under(l.satisfying_value()), Value::True);
        }
    }

    #[test]
    fn value_negate() {
        assert_eq!(Value::True.negate(), Value::False);
        assert_eq!(Value::False.negate(), Value::True);
        assert_eq!(Value::Unassigned.negate(), Value::Unassigned);
        assert_eq!(Value::from_bool(true), Value::True);
        assert_eq!(Value::True.as_bool(), Some(true));
        assert_eq!(Value::Unassigned.as_bool(), None);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(format!("{}", Var(13)), "V14");
        assert_eq!(format!("{}", Var(12).negative()), "~V13");
        assert_eq!(format!("{}", Var(9).positive()), "V10");
    }
}

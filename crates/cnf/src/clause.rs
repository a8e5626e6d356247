//! Clauses: disjunctions of literals.

use crate::clause_list::{eval_lits, fmt_lits, ClauseLits};
use crate::{Assignment, Lit, Value};
use std::fmt;

/// A clause: a disjunction (logical OR) of literals.
///
/// This is the owned representation used by messages, subproblem specs,
/// checkpoints and shares. A [`Formula`](crate::Formula) keeps its
/// clauses back to back in a [`ClauseList`](crate::ClauseList) instead,
/// and the solver in its own packed clause arena.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Clause {
    lits: Vec<Lit>,
}

impl Clause {
    /// Build a clause from literals, preserving order and duplicates.
    pub fn new(lits: impl IntoIterator<Item = Lit>) -> Clause {
        Clause {
            lits: lits.into_iter().collect(),
        }
    }

    /// The empty clause (always false; its presence makes a formula UNSAT).
    pub fn empty() -> Clause {
        Clause { lits: Vec::new() }
    }

    /// Number of literals.
    #[inline]
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// `true` iff this is the empty clause.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// The literals.
    #[inline]
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// The literals, by value.
    #[inline]
    pub fn into_lits(self) -> Vec<Lit> {
        self.lits
    }

    /// Iterate over the literals.
    pub fn iter(&self) -> impl Iterator<Item = Lit> + '_ {
        self.lits.iter().copied()
    }

    /// `true` iff the clause contains the literal.
    pub fn contains(&self, l: Lit) -> bool {
        self.lits.contains(&l)
    }

    /// Evaluate under a (possibly partial) assignment.
    ///
    /// Returns [`Value::True`] if any literal is true, [`Value::False`] if
    /// all literals are false, and [`Value::Unassigned`] otherwise. The
    /// empty clause evaluates to false.
    pub fn eval(&self, a: &Assignment) -> Value {
        eval_lits(&self.lits, a)
    }

    /// Normalize: sort literals, drop duplicates, and report tautology.
    ///
    /// Returns `true` iff the clause is a tautology (contains both `V` and
    /// `~V`), in which case callers typically discard it.
    pub fn normalize(&mut self) -> bool {
        self.lits.sort_unstable();
        self.lits.dedup();
        self.lits.windows(2).any(|w| w[0].var() == w[1].var())
    }

    /// A normalized copy: sorted, deduplicated. `None` for tautologies.
    pub fn normalized(&self) -> Option<Clause> {
        let mut c = self.clone();
        if c.normalize() {
            None
        } else {
            Some(c)
        }
    }

    /// A 64-bit fingerprint of the clause as a *set* of literals: a
    /// splitmix64-style mix folded over the sorted, deduplicated literal
    /// codes. Permutations and repeated literals fingerprint identically,
    /// so the distributed share path can recognize a clause it has
    /// already merged without comparing literal vectors.
    ///
    /// Literal codes already in strictly ascending order — every decoded
    /// share clause and every [`normalized`](Clause::normalized) one —
    /// are folded in place; only other orders pay for a sorted copy.
    pub fn fingerprint(&self) -> u64 {
        let ascending = self.lits.windows(2).all(|w| w[0].code() < w[1].code());
        if ascending {
            return fp_fold(self.lits.len(), self.lits.iter().map(|l| l.code() as u32));
        }
        let mut codes: Vec<u32> = self.lits.iter().map(|l| l.code() as u32).collect();
        codes.sort_unstable();
        codes.dedup();
        fp_fold(codes.len(), codes.iter().copied())
    }
}

/// Fold `len` sorted, distinct literal codes into a fingerprint.
#[inline]
fn fp_fold(len: usize, codes: impl Iterator<Item = u32>) -> u64 {
    let mut h = fp_mix(0x9e37_79b9_7f4a_7c15 ^ len as u64);
    for c in codes {
        h = fp_mix(h ^ u64::from(c).wrapping_mul(0x2545_f491_4f6c_dd1d));
    }
    h
}

/// splitmix64 finalizer: a cheap full-avalanche 64-bit mixer.
#[inline]
fn fp_mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FromIterator<Lit> for Clause {
    fn from_iter<T: IntoIterator<Item = Lit>>(iter: T) -> Clause {
        Clause::new(iter)
    }
}

impl From<Vec<Lit>> for Clause {
    fn from(lits: Vec<Lit>) -> Clause {
        Clause { lits }
    }
}

impl From<ClauseLits<'_>> for Clause {
    fn from(lits: ClauseLits<'_>) -> Clause {
        Clause {
            lits: lits.to_vec(),
        }
    }
}

impl<'a> IntoIterator for &'a Clause {
    type Item = Lit;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Lit>>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.iter().copied()
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_lits(&self.lits, f)
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Formula, Var};

    fn lit(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    #[test]
    fn basic_properties() {
        let c = Clause::new([lit(1), lit(-2), lit(3)]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(c.contains(lit(-2)));
        assert!(!c.contains(lit(2)));
        assert!(Clause::empty().is_empty());
    }

    #[test]
    fn eval_cases() {
        let f = Formula::new(3);
        let mut a = f.empty_assignment();
        let c = Clause::new([lit(1), lit(-2)]);

        assert_eq!(c.eval(&a), Value::Unassigned);
        a.set(Var(1), Value::True); // makes ~x2 false
        assert_eq!(c.eval(&a), Value::Unassigned);
        a.set(Var(0), Value::False); // makes x1 false
        assert_eq!(c.eval(&a), Value::False);
        a.set(Var(0), Value::True);
        assert_eq!(c.eval(&a), Value::True);

        assert_eq!(Clause::empty().eval(&a), Value::False);
    }

    #[test]
    fn normalize_dedups_and_detects_tautology() {
        let mut c = Clause::new([lit(3), lit(1), lit(3), lit(-2)]);
        assert!(!c.normalize());
        assert_eq!(c.lits().len(), 3);
        assert!(c.lits().windows(2).all(|w| w[0] < w[1]));

        let mut t = Clause::new([lit(1), lit(-1)]);
        assert!(t.normalize());
        assert!(Clause::new([lit(2), lit(-2), lit(5)])
            .normalized()
            .is_none());
        assert!(Clause::new([lit(2), lit(5)]).normalized().is_some());
    }

    #[test]
    fn fingerprint_is_a_set_hash() {
        let a = Clause::new([lit(1), lit(-2), lit(3)]);
        let b = Clause::new([lit(3), lit(1), lit(-2)]); // permutation
        let c = Clause::new([lit(1), lit(1), lit(-2), lit(3)]); // duplicate
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), c.fingerprint());

        // sign, membership and length all perturb the fingerprint
        assert_ne!(
            a.fingerprint(),
            Clause::new([lit(1), lit(2), lit(3)]).fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            Clause::new([lit(1), lit(-2)]).fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            Clause::new([lit(1), lit(-2), lit(4)]).fingerprint()
        );
        assert_ne!(
            Clause::empty().fingerprint(),
            Clause::new([lit(1)]).fingerprint()
        );
    }

    /// The fingerprint as first written: always copy, sort, dedup.
    fn reference_fingerprint(c: &Clause) -> u64 {
        let mut codes: Vec<u32> = c.lits.iter().map(|l| l.code() as u32).collect();
        codes.sort_unstable();
        codes.dedup();
        let mut h = fp_mix(0x9e37_79b9_7f4a_7c15 ^ codes.len() as u64);
        for c in codes {
            h = fp_mix(h ^ (c as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
        }
        h
    }

    #[test]
    fn sorted_fast_path_agrees_with_the_reference_on_every_order() {
        // xorshift64*: shuffled, duplicated and already-sorted literal
        // lists of every small length, including the empty clause
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for case in 0..4000 {
            let len = (next() % 9) as usize;
            let span = 1 + next() % 40; // small spans force duplicates
            let mut lits: Vec<Lit> = (0..len)
                .map(|_| Lit::new(Var((next() % span) as u32), next() % 2 == 1))
                .collect();
            match case % 3 {
                0 => {}                    // as drawn: shuffled, duplicates
                1 => lits.sort_unstable(), // sorted, duplicates kept
                _ => {
                    lits.sort_unstable(); // strictly ascending: the fast path
                    lits.dedup();
                }
            }
            let c = Clause::new(lits);
            assert_eq!(c.fingerprint(), reference_fingerprint(&c), "{c}");
            if let Some(n) = c.normalized() {
                assert_eq!(n.fingerprint(), c.fingerprint(), "{c}");
            }
        }
    }

    #[test]
    fn display_matches_paper_notation() {
        let c = Clause::new([Var(9).negative(), Var(6).negative(), Var(7).positive()]);
        assert_eq!(format!("{c}"), "(~V10 + ~V7 + V8)");
    }
}

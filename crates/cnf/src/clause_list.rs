//! Clauses stored back to back: one literal buffer and one end offset
//! per clause, instead of a heap [`Clause`](crate::Clause) each.

use crate::{Assignment, Lit, Value};
use std::{fmt, ops::Deref, slice};

/// A list of clauses, their literals back to back in one buffer.
///
/// A clause costs its literals plus one `u32` end offset: a three-literal
/// clause takes 16 bytes, where a `Clause` takes a 24-byte header and a
/// heap block of its own. Clause order and literal order are kept as
/// pushed, duplicates and empty clauses included.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ClauseList {
    /// The literals of every clause, clause after clause.
    lits: Vec<Lit>,
    /// Where each clause ends in `lits`: non-decreasing, the last one
    /// `lits.len()`.
    ends: Vec<u32>,
}

impl ClauseList {
    /// An empty list with room for `clauses` clauses of `lits` literals
    /// in all.
    pub fn with_capacity(clauses: usize, lits: usize) -> ClauseList {
        ClauseList {
            lits: Vec::with_capacity(lits),
            ends: Vec::with_capacity(clauses),
        }
    }

    /// Number of clauses.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` iff the list holds no clause (not even an empty one).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total number of literal occurrences.
    #[inline]
    pub fn num_lits(&self) -> usize {
        self.lits.len()
    }

    /// Bytes reserved for the literals and the end offsets.
    #[cfg(test)]
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.lits.capacity() * size_of::<Lit>() + self.ends.capacity() * size_of::<u32>()
    }

    /// Append a clause and return its literals.
    ///
    /// # Panics
    /// Panics if the list would hold 2^32 literals or more.
    pub fn push(&mut self, lits: impl IntoIterator<Item = Lit>) -> &[Lit] {
        let start = self.lits.len();
        self.lits.extend(lits);
        self.end_clause();
        &self.lits[start..]
    }

    /// Append a clause whose literals `fill` writes after the ones already
    /// held. On an error nothing is appended.
    pub fn push_with<E>(
        &mut self,
        fill: impl FnOnce(&mut Vec<Lit>) -> Result<(), E>,
    ) -> Result<(), E> {
        let start = self.lits.len();
        let filled = fill(&mut self.lits);
        match filled {
            Ok(()) => self.end_clause(),
            Err(_) => self.lits.truncate(start),
        }
        filled
    }

    fn end_clause(&mut self) {
        let end = u32::try_from(self.lits.len()).expect("a clause list holds < 2^32 literals");
        self.ends.push(end);
    }

    /// The `i`th clause.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> ClauseLits<'_> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        let end = self.ends[i];
        debug_assert!(start <= end, "clause ends decrease at {i}");
        debug_assert_eq!(self.ends.last().map(|&e| e as usize), Some(self.lits.len()));
        ClauseLits(&self.lits[start as usize..end as usize])
    }

    /// Each clause's literals, in order.
    pub fn iter(&self) -> Clauses<'_> {
        debug_assert_eq!(
            self.ends.last().map_or(0, |&e| e as usize),
            self.lits.len(),
            "the last clause end is not the literal count"
        );
        Clauses {
            lits: &self.lits,
            ends: self.ends.iter(),
            start: 0,
        }
    }

    /// Keep the clauses `keep` accepts, in order, each cut down to the
    /// literals `keep_lit` accepts. Returns the number of clauses dropped.
    pub fn retain(
        &mut self,
        mut keep: impl FnMut(&[Lit]) -> bool,
        mut keep_lit: impl FnMut(Lit) -> bool,
    ) -> usize {
        let before = self.ends.len();
        let (mut start, mut kept, mut written) = (0usize, 0usize, 0usize);
        for i in 0..before {
            let end = self.ends[i] as usize;
            if keep(&self.lits[start..end]) {
                // `written <= start`: literals only ever move down
                for j in start..end {
                    let lit = self.lits[j];
                    if keep_lit(lit) {
                        self.lits[written] = lit;
                        written += 1;
                    }
                }
                self.ends[kept] = written as u32;
                kept += 1;
            }
            start = end;
        }
        self.lits.truncate(written);
        self.ends.truncate(kept);
        before - kept
    }
}

impl fmt::Debug for ClauseList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.iter(), f)
    }
}

/// The clauses of a [`ClauseList`], in order: an iterator that is also a
/// cheap view of what is left of the list (`iter`, `==`, `{:?}`).
#[derive(Clone)]
pub struct Clauses<'a> {
    lits: &'a [Lit],
    ends: slice::Iter<'a, u32>,
    start: usize,
}

impl<'a> Clauses<'a> {
    /// The clauses still ahead, as a fresh iterator.
    pub fn iter(&self) -> Clauses<'a> {
        self.clone()
    }
}

impl<'a> Iterator for Clauses<'a> {
    type Item = ClauseLits<'a>;

    #[inline]
    fn next(&mut self) -> Option<ClauseLits<'a>> {
        let end = *self.ends.next()? as usize;
        debug_assert!(self.start <= end, "clause ends decrease");
        let clause = &self.lits[self.start..end];
        self.start = end;
        Some(ClauseLits(clause))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for Clauses<'_> {}

impl PartialEq for Clauses<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.clone().eq(other.clone())
    }
}

impl Eq for Clauses<'_> {}

impl fmt::Debug for Clauses<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

/// One clause of a [`ClauseList`]: its literals, borrowed. Dereferences
/// to `[Lit]`, and answers `lits` and `eval` as a [`Clause`](crate::Clause)
/// does.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ClauseLits<'a>(&'a [Lit]);

impl<'a> ClauseLits<'a> {
    /// The literals, for the list's whole lifetime.
    #[inline]
    pub fn lits(self) -> &'a [Lit] {
        self.0
    }

    /// Evaluate under a (possibly partial) assignment, as
    /// [`Clause::eval`](crate::Clause::eval) does.
    pub fn eval(self, a: &Assignment) -> Value {
        eval_lits(self.0, a)
    }
}

impl Deref for ClauseLits<'_> {
    type Target = [Lit];

    #[inline]
    fn deref(&self) -> &[Lit] {
        self.0
    }
}

impl fmt::Debug for ClauseLits<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_lits(self.0, f)
    }
}

impl fmt::Display for ClauseLits<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_lits(self.0, f)
    }
}

/// A disjunction's value: true if any literal is true, false if every
/// one is false (the empty clause included), unassigned otherwise.
pub(crate) fn eval_lits(lits: &[Lit], a: &Assignment) -> Value {
    let mut any_unassigned = false;
    for &l in lits {
        match a.lit_value(l) {
            Value::True => return Value::True,
            Value::Unassigned => any_unassigned = true,
            Value::False => {}
        }
    }
    if any_unassigned {
        Value::Unassigned
    } else {
        Value::False
    }
}

/// The paper's clause notation: `(~V10 + ~V7 + V8)`.
pub(crate) fn fmt_lits(lits: &[Lit], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "(")?;
    for (i, l) in lits.iter().enumerate() {
        if i > 0 {
            write!(f, " + ")?;
        }
        write!(f, "{l}")?;
    }
    write!(f, ")")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_fill_appends_nothing() {
        let mut list = ClauseList::default();
        list.push([Lit::pos(0), Lit::neg(1)]);
        let failed = list.push_with(|lits| {
            lits.push(Lit::pos(7));
            Err("truncated")
        });
        assert_eq!(failed, Err("truncated"));
        assert_eq!((list.len(), list.num_lits()), (1, 2));
        list.push_with(|lits| {
            lits.push(Lit::neg(3));
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(list.get(1).lits(), [Lit::neg(3)]);
        assert_eq!(format!("{list:?}"), "[(V1 + ~V2), (~V4)]");
    }
}

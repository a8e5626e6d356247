//! The clause database: one flat `u32` arena (MiniSat/CaDiCaL-style).
//!
//! Every clause lives inline in a single contiguous buffer: a two-word
//! header (its length with the learned/dead flags; its display id)
//! followed by its literals. A learned clause carries two more words in
//! front of its header, its LBD "glue" score and its activity, which only
//! learned clauses read: an original clause — every clause of the input
//! formula, and every clause a thief loads from a spec — is two words
//! shorter. A [`ClauseRef`] is the word offset of the header, so a
//! clause's literals sit at the same offset from it whatever its kind,
//! and dereferencing a clause during BCP is one indexed load into memory
//! that neighbouring clauses already pulled into cache — no
//! `Vec<Lit>`-behind-a-slot double indirection.
//!
//! ```text
//!  original:         | len·flags | id | lit lit lit | ...
//!                    ^ ClauseRef(off)  ^ off + HEADER_WORDS
//!  learned:  | lbd·T | act | len·flags | id | lit lit lit | ...
//!                          ^ ClauseRef(off)  ^ off + HEADER_WORDS
//! ```
//!
//! The LBD word has its top bit (`T`) set and a header word never has, so
//! a walk over the arena tells at each record's first word whether a
//! learned prefix or a header starts there.
//!
//! Deletion only sets the `dead` flag; the words stay in place as garbage
//! until [`ClauseDb::collect`] compacts the arena. **Clause references are
//! therefore stable only between collections**: after a `collect`, every
//! held `ClauseRef` must be rewritten through the returned [`RelocMap`]
//! (the solver remaps its watch lists and trail antecedents). This
//! replaces the old slot-and-freelist design whose references were stable
//! until deletion.
//!
//! The database also carries the *memory model*: every live clause is
//! charged for its arena words (header + one word per literal) plus a
//! fixed per-clause overhead covering its two watch-list entries, which
//! is what the solver compares against its budget and what a GridSAT
//! client's memory monitor watches (paper Section 3.3): `48 + 4*len`
//! bytes per clause, unchanged from the pre-arena model, so calibrated
//! MEM_OUT behaviour is preserved. The collection trigger keeps its own
//! count in the same spirit: [`CHARGED_HEADER_WORDS`] (four) words a
//! clause plus its literals, what the arena held when every header had
//! four words, so collections run exactly when they always did.

use gridsat_cnf::{Clause, Lit};

/// Branchless literal valuation, mirroring `Value` for the BCP hot path:
/// the solver keeps a `u8` per variable (0 = true, 1 = false, 2 =
/// unassigned) so a literal's value is `assign[var] ^ sign` — 0 means the
/// literal is true, 1 false, ≥ 2 unassigned — with no match or branch.
pub(crate) const LV_TRUE: u8 = 0;
pub(crate) const LV_FALSE: u8 = 1;
pub(crate) const LV_UNASSIGNED: u8 = 2;

/// Outcome of one BCP watch visit ([`ClauseDb::propagate_visit`]).
pub(crate) enum Visit {
    /// The other watched literal is true; keep the watch, use it as blocker.
    Satisfied(Lit),
    /// The false watch moved to the second literal; push a new watch
    /// there, with the first literal as its blocker.
    Relocated(Lit, Lit),
    /// Every non-watched literal is false and the other watch is
    /// unassigned: the clause implies it.
    Unit(Lit),
    /// Every literal is false.
    Conflict(Lit),
}

/// Reference to a clause: the arena word offset of its header. Stable
/// only until the next `ClauseDb::collect`; remap through the returned
/// `RelocMap` to survive a collection.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ClauseRef(pub(crate) u32);

impl ClauseRef {
    /// Sentinel: "no clause". Used for unassigned variables.
    pub const NONE: ClauseRef = ClauseRef(u32::MAX);

    /// Sentinel: "decision". The paper gives decision variables the
    /// fictitious antecedent "clause 0".
    pub const DECISION: ClauseRef = ClauseRef(u32::MAX - 1);

    /// Sentinel: an empty watch-list slot (`watch.rs`). The value of
    /// [`ClauseRef::NONE`], named for the role.
    pub(crate) const VACANT: ClauseRef = ClauseRef::NONE;

    /// Sentinel: slot 0 of a watch list whose watches live in a heap
    /// block (`watch.rs`). The lowest sentinel: `ClauseDb::insert` keeps
    /// every real reference below it.
    pub(crate) const SPILLED: ClauseRef = ClauseRef(u32::MAX - 2);

    /// `true` for real clause references (not a sentinel).
    #[inline]
    pub fn is_real(self) -> bool {
        self.0 < ClauseRef::SPILLED.0
    }
}

/// Words in a clause header: `[len·flags, display_id]`.
pub(crate) const HEADER_WORDS: usize = 2;
/// Words in front of a learned clause's header: `[lbd·T, activity]`.
pub(crate) const LEARNED_WORDS: usize = 2;
/// Words the collection trigger charges a clause besides its literals:
/// the four-word header every clause had before the learned-only fields
/// moved out of it.
pub(crate) const CHARGED_HEADER_WORDS: usize = 4;

/// The memory model: bytes charged per stored literal, and fixed bytes
/// charged per stored clause.
const BYTES_PER_LIT: usize = 4;
const BYTES_PER_CLAUSE: usize = 48;

/// The header word: the length above two flag bits.
const F_LEARNED: u32 = 1;
const F_DEAD: u32 = 2;
const LEN_SHIFT: u32 = 2;
/// Longest clause: its header word keeps the top bit clear.
const LEN_MAX: usize = (1 << (31 - LEN_SHIFT)) - 1;
/// Marks a learned clause's LBD word, the first word of its record.
const LEARNED_TAG: u32 = 1 << 31;
/// Highest LBD stored; a larger glue saturates.
const LBD_MAX: u32 = (1 << 30) - 1;

/// Rescale all clause activities (and the increment) once either crosses
/// this, well below `f32::MAX` so sums never reach infinity.
const ACTIVITY_RESCALE_AT: f32 = 1e20;
const ACTIVITY_RESCALE_BY: f32 = 1e-20;

/// Relocation table produced by [`ClauseDb::collect`]: old references of
/// the surviving clauses mapped to their new ones, sorted by old
/// reference (compaction preserves clause order).
pub(crate) struct RelocMap {
    pairs: Vec<(u32, u32)>,
}

impl RelocMap {
    /// The post-collection offset of a clause. Sentinels map to
    /// themselves; dead or unknown references panic — holding one across
    /// a collection is a solver bug, not a recoverable condition.
    #[inline]
    pub(crate) fn remap(&self, cref: ClauseRef) -> ClauseRef {
        if !cref.is_real() {
            return cref;
        }
        match self.pairs.binary_search_by_key(&cref.0, |p| p.0) {
            Ok(i) => ClauseRef(self.pairs[i].1),
            Err(_) => panic!("remap of dead or unknown {cref:?}"),
        }
    }
}

/// Clause storage. See module docs.
pub struct ClauseDb {
    arena: Vec<u32>,
    live: usize,
    learned: usize,
    bytes: usize,
    /// Words the collection trigger counts for every clause in the
    /// arena, live or dead: [`CHARGED_HEADER_WORDS`] plus its length.
    charged_words: usize,
    /// The part of `charged_words` held by dead clauses.
    garbage_words: usize,
    next_display_id: u32,
    clause_activity_inc: f32,
}

impl ClauseDb {
    /// Empty database.
    pub fn new() -> ClauseDb {
        ClauseDb {
            arena: Vec::new(),
            live: 0,
            learned: 0,
            bytes: 0,
            charged_words: 0,
            garbage_words: 0,
            next_display_id: 1,
            clause_activity_inc: 1.0,
        }
    }

    fn clause_bytes(len: usize) -> usize {
        BYTES_PER_CLAUSE + len * BYTES_PER_LIT
    }

    #[inline]
    fn header(&self, cref: ClauseRef) -> u32 {
        self.arena[cref.0 as usize]
    }

    #[inline]
    fn len_of(header: u32) -> usize {
        (header >> LEN_SHIFT) as usize
    }

    #[inline]
    fn debug_assert_live(&self, cref: ClauseRef) {
        debug_assert!(self.header(cref) & F_DEAD == 0, "use of deleted {cref:?}");
    }

    /// The clause whose record starts at word `off`, and the word after
    /// its record.
    #[inline]
    fn record_at(&self, off: usize) -> (ClauseRef, usize) {
        let cref = if self.arena[off] & LEARNED_TAG != 0 {
            off + LEARNED_WORDS
        } else {
            off
        };
        let end = cref + HEADER_WORDS + Self::len_of(self.arena[cref]);
        (ClauseRef(cref as u32), end)
    }

    /// Insert a clause; returns its reference. `lbd` is the glue score
    /// (0 for original clauses, computed at learn time for learned ones).
    pub fn insert(&mut self, lits: &[Lit], learned: bool, lbd: u32) -> ClauseRef {
        debug_assert!(!lits.is_empty());
        debug_assert!(learned || lbd == 0, "an original clause has no glue");
        assert!(lits.len() <= LEN_MAX, "clause of {} literals", lits.len());
        let prefix = if learned { LEARNED_WORDS } else { 0 };
        let words = prefix + HEADER_WORDS + lits.len();
        assert!(
            self.arena.len() + words <= ClauseRef::SPILLED.0 as usize,
            "clause arena exceeds u32 offsets"
        );
        self.bytes += Self::clause_bytes(lits.len());
        self.charged_words += CHARGED_HEADER_WORDS + lits.len();
        self.live += 1;
        self.arena.reserve(words);
        if learned {
            self.learned += 1;
            self.arena.push(LEARNED_TAG | lbd.min(LBD_MAX));
            self.arena.push(0f32.to_bits());
        }
        let off = self.arena.len();
        let flags = u32::from(learned) * F_LEARNED;
        self.arena.push(((lits.len() as u32) << LEN_SHIFT) | flags);
        self.arena.push(self.next_display_id);
        self.next_display_id += 1;
        self.arena.extend(lits.iter().map(|l| l.code() as u32));
        ClauseRef(off as u32)
    }

    /// Reserve arena room for `clauses` original clauses of `lits`
    /// literals in all at once, so a bulk load copies each clause in
    /// without regrowing the arena. Rounded up to a power of two, as
    /// repeated doubling would have left it: an odd-sized block is a hole
    /// nothing else reuses once the learned clauses outgrow it.
    pub(crate) fn reserve_for(&mut self, clauses: usize, lits: usize) {
        let words = clauses * HEADER_WORDS + lits;
        if words > 0 {
            self.arena.reserve(words.next_power_of_two());
        }
    }

    /// Delete a clause: marks it dead and releases its model bytes. The
    /// words stay in the arena as garbage until the next [`collect`]
    /// (the caller must already have detached its watches).
    ///
    /// [`collect`]: ClauseDb::collect
    pub fn delete(&mut self, cref: ClauseRef) {
        debug_assert!(cref.is_real());
        let off = cref.0 as usize;
        let header = self.arena[off];
        assert!(header & F_DEAD == 0, "double delete of {cref:?}");
        self.arena[off] = header | F_DEAD;
        let len = Self::len_of(header);
        self.bytes -= Self::clause_bytes(len);
        self.live -= 1;
        if header & F_LEARNED != 0 {
            self.learned -= 1;
        }
        self.garbage_words += CHARGED_HEADER_WORDS + len;
    }

    /// The literals of a clause.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        self.debug_assert_live(cref);
        let off = cref.0 as usize;
        let len = Self::len_of(self.arena[off]);
        debug_assert!(off + HEADER_WORDS + len <= self.arena.len());
        // SAFETY: `Lit` is `repr(transparent)` over `u32`, and every word
        // in a clause's literal region was written from `Lit::code` by
        // `insert` (or by `lits_mut` swaps of those same words). The
        // region lies in bounds by construction.
        unsafe {
            std::slice::from_raw_parts(
                self.arena.as_ptr().add(off + HEADER_WORDS).cast::<Lit>(),
                len,
            )
        }
    }

    /// Mutable view of a clause's literals (BCP reorders watched
    /// positions in place).
    #[inline]
    pub(crate) fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        self.debug_assert_live(cref);
        let off = cref.0 as usize;
        let len = Self::len_of(self.arena[off]);
        debug_assert!(off + HEADER_WORDS + len <= self.arena.len());
        // SAFETY: as in `lits`; the exclusive borrow of `self` guarantees
        // no aliasing view of the arena exists.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.arena
                    .as_mut_ptr()
                    .add(off + HEADER_WORDS)
                    .cast::<Lit>(),
                len,
            )
        }
    }

    /// One BCP visit of a clause watched on `false_lit`, done under a
    /// single arena borrow: normalize so the false watch sits at
    /// position 1, test the other watch, scan for a replacement, and
    /// classify. Keeping the whole visit here means the replacement scan
    /// runs over one slice instead of re-deriving the clause per literal
    /// (the dominant cost on long learned clauses).
    ///
    /// `assign` is the solver's branchless per-variable valuation array
    /// ([`LV_TRUE`]/[`LV_FALSE`]/[`LV_UNASSIGNED`]): a literal's value is
    /// the single xor `assign[var] ^ sign`, so the replacement scan
    /// compiles to load-xor-compare per literal with no branchy decode.
    #[inline]
    pub(crate) fn propagate_visit(
        &mut self,
        cref: ClauseRef,
        false_lit: Lit,
        assign: &[u8],
    ) -> Visit {
        let lits = self.lits_mut(cref);
        debug_assert!(lits.len() >= 2);
        debug_assert!(lits.iter().all(|l| l.var().index() < assign.len()));
        // SAFETY (all unchecked accesses below): watched clauses have
        // >= 2 literals, `k` ranges below `lits.len()`, and every literal's
        // variable indexes `assign` (one entry per formula variable).
        let val = |l: Lit| -> u8 {
            unsafe { *assign.get_unchecked(l.var().index()) ^ (l.code() as u8 & 1) }
        };
        unsafe {
            // the false watch is one of the first two: the other is the xor
            // of the three codes, and writing both slots moves it to slot 1
            // without a branch on which slot it was in
            debug_assert!(lits[0] == false_lit || lits[1] == false_lit);
            let p = lits.as_mut_ptr();
            let first = Lit::from_code((*p).code() ^ (*p.add(1)).code() ^ false_lit.code());
            *p = first;
            *p.add(1) = false_lit;
            let fv = val(first);
            if fv == LV_TRUE {
                return Visit::Satisfied(first);
            }
            for k in 2..lits.len() {
                let lk = *lits.get_unchecked(k);
                if val(lk) != LV_FALSE {
                    let p = lits.as_mut_ptr();
                    std::ptr::swap(p.add(1), p.add(k));
                    return Visit::Relocated(first, lk);
                }
            }
            if fv == LV_FALSE {
                Visit::Conflict(first)
            } else {
                Visit::Unit(first)
            }
        }
    }

    /// Hint the CPU to pull a clause's header and leading literals into
    /// cache. BCP looks one watch ahead so the arena load for the next
    /// visit overlaps the current one; a stale or out-of-range hint is
    /// harmless (prefetching never faults).
    #[inline]
    pub(crate) fn prefetch(&self, cref: ClauseRef) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `_mm_prefetch` is a hint; it performs no memory access
        // that can fault. `wrapping_add` keeps the pointer computation
        // defined even for a reference past the arena end.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(
                self.arena
                    .as_ptr()
                    .wrapping_add(cref.0 as usize)
                    .cast::<i8>(),
                _MM_HINT_T0,
            );
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = cref;
    }

    /// The 1-based display id of a clause (paper numbering).
    pub fn display_id(&self, cref: ClauseRef) -> u32 {
        self.debug_assert_live(cref);
        self.arena[cref.0 as usize + 1]
    }

    /// Is the clause learned?
    #[inline]
    pub fn is_learned(&self, cref: ClauseRef) -> bool {
        self.header(cref) & F_LEARNED != 0
    }

    /// Is the reference live (in bounds, on a header, not deleted)?
    /// Post-collection references to old offsets are *not* reliably
    /// detected (the offset may now fall mid-clause); this is a test and
    /// invariant-check helper, not a safety mechanism.
    #[doc(hidden)]
    pub fn is_live(&self, cref: ClauseRef) -> bool {
        cref.is_real()
            && (cref.0 as usize + 1) < self.arena.len()
            && self.header(cref) & (F_DEAD | LEARNED_TAG) == 0
    }

    /// The clause's LBD ("glue"): distinct decision levels among its
    /// literals at learn time. 0 for original clauses.
    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        if self.is_learned(cref) {
            self.arena[cref.0 as usize - LEARNED_WORDS] & !LEARNED_TAG
        } else {
            0
        }
    }

    /// Activity of a learned clause (reduction tie-break).
    #[inline]
    pub(crate) fn activity(&self, cref: ClauseRef) -> f32 {
        debug_assert!(self.is_learned(cref), "{cref:?} has no activity");
        f32::from_bits(self.arena[cref.0 as usize - 1])
    }

    /// Live clause count.
    pub fn num_live(&self) -> usize {
        self.live
    }

    /// Live learned-clause count.
    pub fn num_learned(&self) -> usize {
        self.learned
    }

    /// Current footprint under the memory model, in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Arena size as the collection trigger counts it (live + garbage):
    /// [`CHARGED_HEADER_WORDS`] per clause plus its literals.
    pub fn charged_words(&self) -> usize {
        self.charged_words
    }

    /// Words the arena has room for without regrowing.
    pub fn capacity_words(&self) -> usize {
        self.arena.capacity()
    }

    /// The part of [`ClauseDb::charged_words`] held by dead clauses.
    pub fn garbage_words(&self) -> usize {
        self.garbage_words
    }

    /// Fraction of the charged arena held by dead clauses.
    pub fn garbage_frac(&self) -> f64 {
        if self.charged_words == 0 {
            0.0
        } else {
            self.garbage_words as f64 / self.charged_words as f64
        }
    }

    /// Iterate over live clause references in arena order.
    pub fn iter_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut off = 0usize;
        std::iter::from_fn(move || {
            while off < self.arena.len() {
                let (cref, end) = self.record_at(off);
                off = end;
                if self.header(cref) & F_DEAD == 0 {
                    return Some(cref);
                }
            }
            None
        })
    }

    /// Compact the arena: slide every live clause down over the garbage
    /// (a mark-compact collection — the dead flag is the mark). Returns
    /// the relocation map the caller must apply to every held
    /// [`ClauseRef`]; old references are invalid afterwards.
    pub(crate) fn collect(&mut self) -> RelocMap {
        let mut pairs = Vec::with_capacity(self.live);
        let mut write = 0usize;
        let mut read = 0usize;
        while read < self.arena.len() {
            let (cref, end) = self.record_at(read);
            if self.header(cref) & F_DEAD == 0 {
                let moved = write + (cref.0 as usize - read);
                pairs.push((cref.0, moved as u32));
                if write != read {
                    self.arena.copy_within(read..end, write);
                }
                write += end - read;
            }
            read = end;
        }
        self.arena.truncate(write);
        self.charged_words -= self.garbage_words;
        self.garbage_words = 0;
        RelocMap { pairs }
    }

    /// Bump a learned clause's activity (used during conflict analysis);
    /// rescales all activities when they grow too large.
    pub fn bump_activity(&mut self, cref: ClauseRef) {
        self.debug_assert_live(cref);
        debug_assert!(self.is_learned(cref), "{cref:?} has no activity");
        let at = cref.0 as usize - 1;
        let a = f32::from_bits(self.arena[at]) + self.clause_activity_inc;
        self.arena[at] = a.to_bits();
        if a > ACTIVITY_RESCALE_AT {
            self.rescale_activities();
        }
    }

    /// Decay clause activities by inflating the increment (MiniSat trick).
    pub fn decay_activity(&mut self, factor: f32) {
        debug_assert!(factor > 0.0 && factor < 1.0);
        self.clause_activity_inc /= factor;
        // The increment grows monotonically between bumps. On a long run
        // whose conflicts rarely touch learned clauses it would reach
        // f32::INFINITY (~88k decays at 0.999) and poison every later
        // bump, so rescaling must trigger on the increment itself, not
        // only on a bumped activity crossing the threshold.
        if self.clause_activity_inc > ACTIVITY_RESCALE_AT {
            self.rescale_activities();
        }
    }

    fn rescale_activities(&mut self) {
        let mut off = 0usize;
        while off < self.arena.len() {
            let (cref, end) = self.record_at(off);
            if self.header(cref) & (F_LEARNED | F_DEAD) == F_LEARNED {
                let at = cref.0 as usize - 1;
                let a = f32::from_bits(self.arena[at]) * ACTIVITY_RESCALE_BY;
                self.arena[at] = a.to_bits();
            }
            off = end;
        }
        self.clause_activity_inc *= ACTIVITY_RESCALE_BY;
    }

    /// The current activity increment (regression-test introspection).
    #[doc(hidden)]
    pub fn activity_increment(&self) -> f32 {
        self.clause_activity_inc
    }

    /// Export a clause to the interchange representation.
    pub fn export(&self, cref: ClauseRef) -> Clause {
        Clause::new(self.lits(cref).iter().copied())
    }

    /// Walk the arena and verify the counters (`live`, `learned`,
    /// `bytes`, `charged_words`, `garbage_words`) against ground truth,
    /// and that a record has the learned prefix iff its header has the
    /// learned flag. Test/debug only.
    #[doc(hidden)]
    pub fn check_accounting(&self) {
        let (mut live, mut learned, mut bytes) = (0usize, 0usize, 0usize);
        let (mut charged, mut garbage) = (0usize, 0usize);
        let mut off = 0usize;
        while off < self.arena.len() {
            let (cref, end) = self.record_at(off);
            let header = self.header(cref);
            let len = Self::len_of(header);
            assert_eq!(header & LEARNED_TAG, 0, "{cref:?}: a header word is tagged");
            assert_eq!(
                header & F_LEARNED != 0,
                cref.0 as usize != off,
                "{cref:?}: the learned flag and the learned prefix disagree"
            );
            charged += CHARGED_HEADER_WORDS + len;
            if header & F_DEAD == 0 {
                live += 1;
                learned += usize::from(header & F_LEARNED != 0);
                bytes += Self::clause_bytes(len);
            } else {
                garbage += CHARGED_HEADER_WORDS + len;
            }
            off = end;
        }
        assert_eq!(off, self.arena.len(), "arena walk must end on a boundary");
        assert_eq!(live, self.live);
        assert_eq!(learned, self.learned);
        assert_eq!(bytes, self.bytes);
        assert_eq!(charged, self.charged_words);
        assert_eq!(garbage, self.garbage_words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsat_cnf::rng::Rng;
    use gridsat_cnf::Lit;

    fn lits(v: &[i64]) -> Vec<Lit> {
        v.iter().map(|&d| Lit::from_dimacs(d)).collect()
    }

    #[test]
    fn insert_get_delete() {
        let mut db = ClauseDb::new();
        let a = db.insert(&lits(&[1, 2, 3]), false, 0);
        let b = db.insert(&lits(&[-1, 4]), true, 2);
        assert_eq!(db.num_live(), 2);
        assert_eq!(db.num_learned(), 1);
        assert_eq!(db.lits(a), lits(&[1, 2, 3]).as_slice());
        assert_eq!(db.display_id(a), 1);
        assert_eq!(db.display_id(b), 2);
        assert_eq!(db.lbd(b), 2);
        assert_eq!(db.bytes(), (48 + 12) + (48 + 8));

        db.delete(b);
        assert_eq!(db.num_live(), 1);
        assert_eq!(db.num_learned(), 0);
        assert_eq!(db.bytes(), 48 + 12);
        assert_eq!(db.garbage_words(), 4 + 2);

        // the arena appends; display ids keep counting
        let c = db.insert(&lits(&[5]), false, 0);
        assert_eq!(db.display_id(c), 3);
        assert_eq!(db.iter_refs().count(), 2);
        db.check_accounting();
    }

    #[test]
    #[should_panic(expected = "double delete")]
    fn double_delete_panics() {
        let mut db = ClauseDb::new();
        let a = db.insert(&lits(&[1]), false, 0);
        db.delete(a);
        db.delete(a);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "deletion check is debug-only")]
    #[should_panic(expected = "use of deleted")]
    fn use_after_delete_panics_in_debug() {
        let mut db = ClauseDb::new();
        let a = db.insert(&lits(&[1]), false, 0);
        db.delete(a);
        let _ = db.lits(a);
    }

    #[test]
    fn sentinels() {
        assert!(!ClauseRef::NONE.is_real());
        assert!(!ClauseRef::DECISION.is_real());
        assert!(!ClauseRef::VACANT.is_real());
        assert!(!ClauseRef::SPILLED.is_real());
        assert!(ClauseRef(0).is_real());
        assert!(ClauseRef(ClauseRef::SPILLED.0 - 1).is_real());
        assert_ne!(ClauseRef::NONE, ClauseRef::DECISION);
        assert_ne!(ClauseRef::SPILLED, ClauseRef::DECISION);
    }

    #[test]
    fn collect_compacts_and_remaps() {
        let mut db = ClauseDb::new();
        let a = db.insert(&lits(&[1, 2, 3]), false, 0);
        let b = db.insert(&lits(&[-1, 4]), true, 3);
        let c = db.insert(&lits(&[2, -4, 5, 6]), true, 4);
        db.delete(b);
        let bytes_before = db.bytes();

        let map = db.collect();
        let a2 = map.remap(a);
        let c2 = map.remap(c);
        assert_eq!(map.remap(ClauseRef::NONE), ClauseRef::NONE);
        assert_eq!(map.remap(ClauseRef::DECISION), ClauseRef::DECISION);

        assert_eq!(a2, a, "first clause does not move");
        assert!(c2.0 < c.0, "clause after the hole slides down");
        assert_eq!(db.lits(a2), lits(&[1, 2, 3]).as_slice());
        assert_eq!(db.lits(c2), lits(&[2, -4, 5, 6]).as_slice());
        assert_eq!(db.display_id(c2), 3);
        assert_eq!(db.lbd(c2), 4);
        assert!(db.is_learned(c2));
        assert_eq!(db.garbage_words(), 0);
        assert_eq!(db.bytes(), bytes_before, "model bytes unaffected by GC");
        assert_eq!(db.iter_refs().count(), 2);
        db.check_accounting();
    }

    #[test]
    #[should_panic(expected = "remap of dead")]
    fn remapping_a_dead_ref_panics() {
        let mut db = ClauseDb::new();
        let a = db.insert(&lits(&[1, 2]), false, 0);
        db.delete(a);
        let map = db.collect();
        let _ = map.remap(a);
    }

    #[test]
    fn activity_bump_and_rescale() {
        let mut db = ClauseDb::new();
        let a = db.insert(&lits(&[1, 2]), true, 2);
        db.bump_activity(a);
        let before = db.activity(a);
        assert!(before > 0.0);
        db.decay_activity(0.5);
        db.bump_activity(a);
        assert!(db.activity(a) > before * 1.5);
    }

    /// Regression: with decay alone (no bump crossing the threshold) the
    /// activity increment must not overflow `f32` to infinity.
    #[test]
    fn decay_alone_never_overflows_the_increment() {
        let mut db = ClauseDb::new();
        let a = db.insert(&lits(&[1, 2]), true, 2);
        let b = db.insert(&lits(&[-1, 3]), true, 2);
        db.bump_activity(a);
        // 200k decays at 0.999 ≈ inc * e^200; overflows without rescaling
        for _ in 0..200_000 {
            db.decay_activity(0.999);
        }
        assert!(db.activity_increment().is_finite());
        db.bump_activity(b);
        assert!(db.activity(a).is_finite());
        assert!(db.activity(b).is_finite());
        assert!(
            db.activity(b) > db.activity(a),
            "recency ordering survives rescaling"
        );
    }

    #[test]
    fn lbd_saturates() {
        let mut db = ClauseDb::new();
        let a = db.insert(&lits(&[1, 2]), true, u32::MAX);
        assert_eq!(db.lbd(a), LBD_MAX);
    }

    /// What a clause takes in the arena, per kind: two header words for
    /// an original clause, four for a learned one, then its literals.
    /// A change that grows either must change this pin on purpose.
    #[test]
    fn header_words_per_clause_kind_are_pinned() {
        let mut db = ClauseDb::new();
        let mut before = 0;
        for (learned, len, words) in [(false, 1, 3), (false, 3, 5), (true, 2, 6), (true, 7, 11)] {
            let clause: Vec<i64> = (1..=len).collect();
            db.insert(&lits(&clause), learned, u32::from(learned) * 2);
            assert_eq!(
                db.arena.len() - before,
                words,
                "learned {learned}, len {len}"
            );
            before = db.arena.len();
        }
        assert_eq!((HEADER_WORDS, LEARNED_WORDS), (2, 2));
        // the collection trigger still charges four header words a clause
        assert_eq!(db.charged_words(), 4 * 4 + 1 + 3 + 2 + 7);
        db.check_accounting();
    }

    /// One clause of the reference model: what the arena must say about
    /// it, and whether it still occupies arena words.
    #[derive(Clone, Debug)]
    struct ModelClause {
        lits: Vec<Lit>,
        learned: bool,
        lbd: u32,
        activity: f32,
        id: u32,
        dead: bool,
        /// Its reference in the arena under test.
        cref: ClauseRef,
    }

    /// The arena's contract as a plain `Vec` of clauses, in insertion
    /// order, with the activity arithmetic done the same way.
    #[derive(Default)]
    struct Model {
        clauses: Vec<ModelClause>,
        inc: f32,
        next_id: u32,
    }

    impl Model {
        fn live(&self) -> impl Iterator<Item = &ModelClause> {
            self.clauses.iter().filter(|c| !c.dead)
        }

        fn rescale(&mut self) {
            for c in self.clauses.iter_mut().filter(|c| c.learned && !c.dead) {
                c.activity *= ACTIVITY_RESCALE_BY;
            }
            self.inc *= ACTIVITY_RESCALE_BY;
        }

        /// `(charged, garbage)` words, the trigger's count.
        fn charged(&self) -> (usize, usize) {
            let words = |c: &ModelClause| CHARGED_HEADER_WORDS + c.lits.len();
            let garbage = self.clauses.iter().filter(|c| c.dead).map(words).sum();
            (self.clauses.iter().map(words).sum(), garbage)
        }

        /// Whether the solver's collection rule fires.
        fn gc_due(&self) -> bool {
            let (charged, garbage) = self.charged();
            garbage > 0 && garbage as f64 / charged as f64 >= 0.25
        }

        /// Arena words: two header words a clause, two more if learned.
        fn arena_words(&self) -> usize {
            let words = |c: &ModelClause| 2 + 2 * usize::from(c.learned) + c.lits.len();
            self.clauses.iter().map(words).sum()
        }

        fn check(&self, db: &ClauseDb, at: &str) {
            db.check_accounting();
            let walk: Vec<ClauseRef> = db.iter_refs().collect();
            let want: Vec<ClauseRef> = self.live().map(|c| c.cref).collect();
            assert_eq!(walk, want, "{at}: walk order");
            for c in self.live() {
                assert_eq!(db.lits(c.cref), c.lits.as_slice(), "{at}");
                assert_eq!(db.is_learned(c.cref), c.learned, "{at}");
                assert_eq!(
                    db.lbd(c.cref),
                    c.lbd.min(LBD_MAX) * u32::from(c.learned),
                    "{at}"
                );
                assert_eq!(db.display_id(c.cref), c.id, "{at}");
                assert!(db.is_live(c.cref), "{at}");
                if c.learned {
                    assert_eq!(db.activity(c.cref).to_bits(), c.activity.to_bits(), "{at}");
                }
            }
            let learned = self.live().filter(|c| c.learned).count();
            let bytes: usize = self.live().map(|c| 48 + 4 * c.lits.len()).sum();
            assert_eq!(
                (db.num_live(), db.num_learned()),
                (want.len(), learned),
                "{at}"
            );
            assert_eq!(db.bytes(), bytes, "{at}");
            assert_eq!(
                (db.charged_words(), db.garbage_words()),
                self.charged(),
                "{at}"
            );
            assert_eq!(db.arena.len(), self.arena_words(), "{at}: words per clause");
            assert_eq!(
                db.activity_increment().to_bits(),
                self.inc.to_bits(),
                "{at}"
            );
        }
    }

    /// The arena against a `Vec` of clauses over 400 seeded schedules of
    /// inserts (original and learned, glue up to past the saturation
    /// point), deletes, activity bumps and decays fast enough to rescale,
    /// and collections with remap — whenever the solver's trigger fires
    /// and at random. Literals, flags, glue, activity, display ids, walk
    /// order, words per clause and the collection schedule must all be
    /// the model's after every operation.
    #[test]
    fn the_arena_behaves_like_a_vec_of_clauses() {
        let (mut collections, mut triggered, mut rescales) = (0u64, 0u64, 0u64);
        for schedule in 0..400u64 {
            let mut rng = Rng::seed_from_u64(schedule);
            let mut db = ClauseDb::new();
            let mut model = Model {
                inc: 1.0,
                next_id: 1,
                ..Model::default()
            };
            if rng.gen_bool(0.5) {
                let lens: Vec<usize> = (0..rng.range_usize(0..30))
                    .map(|_| rng.range_usize(1..9))
                    .collect();
                db.reserve_for(lens.len(), lens.iter().sum());
            }
            for step in 0..rng.range_usize(1..300) {
                let at = format!("schedule {schedule} step {step}");
                let live: Vec<usize> = (0..model.clauses.len())
                    .filter(|&i| !model.clauses[i].dead)
                    .collect();
                match rng.range_u32(0..12) {
                    0..=4 => {
                        let len = rng.range_usize(1..12);
                        let lits: Vec<Lit> = (0..len)
                            .map(|_| Lit::from_code(rng.range_usize(0..80)))
                            .collect();
                        let learned = rng.gen_bool(0.6);
                        let lbd = match (learned, rng.range_u32(0..8)) {
                            (false, _) => 0,
                            (true, 0) => u32::MAX - rng.range_u32(0..3),
                            (true, _) => rng.range_u32(0..40),
                        };
                        let cref = db.insert(&lits, learned, lbd);
                        model.clauses.push(ModelClause {
                            lits,
                            learned,
                            lbd,
                            activity: 0.0,
                            id: model.next_id,
                            dead: false,
                            cref,
                        });
                        model.next_id += 1;
                    }
                    5 | 6 if !live.is_empty() => {
                        let i = live[rng.range_usize(0..live.len())];
                        db.delete(model.clauses[i].cref);
                        model.clauses[i].dead = true;
                    }
                    7 | 8 => {
                        let learned: Vec<usize> = live
                            .iter()
                            .copied()
                            .filter(|&i| model.clauses[i].learned)
                            .collect();
                        if let Some(&i) = learned.get(rng.range_usize(0..learned.len().max(1))) {
                            db.bump_activity(model.clauses[i].cref);
                            let c = &mut model.clauses[i];
                            c.activity += model.inc;
                            if c.activity > ACTIVITY_RESCALE_AT {
                                model.rescale();
                                rescales += 1;
                            }
                        }
                    }
                    9 => {
                        let factor = [0.999, 0.5, 1e-4][rng.range_usize(0..3)];
                        db.decay_activity(factor);
                        model.inc /= factor;
                        if model.inc > ACTIVITY_RESCALE_AT {
                            model.rescale();
                            rescales += 1;
                        }
                    }
                    _ => {}
                }
                model.check(&db, &at);
                // the solver's rule, and now and then a forced collection
                let due = db.garbage_words() > 0 && db.garbage_frac() >= 0.25;
                assert_eq!(due, model.gc_due(), "{at}: collection schedule");
                triggered += u64::from(due);
                if due || rng.gen_bool(0.05) {
                    let map = db.collect();
                    model.clauses.retain(|c| !c.dead);
                    for c in &mut model.clauses {
                        c.cref = map.remap(c.cref);
                    }
                    collections += 1;
                    assert_eq!(db.garbage_words(), 0, "{at}");
                    model.check(&db, &format!("{at}, collected"));
                }
            }
        }
        assert!(
            collections > 1000 && triggered > 500 && rescales > 50,
            "{collections} collections, {triggered} triggered, {rescales} rescales"
        );
    }
}

//! The clause database: one flat `u32` arena (MiniSat/CaDiCaL-style).
//!
//! Every clause lives inline in a single contiguous buffer: a four-word
//! header (length; learned/dead flags plus the LBD "glue" score;
//! activity; display id) followed by its literals. A [`ClauseRef`] is the
//! word offset of the header, so dereferencing a clause during BCP is one
//! indexed load into memory that neighbouring clauses already pulled into
//! cache — no `Vec<Lit>`-behind-a-slot double indirection.
//!
//! ```text
//!  arena:  | len | flags·lbd | act | id | lit lit lit | len | ... |
//!          ^ ClauseRef(off)              ^ off + HEADER_WORDS
//! ```
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
//! MEM_OUT behaviour is preserved.

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

    /// `true` for real clause references (not a sentinel).
    #[inline]
    pub fn is_real(self) -> bool {
        self.0 < u32::MAX - 1
    }
}

/// Words in a clause header: `[len, flags|lbd, activity, display_id]`.
const HEADER_WORDS: usize = 4;
const WORD_BYTES: usize = 4;

/// The memory model: bytes charged per stored literal, and fixed bytes
/// charged per stored clause.
const BYTES_PER_LIT: usize = 4;
const BYTES_PER_CLAUSE: usize = 48;

const F_LEARNED: u32 = 1;
const F_DEAD: u32 = 2;
/// LBD occupies the flags word above the two flag bits.
const LBD_SHIFT: u32 = 2;
const LBD_MAX: u32 = (1 << (32 - LBD_SHIFT)) - 1;

/// Rescale all clause activities (and the increment) once either crosses
/// this, well below `f32::MAX` so sums never reach infinity.
const ACTIVITY_RESCALE_AT: f32 = 1e20;
const ACTIVITY_RESCALE_BY: f32 = 1e-20;

/// Relocation table produced by [`ClauseDb::collect`]: old arena offsets
/// of the surviving clauses mapped to their new offsets, sorted by old
/// offset (compaction preserves clause order).
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
    /// Arena words occupied by dead clauses, reclaimable by `collect`.
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
            garbage_words: 0,
            next_display_id: 1,
            clause_activity_inc: 1.0,
        }
    }

    fn clause_bytes(len: usize) -> usize {
        BYTES_PER_CLAUSE + len * BYTES_PER_LIT
    }

    #[inline]
    fn flags(&self, cref: ClauseRef) -> u32 {
        self.arena[cref.0 as usize + 1]
    }

    #[inline]
    fn debug_assert_live(&self, cref: ClauseRef) {
        debug_assert!(self.flags(cref) & F_DEAD == 0, "use of deleted {cref:?}");
    }

    /// Insert a clause; returns its reference. `lbd` is the glue score
    /// (0 for original clauses, computed at learn time for learned ones).
    pub fn insert(&mut self, lits: &[Lit], learned: bool, lbd: u32) -> ClauseRef {
        debug_assert!(!lits.is_empty());
        let off = self.arena.len();
        assert!(
            off + HEADER_WORDS + lits.len() < (u32::MAX - 1) as usize,
            "clause arena exceeds u32 offsets"
        );
        self.bytes += Self::clause_bytes(lits.len());
        self.live += 1;
        if learned {
            self.learned += 1;
        }
        let flags = (u32::from(learned) * F_LEARNED) | (lbd.min(LBD_MAX) << LBD_SHIFT);
        self.arena.reserve(HEADER_WORDS + lits.len());
        self.arena.push(lits.len() as u32);
        self.arena.push(flags);
        self.arena.push(0f32.to_bits());
        self.arena.push(self.next_display_id);
        self.next_display_id += 1;
        self.arena.extend(lits.iter().map(|l| l.code() as u32));
        ClauseRef(off as u32)
    }

    /// Reserve arena room for clauses of the given lengths at once, so a
    /// bulk load copies each clause in without regrowing the arena.
    /// Rounded up to a power of two, as repeated doubling would have left
    /// it: an odd-sized block is a hole nothing else reuses once the
    /// learned clauses outgrow it.
    pub(crate) fn reserve_for(&mut self, lens: impl Iterator<Item = usize>) {
        let words: usize = lens.map(|len| HEADER_WORDS + len).sum();
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
        let flags = self.arena[off + 1];
        assert!(flags & F_DEAD == 0, "double delete of {cref:?}");
        self.arena[off + 1] = flags | F_DEAD;
        let len = self.arena[off] as usize;
        self.bytes -= Self::clause_bytes(len);
        self.live -= 1;
        if flags & F_LEARNED != 0 {
            self.learned -= 1;
        }
        self.garbage_words += HEADER_WORDS + len;
    }

    /// The literals of a clause.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        self.debug_assert_live(cref);
        let off = cref.0 as usize;
        let len = self.arena[off] as usize;
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
        let len = self.arena[off] as usize;
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
        self.arena[cref.0 as usize + 3]
    }

    /// Is the clause learned?
    #[inline]
    pub fn is_learned(&self, cref: ClauseRef) -> bool {
        self.flags(cref) & F_LEARNED != 0
    }

    /// Is the reference live (in bounds, on a header, not deleted)?
    /// Post-collection references to old offsets are *not* reliably
    /// detected (the offset may now fall mid-clause); this is a test and
    /// invariant-check helper, not a safety mechanism.
    #[doc(hidden)]
    pub fn is_live(&self, cref: ClauseRef) -> bool {
        cref.is_real() && (cref.0 as usize + 1) < self.arena.len() && self.flags(cref) & F_DEAD == 0
    }

    /// The clause's LBD ("glue"): distinct decision levels among its
    /// literals at learn time. 0 for original clauses.
    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        self.flags(cref) >> LBD_SHIFT
    }

    /// Clause activity (reduction tie-break).
    #[inline]
    pub(crate) fn activity(&self, cref: ClauseRef) -> f32 {
        f32::from_bits(self.arena[cref.0 as usize + 2])
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

    /// Total arena size in words (live + garbage).
    pub fn arena_words(&self) -> usize {
        self.arena.len()
    }

    /// Arena words held by dead clauses.
    pub fn garbage_words(&self) -> usize {
        self.garbage_words
    }

    /// Fraction of the arena occupied by dead clauses.
    pub fn garbage_frac(&self) -> f64 {
        if self.arena.is_empty() {
            0.0
        } else {
            self.garbage_words as f64 / self.arena.len() as f64
        }
    }

    /// Iterate over live clause references in arena order.
    pub fn iter_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut off = 0usize;
        std::iter::from_fn(move || {
            while off < self.arena.len() {
                let cur = off;
                off += HEADER_WORDS + self.arena[cur] as usize;
                if self.arena[cur + 1] & F_DEAD == 0 {
                    return Some(ClauseRef(cur as u32));
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
            let words = HEADER_WORDS + self.arena[read] as usize;
            if self.arena[read + 1] & F_DEAD == 0 {
                pairs.push((read as u32, write as u32));
                if write != read {
                    self.arena.copy_within(read..read + words, write);
                }
                write += words;
            }
            read += words;
        }
        self.arena.truncate(write);
        self.garbage_words = 0;
        RelocMap { pairs }
    }

    /// Bump a clause's activity (used during conflict analysis); rescales
    /// all activities when they grow too large.
    pub fn bump_activity(&mut self, cref: ClauseRef) {
        self.debug_assert_live(cref);
        let off = cref.0 as usize;
        let a = f32::from_bits(self.arena[off + 2]) + self.clause_activity_inc;
        self.arena[off + 2] = a.to_bits();
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
            let len = self.arena[off] as usize;
            if self.arena[off + 1] & F_DEAD == 0 {
                let a = f32::from_bits(self.arena[off + 2]) * ACTIVITY_RESCALE_BY;
                self.arena[off + 2] = a.to_bits();
            }
            off += HEADER_WORDS + len;
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
    /// `bytes`, `garbage_words`) against ground truth. Test/debug only.
    #[doc(hidden)]
    pub fn check_accounting(&self) {
        let (mut live, mut learned, mut bytes, mut garbage) = (0usize, 0usize, 0usize, 0usize);
        let mut off = 0usize;
        while off < self.arena.len() {
            let len = self.arena[off] as usize;
            let flags = self.arena[off + 1];
            if flags & F_DEAD == 0 {
                live += 1;
                learned += usize::from(flags & F_LEARNED != 0);
                bytes += Self::clause_bytes(len);
            } else {
                garbage += HEADER_WORDS + len;
            }
            off += HEADER_WORDS + len;
        }
        assert_eq!(off, self.arena.len(), "arena walk must end on a boundary");
        assert_eq!(live, self.live);
        assert_eq!(learned, self.learned);
        assert_eq!(bytes, self.bytes);
        assert_eq!(garbage, self.garbage_words);
        let _ = WORD_BYTES; // accounting is word-granular; bytes derive from words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(ClauseRef(0).is_real());
        assert_ne!(ClauseRef::NONE, ClauseRef::DECISION);
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
}

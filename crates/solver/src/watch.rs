//! Watch lists: one per literal, each a 16-byte header that holds up to
//! two watches itself and points to one heap block from the third on.
//!
//! A cube's solver has about two watches per literal, so a `Vec` per
//! literal would spend a 24-byte header and a heap block on each list for
//! 16 bytes of watches. A [`WatchList`] is those 16 bytes, in one of two
//! forms:
//!
//! - *inline*: two watch slots. An empty slot's cref is
//!   [`ClauseRef::VACANT`] and the filled slots come first, so the
//!   length is read from which slots are filled.
//! - *spilled*: slot 0's cref is [`ClauseRef::SPILLED`], and the last 8
//!   bytes point to a heap block `[len u32, cap u32, watches…]`. The
//!   first block holds 4 watches (40 bytes) and doubles as it fills, like
//!   a `Vec`'s. It is freed only when the list is dropped; truncating to
//!   0 keeps it.
//!
//! The sentinel rule: a stored watch's cref is a real clause reference,
//! so a filled slot never reads as empty or spilled. `ClauseDb::insert`
//! keeps every real reference below both sentinels, and the list's
//! memory safety rests on the rule, so the two safe ways to store a cref,
//! [`WatchList::push`] and [`WatchList::remap`], assert it. The BCP
//! walk's in-place compaction writes through raw parts
//! ([`WatchList::as_mut_parts`]) and moves only stored watches, and it
//! ends in [`WatchList::truncate`], which re-marks the inline slots it
//! frees.
//!
//! A list derefs to `[Watch]` for reading only. Its slots are inline *in
//! the list value itself* until it spills, so a pointer to them is a
//! pointer into the outer vector of lists: `Solver::propagate` derives
//! the walked list's slots and the relocation target from one base
//! pointer into that vector and never re-borrows it whole while it walks.

use crate::clausedb::ClauseRef;
use gridsat_cnf::Lit;
use std::alloc::{self, Layout};
use std::ops::Deref;
use std::ptr::NonNull;

/// One watch of a clause on a literal: the clause, and another of its
/// literals whose truth satisfies it without a visit. `repr(C)`: the
/// cref is a list's first word, where a spilled list keeps its mark.
#[repr(C)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Watch {
    pub(crate) cref: ClauseRef,
    pub(crate) blocker: Lit,
}

/// Watches kept in the header before the list takes a heap block.
const INLINE: usize = 2;

/// The first heap block's capacity: a `Vec<Watch>`'s first.
const FIRST_BLOCK: u32 = 4;

/// An empty inline slot.
const EMPTY: Watch = Watch {
    cref: ClauseRef::VACANT,
    blocker: Lit::from_code(0),
};

/// A literal's watch list. See the module docs.
pub(crate) struct WatchList(Repr);

#[repr(C)]
union Repr {
    inline: [Watch; INLINE],
    spilled: Spilled,
}

/// The spilled form. `mark` overlays slot 0's cref.
#[repr(C)]
#[derive(Clone, Copy)]
struct Spilled {
    mark: ClauseRef,
    unused: u32,
    block: NonNull<Block>,
}

/// The head of a spilled list's heap block; `cap` watch slots follow it.
#[repr(C)]
struct Block {
    len: u32,
    cap: u32,
}

// SAFETY: a list holds either `Watch`es (plain `Copy` data) or the
// pointer to a heap block of them that this list alone owns, reads,
// writes and frees. Moving the list moves that sole ownership; no other
// value reaches the block.
unsafe impl Send for WatchList {}

impl WatchList {
    pub(crate) const fn new() -> WatchList {
        WatchList(Repr {
            inline: [EMPTY; INLINE],
        })
    }

    fn spilled(&self) -> bool {
        // SAFETY: both forms are `repr(C)` and start with a `ClauseRef`,
        // written in either, so slot 0's cref is a spilled list's mark
        unsafe { self.0.inline[0].cref == ClauseRef::SPILLED }
    }

    /// A spilled list's block; only called once `spilled()` holds.
    fn block(&self) -> *mut Block {
        debug_assert!(self.spilled());
        // SAFETY: a spilled list's `spilled` form is the one written
        unsafe { self.0.spilled.block.as_ptr() }
    }

    /// The first of a block's watch slots: `layout` puts them right after
    /// its head (`Block` and `Watch` are both 4-aligned, 8 bytes).
    fn block_slots(block: *mut Block) -> *mut Watch {
        block.wrapping_add(1).cast()
    }

    /// How many watches the list holds.
    pub(crate) fn len(&self) -> usize {
        if self.spilled() {
            // SAFETY: a spilled list's block is live and ours
            unsafe { (*self.block()).len as usize }
        } else {
            // SAFETY: an inline list's `inline` form is the one written
            let inline = unsafe { &self.0.inline };
            inline
                .iter()
                .filter(|w| w.cref != ClauseRef::VACANT)
                .count()
        }
    }

    /// The first slot and the length: the walked list's raw parts, read
    /// once per trail literal by `Solver::propagate`. The slots are in the
    /// header until the list spills, in its heap block after. A write
    /// through them must store a real cref (the module docs' sentinel
    /// rule).
    pub(crate) fn as_mut_parts(&mut self) -> (*mut Watch, usize) {
        let len = self.len();
        let first = if self.spilled() {
            Self::block_slots(self.block())
        } else {
            // SAFETY: taking a union field's address reads no value
            unsafe { self.0.inline.as_mut_ptr() }
        };
        (first, len)
    }

    pub(crate) fn push(&mut self, w: Watch) {
        // one never-taken compare; a sentinel would change the list's form
        assert!(w.cref.is_real(), "a watch on sentinel {:?}", w.cref);
        if !self.spilled() {
            // SAFETY: an inline list's `inline` form is the one written
            let inline = unsafe { &mut self.0.inline };
            match inline.iter_mut().find(|s| s.cref == ClauseRef::VACANT) {
                Some(slot) => *slot = w,
                None => self.spill(w),
            }
            return;
        }
        let mut block = self.block();
        // SAFETY: the block is live and ours; `grow` makes `len < cap`
        unsafe {
            if (*block).len == (*block).cap {
                block = self.grow();
            }
            let len = (*block).len;
            Self::block_slots(block).add(len as usize).write(w);
            (*block).len = len + 1;
        }
    }

    /// Keep the first `n` watches (all of them if there are fewer).
    pub(crate) fn truncate(&mut self, n: usize) {
        if self.spilled() {
            let block = self.block();
            // SAFETY: the block is live and ours
            unsafe { (*block).len = (*block).len.min(n as u32) };
        } else {
            // SAFETY: an inline list's `inline` form is the one written
            let inline = unsafe { &mut self.0.inline };
            for slot in inline.iter_mut().skip(n) {
                slot.cref = ClauseRef::VACANT;
            }
        }
    }

    /// Move the last watch into slot `i` and drop what was there: the
    /// order `Vec::swap_remove` leaves.
    pub(crate) fn swap_remove(&mut self, i: usize) {
        let (first, len) = self.as_mut_parts();
        assert!(i < len, "swap_remove index {i} of a list of {len}");
        // SAFETY: `i` and `len - 1` are slots holding watches
        unsafe { *first.add(i) = *first.add(len - 1) };
        self.truncate(len - 1);
    }

    /// Rewrite every watch's cref through `f`: the GC's remap.
    pub(crate) fn remap(&mut self, mut f: impl FnMut(ClauseRef) -> ClauseRef) {
        let (first, len) = self.as_mut_parts();
        // SAFETY: the first `len` slots hold written watches, and the list
        // is borrowed mutably for as long as the slice lives
        for w in unsafe { std::slice::from_raw_parts_mut(first, len) } {
            let cref = f(w.cref);
            assert!(cref.is_real(), "a watch remapped to sentinel {cref:?}");
            w.cref = cref;
        }
    }

    /// Move two full inline slots and `w` to a first block of
    /// `FIRST_BLOCK`.
    #[cold]
    fn spill(&mut self, w: Watch) {
        let layout = Self::layout(FIRST_BLOCK);
        // SAFETY: `layout` is non-zero
        let Some(block) = NonNull::new(unsafe { alloc::alloc(layout) }.cast::<Block>()) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: the block has room for its head and `FIRST_BLOCK > 3`
        // watches; the inline form is the one written, both slots full
        unsafe {
            block.write(Block {
                len: INLINE as u32 + 1,
                cap: FIRST_BLOCK,
            });
            let slots = Self::block_slots(block.as_ptr());
            slots.copy_from_nonoverlapping(self.0.inline.as_ptr(), INLINE);
            slots.add(INLINE).write(w);
        }
        self.0 = Repr {
            spilled: Spilled {
                mark: ClauseRef::SPILLED,
                unused: 0,
                block,
            },
        };
    }

    /// Double a full block's capacity; returns the (moved) block.
    #[cold]
    fn grow(&mut self) -> *mut Block {
        let old = self.block();
        // SAFETY: the block is live and ours
        let cap = unsafe { (*old).cap };
        let new_cap = cap
            .checked_mul(2)
            .expect("watch list capacity overflows a u32");
        let layout = Self::layout(new_cap);
        // SAFETY: the block was allocated with `layout(cap)`; `layout` is
        // non-zero
        let grown = unsafe { alloc::realloc(old.cast(), Self::layout(cap), layout.size()) };
        let Some(block) = NonNull::new(grown.cast::<Block>()) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: `realloc` kept the head; the spilled form is the one
        // written
        unsafe {
            (*block.as_ptr()).cap = new_cap;
            self.0.spilled.block = block;
        }
        block.as_ptr()
    }

    /// A block of `cap` watches: its head, then the slots.
    fn layout(cap: u32) -> Layout {
        let slots = Layout::array::<Watch>(cap as usize);
        let block = slots.and_then(|slots| Layout::new::<Block>().extend(slots));
        block.expect("watch list block fits the address space").0
    }

    /// Watches the list holds without allocating more.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        if self.spilled() {
            // SAFETY: the block is live and ours
            unsafe { (*self.block()).cap as usize }
        } else {
            INLINE
        }
    }
}

impl Drop for WatchList {
    fn drop(&mut self) {
        if self.spilled() {
            let block = self.block();
            // SAFETY: the block was allocated with `layout(cap)`
            unsafe { alloc::dealloc(block.cast(), Self::layout((*block).cap)) };
        }
    }
}

impl Deref for WatchList {
    type Target = [Watch];

    fn deref(&self) -> &[Watch] {
        let first = if self.spilled() {
            Self::block_slots(self.block()).cast_const()
        } else {
            // SAFETY: taking a union field's address reads no value
            unsafe { self.0.inline.as_ptr() }
        };
        // SAFETY: the first `len` slots hold written watches
        unsafe { std::slice::from_raw_parts(first, self.len()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsat_cnf::rng::Rng;

    /// A real clause reference: below every sentinel.
    fn cref(rng: &mut Rng) -> ClauseRef {
        ClauseRef(rng.range_u32(0..ClauseRef::SPILLED.0))
    }

    fn watch(rng: &mut Rng) -> Watch {
        Watch {
            cref: cref(rng),
            blocker: Lit::from_code(rng.range_usize(0..1000)),
        }
    }

    #[test]
    fn a_list_is_two_watches_wide() {
        assert_eq!(size_of::<WatchList>(), INLINE * size_of::<Watch>());
        assert_eq!(size_of::<WatchList>(), 16);
        assert_eq!(WatchList::layout(FIRST_BLOCK).size(), 40);
    }

    /// Which of the transitions between the two forms a schedule took.
    #[derive(Default)]
    struct Seen {
        one_slot: usize,
        two_slots: usize,
        spill_at_three: usize,
        inline_emptied_and_refilled: usize,
        inline_swap_remove: usize,
        spilled_emptied: usize,
        regrown: usize,
    }

    /// The list must hold what a `Vec<Watch>` given the same operations
    /// holds, in the same order, in both forms and across every
    /// transition between them.
    #[test]
    fn random_schedules_match_a_vec() {
        let mut seen = Seen::default();
        let mut spills = 0;
        for schedule in 0..1000u64 {
            let mut rng = Rng::seed_from_u64(schedule);
            let mut list = WatchList::new();
            let mut reference: Vec<Watch> = Vec::new();
            let mut inline_emptied = false;
            let mut emptied_after_spill = false;
            // short lists mostly, a long one now and then
            let push_p = if rng.gen_bool(0.2) { 0.7 } else { 0.45 };
            for _ in 0..rng.range_usize(0..120) {
                let was_spilled = list.spilled();
                let was_len = reference.len();
                if rng.gen_bool(push_p) {
                    let w = watch(&mut rng);
                    list.push(w);
                    reference.push(w);
                    match (was_spilled, reference.len()) {
                        (false, 1) => seen.one_slot += 1,
                        (false, 2) => seen.two_slots += 1,
                        (false, 3) => {
                            assert!(list.spilled(), "case seed {schedule}");
                            assert_eq!(list.capacity(), FIRST_BLOCK as usize);
                            seen.spill_at_three += 1;
                        }
                        _ => {}
                    }
                    if !was_spilled && inline_emptied && was_len == 0 {
                        seen.inline_emptied_and_refilled += 1;
                        inline_emptied = false;
                    }
                } else {
                    match rng.range_u32(0..5) {
                        0 | 1 if was_len > 0 => {
                            let i = rng.range_usize(0..was_len);
                            list.swap_remove(i);
                            reference.swap_remove(i);
                            if !was_spilled && was_len == INLINE {
                                seen.inline_swap_remove += 1;
                            }
                        }
                        0..=2 => {
                            let n = rng.range_usize(0..was_len + 2);
                            list.truncate(n);
                            reference.truncate(n);
                        }
                        3 => {
                            // the GC's remap: every cref rewritten in place,
                            // to another real one
                            let shift = rng.next_u32();
                            let remap = |cref: ClauseRef| {
                                ClauseRef(cref.0.wrapping_add(shift) % ClauseRef::SPILLED.0)
                            };
                            list.remap(remap);
                            reference.iter_mut().for_each(|w| w.cref = remap(w.cref));
                        }
                        _ => {
                            // the BCP walk's in-place compaction through
                            // the raw parts: keep some
                            let keep: Vec<bool> =
                                reference.iter().map(|_| rng.next_bool()).collect();
                            let (ws, n) = list.as_mut_parts();
                            assert_eq!(n, keep.len());
                            let mut j = 0;
                            for (i, &k) in keep.iter().enumerate() {
                                if k {
                                    // SAFETY: `j <= i < n`, slots of the list
                                    unsafe { *ws.add(j) = *ws.add(i) };
                                    j += 1;
                                }
                            }
                            list.truncate(j);
                            let mut flags = keep.iter();
                            reference.retain(|_| *flags.next().unwrap());
                        }
                    }
                    if reference.is_empty() && was_len > 0 {
                        if was_spilled {
                            assert!(list.spilled(), "case seed {schedule}: the block stays");
                            seen.spilled_emptied += 1;
                            emptied_after_spill = true;
                        } else {
                            inline_emptied = true;
                        }
                    }
                }
                if emptied_after_spill && list.len() > INLINE {
                    seen.regrown += 1;
                }
                assert_eq!(list.spilled(), was_spilled || list.len() > INLINE);
                assert_eq!(&list[..], &reference[..], "case seed {schedule}");
                assert_eq!(list.len(), reference.len(), "case seed {schedule}");
                assert!(list.len() <= list.capacity(), "case seed {schedule}");
            }
            if list.spilled() {
                spills += 1;
            }
            // dropped here, spilled or not
        }
        assert!(spills > 100, "only {spills} schedules spilled");
        let Seen {
            one_slot,
            two_slots,
            spill_at_three,
            inline_emptied_and_refilled,
            inline_swap_remove,
            spilled_emptied,
            regrown,
        } = seen;
        for (what, n) in [
            ("filled one slot", one_slot),
            ("filled both slots", two_slots),
            ("spilled at the third watch", spill_at_three),
            (
                "emptied an inline list and refilled it",
                inline_emptied_and_refilled,
            ),
            ("swap-removed inside a full inline list", inline_swap_remove),
            ("emptied a spilled list", spilled_emptied),
            ("regrew an emptied block", regrown),
        ] {
            assert!(n > 10, "only {n} steps {what}");
        }
    }

    #[test]
    fn a_spilled_list_truncated_to_zero_keeps_its_block_and_grows_again() {
        let mut rng = Rng::seed_from_u64(7);
        let mut list = WatchList::new();
        let mut reference = Vec::new();
        for _ in 0..5 {
            let w = watch(&mut rng);
            list.push(w);
            reference.push(w);
        }
        assert_eq!(list.capacity(), 8);
        let block = list.as_ptr();
        list.truncate(0);
        reference.truncate(0);
        assert!(list.is_empty() && list.spilled());
        assert_eq!((list.capacity(), list.as_ptr()), (8, block));
        for _ in 0..20 {
            let w = watch(&mut rng);
            list.push(w);
            reference.push(w);
        }
        assert_eq!(list.capacity(), 32);
        assert_eq!(&list[..], &reference[..]);
    }

    #[test]
    fn two_watches_stay_inline_and_the_third_takes_a_block_of_four() {
        let mut rng = Rng::seed_from_u64(1);
        let mut list = WatchList::new();
        let header = std::ptr::addr_of!(list) as usize;
        for len in 1..=2 {
            list.push(watch(&mut rng));
            let at = list.as_ptr() as usize;
            assert!(
                at >= header && at < header + 16,
                "watch {len} left the header"
            );
        }
        list.push(watch(&mut rng));
        assert!(list.spilled());
        assert_eq!((list.len(), list.capacity()), (3, FIRST_BLOCK as usize));
    }

    #[test]
    #[should_panic(expected = "a watch on sentinel")]
    fn a_sentinel_is_never_stored() {
        WatchList::new().push(Watch {
            cref: ClauseRef::SPILLED,
            blocker: Lit::from_code(0),
        });
    }

    #[test]
    fn a_list_moves_to_another_thread() {
        let mut list = WatchList::new();
        for i in 0..9 {
            list.push(Watch {
                cref: ClauseRef(i),
                blocker: Lit::from_code(i as usize),
            });
        }
        let crefs = std::thread::spawn(move || list.iter().map(|w| w.cref.0).sum::<u32>())
            .join()
            .unwrap();
        assert_eq!(crefs, 36);
    }
}

//! Watch lists: one per literal, each holding up to two watches in its
//! own 24-byte header and spilling to one heap block from the third on.
//!
//! A cube's solver has about two watches per literal, so a `Vec` per
//! literal would spend one heap block on each list for 16 bytes of
//! watches. A [`WatchList`] is the size of that `Vec`: its first two
//! watches sit where the `Vec` kept its pointer and capacity. From the
//! third watch on it takes one heap block of 4 watches, doubled as it
//! fills like a `Vec`'s, so a long list allocates exactly what a `Vec`
//! would. The block is freed only when the list is dropped; truncating
//! to 0 keeps it.
//!
//! A list derefs to `[Watch]`. Its slots are inline *in the list value
//! itself* until it spills, so a pointer to them is a pointer into the
//! outer vector of lists: `Solver::propagate` derives the walked list's
//! slots and the relocation target from one base pointer into that
//! vector and never re-borrows it whole while it walks.

use crate::clausedb::ClauseRef;
use gridsat_cnf::Lit;
use std::alloc::{self, Layout};
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// One watch of a clause on a literal: the clause, and another of its
/// literals whose truth satisfies it without a visit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Watch {
    pub(crate) cref: ClauseRef,
    pub(crate) blocker: Lit,
}

/// Watches kept in the header before the list takes a heap block.
const INLINE: u32 = 2;

/// The first heap block's capacity: a `Vec<Watch>`'s first.
const FIRST_BLOCK: u32 = 4;

/// A literal's watch list. See the module docs.
pub(crate) struct WatchList {
    len: u32,
    /// `INLINE` while the watches sit in `slots.inline`, the heap
    /// block's capacity (at least `FIRST_BLOCK`) once spilled.
    cap: u32,
    slots: Slots,
}

union Slots {
    inline: [MaybeUninit<Watch>; INLINE as usize],
    heap: NonNull<Watch>,
}

// SAFETY: `len` and `cap` are integers, and `slots` holds either `Watch`es
// (plain `Copy` data) or the pointer to a heap block of them that this
// list alone owns, reads, writes and frees. Moving the list moves that
// sole ownership; no other value reaches the block.
unsafe impl Send for WatchList {}

impl WatchList {
    pub(crate) const fn new() -> WatchList {
        WatchList {
            len: 0,
            cap: INLINE,
            slots: Slots {
                inline: [MaybeUninit::uninit(); INLINE as usize],
            },
        }
    }

    fn spilled(&self) -> bool {
        self.cap != INLINE
    }

    /// The first slot: in the header until the list spills, in its heap
    /// block after.
    pub(crate) fn as_ptr(&self) -> *const Watch {
        if self.spilled() {
            // SAFETY: a spilled list's `slots` holds its heap block
            unsafe { self.slots.heap.as_ptr() }
        } else {
            // SAFETY: reading a union field's address reads no value
            unsafe { self.slots.inline.as_ptr().cast() }
        }
    }

    /// [`WatchList::as_ptr`], for writing.
    pub(crate) fn as_mut_ptr(&mut self) -> *mut Watch {
        if self.spilled() {
            // SAFETY: a spilled list's `slots` holds its heap block
            unsafe { self.slots.heap.as_ptr() }
        } else {
            // SAFETY: as in `as_ptr`
            unsafe { self.slots.inline.as_mut_ptr().cast() }
        }
    }

    pub(crate) fn push(&mut self, w: Watch) {
        if self.len == self.cap {
            self.grow();
        }
        // SAFETY: `len < cap` slots are allocated
        unsafe { self.as_mut_ptr().add(self.len as usize).write(w) };
        self.len += 1;
    }

    /// Keep the first `n` watches (all of them if there are fewer).
    pub(crate) fn truncate(&mut self, n: usize) {
        if n < self.len as usize {
            self.len = n as u32;
        }
    }

    /// Move the last watch into slot `i` and drop what was there: the
    /// order `Vec::swap_remove` leaves.
    pub(crate) fn swap_remove(&mut self, i: usize) {
        let last = self.len as usize - 1;
        self.swap(i, last);
        self.len -= 1;
    }

    /// Double the capacity: the inline slots move to a first block of
    /// `FIRST_BLOCK`, a block to one twice its size.
    #[cold]
    fn grow(&mut self) {
        let cap = if self.spilled() {
            self.cap
                .checked_mul(2)
                .expect("watch list capacity overflows a u32")
        } else {
            FIRST_BLOCK
        };
        let layout = Self::layout(cap);
        // SAFETY: `layout` is non-zero; a spilled block was allocated with
        // `layout(self.cap)`, and the inline slots hold `len` watches
        let block = unsafe {
            if self.spilled() {
                let old = self.slots.heap.as_ptr().cast();
                alloc::realloc(old, Self::layout(self.cap), layout.size())
            } else {
                let block = alloc::alloc(layout);
                if !block.is_null() {
                    let inline: *const Watch = self.slots.inline.as_ptr().cast();
                    inline.copy_to_nonoverlapping(block.cast(), self.len as usize);
                }
                block
            }
        };
        let Some(block) = NonNull::new(block.cast::<Watch>()) else {
            alloc::handle_alloc_error(layout)
        };
        self.slots.heap = block;
        self.cap = cap;
    }

    fn layout(cap: u32) -> Layout {
        Layout::array::<Watch>(cap as usize).expect("watch list block fits the address space")
    }
}

impl Drop for WatchList {
    fn drop(&mut self) {
        if self.spilled() {
            // SAFETY: the block was allocated with `layout(self.cap)`
            unsafe { alloc::dealloc(self.slots.heap.as_ptr().cast(), Self::layout(self.cap)) };
        }
    }
}

impl Deref for WatchList {
    type Target = [Watch];

    fn deref(&self) -> &[Watch] {
        // SAFETY: the first `len` slots hold written watches
        unsafe { std::slice::from_raw_parts(self.as_ptr(), self.len as usize) }
    }
}

impl DerefMut for WatchList {
    fn deref_mut(&mut self) -> &mut [Watch] {
        // SAFETY: as in `deref`
        unsafe { std::slice::from_raw_parts_mut(self.as_mut_ptr(), self.len as usize) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsat_cnf::rng::Rng;

    fn watch(rng: &mut Rng) -> Watch {
        Watch {
            cref: ClauseRef(rng.next_u32()),
            blocker: Lit::from_code(rng.range_usize(0..1000)),
        }
    }

    #[test]
    fn a_list_is_the_size_of_the_vec_it_replaces() {
        assert_eq!(size_of::<WatchList>(), size_of::<Vec<Watch>>());
        assert_eq!(size_of::<WatchList>(), 24);
    }

    /// The list must hold what a `Vec<Watch>` given the same operations
    /// holds, in the same order, on both sides of the spill.
    #[test]
    fn random_schedules_match_a_vec() {
        let mut spills = 0;
        let mut regrown = 0;
        for schedule in 0..1000u64 {
            let mut rng = Rng::seed_from_u64(schedule);
            let mut list = WatchList::new();
            let mut reference: Vec<Watch> = Vec::new();
            let mut emptied_after_spill = false;
            // short lists mostly, a long one now and then
            let push_p = if rng.gen_bool(0.2) { 0.7 } else { 0.45 };
            for _ in 0..rng.range_usize(0..120) {
                if rng.gen_bool(push_p) {
                    let w = watch(&mut rng);
                    list.push(w);
                    reference.push(w);
                    continue;
                }
                match rng.range_u32(0..5) {
                    0 | 1 if !reference.is_empty() => {
                        let i = rng.range_usize(0..reference.len());
                        list.swap_remove(i);
                        reference.swap_remove(i);
                    }
                    0..=2 => {
                        let n = rng.range_usize(0..reference.len() + 2);
                        list.truncate(n);
                        reference.truncate(n);
                    }
                    3 => {
                        // the GC's remap: every cref rewritten in place
                        let shift = rng.next_u32();
                        for w in list.iter_mut() {
                            w.cref = ClauseRef(w.cref.0.wrapping_add(shift));
                        }
                        for w in &mut reference {
                            w.cref = ClauseRef(w.cref.0.wrapping_add(shift));
                        }
                    }
                    _ => {
                        // the BCP walk's in-place compaction: keep some
                        let keep: Vec<bool> = reference.iter().map(|_| rng.next_bool()).collect();
                        let mut j = 0;
                        for (i, &k) in keep.iter().enumerate() {
                            if k {
                                list[j] = list[i];
                                j += 1;
                            }
                        }
                        list.truncate(j);
                        let mut flags = keep.iter();
                        reference.retain(|_| *flags.next().unwrap());
                    }
                }
                if list.spilled() && list.is_empty() {
                    emptied_after_spill = true;
                }
                if emptied_after_spill && list.len() > INLINE as usize {
                    regrown += 1;
                }
                assert_eq!(&list[..], &reference[..], "case seed {schedule}");
                assert!(list.len() <= list.cap as usize, "case seed {schedule}");
            }
            if list.spilled() {
                spills += 1;
            }
            // dropped here, spilled or not
        }
        assert!(spills > 100, "only {spills} schedules spilled");
        assert!(regrown > 10, "only {regrown} steps regrew an emptied block");
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
        assert_eq!(list.cap, 8);
        let block = list.as_ptr();
        list.truncate(0);
        reference.truncate(0);
        assert!(list.is_empty());
        assert_eq!((list.cap, list.as_ptr()), (8, block));
        for _ in 0..20 {
            let w = watch(&mut rng);
            list.push(w);
            reference.push(w);
        }
        assert_eq!(list.cap, 32);
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
                at >= header && at < header + 24,
                "watch {len} left the header"
            );
        }
        list.push(watch(&mut rng));
        assert!(list.spilled());
        assert_eq!((list.len(), list.cap), (3, FIRST_BLOCK));
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

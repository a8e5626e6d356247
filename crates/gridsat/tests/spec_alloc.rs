//! A holder that only routes a cube keeps none of its spec: checking a
//! frame ([`SpecFrame::verify`]) and decoding the journal record that
//! queues it (`RecoveryQueued`, through [`SealedRecord::open`]) walk the
//! payload with one clause buffer at most. At no moment may either hold
//! more heap beyond what it returns than the spec's assumption list and
//! its longest clause.
//!
//! The allocator below counts per thread, so the test harness's other
//! threads do not disturb a measurement.

use gridsat::journal::{JournalRecord, RecoverySpec, SealedRecord};
use gridsat::wire::SpecFrame;
use gridsat_cnf::rng::Rng;
use gridsat_cnf::{Clause, Lit, Var};
use gridsat_solver::SplitSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the calling thread's live and peak
/// heap bytes.
struct PerThread;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn moved(freed: usize, taken: usize) {
    // `try_with`: a thread's slots are gone while it exits
    let _ = LIVE.try_with(|live| {
        let now = live.get() - freed as isize + taken as isize;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            moved(0, layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            moved(0, layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            moved(layout.size(), new_size);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        moved(layout.size(), 0);
    }
}

#[global_allocator]
static ALLOCATOR: PerThread = PerThread;

/// Run `f` on this thread; its result and the most heap it held at once
/// beyond what that result holds.
fn transient<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.set(LIVE.get());
    let out = f();
    let held = PEAK.get() - LIVE.get();
    (out, held.max(0) as usize)
}

/// 1,500 clauses of 1 to 40 literals over 300 variables, and a few
/// assumptions.
fn big_spec() -> SplitSpec {
    let mut rng = Rng::seed_from_u64(56);
    let lit = |rng: &mut Rng| Lit::new(Var(rng.range_u32(0..300)), rng.next_bool());
    SplitSpec {
        num_vars: 300,
        assumptions: (0..5).map(|_| (lit(&mut rng), rng.next_bool())).collect(),
        clauses: (0..1500)
            .map(|_| Clause::new((0..rng.range_usize(1..41)).map(|_| lit(&mut rng))))
            .collect(),
    }
}

#[test]
fn routing_a_spec_holds_no_more_than_its_assumptions_and_longest_clause() {
    let spec = big_spec();
    let longest = spec.clauses.iter().map(Clause::len).max().unwrap();
    let bound = spec.assumptions.len() * size_of::<(Lit, bool)>() + longest * size_of::<Lit>();
    let frame = SpecFrame::seal(&spec);

    let (verdict, held) = transient(|| frame.verify());
    assert_eq!(verdict, Ok(()));
    assert!(held <= bound, "verify held {held} bytes, bound {bound}");

    let rec = JournalRecord::RecoveryQueued {
        recovery: RecoverySpec {
            frame: frame.clone(),
            source: None,
        },
    };
    let sealed = SealedRecord::seal(7, &rec);
    let (opened, held) = transient(|| sealed.open());
    assert_eq!(opened, Ok((7, rec)));
    assert!(
        held <= bound,
        "the journal decode held {held} bytes, bound {bound}"
    );
}

//! Fingerprint windows for clause-sharing dedup (HordeSat-style).
//!
//! Every clause that crosses the network carries a 64-bit fingerprint of
//! its literal set ([`gridsat_cnf::Clause::fingerprint`]). A node keeps a
//! bounded window of recently seen fingerprints: the grid client uses one
//! to drop duplicates at the wire, in both directions, before anything
//! reaches [`Solver::queue_fresh`](crate::Solver::queue_fresh), which
//! itself checks nothing. The window is two generations of one flat open-addressed table:
//! fingerprints are seated in the current generation, and when that holds
//! half the bound the older generation is dropped wholesale and the
//! current one takes its place. So the last `cap / 2` distinct
//! fingerprints are always remembered, never more than `cap` are, and
//! forgetting costs no per-entry bookkeeping — HordeSat clears its
//! fixed-size Bloom filters periodically for the same reason. Any
//! forgetting is safe: a forgotten duplicate is merely re-merged, never
//! wrongly dropped.
//!
//! A table is one `u64` array probed linearly from `fp & mask`:
//! fingerprints come out of a splitmix64 finalizer, so every bit is
//! already well mixed and the fingerprint is its own hash. A lookup reads
//! one cache line in the common case; the window sits on the share
//! path's per-clause hot loop, where a general-purpose hash set's
//! separate control bytes cost a second miss per probe.

/// The table's empty-slot marker. Fingerprint 0 itself is tracked by a
/// flag beside the table.
const EMPTY: u64 = 0;

/// Slots of the first allocation; the table doubles from here.
const MIN_SLOTS: usize = 16;

/// One generation of the window: a grow-only set of fingerprints.
#[derive(Clone, Debug, Default)]
struct Generation {
    /// Open-addressed set of the remembered non-zero fingerprints: empty
    /// or a power-of-two number of slots, at most seven eighths full.
    slots: Vec<u64>,
    /// Non-zero fingerprints seated in `slots`.
    seated: usize,
    /// Fingerprint 0 is remembered ([`EMPTY`] cannot stand for it).
    has_zero: bool,
}

impl Generation {
    fn len(&self) -> usize {
        self.seated + usize::from(self.has_zero)
    }

    fn contains(&self, fp: u64) -> bool {
        if fp == EMPTY {
            return self.has_zero;
        }
        !self.slots.is_empty() && self.slots[self.probe(fp)] == fp
    }

    /// Remember `fp`, which this generation does not hold yet.
    fn seat(&mut self, fp: u64) {
        if fp == EMPTY {
            self.has_zero = true;
            return;
        }
        // make room first so a probe always meets an empty slot
        if (self.seated + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let free = self.probe(fp);
        debug_assert_eq!(self.slots[free], EMPTY, "seated twice");
        self.slots[free] = fp;
        self.seated += 1;
    }

    /// Walk the probe run of the non-zero fingerprint `fp` through a
    /// non-empty table: the slot holding it, or the empty slot that ends
    /// the run (where it would be seated).
    fn probe(&self, fp: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = fp as usize & mask;
        while self.slots[i] != EMPTY && self.slots[i] != fp {
            i = (i + 1) & mask;
        }
        i
    }

    /// Double the table (or make the first allocation) and re-seat every
    /// remembered fingerprint.
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; slots]);
        for fp in old.into_iter().filter(|&fp| fp != EMPTY) {
            let free = self.probe(fp);
            self.slots[free] = fp;
        }
    }

    /// Forget everything; the table keeps its size.
    fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.seated = 0;
        self.has_zero = false;
    }
}

/// A bounded set of recently seen clause fingerprints: whatever was among
/// the last `cap / 2` distinct fingerprints inserted is remembered, and
/// never more than `cap` are.
#[derive(Clone, Debug, Default)]
pub struct FpWindow {
    /// Where fresh fingerprints are seated; fewer than `cap / 2` entries.
    cur: Generation,
    /// The generation before it: empty until `cur` first fills, exactly
    /// `cap / 2` entries from then on.
    old: Generation,
    cap: usize,
}

impl FpWindow {
    /// A window remembering at most `cap` fingerprints. `cap` bounds
    /// forgetting, it is not a capacity hint: windows are created per
    /// client and per solver instance and most see far fewer fingerprints
    /// than the bound, so the backing storage grows on demand.
    pub fn new(cap: usize) -> FpWindow {
        FpWindow {
            cap,
            ..FpWindow::default()
        }
    }

    /// Record `fp`. Returns `true` iff it was *not* already in the
    /// window (i.e. the clause is fresh).
    pub fn insert(&mut self, fp: u64) -> bool {
        if self.contains(fp) {
            return false;
        }
        let half = self.cap / 2;
        if half == 0 {
            return true; // too small a bound to remember anything
        }
        self.cur.seat(fp);
        if self.cur.len() == half {
            // drop the older generation, demote the current one; the
            // cleared table is reused, so a busy window stops allocating
            std::mem::swap(&mut self.cur, &mut self.old);
            self.cur.clear();
        }
        true
    }

    /// `true` iff `fp` is currently remembered. An empty generation
    /// answers from its length alone.
    pub fn contains(&self, fp: u64) -> bool {
        self.cur.contains(fp) || self.old.contains(fp)
    }

    /// Number of remembered fingerprints.
    pub fn len(&self) -> usize {
        self.cur.len() + self.old.len()
    }

    /// `true` iff nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashSet, VecDeque};

    #[test]
    fn insert_reports_freshness_and_dedups() {
        let mut w = FpWindow::new(8);
        assert!(w.insert(1));
        assert!(w.insert(2));
        assert!(!w.insert(1), "repeat is not fresh");
        assert!(w.contains(1));
        assert!(!w.contains(3));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn a_full_generation_retires_the_one_before_it() {
        let mut w = FpWindow::new(6);
        for fp in [10, 20, 30, 40, 50] {
            assert!(w.insert(fp));
        }
        // one generation demoted, none dropped yet
        assert_eq!(w.len(), 5);
        assert!(!w.insert(10), "still within the bound");
        assert!(w.insert(60), "fills the second generation");
        assert!(!w.contains(10) && !w.contains(20) && !w.contains(30));
        assert!(w.contains(40) && w.contains(50) && w.contains(60));
        assert_eq!(w.len(), 3);
        // a forgotten fingerprint reads as fresh again
        assert!(w.insert(10));
    }

    /// The window as first written — an exact FIFO of `cap` entries over a
    /// hash set. The generational window must answer like it until it
    /// first forgets.
    struct FifoWindow {
        set: HashSet<u64>,
        fifo: VecDeque<u64>,
        cap: usize,
    }

    impl FifoWindow {
        fn insert(&mut self, fp: u64) -> bool {
            if !self.set.insert(fp) {
                return false;
            }
            self.fifo.push_back(fp);
            if self.fifo.len() > self.cap {
                if let Some(old) = self.fifo.pop_front() {
                    self.set.remove(&old);
                }
            }
            true
        }
    }

    /// The newest `n` entries of `v`.
    fn last(v: &[u64], n: usize) -> &[u64] {
        &v[v.len().saturating_sub(n)..]
    }

    #[test]
    fn window_keeps_its_contract_on_random_streams() {
        // xorshift64*
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for cap in [0usize, 1, 2, 3, 7, 64, 1000, 5000] {
            let half = cap / 2;
            let mut w = FpWindow::new(cap);
            let mut fifo = FifoWindow {
                set: HashSet::new(),
                fifo: VecDeque::new(),
                cap,
            };
            // every fingerprint offered so far, and the ones the window
            // called fresh, newest last
            let mut seen = HashSet::new();
            let mut fresh: Vec<u64> = Vec::new();
            // a universe a few times the cap: repeats, forgetting and
            // re-insertion of forgotten fingerprints all occur. The low
            // bits collide on purpose (long probe runs that wrap around
            // the table end), and fingerprint 0 is in play.
            let universe = (cap as u64 * 3).max(4);
            for step in 0..20_000u32 {
                let k = next() % universe;
                let fp = match k % 4 {
                    0 => k,                                     // small values, 0 included
                    1 => k << 32,                               // all share home slot 0
                    2 => (k << 20) | 0xf_ffff,                  // home at the table's end
                    _ => k.wrapping_mul(0x9e37_79b9_7f4a_7c15), // scattered
                };
                let at = format!("cap {cap} step {step}: insert({fp:#x})");
                let was_fresh = w.insert(fp);
                if was_fresh {
                    // anything among the last cap/2 distinct inserts is remembered
                    assert!(!last(&fresh, half).contains(&fp), "{at} forgotten early");
                    fresh.push(fp);
                } else {
                    // never more than cap are: a duplicate verdict needs a
                    // first offer no further back than that
                    assert!(last(&fresh, cap).contains(&fp), "{at} remembered too long");
                }
                assert!(w.len() <= cap, "{at}: len {}", w.len());
                assert_eq!(w.contains(fp), half > 0, "{at}");
                if step % 64 == 0 {
                    assert!(last(&fresh, half).iter().all(|&fp| w.contains(fp)), "{at}");
                }
                // until the window first forgets, it is the exact FIFO …
                let fifo_fresh = fifo.insert(fp);
                seen.insert(fp);
                if seen.len() < half {
                    assert_eq!(was_fresh, fifo_fresh, "{at}");
                    assert_eq!(w.len(), fifo.fifo.len(), "{at}");
                    let probe = next() % universe;
                    assert_eq!(w.contains(probe), fifo.set.contains(&probe), "{at}");
                    // … held in one table, the smallest power of two that
                    // keeps it at most seven eighths full, and nothing else
                    let seated = seen.iter().filter(|&&fp| fp != EMPTY).count();
                    let slots = match seated {
                        0 => 0,
                        k => (k * 8).div_ceil(7).next_power_of_two().max(MIN_SLOTS),
                    };
                    assert_eq!(w.cur.slots.len(), slots, "{at}: {seated} seated");
                    assert_eq!(w.cur.slots.capacity(), slots, "{at}");
                    assert_eq!(w.old.slots.capacity(), 0, "{at}");
                }
            }
            for g in [&w.cur, &w.old] {
                let seated = g.slots.iter().filter(|&&s| s != EMPTY).count();
                assert_eq!(seated, g.seated, "cap {cap}");
            }
            assert!(
                fresh.len() > seen.len(),
                "cap {cap}: nothing was ever forgotten"
            );
        }
    }
}

//! Fingerprint windows for clause-sharing dedup (HordeSat-style).
//!
//! Every clause that crosses the network carries a 64-bit fingerprint of
//! its literal set ([`gridsat_cnf::Clause::fingerprint`]). A node keeps a
//! bounded window of recently seen fingerprints: the solver uses one to
//! skip re-merging clauses it already knows (including its own learned
//! clauses echoed back by the grid), and the grid client uses one per
//! direction to stop duplicate broadcasts at the wire. The window is a
//! FIFO over a flat open-addressed table — O(1) insert/lookup, strictly
//! bounded memory, oldest fingerprints forgotten first (a forgotten
//! duplicate is merely re-merged, never wrongly dropped, so a bounded
//! window is safe).
//!
//! The table is one `u64` array probed linearly from `fp & mask`:
//! fingerprints come out of a splitmix64 finalizer, so every bit is
//! already well mixed and the fingerprint is its own hash. A lookup reads
//! one cache line in the common case; the window sits on the share
//! path's per-clause hot loop, where a general-purpose hash set's
//! separate control bytes cost a second miss per probe.

use std::collections::VecDeque;

/// The table's empty-slot marker. Fingerprint 0 itself is tracked by a
/// flag beside the table.
const EMPTY: u64 = 0;

/// Slots of the first allocation; the table doubles from here.
const MIN_SLOTS: usize = 16;

/// A bounded first-in-first-out set of recently seen clause fingerprints.
#[derive(Clone, Debug, Default)]
pub struct FpWindow {
    /// Open-addressed set of the remembered non-zero fingerprints: empty
    /// or a power-of-two number of slots, at most seven eighths full —
    /// the load bound of the hash set this replaced, so the table doubles
    /// at the same counts and is never the larger of the two.
    slots: Vec<u64>,
    /// Fingerprint 0 is remembered ([`EMPTY`] cannot stand for it).
    has_zero: bool,
    /// Remembered fingerprints, oldest first.
    fifo: VecDeque<u64>,
    cap: usize,
}

impl FpWindow {
    /// A window remembering at most `cap` fingerprints. `cap` bounds
    /// eviction, it is not a capacity hint: windows are created per
    /// solver instance and most see far fewer fingerprints than the
    /// bound, so the backing storage grows on demand.
    pub fn new(cap: usize) -> FpWindow {
        FpWindow {
            slots: Vec::new(),
            has_zero: false,
            fifo: VecDeque::new(),
            cap,
        }
    }

    /// Record `fp`. Returns `true` iff it was *not* already in the
    /// window (i.e. the clause is fresh); evicts the oldest entry when
    /// the window is full.
    pub fn insert(&mut self, fp: u64) -> bool {
        if fp == EMPTY {
            if self.has_zero {
                return false;
            }
            self.has_zero = true;
        } else {
            // make room first so the probe below always meets an empty slot
            if (self.fifo.len() + 1) * 8 > self.slots.len() * 7 {
                self.grow();
            }
            match self.probe(fp) {
                Ok(_) => return false,
                Err(free) => self.slots[free] = fp,
            }
        }
        self.fifo.push_back(fp);
        if self.fifo.len() > self.cap {
            if let Some(old) = self.fifo.pop_front() {
                self.remove(old);
            }
        }
        true
    }

    /// `true` iff `fp` is currently remembered.
    pub fn contains(&self, fp: u64) -> bool {
        if fp == EMPTY {
            return self.has_zero;
        }
        !self.slots.is_empty() && self.probe(fp).is_ok()
    }

    /// Number of remembered fingerprints.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// `true` iff nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Walk the probe run of the non-zero fingerprint `fp` through a
    /// non-empty table: `Ok` with the slot holding it, or `Err` with the
    /// empty slot that ends the run (where it would be seated).
    fn probe(&self, fp: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = fp as usize & mask;
        loop {
            match self.slots[i] {
                EMPTY => return Err(i),
                seen if seen == fp => return Ok(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Double the table (or make the first allocation) and re-seat every
    /// remembered fingerprint.
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; slots]);
        for fp in old.into_iter().filter(|&fp| fp != EMPTY) {
            if let Err(free) = self.probe(fp) {
                self.slots[free] = fp;
            }
        }
    }

    /// Forget `fp` (the evicted oldest entry). Backward-shift deletion:
    /// later members of the probe run move up into the hole, so lookups
    /// never need tombstones.
    fn remove(&mut self, fp: u64) {
        if fp == EMPTY {
            self.has_zero = false;
            return;
        }
        let Ok(mut hole) = self.probe(fp) else {
            return;
        };
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let moved = self.slots[i];
            if moved == EMPTY {
                break;
            }
            // `moved` may fill the hole only if its home slot is not
            // cyclically inside (hole, i]: otherwise a probe from its home
            // would no longer reach it
            let home = moved as usize & mask;
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = moved;
                hole = i;
            }
        }
        self.slots[hole] = EMPTY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasherDefault, Hasher};

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
    fn capacity_evicts_oldest_first() {
        let mut w = FpWindow::new(3);
        for fp in [10, 20, 30] {
            assert!(w.insert(fp));
        }
        assert!(w.insert(40), "new entry fits by evicting");
        assert!(!w.contains(10), "oldest forgotten");
        assert!(w.contains(20) && w.contains(30) && w.contains(40));
        assert_eq!(w.len(), 3);
        // a forgotten fingerprint reads as fresh again
        assert!(w.insert(10));
    }

    /// Pass-through hasher of the reference window below.
    #[derive(Clone, Default)]
    struct FpHasher(u64);

    impl Hasher for FpHasher {
        fn finish(&self) -> u64 {
            self.0
        }

        fn write(&mut self, _bytes: &[u8]) {
            unreachable!("fingerprint windows only hash u64 keys");
        }

        fn write_u64(&mut self, fp: u64) {
            self.0 = fp;
        }
    }

    /// The window as first written — a FIFO over a hash set — kept as
    /// the model the flat table is checked against.
    struct ReferenceWindow {
        set: HashSet<u64, BuildHasherDefault<FpHasher>>,
        fifo: VecDeque<u64>,
        cap: usize,
    }

    impl ReferenceWindow {
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

    #[test]
    fn flat_table_agrees_with_the_hash_set_window_on_random_streams() {
        // xorshift64*
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for cap in [0usize, 1, 2, 7, 64, 1000] {
            let mut flat = FpWindow::new(cap);
            let mut model = ReferenceWindow {
                set: HashSet::default(),
                fifo: VecDeque::new(),
                cap,
            };
            // a universe a few times the cap: repeats, evictions and
            // re-insertions of forgotten fingerprints all occur. The low
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
                assert_eq!(
                    flat.insert(fp),
                    model.insert(fp),
                    "cap {cap} step {step}: insert({fp:#x})"
                );
                assert_eq!(flat.len(), model.fifo.len());
                let probe = next() % universe;
                assert_eq!(flat.contains(probe), model.set.contains(&probe));
                assert_eq!(flat.contains(fp), model.set.contains(&fp));
            }
            // the survivors are exactly the model's, oldest first
            assert!(flat.fifo.iter().eq(model.fifo.iter()), "cap {cap}");
            assert!(model.fifo.iter().all(|&fp| flat.contains(fp)));
            let seated = flat.slots.iter().filter(|&&s| s != EMPTY).count();
            assert_eq!(seated + usize::from(flat.has_zero), flat.len());
        }
    }
}

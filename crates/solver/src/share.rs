//! Fingerprint windows for clause-sharing dedup (HordeSat-style).
//!
//! Every clause that crosses the network carries a 64-bit fingerprint of
//! its literal set ([`gridsat_cnf::Clause::fingerprint`]). A node keeps a
//! bounded window of recently seen fingerprints: the grid client uses one
//! to drop duplicates at the wire, in both directions, before anything
//! reaches [`Solver::queue_fresh`](crate::Solver::queue_fresh), which
//! itself checks nothing.
//!
//! The storage is split in two. An [`FpIds`] table maps each fingerprint
//! to a dense `u32` id; one table serves every window of a simulated run,
//! because the share tree shows every clause to every client and a table
//! per window would hold the same fingerprints once per client. A
//! [`FpWindow`] is then two generations of bitsets over those ids:
//! fingerprints are marked in the current generation, and when that holds
//! half the bound the older generation is dropped wholesale and the
//! current one takes its place. So the last `cap / 2` distinct
//! fingerprints are always remembered, never more than `cap` are, and
//! forgetting costs no per-entry bookkeeping — HordeSat clears its
//! fixed-size Bloom filters periodically for the same reason. Any
//! forgetting is safe: a forgotten duplicate is merely re-merged, never
//! wrongly dropped.
//!
//! The id table's index is one `u64` array probed linearly from
//! `fp & mask`: fingerprints come out of a splitmix64 finalizer, so every
//! bit is already well mixed and the fingerprint is its own hash. A
//! lookup reads one cache line of it in the common case; the window sits
//! on the share path's per-clause hot loop, where a general-purpose hash
//! set's separate control bytes cost a second miss per probe.
//!
//! A shared table sits behind a mutex. Callers take it once per batch
//! ([`FpWindow::lock`]) and insert the batch's fingerprints under one
//! guard; [`FpWindow::insert`] locks per call.
//!
//! A batch fanned out to many windows over one table is interned once:
//! the first window to see it stores the ids its table handed out in the
//! batch's [`BatchIds`], tagged with that table, and every later window
//! over the same table marks those ids without probing the index
//! ([`LockedWindow::batch_ids`], [`LockedWindow::insert_id`]). A window
//! over any other table probes per fingerprint, as for any other insert.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// The index's empty-slot marker. Fingerprint 0 itself gets its id from a
/// field beside the index.
const EMPTY: u64 = 0;

/// Slots of the index's first allocation; it doubles from here.
const MIN_SLOTS: usize = 16;

/// Dense ids for clause fingerprints: the `k`-th distinct fingerprint
/// interned gets id `k`. Grow-only; one table serves every window of a
/// run (see [`FpWindow::over`]), so it holds each fingerprint any of them
/// saw once.
#[derive(Debug, Default)]
pub struct FpIds {
    /// Open-addressed index of the interned non-zero fingerprints: empty
    /// or a power-of-two number of slots, at most seven eighths full.
    slots: Vec<u64>,
    /// The id of the fingerprint in the same slot of `slots`.
    ids: Vec<u32>,
    /// Id of fingerprint 0, once interned ([`EMPTY`] cannot stand for it).
    zero: Option<u32>,
    /// Ids handed out.
    len: u32,
}

impl FpIds {
    /// An empty table, ready to share between windows.
    pub fn shared() -> Arc<Mutex<FpIds>> {
        Arc::default()
    }

    /// Number of distinct fingerprints interned.
    fn len(&self) -> usize {
        self.len as usize
    }

    /// The id of `fp`, if interned.
    fn get(&self, fp: u64) -> Option<u32> {
        if fp == EMPTY {
            return self.zero;
        }
        if self.slots.is_empty() {
            return None;
        }
        let i = self.probe(fp);
        (self.slots[i] == fp).then(|| self.ids[i])
    }

    /// The id of `fp`, handing out the next one if it is new.
    fn intern(&mut self, fp: u64) -> u32 {
        if fp == EMPTY {
            return *self.zero.get_or_insert_with(|| {
                self.len += 1;
                self.len - 1
            });
        }
        if !self.slots.is_empty() {
            let i = self.probe(fp);
            if self.slots[i] == fp {
                return self.ids[i];
            }
        }
        let seated = self.len() - usize::from(self.zero.is_some());
        // make room first so a probe always meets an empty slot
        if (seated + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let free = self.probe(fp);
        debug_assert_eq!(self.slots[free], EMPTY, "interned twice");
        let id = self.len;
        self.slots[free] = fp;
        self.ids[free] = id;
        self.len = id.checked_add(1).expect("fewer than 2^32 fingerprints");
        id
    }

    /// Walk the probe run of the non-zero fingerprint `fp` through a
    /// non-empty index: the slot holding it, or the empty slot that ends
    /// the run (where it would be seated).
    fn probe(&self, fp: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = fp as usize & mask;
        while self.slots[i] != EMPTY && self.slots[i] != fp {
            i = (i + 1) & mask;
        }
        i
    }

    /// Double the index (or make the first allocation) and re-seat every
    /// interned fingerprint with its id.
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(MIN_SLOTS);
        let old_slots = std::mem::replace(&mut self.slots, vec![EMPTY; slots]);
        let old_ids = std::mem::replace(&mut self.ids, vec![0; slots]);
        for (fp, id) in old_slots.into_iter().zip(old_ids) {
            if fp != EMPTY {
                let free = self.probe(fp);
                self.slots[free] = fp;
                self.ids[free] = id;
            }
        }
    }
}

/// The ids one [`FpIds`] table handed out for a batch's fingerprints,
/// index-aligned with them, filled by the first window that inserts the
/// batch ([`LockedWindow::batch_ids`]). Lives beside the batch, so every
/// recipient of a fan-out sees the same one.
#[derive(Debug, Default)]
pub struct BatchIds(OnceLock<Interned>);

/// A batch's fingerprint ids and the table that handed them out.
#[derive(Debug)]
struct Interned {
    table: Arc<Mutex<FpIds>>,
    ids: Box<[u32]>,
}

/// One generation of a window: a grow-only set of fingerprint ids.
#[derive(Clone, Debug, Default)]
struct Generation {
    /// Bit `id % 64` of word `id / 64` is set iff `id` is remembered.
    /// Empty until the first mark, then as many words as the id table
    /// needed when the highest id was marked.
    words: Vec<u64>,
    /// Ids marked.
    len: usize,
}

impl Generation {
    /// `true` iff `id` is marked. An empty generation answers from its
    /// length of words, no memory touched.
    fn contains(&self, id: u32) -> bool {
        let id = id as usize;
        self.words
            .get(id / 64)
            .is_some_and(|w| (w >> (id % 64)) & 1 != 0)
    }

    /// Mark `id`, which this generation does not hold yet, out of a
    /// table of `ids` ids.
    fn seat(&mut self, id: u32, ids: usize) {
        let (word, bit) = (id as usize / 64, id % 64);
        if word >= self.words.len() {
            // cover every id handed out so far, not one word more
            let words = ids.div_ceil(64);
            self.words.reserve_exact(words - self.words.len());
            self.words.resize(words, 0);
        }
        self.words[word] |= 1 << bit;
        self.len += 1;
    }

    /// Forget everything; the bitset keeps its size.
    fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }
}

/// A bounded set of recently seen clause fingerprints: whatever was among
/// the last `cap / 2` distinct fingerprints inserted is remembered, and
/// never more than `cap` are.
#[derive(Clone, Debug)]
pub struct FpWindow {
    /// The id table the generations index; shared with other windows or
    /// the window's own.
    ids: Arc<Mutex<FpIds>>,
    /// Where fresh fingerprints are marked; fewer than `cap / 2` entries.
    cur: Generation,
    /// The generation before it: empty until `cur` first fills, exactly
    /// `cap / 2` entries from then on.
    old: Generation,
    cap: usize,
}

impl FpWindow {
    /// A window remembering at most `cap` fingerprints, over an id table
    /// of its own. `cap` bounds forgetting, it is not a capacity hint: a
    /// window's bitsets grow on demand, with the ids it marks.
    pub fn new(cap: usize) -> FpWindow {
        FpWindow::over(cap, FpIds::shared())
    }

    /// A window remembering at most `cap` fingerprints, over the id table
    /// `ids`, which other windows may share: a fingerprint interned by
    /// one is held once for all of them. Each window still remembers only
    /// what was inserted into it.
    pub fn over(cap: usize, ids: Arc<Mutex<FpIds>>) -> FpWindow {
        FpWindow {
            ids,
            cur: Generation::default(),
            old: Generation::default(),
            cap,
        }
    }

    /// Lock the id table for a batch of inserts.
    pub fn lock(&mut self) -> LockedWindow<'_> {
        let FpWindow { ids, cur, old, cap } = self;
        LockedWindow {
            table: ids,
            ids: ids.lock().unwrap_or_else(PoisonError::into_inner),
            cur,
            old,
            cap: *cap,
        }
    }

    /// Record `fp`. Returns `true` iff it was *not* already in the
    /// window (i.e. the clause is fresh). Locks the id table; a batch
    /// takes [`FpWindow::lock`] once instead.
    pub fn insert(&mut self, fp: u64) -> bool {
        self.lock().insert(fp)
    }

    /// `true` iff `fp` is currently remembered.
    pub fn contains(&self, fp: u64) -> bool {
        let ids = self.ids.lock().unwrap_or_else(PoisonError::into_inner);
        ids.get(fp)
            .is_some_and(|id| self.cur.contains(id) || self.old.contains(id))
    }

    /// Number of remembered fingerprints.
    pub fn len(&self) -> usize {
        self.cur.len + self.old.len
    }

    /// `true` iff nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A window with its id table locked ([`FpWindow::lock`]).
pub struct LockedWindow<'a> {
    /// The table `ids` guards, to recognise a batch's ids as its own.
    table: &'a Arc<Mutex<FpIds>>,
    ids: MutexGuard<'a, FpIds>,
    cur: &'a mut Generation,
    old: &'a mut Generation,
    cap: usize,
}

impl LockedWindow<'_> {
    /// [`FpWindow::insert`] under the held lock.
    pub fn insert(&mut self, fp: u64) -> bool {
        if self.cap / 2 == 0 {
            return true; // too small a bound to remember anything
        }
        let id = self.ids.intern(fp);
        self.insert_id(id)
    }

    /// The ids of a batch's fingerprints `fps` in this window's table,
    /// for [`LockedWindow::insert_id`]: read off `memo` when a window over
    /// this table filled it, interned here, in batch order, and stored in
    /// `memo` when nobody did. `None` when `memo` holds another table's
    /// ids, or the window remembers nothing: insert each fingerprint with
    /// [`LockedWindow::insert`] then. Interning a batch up front hands out
    /// the ids inserting it one by one would, so every answer is the same.
    pub fn batch_ids<'m>(
        &mut self,
        fps: impl Iterator<Item = u64>,
        memo: &'m BatchIds,
    ) -> Option<&'m [u32]> {
        if self.cap / 2 == 0 {
            return None;
        }
        let batch = memo.0.get_or_init(|| Interned {
            table: Arc::clone(self.table),
            ids: fps.map(|fp| self.ids.intern(fp)).collect(),
        });
        Arc::ptr_eq(&batch.table, self.table).then_some(&*batch.ids)
    }

    /// [`LockedWindow::insert`] of the fingerprint this window's table
    /// gave `id` ([`LockedWindow::batch_ids`]).
    pub fn insert_id(&mut self, id: u32) -> bool {
        let half = self.cap / 2;
        if half == 0 {
            return true;
        }
        debug_assert!((id as usize) < self.ids.len(), "id {id} not handed out");
        if self.cur.contains(id) || self.old.contains(id) {
            return false;
        }
        self.cur.seat(id, self.ids.len());
        if self.cur.len == half {
            // drop the older generation, demote the current one; the
            // cleared bitset is reused, so a busy window stops allocating
            std::mem::swap(self.cur, self.old);
            self.cur.clear();
        }
        true
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
        fn new(cap: usize) -> FifoWindow {
            FifoWindow {
                set: HashSet::new(),
                fifo: VecDeque::new(),
                cap,
            }
        }

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

    /// xorshift64*
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    /// The `k`-th fingerprint of a universe whose low bits collide on
    /// purpose (long probe runs that wrap around the index's end), with
    /// fingerprint 0 in play.
    fn awkward(k: u64) -> u64 {
        match k % 4 {
            0 => k,                                     // small values, 0 included
            1 => k << 32,                               // all share home slot 0
            2 => (k << 20) | 0xf_ffff,                  // home at the index's end
            _ => k.wrapping_mul(0x9e37_79b9_7f4a_7c15), // scattered
        }
    }

    /// A window under test beside its reference: the exact FIFO, every
    /// fingerprint offered to it, and the ones it called fresh, newest
    /// last.
    struct Checked {
        w: FpWindow,
        fifo: FifoWindow,
        seen: HashSet<u64>,
        fresh: Vec<u64>,
    }

    impl Checked {
        fn new(w: FpWindow, cap: usize) -> Checked {
            Checked {
                w,
                fifo: FifoWindow::new(cap),
                seen: HashSet::new(),
                fresh: Vec::new(),
            }
        }

        /// Insert `fp` into the window and check it against the contract
        /// and, until it first forgets, against the FIFO; `probe` is a
        /// fingerprint to look up on the side.
        fn insert(&mut self, fp: u64, probe: u64, at: &str) {
            let (cap, half) = (self.w.cap, self.w.cap / 2);
            let was_fresh = self.w.insert(fp);
            if was_fresh {
                // anything among the last cap/2 distinct inserts is remembered
                assert!(
                    !last(&self.fresh, half).contains(&fp),
                    "{at} forgotten early"
                );
                self.fresh.push(fp);
            } else {
                // never more than cap are: a duplicate verdict needs a
                // first offer no further back than that
                assert!(
                    last(&self.fresh, cap).contains(&fp),
                    "{at} remembered too long"
                );
            }
            assert!(self.w.len() <= cap, "{at}: len {}", self.w.len());
            assert_eq!(self.w.contains(fp), half > 0, "{at}");
            if self.fresh.len().is_multiple_of(64) {
                let recent = last(&self.fresh, half);
                assert!(recent.iter().all(|&fp| self.w.contains(fp)), "{at}");
            }
            // until the window first forgets, it is the exact FIFO
            let fifo_fresh = self.fifo.insert(fp);
            self.seen.insert(fp);
            if self.seen.len() < half {
                assert_eq!(was_fresh, fifo_fresh, "{at}");
                assert_eq!(self.w.len(), self.fifo.fifo.len(), "{at}");
                assert_eq!(
                    self.w.contains(probe),
                    self.fifo.set.contains(&probe),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn window_keeps_its_contract_on_random_streams() {
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        for cap in [0usize, 1, 2, 3, 7, 64, 1000, 5000] {
            let mut c = Checked::new(FpWindow::new(cap), cap);
            // a universe a few times the cap: repeats, forgetting and
            // re-insertion of forgotten fingerprints all occur
            let universe = (cap as u64 * 3).max(4);
            for step in 0..20_000u32 {
                let fp = awkward(next() % universe);
                let probe = awkward(next() % universe);
                c.insert(
                    fp,
                    probe,
                    &format!("cap {cap} step {step}: insert({fp:#x})"),
                );
            }
            assert!(
                c.fresh.len() > c.seen.len(),
                "cap {cap}: nothing was ever forgotten"
            );
        }
    }

    #[test]
    fn windows_sharing_one_table_keep_their_contracts_on_interleaved_streams() {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        for caps in [[2usize, 7, 64], [64, 64, 1000], [1000, 3, 5000]] {
            let ids = FpIds::shared();
            let mut windows: Vec<Checked> = caps
                .iter()
                .map(|&cap| Checked::new(FpWindow::over(cap, ids.clone()), cap))
                .collect();
            // one universe for all three, a few times the largest cap: the
            // table holds every fingerprint any window saw, each window
            // only its own
            let universe = caps.iter().max().unwrap() * 3;
            for step in 0..30_000u32 {
                let k = (next() % windows.len() as u64) as usize;
                // each window's stream favours its own stretch of the
                // universe, so what one window interned the others meet
                // both early and late
                let base = (k * universe / windows.len()) as u64;
                let fp = awkward((base + next() % (universe as u64 / 2)) % universe as u64);
                let probe = awkward(next() % universe as u64);
                let at = format!("caps {caps:?} window {k} step {step}: insert({fp:#x})");
                windows[k].insert(fp, probe, &at);
            }
            let offered: HashSet<u64> = windows.iter().flat_map(|c| &c.seen).copied().collect();
            assert_eq!(ids.lock().unwrap().len(), offered.len(), "caps {caps:?}");
            for (c, cap) in windows.iter().zip(caps) {
                assert!(
                    c.fresh.len() > c.seen.len(),
                    "cap {cap}: nothing was ever forgotten"
                );
            }
        }
    }

    #[test]
    fn memory_is_one_id_table_plus_two_bitsets_per_window() {
        let mut next = xorshift(0x5851_f42d_4c95_7f2d);
        let ids = FpIds::shared();
        // the share tree shows every clause to every client: six windows
        // over one run's table, each offered every fingerprint of the
        // stream; two of them are small enough to rotate
        let caps = [1 << 16, 1 << 16, 1 << 16, 1 << 16, 600, 100];
        let mut windows: Vec<FpWindow> = caps
            .iter()
            .map(|&cap| FpWindow::over(cap, ids.clone()))
            .collect();
        let mut distinct = HashSet::new();
        for step in 0..3_000u32 {
            let fp = awkward(next() % 2_000);
            let new = distinct.insert(fp);
            // one lock per batch: here a batch of one, per window
            let fresh: Vec<bool> = windows.iter_mut().map(|w| w.lock().insert(fp)).collect();
            assert!(fresh[..4].iter().all(|&f| f == new), "step {step}");
            let table = ids.lock().unwrap();
            assert_eq!(table.len(), distinct.len(), "step {step}");
            // the table: one index, the smallest power of two that keeps
            // it at most seven eighths full, and an id per slot
            let seated = distinct.iter().filter(|&&fp| fp != EMPTY).count();
            let slots = match seated {
                0 => 0,
                k => (k * 8).div_ceil(7).next_power_of_two().max(MIN_SLOTS),
            };
            assert_eq!(table.slots.len(), slots, "step {step}: {seated} seated");
            assert_eq!(table.slots.capacity(), slots, "step {step}");
            assert_eq!(table.ids.capacity(), slots, "step {step}");
            // a window: two bitsets of at most ⌈ids/64⌉ words, and a
            // window that never rotated has one, at exactly that size
            let words = table.len().div_ceil(64);
            for w in &windows {
                for g in [&w.cur, &w.old] {
                    assert!(g.words.len() <= words, "step {step}");
                    assert_eq!(g.words.capacity(), g.words.len(), "step {step}");
                    let marked: u32 = g.words.iter().map(|w| w.count_ones()).sum();
                    assert_eq!(marked as usize, g.len, "step {step}");
                }
                if w.cap == 1 << 16 {
                    assert_eq!(w.cur.words.len(), words, "step {step}");
                    assert_eq!(w.old.words.capacity(), 0, "step {step}");
                    assert_eq!(w.len(), table.len(), "step {step}");
                }
            }
        }
        assert!(windows[4].old.len == 300 && windows[5].old.len == 50);
    }

    /// Batches fanned out to windows over one table, each interned once
    /// into the batch's [`BatchIds`], get exactly the answers that
    /// interning per recipient gives: the same verdict for every clause
    /// at every window, and the same id for every fingerprint in the
    /// table. Windows of all sizes (some rotating, one remembering
    /// nothing) take batches in a random order and single inserts in
    /// between; a window over a table of its own meets the same memos and
    /// probes per fingerprint.
    #[test]
    fn windows_fed_one_fanned_out_batch_answer_as_per_recipient_interning() {
        let mut next = xorshift(0x1405_7b7e_f767_814f);
        let caps = [1usize << 16, 1 << 16, 600, 100, 7, 1, 300];
        let (memo_table, plain_table) = (FpIds::shared(), FpIds::shared());
        // the last window of each run has a table of its own
        let over = |table: &Arc<Mutex<FpIds>>, k: usize| {
            let table = if k + 1 < caps.len() {
                table.clone()
            } else {
                FpIds::shared()
            };
            FpWindow::over(caps[k], table)
        };
        let mut memo: Vec<FpWindow> = (0..caps.len()).map(|k| over(&memo_table, k)).collect();
        let mut plain: Vec<FpWindow> = (0..caps.len()).map(|k| over(&plain_table, k)).collect();
        let (mut marked, mut probed, mut fresh) = (0u64, 0u64, 0u64);
        for batch in 0..2_000u32 {
            let fps: Vec<u64> = (0..next() % 40).map(|_| awkward(next() % 3_000)).collect();
            let ids = BatchIds::default();
            let mut order: Vec<usize> = (0..caps.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            for &k in order.iter().take(1 + (next() % caps.len() as u64) as usize) {
                let want: Vec<bool> = {
                    let mut w = plain[k].lock();
                    fps.iter().map(|&fp| w.insert(fp)).collect()
                };
                let mut w = memo[k].lock();
                let got: Vec<bool> = match w.batch_ids(fps.iter().copied(), &ids) {
                    Some(ids) => {
                        marked += ids.len() as u64;
                        ids.iter().map(|&id| w.insert_id(id)).collect()
                    }
                    None => {
                        probed += fps.len() as u64;
                        fps.iter().map(|&fp| w.insert(fp)).collect()
                    }
                };
                assert_eq!(got, want, "batch {batch}, window {k}");
                fresh += got.iter().filter(|&&f| f).count() as u64;
            }
            // a node's own learned clause, offered between batches
            let k = (next() % caps.len() as u64) as usize;
            let fp = awkward(next() % 3_000);
            assert_eq!(memo[k].insert(fp), plain[k].insert(fp), "batch {batch}");
        }
        let (a, b) = (memo_table.lock().unwrap(), plain_table.lock().unwrap());
        assert_eq!(a.len(), b.len());
        for fp in (0..3_000).map(awkward) {
            assert_eq!(a.get(fp), b.get(fp), "{fp:#x}");
        }
        assert!(
            marked > 50_000 && probed > 5_000 && fresh > 5_000,
            "{marked} marked, {probed} probed, {fresh} fresh"
        );
    }
}

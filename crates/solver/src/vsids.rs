//! Variable State Independent Decaying Sum, per Chaff (paper Section 2.4).
//!
//! Each *literal* has a counter, incremented whenever a clause containing
//! it is added to the database. Decisions pick the unassigned literal with
//! the highest counter (ties broken by lowest literal code, so runs are
//! deterministic). Periodically all counters are divided by a constant so
//! recent clauses dominate.
//!
//! The order is kept by an indexed binary max-heap with one entry per
//! *variable*, keyed by that variable's better literal: the higher
//! counter, then the lower code. The counters stay per literal; only the
//! queue over them is per variable. Every pick is the one the literal
//! order makes. Both literals of an unassigned variable are unassigned,
//! and the solver keeps every unassigned variable in the heap (a variable
//! leaves it only when it is popped, and [`Vsids::reinsert`] puts it back
//! when it is unassigned). So the best key over the heap's unassigned
//! variables is the best unassigned literal. A decided variable leaves the
//! heap once, instead of its other literal surfacing later to be
//! discarded.
//!
//! Each entry caches its key, so a comparison is one integer compare:
//! [`Vsids::bump`] raises it and sifts up, [`Vsids::reorder`] (behind
//! [`Vsids::decay`] and [`Vsids::rebuild`]) recomputes every key from the
//! counters and heapifies, and [`Vsids::reinsert`] computes it afresh.
//! Assigned variables are skipped lazily, when they surface at the top;
//! [`Vsids::rebuild`] leaves out the ones that will never be unassigned.

use gridsat_cnf::{Lit, Var};

/// A literal's place in the decision order as one integer: its counter in
/// the high bits and its code complemented in the low 32, so a larger key
/// is a higher counter and, on equal counters, a lower code.
type Key = u128;

#[inline]
fn key(score: u64, code: usize) -> Key {
    (Key::from(score) << 32) | Key::from(!(code as u32))
}

#[inline]
fn code_of(k: Key) -> usize {
    !(k as u32) as usize
}

#[inline]
fn var_of(k: Key) -> usize {
    code_of(k) >> 1
}

/// Per-literal VSIDS counters and the per-variable decision heap.
pub struct Vsids {
    score: Vec<u64>,
    /// each entry the key of one variable's better literal, max at index 0
    heap: Vec<Key>,
    /// position of each variable in `heap`, or `NOT_IN_HEAP`
    pos: Vec<u32>,
}

const NOT_IN_HEAP: u32 = u32::MAX;

impl Vsids {
    /// State for `num_vars` variables, all counters zero, every variable
    /// in the heap.
    pub fn new(num_vars: usize) -> Vsids {
        let v = Vsids {
            score: vec![0; num_vars * 2],
            // all counters equal: a variable's key is its positive
            // literal's, and ascending variables are descending keys
            heap: (0..num_vars).map(|v| key(0, 2 * v)).collect(),
            pos: (0..num_vars as u32).collect(),
        };
        debug_assert!(v.check_invariants());
        v
    }

    /// The key of a variable: the better of its two literals'.
    #[inline]
    fn var_key(&self, v: usize) -> Key {
        key(self.score[2 * v], 2 * v).max(key(self.score[2 * v + 1], 2 * v + 1))
    }

    /// Move the hole at `i` up until `k` fits, then put `k` there.
    fn sift_up(&mut self, mut i: usize, k: Key) {
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if p >= k {
                break;
            }
            self.heap[i] = p;
            self.pos[var_of(p)] = i as u32;
            i = parent;
        }
        self.heap[i] = k;
        self.pos[var_of(k)] = i as u32;
    }

    /// Move the hole at `i` down until `k` fits, then put `k` there.
    fn sift_down(&mut self, mut i: usize, k: Key) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let c = if r < n && self.heap[r] > self.heap[l] {
                r
            } else {
                l
            };
            let ck = self.heap[c];
            if ck <= k {
                break;
            }
            self.heap[i] = ck;
            self.pos[var_of(ck)] = i as u32;
            i = c;
        }
        self.heap[i] = k;
        self.pos[var_of(k)] = i as u32;
    }

    /// Increment a literal's counter (a clause containing it was added).
    pub fn bump(&mut self, l: Lit) {
        let code = l.code();
        self.score[code] += 1;
        let p = self.pos[code >> 1];
        if p != NOT_IN_HEAP {
            // only this literal's counter rose, so the key can only rise
            let p = p as usize;
            let k = self.heap[p].max(key(self.score[code], code));
            self.sift_up(p, k);
        }
    }

    /// Increment a literal's counter without restoring the order; the
    /// caller finishes a run of these with one [`Vsids::reorder`]. Which
    /// literal pops next is a function of the counters alone (keys are
    /// distinct), so a bulk load bumps this way and heapifies once instead
    /// of sifting per literal.
    pub fn bump_unordered(&mut self, l: Lit) {
        self.score[l.code()] += 1;
    }

    /// Rebuild the heap from the variables `keep` accepts, in the order of
    /// the current counters; the rest leave it until [`Vsids::reinsert`].
    pub fn rebuild(&mut self, mut keep: impl FnMut(Var) -> bool) {
        self.heap.clear();
        for v in 0..self.pos.len() {
            if keep(Var(v as u32)) {
                self.pos[v] = self.heap.len() as u32;
                self.heap.push(0);
            } else {
                self.pos[v] = NOT_IN_HEAP;
            }
        }
        self.reorder();
    }

    /// Recompute every entry's key from the current counters and rebuild
    /// the heap order.
    pub fn reorder(&mut self) {
        for v in 0..self.pos.len() {
            let p = self.pos[v];
            if p != NOT_IN_HEAP {
                self.heap[p as usize] = self.var_key(v);
            }
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, self.heap[i]);
        }
        debug_assert!(self.check_invariants());
    }

    /// Current counter of a literal.
    pub fn score(&self, l: Lit) -> u64 {
        self.score[l.code()]
    }

    /// Divide all counters by `2^shift` and rebuild the order (relative
    /// order may change on integer ties).
    pub fn decay(&mut self, shift: u32) {
        for s in &mut self.score {
            *s >>= shift;
        }
        self.reorder();
    }

    /// Re-insert a variable after it was unassigned (a no-op while it is
    /// still in the heap).
    pub fn reinsert(&mut self, v: Var) {
        let v = v.index();
        if self.pos[v] != NOT_IN_HEAP {
            return;
        }
        self.heap.push(0);
        self.sift_up(self.heap.len() - 1, self.var_key(v));
    }

    /// Pop the better literal of the best variable that `is_unassigned`
    /// accepts. Assigned variables encountered on the way are removed
    /// (they are re-inserted on backtrack).
    pub fn pop_best(&mut self, mut is_unassigned: impl FnMut(Var) -> bool) -> Option<Lit> {
        while let Some(&top) = self.heap.first() {
            let last = self.heap.pop().expect("non-empty");
            self.pos[var_of(top)] = NOT_IN_HEAP;
            if !self.heap.is_empty() {
                self.sift_down(0, last);
            }
            let lit = Lit::from_code(code_of(top));
            if is_unassigned(lit.var()) {
                return Some(lit);
            }
        }
        None
    }

    /// Is the variable in the heap?
    pub(crate) fn contains(&self, v: Var) -> bool {
        self.pos[v.index()] != NOT_IN_HEAP
    }

    /// Heap-consistency check: positions match, every cached key is its
    /// variable's current key, and no entry beats its parent.
    pub(crate) fn check_invariants(&self) -> bool {
        let placed = self.pos.iter().filter(|&&p| p != NOT_IN_HEAP).count();
        placed == self.heap.len()
            && self.heap.iter().enumerate().all(|(i, &k)| {
                let v = var_of(k);
                self.pos[v] == i as u32
                    && k == self.var_key(v)
                    && (i == 0 || self.heap[(i - 1) / 2] > k)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsat_cnf::rng::Rng;

    fn lit(code: usize) -> Lit {
        Lit::from_code(code)
    }

    /// The decision heap as first written, one entry per literal: the
    /// reference the per-variable heap must pop like. `backtrack` put
    /// both literals of an unassigned variable back.
    struct LitHeap {
        score: Vec<u64>,
        heap: Vec<u32>,
        pos: Vec<u32>,
    }

    impl LitHeap {
        fn new(num_vars: usize) -> LitHeap {
            let n = num_vars * 2;
            LitHeap {
                score: vec![0; n],
                heap: (0..n as u32).collect(),
                pos: (0..n as u32).collect(),
            }
        }

        fn better(&self, a: u32, b: u32) -> bool {
            let (sa, sb) = (self.score[a as usize], self.score[b as usize]);
            sa > sb || (sa == sb && a < b)
        }

        fn sift_up(&mut self, mut i: usize) {
            while i > 0 {
                let parent = (i - 1) / 2;
                if !self.better(self.heap[i], self.heap[parent]) {
                    break;
                }
                self.heap.swap(i, parent);
                self.pos[self.heap[i] as usize] = i as u32;
                self.pos[self.heap[parent] as usize] = parent as u32;
                i = parent;
            }
        }

        fn sift_down(&mut self, mut i: usize) {
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut best = i;
                if l < self.heap.len() && self.better(self.heap[l], self.heap[best]) {
                    best = l;
                }
                if r < self.heap.len() && self.better(self.heap[r], self.heap[best]) {
                    best = r;
                }
                if best == i {
                    break;
                }
                self.heap.swap(i, best);
                self.pos[self.heap[i] as usize] = i as u32;
                self.pos[self.heap[best] as usize] = best as u32;
                i = best;
            }
        }

        fn bump(&mut self, l: Lit) {
            self.score[l.code()] += 1;
            let p = self.pos[l.code()];
            if p != NOT_IN_HEAP {
                self.sift_up(p as usize);
            }
        }

        fn bump_unordered(&mut self, l: Lit) {
            self.score[l.code()] += 1;
        }

        fn rebuild(&mut self, mut keep: impl FnMut(Lit) -> bool) {
            self.heap.clear();
            for code in 0..self.pos.len() {
                if keep(lit(code)) {
                    self.pos[code] = self.heap.len() as u32;
                    self.heap.push(code as u32);
                } else {
                    self.pos[code] = NOT_IN_HEAP;
                }
            }
            self.reorder();
        }

        fn reorder(&mut self) {
            for i in (0..self.heap.len() / 2).rev() {
                self.sift_down(i);
            }
        }

        fn decay(&mut self, shift: u32) {
            for s in &mut self.score {
                *s >>= shift;
            }
            self.reorder();
        }

        fn reinsert(&mut self, l: Lit) {
            if self.pos[l.code()] != NOT_IN_HEAP {
                return;
            }
            self.heap.push(l.code() as u32);
            self.pos[l.code()] = (self.heap.len() - 1) as u32;
            self.sift_up(self.heap.len() - 1);
        }

        fn pop_best(&mut self, mut is_unassigned: impl FnMut(Lit) -> bool) -> Option<Lit> {
            while !self.heap.is_empty() {
                let code = self.heap[0];
                let last = self.heap.pop().expect("non-empty");
                self.pos[code as usize] = NOT_IN_HEAP;
                if !self.heap.is_empty() {
                    self.heap[0] = last;
                    self.pos[last as usize] = 0;
                    self.sift_down(0);
                }
                if is_unassigned(lit(code as usize)) {
                    return Some(lit(code as usize));
                }
            }
            None
        }
    }

    /// The per-variable heap pops what the per-literal reference pops, at
    /// every pop of 1,000 seeded schedules: decisions, implied variables
    /// skipped lazily, backtracks (the reference reinserting both
    /// literals, the heap the variable once), bumps in order and runs of
    /// unordered bumps closed by a reorder, decays, and either a rebuild
    /// without the variables fixed at level 0 or a heap that skips them.
    /// Few distinct counters, so ties are the common case — also the ones
    /// a decay makes out of unequal counters.
    #[test]
    fn the_variable_heap_pops_like_the_literal_heap() {
        let (mut pops, mut ties, mut decay_ties) = (0u64, 0u64, 0u64);
        for schedule in 0..1000u64 {
            let mut rng = Rng::seed_from_u64(schedule);
            let n_vars = rng.range_usize(1..40);
            let n_lits = 2 * n_vars;
            let mut reference = LitHeap::new(n_vars);
            let mut heap = Vsids::new(n_vars);
            for _ in 0..rng.range_usize(0..200) {
                let l = lit(rng.range_usize(0..n_lits));
                reference.bump_unordered(l);
                heap.bump_unordered(l);
            }
            // fixed: at level 0 for good; assigned: decided or implied above it
            let fixed: Vec<bool> = (0..n_vars).map(|_| rng.gen_bool(0.3)).collect();
            let mut assigned = vec![false; n_vars];
            if rng.gen_bool(0.5) {
                reference.rebuild(|l| !fixed[l.var().index()]);
            } else {
                reference.reorder();
            }
            if rng.gen_bool(0.5) {
                heap.rebuild(|v| !fixed[v.index()]);
            } else {
                heap.reorder();
            }
            assert!(heap.check_invariants());
            for _ in 0..6 * n_vars {
                match rng.range_u32(0..10) {
                    0..=2 => {
                        let free = |v: Var| !fixed[v.index()] && !assigned[v.index()];
                        let want = reference.pop_best(|l| free(l.var()));
                        let got = heap.pop_best(free);
                        assert_eq!(got, want, "schedule {schedule}");
                        if let Some(l) = got {
                            let s = reference.score[l.code()];
                            let tied = (0..n_lits).any(|c| {
                                c != l.code() && free(lit(c).var()) && reference.score[c] == s
                            });
                            ties += u64::from(tied);
                            assigned[l.var().index()] = true;
                            pops += 1;
                        }
                    }
                    3 => {
                        // implied: assigned while still in both heaps
                        let v = rng.range_usize(0..n_vars);
                        assigned[v] |= !fixed[v];
                    }
                    4 => {
                        let v = rng.range_usize(0..n_vars);
                        if assigned[v] {
                            assigned[v] = false;
                            reference.reinsert(Lit::pos(v as u32));
                            reference.reinsert(Lit::neg(v as u32));
                            heap.reinsert(Var(v as u32));
                        }
                    }
                    5 | 6 => {
                        let l = lit(rng.range_usize(0..n_lits));
                        reference.bump(l);
                        heap.bump(l);
                    }
                    7 => {
                        for _ in 0..rng.range_usize(1..8) {
                            let l = lit(rng.range_usize(0..n_lits));
                            reference.bump_unordered(l);
                            heap.bump_unordered(l);
                        }
                        reference.reorder();
                        heap.reorder();
                    }
                    _ => {
                        let before = reference.score.clone();
                        reference.decay(1);
                        heap.decay(1);
                        let s = &reference.score;
                        let made = (0..n_lits).any(|a| {
                            (a + 1..n_lits).any(|b| before[a] != before[b] && s[a] == s[b])
                        });
                        decay_ties += u64::from(made);
                    }
                }
                assert!(heap.check_invariants(), "schedule {schedule}");
                assert_eq!(heap.score, reference.score);
            }
        }
        assert!(
            pops > 10_000 && ties > 1000 && decay_ties > 1000,
            "{pops} pops, {ties} tied, {decay_ties} decays made ties"
        );
    }

    #[test]
    fn each_variable_pops_once_as_its_better_literal() {
        let mut v = Vsids::new(3); // lit codes 0..6
        v.bump(lit(1)); // var 0: the negative literal beats the positive
        v.bump(lit(5));
        v.bump(lit(4)); // var 2: a tie, the lower code wins
        let mut order = Vec::new();
        while let Some(l) = v.pop_best(|_| true) {
            order.push(l.code());
        }
        // equal counters 1 and 1: code 1 before code 4; then var 1 at 0
        assert_eq!(order, [1, 4, 2]);
    }

    #[test]
    fn pop_order_follows_scores_then_codes() {
        let mut v = Vsids::new(3); // lit codes 0..6
        v.bump(lit(4));
        v.bump(lit(4));
        v.bump(lit(1));

        let mut order = Vec::new();
        while let Some(l) = v.pop_best(|_| true) {
            order.push(l.code());
        }
        assert_eq!(order[0], 4);
        assert_eq!(order[1], 1);
        // var 1 is left, both counters 0: its lower code
        assert_eq!(&order[2..], &[2]);
    }

    #[test]
    fn pop_skips_assigned() {
        let mut v = Vsids::new(2);
        v.bump(lit(3));
        let best = v.pop_best(|x| x.index() != 1);
        assert_eq!(best.unwrap().code(), 0);
    }

    #[test]
    fn reinsert_restores_candidacy() {
        let mut v = Vsids::new(2);
        v.bump(lit(2));
        assert_eq!(v.pop_best(|_| true).unwrap().code(), 2);
        assert_eq!(v.pop_best(|_| true).unwrap().code(), 0);
        v.reinsert(Var(1));
        v.reinsert(Var(1)); // idempotent
        assert_eq!(v.pop_best(|_| true).unwrap().code(), 2);
        assert_eq!(v.pop_best(|_| true), None);
    }

    #[test]
    fn decay_halves_scores() {
        let mut v = Vsids::new(2);
        for _ in 0..5 {
            v.bump(lit(1));
        }
        for _ in 0..3 {
            v.bump(lit(2));
        }
        v.decay(1);
        assert_eq!(v.score(lit(1)), 2);
        assert_eq!(v.score(lit(2)), 1);
        assert_eq!(v.pop_best(|_| true).unwrap().code(), 1);
    }

    #[test]
    fn bump_on_popped_literal_is_safe() {
        let mut v = Vsids::new(1);
        let l = v.pop_best(|_| true).unwrap();
        v.bump(l); // not in heap: score updates, no heap op
        v.reinsert(l.var());
        assert_eq!(v.pop_best(|_| true), Some(l));
    }

    /// The loader's shortcut: a run of unordered bumps closed by one
    /// reorder must leave a heap that behaves, pop for pop, like the one
    /// sift-on-bump built — also through later bumps, reinserts and decays.
    #[test]
    fn unordered_bumps_and_one_reorder_pop_like_sift_on_bump() {
        for schedule in 0..1000u64 {
            let mut rng = Rng::seed_from_u64(schedule);
            let n_vars = rng.range_usize(1..40);
            let mut sifted = Vsids::new(n_vars);
            let mut bulk = Vsids::new(n_vars);
            // few distinct scores, so ties are the common case
            for _ in 0..rng.range_usize(0..300) {
                let l = lit(rng.range_usize(0..2 * n_vars));
                sifted.bump(l);
                bulk.bump_unordered(l);
            }
            bulk.reorder();
            assert_eq!(sifted.score, bulk.score);
            let mut out: Vec<Lit> = Vec::new();
            for _ in 0..6 * n_vars {
                match rng.range_u32(0..8) {
                    0..=3 => {
                        let skip = rng.range_usize(0..n_vars);
                        let a = sifted.pop_best(|v| v.index() != skip);
                        let b = bulk.pop_best(|v| v.index() != skip);
                        assert_eq!(a, b, "schedule {schedule}");
                        out.extend(a);
                    }
                    4 | 5 => {
                        let l = lit(rng.range_usize(0..2 * n_vars));
                        sifted.bump(l);
                        bulk.bump(l);
                    }
                    6 => {
                        if let Some(l) = out.pop() {
                            sifted.reinsert(l.var());
                            bulk.reinsert(l.var());
                        }
                    }
                    _ => {
                        sifted.decay(1);
                        bulk.decay(1);
                    }
                }
            }
            loop {
                let (a, b) = (sifted.pop_best(|_| true), bulk.pop_best(|_| true));
                assert_eq!(a, b, "schedule {schedule}");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn heavy_random_usage_keeps_invariants() {
        let mut rng = Rng::seed_from_u64(1);
        let mut v = Vsids::new(50);
        let mut out: Vec<Lit> = Vec::new();
        for _ in 0..2000 {
            match rng.range_u32(0..4) {
                0 => v.bump(lit(rng.range_usize(0..100))),
                1 => {
                    if let Some(l) = v.pop_best(|_| true) {
                        out.push(l);
                    }
                }
                2 => {
                    if let Some(l) = out.pop() {
                        v.reinsert(l.var());
                    }
                }
                _ => {
                    if rng.gen_bool(0.05) {
                        v.decay(1);
                    }
                }
            }
            assert!(v.check_invariants());
        }
    }
}

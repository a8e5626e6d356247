//! Variable State Independent Decaying Sum, per Chaff (paper Section 2.4).
//!
//! Each *literal* has a counter, incremented whenever a clause containing
//! it is added to the database. Decisions pick the unassigned literal with
//! the highest counter (ties broken by lowest literal code, so runs are
//! deterministic). Periodically all counters are divided by a constant so
//! recent clauses dominate.
//!
//! The order is maintained by an indexed binary max-heap with
//! sift-on-bump; decays rebuild the heap wholesale (they are rare).
//! Assigned literals are skipped lazily, when they surface at the top;
//! [`Vsids::rebuild`] leaves out the ones that will never be unassigned.

use gridsat_cnf::Lit;

/// Per-literal VSIDS state.
pub struct Vsids {
    score: Vec<u64>,
    /// heap of literal codes, max at index 0
    heap: Vec<u32>,
    /// position of each literal code in `heap`, or `NOT_IN_HEAP`
    pos: Vec<u32>,
}

const NOT_IN_HEAP: u32 = u32::MAX;

impl Vsids {
    /// State for `num_vars` variables, all counters zero, every literal
    /// in the heap.
    pub fn new(num_vars: usize) -> Vsids {
        let n = num_vars * 2;
        let v = Vsids {
            score: vec![0; n],
            heap: (0..n as u32).collect(),
            pos: (0..n as u32).collect(),
        };
        // all scores equal: ascending codes are a valid heap
        debug_assert!(v.check_invariants());
        v
    }

    #[inline]
    fn better(&self, a: u32, b: u32) -> bool {
        let (sa, sb) = (self.score[a as usize], self.score[b as usize]);
        sa > sb || (sa == sb && a < b)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.better(self.heap[i], self.heap[parent]) {
                self.heap.swap(i, parent);
                self.pos[self.heap[i] as usize] = i as u32;
                self.pos[self.heap[parent] as usize] = parent as u32;
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
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

    /// Increment a literal's counter (a clause containing it was added).
    pub fn bump(&mut self, l: Lit) {
        let code = l.code();
        self.score[code] += 1;
        let p = self.pos[code];
        if p != NOT_IN_HEAP {
            self.sift_up(p as usize);
        }
    }

    /// Increment a literal's counter without restoring the order; the
    /// caller finishes a run of these with one [`Vsids::reorder`]. Which
    /// literal pops next is a function of the scores alone (`better` is a
    /// strict total order), so a bulk load bumps this way and heapifies
    /// once instead of sifting per literal.
    pub fn bump_unordered(&mut self, l: Lit) {
        self.score[l.code()] += 1;
    }

    /// Rebuild the heap from the literals `keep` accepts, in the order of
    /// the current scores; the rest leave it until [`Vsids::reinsert`].
    pub fn rebuild(&mut self, mut keep: impl FnMut(Lit) -> bool) {
        self.heap.clear();
        for code in 0..self.pos.len() {
            if keep(Lit::from_code(code)) {
                self.pos[code] = self.heap.len() as u32;
                self.heap.push(code as u32);
            } else {
                self.pos[code] = NOT_IN_HEAP;
            }
        }
        self.reorder();
    }

    /// Rebuild the heap order from the current scores.
    pub fn reorder(&mut self) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
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

    /// Re-insert a literal after its variable was unassigned.
    pub fn reinsert(&mut self, l: Lit) {
        let code = l.code();
        if self.pos[code] != NOT_IN_HEAP {
            return;
        }
        self.heap.push(code as u32);
        self.pos[code] = (self.heap.len() - 1) as u32;
        self.sift_up(self.heap.len() - 1);
    }

    /// Pop the best literal whose variable is unassigned, per
    /// `is_unassigned`. Assigned entries encountered on the way are
    /// removed (they are re-inserted on backtrack).
    pub fn pop_best(&mut self, mut is_unassigned: impl FnMut(Lit) -> bool) -> Option<Lit> {
        while !self.heap.is_empty() {
            let code = self.heap[0];
            // remove root
            let last = self.heap.pop().expect("non-empty");
            self.pos[code as usize] = NOT_IN_HEAP;
            if !self.heap.is_empty() {
                self.heap[0] = last;
                self.pos[last as usize] = 0;
                self.sift_down(0);
            }
            let lit = Lit::from_code(code as usize);
            if is_unassigned(lit) {
                return Some(lit);
            }
        }
        None
    }

    /// Heap-consistency check (debug assertions and tests only).
    fn check_invariants(&self) -> bool {
        for (i, &code) in self.heap.iter().enumerate() {
            if self.pos[code as usize] != i as u32 {
                return false;
            }
            if i > 0 {
                let parent = (i - 1) / 2;
                if self.better(code, self.heap[parent]) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(code: usize) -> Lit {
        Lit::from_code(code)
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
        // remaining have score 0, ascending code order
        assert_eq!(&order[2..], &[0, 2, 3, 5]);
    }

    #[test]
    fn pop_skips_assigned() {
        let mut v = Vsids::new(2);
        v.bump(lit(3));
        let best = v.pop_best(|l| l.code() != 3);
        assert_eq!(best.unwrap().code(), 0);
    }

    #[test]
    fn reinsert_restores_candidacy() {
        let mut v = Vsids::new(2);
        v.bump(lit(2));
        assert_eq!(v.pop_best(|_| true).unwrap().code(), 2);
        assert_eq!(v.pop_best(|_| true).unwrap().code(), 0);
        v.reinsert(lit(2));
        v.reinsert(lit(2)); // idempotent
        assert_eq!(v.pop_best(|_| true).unwrap().code(), 2);
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
        v.reinsert(l);
        assert_eq!(v.pop_best(|_| true).unwrap(), l);
    }

    /// The loader's shortcut: a run of unordered bumps closed by one
    /// reorder must leave a heap that behaves, pop for pop, like the one
    /// sift-on-bump built — also through later bumps, reinserts and decays.
    #[test]
    fn unordered_bumps_and_one_reorder_pop_like_sift_on_bump() {
        use gridsat_cnf::rng::Rng;
        for schedule in 0..1000u64 {
            let mut rng = Rng::seed_from_u64(schedule);
            let n_lits = 2 * rng.range_usize(1..40);
            let mut sifted = Vsids::new(n_lits / 2);
            let mut bulk = Vsids::new(n_lits / 2);
            // few distinct scores, so ties are the common case
            for _ in 0..rng.range_usize(0..300) {
                let l = lit(rng.range_usize(0..n_lits));
                sifted.bump(l);
                bulk.bump_unordered(l);
            }
            bulk.reorder();
            assert_eq!(sifted.score, bulk.score);
            let mut out: Vec<Lit> = Vec::new();
            for _ in 0..3 * n_lits {
                match rng.range_u32(0..8) {
                    0..=3 => {
                        let skip = rng.range_usize(0..n_lits);
                        let a = sifted.pop_best(|l| l.code() != skip);
                        let b = bulk.pop_best(|l| l.code() != skip);
                        assert_eq!(a, b, "schedule {schedule}");
                        out.extend(a);
                    }
                    4 | 5 => {
                        let l = lit(rng.range_usize(0..n_lits));
                        sifted.bump(l);
                        bulk.bump(l);
                    }
                    6 => {
                        if let Some(l) = out.pop() {
                            sifted.reinsert(l);
                            bulk.reinsert(l);
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

    /// The loader's heap: rebuilt without the variables fixed for good
    /// (level 0), it must pop exactly what the full heap pops when it
    /// skips them lazily — through decisions, backtracks that reinsert
    /// both literals of a variable, bumps of any literal, and decays.
    #[test]
    fn a_heap_without_the_fixed_variables_pops_like_lazy_skipping() {
        use gridsat_cnf::rng::Rng;
        let (mut picks, mut skipped) = (0u64, 0u64);
        for schedule in 0..1000u64 {
            let mut rng = Rng::seed_from_u64(schedule);
            let n_vars = rng.range_usize(1..40);
            let mut lazy = Vsids::new(n_vars);
            let mut lean = Vsids::new(n_vars);
            for _ in 0..rng.range_usize(0..200) {
                let l = lit(rng.range_usize(0..2 * n_vars));
                lazy.bump_unordered(l);
                lean.bump_unordered(l);
            }
            // fixed: at level 0 for good; decided: assigned above it
            let fixed: Vec<bool> = (0..n_vars).map(|_| rng.gen_bool(0.3)).collect();
            let mut decided = vec![false; n_vars];
            lazy.reorder();
            lean.rebuild(|l| !fixed[l.var().index()]);
            assert!(lean.check_invariants());
            for _ in 0..6 * n_vars {
                match rng.range_u32(0..8) {
                    0..=3 => {
                        let free = |l: Lit| {
                            let v = l.var().index();
                            !fixed[v] && !decided[v]
                        };
                        let before = lazy.heap.len();
                        let a = lazy.pop_best(free);
                        let b = lean.pop_best(free);
                        assert_eq!(a, b, "schedule {schedule}");
                        skipped += (before - lazy.heap.len()) as u64 - u64::from(a.is_some());
                        if let Some(l) = a {
                            decided[l.var().index()] = true;
                            picks += 1;
                        }
                    }
                    4 | 5 => {
                        let l = lit(rng.range_usize(0..2 * n_vars));
                        lazy.bump(l);
                        lean.bump(l);
                    }
                    6 => {
                        let v = rng.range_usize(0..n_vars);
                        if decided[v] {
                            decided[v] = false;
                            for l in [Lit::pos(v as u32), Lit::neg(v as u32)] {
                                lazy.reinsert(l);
                                lean.reinsert(l);
                            }
                        }
                    }
                    _ => {
                        lazy.decay(1);
                        lean.decay(1);
                    }
                }
                assert!(lean.check_invariants());
            }
            assert_eq!(lazy.score, lean.score);
        }
        assert!(picks > 1000 && skipped > 1000, "{picks} / {skipped}");
    }

    #[test]
    fn heavy_random_usage_keeps_invariants() {
        use gridsat_cnf::rng::Rng;
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
                        v.reinsert(l);
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

//! Search statistics and the work metric used by the Grid simulator.

/// Counters accumulated over a solver's lifetime.
///
/// `work` is the simulator's time proxy: it advances on every watch-list
/// visit, enqueue, and conflict-analysis step, so simulated seconds can be
/// computed as `work / host_speed` independent of wall-clock noise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Decisions made (VSIDS or scripted).
    pub decisions: u64,
    /// Variable assignments enqueued (decisions + implications).
    pub propagations: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Clauses learned locally.
    pub learned: u64,
    /// Learned clauses deleted by database reduction.
    pub deleted: u64,
    /// Clauses removed by the level-0 pruning optimization.
    pub pruned: u64,
    /// Learned clauses copied to the share outbox.
    pub shared_out: u64,
    /// Foreign clauses merged from the inbox.
    pub merged_in: u64,
    /// Foreign clauses discarded as satisfied on merge.
    pub merge_discarded: u64,
    /// Foreign clauses that caused an immediate implication on merge.
    pub merge_implications: u64,
    /// Foreign clauses evicted from a full fixed-size inbox, never merged
    /// ([`SolverConfig::inbox_lits`](crate::SolverConfig::inbox_lits)).
    pub merge_dropped: u64,
    /// Most literals the inbox ever held.
    pub peak_inbox_lits: u64,
    /// Deepest decision level reached.
    pub max_level: u64,
    /// Abstract work units (see type docs).
    pub work: u64,
    /// Largest work one [`Solver::step`](crate::Solver::step) call
    /// charged. A step checks its budget between search steps, so this
    /// exceeds the budget by whatever the last one cost.
    pub max_step_work: u64,
    /// Largest work one foreign-clause merge charged. An unbounded inbox
    /// is drained in one go, however much the step's budget was; a
    /// fixed-size one a slice at a time, each at most the step's budget
    /// plus the slice's last clause.
    pub max_merge_burst: u64,
    /// Peak clause-database footprint in (model) bytes.
    pub peak_db_bytes: usize,
    /// Relocating garbage collections of the clause arena.
    pub gc_runs: u64,
    /// Arena words reclaimed by those collections, counted as the
    /// collection trigger counts them: four header words a clause, learned
    /// or original, plus its literals.
    pub gc_words: u64,
    /// Histogram of learned-clause LBD (glue): bucket `i` counts clauses
    /// with LBD `i + 1`; the last bucket collects everything ≥ 8.
    pub lbd_hist: [u64; 8],
}

impl Stats {
    /// Merge another stats block into this one (used when a client solves
    /// several subproblems in sequence).
    ///
    /// The exhaustive destructuring below is deliberate: adding a field to
    /// `Stats` without deciding how it merges is a compile error here, not
    /// a silently-dropped counter.
    pub fn absorb(&mut self, other: &Stats) {
        let Stats {
            decisions,
            propagations,
            conflicts,
            learned,
            deleted,
            pruned,
            shared_out,
            merged_in,
            merge_discarded,
            merge_implications,
            merge_dropped,
            peak_inbox_lits,
            max_level,
            work,
            max_step_work,
            max_merge_burst,
            peak_db_bytes,
            gc_runs,
            gc_words,
            lbd_hist,
        } = *other;
        self.decisions += decisions;
        self.propagations += propagations;
        self.conflicts += conflicts;
        self.learned += learned;
        self.deleted += deleted;
        self.pruned += pruned;
        self.shared_out += shared_out;
        self.merged_in += merged_in;
        self.merge_discarded += merge_discarded;
        self.merge_implications += merge_implications;
        self.merge_dropped += merge_dropped;
        self.peak_inbox_lits = self.peak_inbox_lits.max(peak_inbox_lits);
        self.max_level = self.max_level.max(max_level);
        self.work += work;
        self.max_step_work = self.max_step_work.max(max_step_work);
        self.max_merge_burst = self.max_merge_burst.max(max_merge_burst);
        self.peak_db_bytes = self.peak_db_bytes.max(peak_db_bytes);
        self.gc_runs += gc_runs;
        self.gc_words += gc_words;
        for (acc, n) in self.lbd_hist.iter_mut().zip(lbd_hist) {
            *acc += n;
        }
    }

    /// Record the LBD of a freshly learned clause.
    #[inline]
    pub fn note_lbd(&mut self, lbd: u32) {
        let bucket = (lbd.clamp(1, 8) - 1) as usize;
        self.lbd_hist[bucket] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A block with every field set to a distinct non-default value, so a
    /// merge that forgets a field changes the expected result.
    fn full() -> Stats {
        Stats {
            decisions: 1,
            propagations: 2,
            conflicts: 3,
            learned: 4,
            deleted: 5,
            pruned: 6,
            shared_out: 8,
            merged_in: 9,
            merge_discarded: 10,
            merge_implications: 11,
            merge_dropped: 28,
            peak_inbox_lits: 29,
            max_level: 12,
            work: 13,
            max_step_work: 26,
            max_merge_burst: 27,
            peak_db_bytes: 14,
            gc_runs: 15,
            gc_words: 16,
            lbd_hist: [17, 18, 19, 20, 21, 22, 23, 24],
        }
    }

    #[test]
    fn absorb_sums_and_maxes() {
        let mut a = Stats {
            decisions: 10,
            max_level: 5,
            peak_db_bytes: 100,
            ..Stats::default()
        };
        let b = Stats {
            decisions: 3,
            max_level: 9,
            peak_db_bytes: 50,
            work: 7,
            ..Stats::default()
        };
        a.absorb(&b);
        assert_eq!(a.decisions, 13);
        assert_eq!(a.max_level, 9);
        assert_eq!(a.peak_db_bytes, 100);
        assert_eq!(a.work, 7);
    }

    #[test]
    fn absorb_is_lossless_across_every_field() {
        let mut acc = Stats::default();
        acc.absorb(&full());
        acc.absorb(&full());
        let expected = Stats {
            decisions: 2,
            propagations: 4,
            conflicts: 6,
            learned: 8,
            deleted: 10,
            pruned: 12,
            shared_out: 16,
            merged_in: 18,
            merge_discarded: 20,
            merge_implications: 22,
            merge_dropped: 56,
            peak_inbox_lits: 29, // max, not sum
            max_level: 12,       // max, not sum
            work: 26,
            max_step_work: 26,   // max, not sum
            max_merge_burst: 27, // max, not sum
            peak_db_bytes: 14,   // max, not sum
            gc_runs: 30,
            gc_words: 32,
            lbd_hist: [34, 36, 38, 40, 42, 44, 46, 48],
        };
        assert_eq!(acc, expected);
    }

    #[test]
    fn note_lbd_buckets_and_saturates() {
        let mut s = Stats::default();
        s.note_lbd(1);
        s.note_lbd(2);
        s.note_lbd(2);
        s.note_lbd(8);
        s.note_lbd(100); // saturates into the last bucket
        assert_eq!(s.lbd_hist, [1, 2, 0, 0, 0, 0, 0, 2]);
    }
}

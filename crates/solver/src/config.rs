//! Solver configuration.

/// Tunables for the CDCL core: the five values some caller outside this
/// crate's tests sets. Everything else the paper's zChaff description
/// fixes — original per-literal VSIDS halved every 256 conflicts, FirstUIP
/// learning without minimization, no phase saving, no restarts, the
/// `48 + 4·len` byte memory model, the glue floor and the GC threshold of
/// database reduction — is a named constant beside the code that uses it.
#[derive(Clone, Debug, PartialEq)]
pub struct SolverConfig {
    /// Collect learned clauses no longer than this into the share outbox
    /// (the paper uses 10 and 3). `None` disables collection.
    pub share_len_limit: Option<usize>,
    /// Clause-database byte budget. Exceeding it (after a reduction
    /// attempt) makes [`crate::Solver::step`] report memory pressure.
    pub mem_budget: Option<usize>,
    /// Learned clauses kept before a database reduction is attempted,
    /// as a multiple of the original clause count.
    pub max_learned_factor: f64,
    /// The paper's "pruning optimization": on new level-0 facts, delete
    /// clauses already satisfied at level 0.
    pub level0_pruning: bool,
    /// Capacity of the foreign-clause inbox, in literals queued (not the
    /// bytes that hold them: the inbox stores each clause as varint gaps
    /// between its sorted literal codes). `None` (the default, and the
    /// paper's "merged in batches") queues without bound and merges the
    /// whole inbox on reaching level 0. `Some(cap)` caps it — a clause
    /// that does not fit evicts the oldest queued ones — and merges one
    /// slice of at most a step's work budget per visit to level 0, so a
    /// step never runs far past its budget with no decision open.
    pub inbox_lits: Option<usize>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            share_len_limit: None,
            mem_budget: None,
            max_learned_factor: 3.0,
            level0_pruning: false,
            inbox_lits: None,
        }
    }
}

impl SolverConfig {
    /// The configuration used for the paper's *sequential zChaff* baseline:
    /// defaults plus the level-0 pruning optimization the authors
    /// retro-fitted for fairness, and a memory budget. Count-based database
    /// reduction is effectively disabled, matching zChaff's conservative
    /// relevance deletion ("a sequential solver cannot delete antecedent
    /// clauses and might have no memory space to store new clauses",
    /// Section 4.2): the learned database grows until it overflows.
    pub fn sequential_baseline(mem_budget: usize) -> SolverConfig {
        SolverConfig {
            level0_pruning: true,
            mem_budget: Some(mem_budget),
            max_learned_factor: 1e18,
            ..SolverConfig::default()
        }
    }

    /// The configuration used by GridSAT clients: the sequential baseline
    /// plus sharing with the given length limit. Memory pressure is
    /// resolved by splitting, not by deletion, per the paper.
    pub fn grid_client(share_len_limit: usize, mem_budget: usize) -> SolverConfig {
        SolverConfig {
            share_len_limit: Some(share_len_limit),
            ..SolverConfig::sequential_baseline(mem_budget)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_era() {
        let c = SolverConfig::default();
        assert!(!c.level0_pruning);
        assert!(c.inbox_lits.is_none());
    }

    #[test]
    fn presets() {
        let s = SolverConfig::sequential_baseline(1 << 20);
        assert!(s.level0_pruning);
        assert_eq!(s.mem_budget, Some(1 << 20));
        assert!(s.share_len_limit.is_none());

        let g = SolverConfig::grid_client(10, 1 << 20);
        assert_eq!(g.share_len_limit, Some(10));
        assert!(g.level0_pruning);
    }
}

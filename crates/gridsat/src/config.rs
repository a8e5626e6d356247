//! GridSAT run configuration.

/// How the master picks the idle resource for a split (the scheduler
/// ablation; the paper uses NWS-style ranking).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedPolicy {
    /// Rank by forecast availability x speed, memory as tie-break
    /// (paper Section 3.3).
    NwsRank,
    /// Uniform random among idle resources (seeded).
    Random(u64),
    /// Deliberately pick the worst-ranked resource (ablation lower bound).
    WorstRank,
}

/// Fraction of host memory a client's solver may use ("only use up to
/// 60% of it").
pub const MEM_FRACTION: f64 = 0.6;

/// Minimum usable memory for a client to participate (the paper's
/// 128 MB, scaled to model bytes).
pub const MIN_MEMORY: usize = 400 << 10;

/// A migration must improve the host rank by at least this factor.
pub const MIGRATION_FACTOR: f64 = 2.0;

/// Bandwidth a client assumes when estimating the cost of a subproblem
/// it *sends* (the receive side measures directly), bytes per second.
pub const ASSUMED_BW_BYTES_PER_S: f64 = 4_000.0;

/// Fan-out of the share tree sharing in rounds runs on
/// ([`GridConfig::share_round_s`]): the master gives every client one
/// parent and at most this many children.
pub const SHARE_TREE_FANOUT: usize = 4;

/// Client heartbeat period under [`GridConfig::reliability`], seconds
/// (robustness extension; the paper's protocol assumes TCP and concedes
/// it "will not tolerate a machine crash"). The wire half of the layer —
/// retransmit time-out, backoff, retry budget, jitter — lives in
/// constants of `gridsat_grid::reliable`.
pub const HEARTBEAT_PERIOD_S: f64 = 10.0;

/// Period of a busy client's level-0 checkpoint uploads under
/// [`GridConfig::reliability`], seconds (the paper's Section 3.4 sketch,
/// as an extension). A checkpoint also goes up after each adopt and
/// split, so an image never lags the cube it describes.
pub const CHECKPOINT_PERIOD_S: f64 = 30.0;

/// Consecutive missed heartbeats before the master expires a client's
/// lease and treats it as lost.
pub const LEASE_MISSES: u32 = 3;

/// Checksum-failing deliveries attributed to one peer before the master
/// quarantines it (deregisters it and recovers its work) — a link that
/// mangles this much traffic is indistinguishable from a byzantine or
/// dying host. High enough that ambient bit rot on a healthy peer never
/// trips it within a run (integrity extension).
pub const QUARANTINE_STRIKES: u32 = 40;

/// Node that doubles as the journal-tailing standby under
/// [`GridConfig::failover`].
pub const STANDBY_NODE: u32 = 1;

/// Silence (no journal batches, not even keepalives) the standby
/// tolerates before promoting itself, seconds.
pub const PROMOTE_GRACE_S: f64 = 20.0;

/// Tunables of a GridSAT run. Defaults are the paper's first experiment
/// set (share limit 10, 100-second split time-out floor) with clause
/// sharing in rounds; [`GridConfig::experiment1`] and its siblings are the
/// paper's protocol to the letter.
#[derive(Clone, Debug)]
pub struct GridConfig {
    /// Maximum length of shared learned clauses (10 in experiment set 1,
    /// 3 in set 2). `None` disables sharing (ablation).
    pub share_len_limit: Option<usize>,
    /// Floor for the client's split time-out ("set to 100 seconds").
    pub min_split_timeout: f64,
    /// Overall execution cap in simulated seconds (6000 solvable /
    /// 12000 challenge in the paper).
    pub overall_timeout: f64,
    /// Seconds of solver work per client tick (scheduling granularity).
    pub work_quantum_s: f64,
    /// Period of NWS load reports from clients, seconds.
    pub load_report_period: f64,
    /// Master housekeeping period, seconds.
    pub master_period: f64,
    /// Scheduler policy.
    pub scheduler: SchedPolicy,
    /// Allow the master to migrate subproblems to better resources.
    pub migration: bool,
    /// Length of a clause-sharing round, seconds (HordeSat's discipline).
    /// `Some(r)`: a client collects what it learns in an export buffer
    /// and sends it as one batch once `r` seconds have passed since its
    /// last one (or on its subproblem's final quantum) — shortest clauses
    /// first, what does not fit the batch dropped at the source — up the
    /// fleet's one share tree, whose root sends the merged buffer back
    /// down; and its solver takes foreign clauses through a fixed-size
    /// inbox, a slice per visit to level 0. `None` is the paper's
    /// protocol: broadcast to every peer "as soon as learned" (every
    /// quantum, everything, in learn order), queue without bound, merge
    /// the whole inbox at level 0.
    pub share_round_s: Option<f64>,
    /// Reliable control-plane delivery, heartbeat leases, and level-0
    /// checkpoints every [`CHECKPOINT_PERIOD_S`], so a lost busy client's
    /// cube is recovered instead of ending the run. `false` (the default)
    /// runs the paper's bare protocol — the wire is then bit-identical to
    /// a build without the reliability layer.
    pub reliability: bool,
    /// Master failover (robustness extension): node [`STANDBY_NODE`] tails
    /// the master's write-ahead journal over the control plane and
    /// promotes itself to master when the feed goes quiet for longer than
    /// [`PROMOTE_GRACE_S`]. `false` (the default, and the paper's
    /// behaviour) means a dead master wedges the run.
    pub failover: bool,
    /// Hierarchical control plane (scaling extension): per-site
    /// sub-masters broker split traffic locally via steal tickets, and
    /// the root pulls offers from sites with no idle capacity for its
    /// own idle clients. The root still owns the journal, the cube
    /// ledger, and the global verdict. `false` (the default, and the
    /// paper's behaviour) routes every split request through the root.
    pub hierarchy: bool,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            share_len_limit: Some(10),
            min_split_timeout: 100.0,
            overall_timeout: 6000.0,
            work_quantum_s: 5.0,
            load_report_period: 60.0,
            master_period: 5.0,
            scheduler: SchedPolicy::NwsRank,
            migration: true,
            share_round_s: Some(5.0),
            reliability: false,
            failover: false,
            hierarchy: false,
        }
    }
}

impl GridConfig {
    /// The paper's first experiment set: share limit 10, 6000 s cap,
    /// clauses broadcast as soon as they are learned.
    pub fn experiment1() -> GridConfig {
        GridConfig {
            share_round_s: None,
            ..GridConfig::default()
        }
    }

    /// First set, challenge benchmarks: 12000 s cap.
    pub fn experiment1_challenge() -> GridConfig {
        GridConfig {
            overall_timeout: 12000.0,
            ..GridConfig::experiment1()
        }
    }

    /// The paper's second experiment set: share limit 3.
    pub fn experiment2(overall_timeout: f64) -> GridConfig {
        GridConfig {
            share_len_limit: Some(3),
            overall_timeout,
            ..GridConfig::experiment1()
        }
    }

    /// Survive-anything profile for chaos runs: reliable control-plane
    /// delivery, heartbeat leases, and level-0 checkpoints so a lost busy
    /// client is recovered instead of ending the run.
    pub fn chaos_hardened() -> GridConfig {
        GridConfig {
            reliability: true,
            ..GridConfig::default()
        }
    }

    /// Turn on the hierarchical control plane.
    pub fn hierarchical(mut self) -> GridConfig {
        self.hierarchy = true;
        self
    }

    /// Chaos profile that also survives losing the master: node 1 tails
    /// the journal as a standby and takes over after the grace period.
    pub fn failover_hardened() -> GridConfig {
        GridConfig {
            failover: true,
            ..GridConfig::chaos_hardened()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_parameters() {
        let e1 = GridConfig::experiment1();
        assert_eq!(e1.share_len_limit, Some(10));
        assert_eq!(e1.min_split_timeout, 100.0);
        assert_eq!(e1.overall_timeout, 6000.0);
        assert_eq!(MEM_FRACTION, 0.6);
        assert_eq!(MIN_MEMORY, 400 << 10);
        assert_eq!(MIGRATION_FACTOR, 2.0);
        assert_eq!(ASSUMED_BW_BYTES_PER_S, 4_000.0);

        assert_eq!(GridConfig::experiment1_challenge().overall_timeout, 12000.0);

        let e2 = GridConfig::experiment2(200_000.0);
        assert_eq!(e2.share_len_limit, Some(3));
        assert_eq!(e2.overall_timeout, 200_000.0);

        // the paper broadcasts a clause as soon as it is learned; rounds
        // are the default everywhere else
        assert!(e1.share_round_s.is_none());
        assert!(GridConfig::experiment1_challenge().share_round_s.is_none());
        assert!(e2.share_round_s.is_none());
        assert_eq!(GridConfig::default().share_round_s, Some(5.0));
        assert_eq!(GridConfig::chaos_hardened().share_round_s, Some(5.0));

        // the paper presets run the bare protocol: reliability stays off
        assert!(!e1.reliability && !e1.failover);
        assert!(!e2.reliability && !e2.failover);
        let hardened = GridConfig::chaos_hardened();
        assert!(hardened.reliability && !hardened.failover);
        assert_eq!((HEARTBEAT_PERIOD_S, LEASE_MISSES), (10.0, 3));
        assert_eq!(CHECKPOINT_PERIOD_S, 30.0);
        assert_eq!(QUARANTINE_STRIKES, 40);

        let failover = GridConfig::failover_hardened();
        assert!(failover.reliability && failover.failover);
        assert_eq!((STANDBY_NODE, PROMOTE_GRACE_S), (1, 20.0));

        // the paper's control plane is flat; hierarchy is opt-in
        assert!(!e1.hierarchy);
        assert!(GridConfig::default().hierarchical().hierarchy);
    }
}

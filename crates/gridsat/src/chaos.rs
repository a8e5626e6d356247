//! Declarative, seed-deterministic fault plans for chaos runs.
//!
//! A [`FaultPlan`] is data — crash windows, link outages, loss and delay
//! probabilities — compiled onto the engine's admin hooks by
//! [`FaultPlan::apply`]. Because the engine is a deterministic
//! discrete-event simulator and every probabilistic choice is drawn from
//! the plan's seed, a failing (plan, seed, instance) triple replays
//! exactly.
//!
//! The paper's implementation "will not tolerate a machine crash"; these
//! plans exist to prove the reliability extension does, by running them
//! against the sequential solver as a SAT/UNSAT oracle (see the
//! `chaos_soak` binary).

use crate::config::GridConfig;
use crate::experiment::{build_sim, GridSim};
use gridsat_cnf::Formula;
use gridsat_grid::{NetChaos, NodeId, Testbed};

/// A node outage: down at `down_at`, back (with a clean restart) at
/// `up_at`, or gone for good when `up_at` is `None`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashWindow {
    pub node: u32,
    pub down_at: f64,
    pub up_at: Option<f64>,
}

/// A link outage between two nodes (both directions).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkWindow {
    pub a: u32,
    pub b: u32,
    pub down_at: f64,
    pub up_at: f64,
}

/// Everything that will go wrong during one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Display name for matrices and failure reports.
    pub name: String,
    pub crashes: Vec<CrashWindow>,
    pub links: Vec<LinkWindow>,
    /// Per-send drop probability (applied to every message kind).
    pub loss_prob: f64,
    /// Per-send probability of a delay spike.
    pub delay_prob: f64,
    /// Extra latency of a delay spike, seconds.
    pub delay_extra_s: f64,
    /// Per-send probability of payload bit flips (scalar-only messages
    /// are dropped instead, modeling header corruption).
    pub corrupt_prob: f64,
    /// Seed for the loss/delay/corruption draws.
    pub seed: u64,
}

impl FaultPlan {
    /// Compile the plan onto a built simulation. Crash and link windows
    /// naming nodes outside the testbed are skipped, so one plan works
    /// across testbed sizes.
    pub fn apply(&self, sim: &mut GridSim) {
        let n = sim.num_nodes() as u32;
        if self.loss_prob > 0.0 || self.delay_prob > 0.0 || self.corrupt_prob > 0.0 {
            sim.set_net_chaos(NetChaos {
                loss_prob: self.loss_prob,
                delay_prob: self.delay_prob,
                delay_extra_s: self.delay_extra_s,
                corrupt_prob: self.corrupt_prob,
                seed: self.seed,
            });
        }
        for c in &self.crashes {
            if c.node >= n {
                continue;
            }
            sim.schedule_node_down(NodeId(c.node), c.down_at);
            if let Some(up) = c.up_at {
                sim.schedule_node_up(NodeId(c.node), up);
            }
        }
        for l in &self.links {
            if l.a >= n || l.b >= n || l.a == l.b {
                continue;
            }
            sim.schedule_link_down(NodeId(l.a), NodeId(l.b), l.down_at);
            sim.schedule_link_up(NodeId(l.a), NodeId(l.b), l.up_at);
        }
    }

    /// Random message loss plus occasional delay spikes, no outages.
    /// Exercises retransmission, dedup, and undeliverable requeue.
    pub fn drop_happy(seed: u64) -> FaultPlan {
        FaultPlan {
            name: "drop-happy".into(),
            loss_prob: 0.08,
            delay_prob: 0.05,
            delay_extra_s: 2.0,
            seed,
            ..FaultPlan::default()
        }
    }

    /// Links flap up and down early in the run (including the
    /// master-client link), with reordering-inducing delay spikes.
    pub fn flaky_links(seed: u64) -> FaultPlan {
        FaultPlan {
            name: "flaky-links".into(),
            links: vec![
                LinkWindow {
                    a: 0,
                    b: 1,
                    down_at: 4.0,
                    up_at: 12.0,
                },
                LinkWindow {
                    a: 1,
                    b: 2,
                    down_at: 8.0,
                    up_at: 18.0,
                },
                LinkWindow {
                    a: 0,
                    b: 2,
                    down_at: 15.0,
                    up_at: 24.0,
                },
            ],
            delay_prob: 0.1,
            delay_extra_s: 3.0,
            seed,
            ..FaultPlan::default()
        }
    }

    /// One client crashes and restarts; another dies for good later.
    /// Exercises checkpoint recovery and restart re-registration.
    pub fn crash_restart(seed: u64) -> FaultPlan {
        FaultPlan {
            name: "crash-restart".into(),
            crashes: vec![
                CrashWindow {
                    node: 1,
                    down_at: 6.0,
                    up_at: Some(18.0),
                },
                CrashWindow {
                    node: 2,
                    down_at: 25.0,
                    up_at: None,
                },
            ],
            loss_prob: 0.02,
            seed,
            ..FaultPlan::default()
        }
    }

    /// The master itself blinks out briefly. Exercises epoch bumps,
    /// client-side retry of soundness-critical reports, and the lease
    /// grace on master restart.
    pub fn master_blink(seed: u64) -> FaultPlan {
        FaultPlan {
            name: "master-blink".into(),
            crashes: vec![CrashWindow {
                node: 0,
                down_at: 10.0,
                up_at: Some(21.0),
            }],
            loss_prob: 0.02,
            seed,
            ..FaultPlan::default()
        }
    }

    /// The master dies for good mid-search, on a lossy network. Only a
    /// standby promotion ([`GridConfig::failover_hardened`]) can finish
    /// this run; in paper mode it wedges.
    ///
    /// [`GridConfig::failover_hardened`]: crate::config::GridConfig::failover_hardened
    pub fn master_gone(seed: u64) -> FaultPlan {
        FaultPlan {
            name: "master-gone".into(),
            crashes: vec![CrashWindow {
                node: 0,
                down_at: 8.0,
                up_at: None,
            }],
            loss_prob: 0.02,
            seed,
            ..FaultPlan::default()
        }
    }

    /// Bytes arrive mangled, not just late or never: every message kind
    /// sees bit flips, on top of a little loss. Exercises the wire
    /// checksums end to end — corrupted control traffic must be caught
    /// and retransmitted, corrupted shares and journal records discarded
    /// and re-requested, never acted on.
    pub fn bit_rot(seed: u64) -> FaultPlan {
        FaultPlan {
            name: "bit-rot".into(),
            loss_prob: 0.02,
            corrupt_prob: 0.06,
            seed,
            ..FaultPlan::default()
        }
    }

    /// A per-site sub-master blinks out and later a second one dies for
    /// good, on a lossy network. Brokers hold only soft state, so the
    /// hierarchy must degrade gracefully: idle clients fall back to the
    /// root after the broker-retry cooldown, in-flight steals abort or
    /// settle through the root ledger, and the verdict stays exact.
    /// Meant for hierarchical testbeds where nodes 1..=sites are brokers.
    pub fn submaster_loss(seed: u64) -> FaultPlan {
        FaultPlan {
            name: "submaster-loss".into(),
            crashes: vec![
                CrashWindow {
                    node: 1,
                    down_at: 5.0,
                    up_at: Some(20.0),
                },
                CrashWindow {
                    node: 2,
                    down_at: 12.0,
                    up_at: None,
                },
            ],
            loss_prob: 0.02,
            seed,
            ..FaultPlan::default()
        }
    }

    /// The soak's run of this plan on `formula`, built and armed, with
    /// the simulated second its configuration gives up at. `master-gone`
    /// runs under the failover profile (standby and journal — killing the
    /// master for good is only survivable with a standby),
    /// `submaster-loss` under the hierarchical profile on a two-site
    /// testbed (root on node 0, the brokers the plan crashes on 1 and 2,
    /// four clients behind them), the rest under the chaos-hardened
    /// profile on a flat one. Every plan runs with the master's cube
    /// ledger, which is always on. `base` says how clauses are shared: its
    /// `share_round_s` is the one value taken from it.
    pub fn soak_sim(&self, formula: &Formula, base: &GridConfig) -> (GridSim, f64) {
        let profile = match self.name.as_str() {
            "master-gone" => GridConfig::failover_hardened(),
            "submaster-loss" => GridConfig::chaos_hardened().hierarchical(),
            _ => GridConfig::chaos_hardened(),
        };
        let config = GridConfig {
            // small instances: force real protocol traffic (splits, shares)
            min_split_timeout: 0.2,
            work_quantum_s: 0.1,
            share_round_s: base.share_round_s,
            ..profile
        };
        let testbed = if config.hierarchy {
            Testbed::scaling(4, 2, true)
        } else {
            Testbed::uniform(4, 1000.0, 3 << 20)
        };
        let cap = config.overall_timeout;
        let mut sim = build_sim(formula, testbed, config);
        self.apply(&mut sim);
        (sim, cap)
    }

    /// The standard sweep roster for soak runs.
    pub fn roster(seed: u64) -> Vec<FaultPlan> {
        vec![
            FaultPlan::drop_happy(seed),
            FaultPlan::flaky_links(seed),
            FaultPlan::crash_restart(seed),
            FaultPlan::master_blink(seed),
            FaultPlan::master_gone(seed),
            FaultPlan::bit_rot(seed),
            FaultPlan::submaster_loss(seed),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::report;
    use crate::master::GridOutcome;

    fn run_plan(plan: &FaultPlan, seed: u64) -> (GridOutcome, u64, u64) {
        let f = gridsat_satgen::random_ksat::random_ksat(30, 126, 3, seed);
        let config = GridConfig {
            min_split_timeout: 0.2,
            work_quantum_s: 0.1,
            ..GridConfig::chaos_hardened()
        };
        let cap = config.overall_timeout;
        let mut sim = build_sim(&f, Testbed::uniform(4, 1000.0, 3 << 20), config);
        plan.apply(&mut sim);
        sim.run_until(cap + 60.0);
        let r = report(&sim, cap);
        (r.outcome, r.reliable.retransmits, r.sim.messages_delivered)
    }

    #[test]
    fn plans_replay_deterministically() {
        let plan = FaultPlan::drop_happy(7);
        let a = run_plan(&plan, 3);
        let b = run_plan(&plan, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn a_lossy_network_still_reaches_the_right_answer() {
        // several instances: a short run can finish before its first
        // retransmit timer fires, but a handful cannot all do so
        let mut total_retransmits = 0;
        for seed in 0..4 {
            let plan = FaultPlan::drop_happy(11 + seed);
            let f = gridsat_satgen::random_ksat::random_ksat(30, 126, 3, seed);
            let want = gridsat_solver::driver::decide(&f);
            let (outcome, retransmits, _) = run_plan(&plan, seed);
            match (want, outcome) {
                (gridsat_solver::SolveStatus::Sat, GridOutcome::Sat(m)) => {
                    assert!(f.is_satisfied_by(&m));
                }
                (gridsat_solver::SolveStatus::Unsat, GridOutcome::Unsat) => {}
                (want, got) => panic!("seed {seed}: oracle {want:?}, chaos run {got:?}"),
            }
            total_retransmits += retransmits;
        }
        // with 8% loss the runs cannot all have been silent about it
        assert!(total_retransmits > 0, "expected the reliable layer to work");
    }

    #[test]
    fn out_of_range_nodes_are_skipped() {
        let plan = FaultPlan {
            name: "oversized".into(),
            crashes: vec![CrashWindow {
                node: 99,
                down_at: 1.0,
                up_at: None,
            }],
            links: vec![LinkWindow {
                a: 0,
                b: 99,
                down_at: 1.0,
                up_at: 2.0,
            }],
            ..FaultPlan::default()
        };
        let f = gridsat_cnf::paper::fig1_formula();
        let config = GridConfig::chaos_hardened();
        let cap = config.overall_timeout;
        let mut sim = build_sim(&f, Testbed::uniform(3, 1000.0, 3 << 20), config);
        plan.apply(&mut sim);
        sim.run_until(cap + 60.0);
        let r = report(&sim, cap);
        assert!(matches!(r.outcome, GridOutcome::Sat(_)));
    }

    #[test]
    fn roster_covers_the_seven_failure_modes() {
        let plans = FaultPlan::roster(1);
        let names: Vec<&str> = plans.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "drop-happy",
                "flaky-links",
                "crash-restart",
                "master-blink",
                "master-gone",
                "bit-rot",
                "submaster-loss"
            ]
        );
    }

    #[test]
    fn submaster_loss_on_a_hierarchical_testbed_stays_exact() {
        for seed in 0..2 {
            let plan = FaultPlan::submaster_loss(29 + seed);
            let f = gridsat_satgen::random_ksat::random_ksat(30, 126, 3, seed);
            let want = gridsat_solver::driver::decide(&f);
            let config = GridConfig {
                min_split_timeout: 0.2,
                work_quantum_s: 0.1,
                ..GridConfig::chaos_hardened()
            }
            .hierarchical();
            let cap = config.overall_timeout;
            let mut sim = build_sim(&f, Testbed::scaling(4, 2, true), config);
            plan.apply(&mut sim);
            sim.run_until(cap + 60.0);
            let r = report(&sim, cap);
            match (want, r.outcome) {
                (gridsat_solver::SolveStatus::Sat, GridOutcome::Sat(m)) => {
                    assert!(f.is_satisfied_by(&m));
                }
                (gridsat_solver::SolveStatus::Unsat, GridOutcome::Unsat) => {}
                (want, got) => panic!("seed {seed}: oracle {want:?}, submaster-loss run {got:?}"),
            }
        }
    }

    /// `chaos_soak --plan submaster-loss`, family php, seed 10: the run
    /// that wedged in a ghost-Busy thief. Thief n4's `SplitDone{stolen}`
    /// is lost once and retransmitted at t = 12.0, after its `Result` for
    /// the same cube was consumed at t = 7.3; settling the steal then
    /// marked n4 — idle, heartbeating, its lease never expiring — Busy for
    /// good and the run timed out. Under the paper's share protocol the
    /// schedule is that one to the message; under rounds it is whatever
    /// the soak runs today.
    #[test]
    fn a_result_overtaking_its_steal_confirmation_does_not_wedge_the_run() {
        let seed = 10u64;
        let plan = FaultPlan::submaster_loss(seed.wrapping_mul(31).wrapping_add(7));
        let f = gridsat_satgen::php::php(6, 5);
        for base in [GridConfig::experiment1(), GridConfig::default()] {
            let share_round_s = base.share_round_s;
            let (mut sim, cap) = plan.soak_sim(&f, &base);
            sim.run_until(cap + 60.0);
            let r = report(&sim, cap);
            assert_eq!(r.outcome, GridOutcome::Unsat, "rounds: {share_round_s:?}");
            assert!(r.seconds < 100.0, "{} s to the verdict", r.seconds);
        }
    }

    /// One cell of `chaos_soak`'s matrix, built as the soak builds it:
    /// asserts the grid's verdict on `formula` under the named plan is the
    /// sequential solver's.
    fn assert_soak_run_agrees_with_the_oracle(
        formula: &Formula,
        seed: u64,
        plan: &str,
        base: &GridConfig,
    ) {
        let plan = FaultPlan::roster(seed.wrapping_mul(31).wrapping_add(7))
            .into_iter()
            .find(|p| p.name == plan)
            .expect("a plan of the roster");
        let want = gridsat_solver::driver::decide(formula);
        let (mut sim, cap) = plan.soak_sim(formula, base);
        sim.run_until(cap + 60.0);
        match (want, report(&sim, cap).outcome) {
            (gridsat_solver::SolveStatus::Sat, GridOutcome::Sat(m)) => {
                assert!(formula.is_satisfied_by(&m));
            }
            (gridsat_solver::SolveStatus::Unsat, GridOutcome::Unsat) => {}
            (want, got) => panic!("seed {seed}, {}: oracle {want:?}, grid {got:?}", plan.name),
        }
    }

    // ROADMAP item 1: `chaos_soak --seeds 1000` failures that reproduced
    // with the conservation auditor (which seeds fail moves with every
    // change to what is on the wire). The master's cube ledger answers
    // each of them: a verdict waits for every cube it has minted, and a
    // lost cube comes back from its image or its path.

    /// `chaos_soak --preset paper --plan master-gone --seeds 311`:
    /// planted-3sat/seed310/master-gone, oracle Sat, grid Unsat with the
    /// auditor armed and silent — a cube left behind by the failover.
    #[test]
    fn planted_3sat_seed310_master_gone_is_answered_sat() {
        let f = gridsat_satgen::random_ksat::planted_ksat(40, 168, 3, 310);
        assert_soak_run_agrees_with_the_oracle(&f, 310, "master-gone", &GridConfig::experiment1());
    }

    /// `chaos_soak --plan submaster-loss --seeds 954`:
    /// random-3sat/seed953/submaster-loss, oracle Sat, grid Unsat with the
    /// auditor armed and silent.
    #[test]
    fn random_3sat_seed953_submaster_loss_is_answered_sat() {
        let f = gridsat_satgen::random_ksat::random_ksat(30, 126, 3, 953);
        assert_soak_run_agrees_with_the_oracle(&f, 953, "submaster-loss", &GridConfig::default());
    }

    /// The largest family under the auditor: a client adopts a cube whose
    /// level 0 contradicts the path the auditor recorded for it, always
    /// php under `submaster-loss`. `chaos_soak --plan submaster-loss
    /// --seeds 183`: php/seed182/submaster-loss panicked with `adopted
    /// spec contradicts the recorded path` on `[-1 2 10 13 -30]`; under
    /// the ledger no check fires and the run answers UNSAT.
    #[test]
    fn php_seed182_submaster_loss_adopts_the_cube_on_record() {
        let f = gridsat_satgen::php::php(6, 5);
        assert_soak_run_agrees_with_the_oracle(&f, 182, "submaster-loss", &GridConfig::default());
    }

    /// Open (ROADMAP item 1): `chaos_soak --plan submaster-loss --preset
    /// paper --seeds 5000` panics on php/seed1540/submaster-loss with
    /// `adopted spec contradicts the recorded path (TransferIn)` on
    /// `[-1 -25 1 -30]` — a recorded path that holds both a literal and
    /// its complement, so the ledger's account of the split tree is wrong
    /// before the adoption is checked against it.
    #[test]
    #[ignore = "ROADMAP item 1: php/seed1540 submaster-loss records a path holding 1 and -1"]
    fn php_seed1540_submaster_loss_records_a_consistent_path() {
        let f = gridsat_satgen::php::php(6, 5);
        assert_soak_run_agrees_with_the_oracle(
            &f,
            1540,
            "submaster-loss",
            &GridConfig::experiment1(),
        );
    }

    /// `chaos_soak --seeds 20` with the old auditor armed in every plan:
    /// php/seed13/crash-restart declared UNSAT while a cube was still
    /// uncovered. Node 1, the peer of node 3's split, adopted the child and
    /// went down before its confirmation reached the master, which
    /// deregistered it as Receiving and never heard of the child. Message
    /// (5) now names the child and its pivot, so the master rebuilds it
    /// from its path, and the verdict waits for it.
    #[test]
    fn php_seed13_crash_restart_keeps_every_cube_covered() {
        let config = GridConfig {
            min_split_timeout: 0.2,
            work_quantum_s: 0.1,
            ..GridConfig::chaos_hardened()
        };
        let cap = config.overall_timeout;
        let f = gridsat_satgen::php::php(7, 6);
        let mut sim = build_sim(&f, Testbed::uniform(4, 1000.0, 3 << 20), config);
        // the soak derives a plan's seed from its own: 13 * 31 + 7
        FaultPlan::crash_restart(13 * 31 + 7).apply(&mut sim);
        sim.run_until(cap + 60.0);
        assert_eq!(report(&sim, cap).outcome, GridOutcome::Unsat);
    }

    #[test]
    fn a_bit_rotted_network_still_reaches_the_right_answer() {
        for seed in 0..2 {
            let plan = FaultPlan::bit_rot(17 + seed);
            let f = gridsat_satgen::random_ksat::random_ksat(30, 126, 3, seed);
            let want = gridsat_solver::driver::decide(&f);
            let (outcome, _, _) = run_plan(&plan, seed);
            match (want, outcome) {
                (gridsat_solver::SolveStatus::Sat, GridOutcome::Sat(m)) => {
                    assert!(f.is_satisfied_by(&m));
                }
                (gridsat_solver::SolveStatus::Unsat, GridOutcome::Unsat) => {}
                (want, got) => panic!("seed {seed}: oracle {want:?}, bit-rot run {got:?}"),
            }
        }
    }
}

//! End-to-end experiment driver: wire a formula, a testbed and a
//! configuration into the discrete-event engine, run, and report.

use crate::client::{Client, ClientStats};
use crate::config::{GridConfig, STANDBY_NODE};
use crate::master::{GridOutcome, Master, MasterStats, MasterTelemetry};
use crate::msg::GridMsg;
use crate::standby::StandbyNode;
use crate::submaster::{SubMaster, SubMasterStats};
use gridsat_cnf::Formula;
use gridsat_grid::{
    Ctx, NodeId, Process, Reliable, ReliableProcess, ReliableStats, RunEnd, Sim, SimStats, Testbed,
};
use gridsat_obs::Obs;
use gridsat_solver::FpIds;
use std::collections::BTreeMap;

/// Any role, so one `Sim` hosts all process kinds.
pub enum GridNode {
    Master(Box<Master>),
    Client(Box<Client>),
    /// A client doubling as the journal-tailing standby master.
    Standby(Box<StandbyNode>),
    /// A per-site sub-master brokering splits locally (hierarchy
    /// extension); pure soft state, holds no search space.
    SubMaster(Box<SubMaster>),
}

impl Process for GridNode {
    type Msg = GridMsg;

    fn on_start(&mut self, ctx: &mut Ctx<GridMsg>) {
        match self {
            GridNode::Master(m) => m.on_start(ctx),
            GridNode::Client(c) => c.on_start(ctx),
            GridNode::Standby(s) => s.on_start(ctx),
            GridNode::SubMaster(b) => b.on_start(ctx),
        }
    }
    fn on_message(&mut self, from: NodeId, msg: GridMsg, ctx: &mut Ctx<GridMsg>) {
        match self {
            GridNode::Master(m) => m.on_message(from, msg, ctx),
            GridNode::Client(c) => c.on_message(from, msg, ctx),
            GridNode::Standby(s) => s.on_message(from, msg, ctx),
            GridNode::SubMaster(b) => b.on_message(from, msg, ctx),
        }
    }
    fn on_tick(&mut self, ctx: &mut Ctx<GridMsg>) {
        match self {
            GridNode::Master(m) => m.on_tick(ctx),
            GridNode::Client(c) => c.on_tick(ctx),
            GridNode::Standby(s) => s.on_tick(ctx),
            GridNode::SubMaster(b) => b.on_tick(ctx),
        }
    }
    fn on_node_down(&mut self, node: NodeId, ctx: &mut Ctx<GridMsg>) {
        match self {
            GridNode::Master(m) => m.on_node_down(node, ctx),
            GridNode::Client(c) => c.on_node_down(node, ctx),
            GridNode::Standby(s) => s.on_node_down(node, ctx),
            GridNode::SubMaster(b) => b.on_node_down(node, ctx),
        }
    }
}

impl ReliableProcess for GridNode {
    fn is_control(msg: &GridMsg) -> bool {
        msg.is_control()
    }

    fn on_undeliverable(&mut self, to: NodeId, msg: GridMsg, ctx: &mut Ctx<GridMsg>) {
        match self {
            GridNode::Master(m) => m.on_undeliverable(to, msg, ctx),
            GridNode::Client(c) => c.on_undeliverable(to, msg, ctx),
            GridNode::Standby(s) => s.on_undeliverable(to, msg, ctx),
            GridNode::SubMaster(b) => b.on_undeliverable(to, msg, ctx),
        }
    }

    fn on_corrupt(&mut self, from: NodeId, _label: &str, ctx: &mut Ctx<GridMsg>) {
        // only the master tracks per-peer corruption (quarantine);
        // clients and the standby rely on the reliable layer's recovery
        if let GridNode::Master(m) = self {
            m.on_corrupt(from, ctx);
        }
    }
}

/// The simulation type for a GridSAT run: every node is wrapped in the
/// reliability layer (a pure passthrough unless
/// [`GridConfig::reliability`] is set).
pub type GridSim = Sim<Reliable<GridNode>>;

/// A finished GridSAT run.
#[derive(Debug)]
pub struct GridReport {
    pub outcome: GridOutcome,
    /// Simulated seconds until the outcome was decided (or the cap).
    pub seconds: f64,
    pub master: MasterStats,
    /// Aggregated client counters.
    pub clients: ClientStats,
    /// Aggregated sub-master counters (all zero without the hierarchy
    /// extension).
    pub submasters: SubMasterStats,
    /// Aggregated reliability-layer counters (all zero when the layer is
    /// off or the network was fault-free).
    pub reliable: ReliableStats,
    pub sim: SimStats,
    /// Control-plane latency telemetry (queue depth, per-kind service
    /// times, split-request -> grant waits), merged across the original
    /// master and any promoted standby.
    pub telemetry: MasterTelemetry,
}

impl GridReport {
    /// Paper-style table cell: time in seconds, or the failure mode.
    pub fn table_cell(&self) -> String {
        match &self.outcome {
            GridOutcome::Sat(_) | GridOutcome::Unsat => format!("{:.0}", self.seconds),
            other => other.table_cell(),
        }
    }
}

/// Build the simulation for a run (exposed so figures and tests can
/// inspect the sim mid-flight).
pub fn build_sim(formula: &Formula, testbed: Testbed, config: GridConfig) -> GridSim {
    build_sim_obs(formula, testbed, config, Obs::default())
}

/// Like [`build_sim`], but with an event sink threaded into the engine,
/// the master, every client, and every solver the clients spawn. Every
/// client's share window, the standby's too, indexes one fingerprint id
/// table of the run ([`Client::with_fp_ids`]).
pub fn build_sim_obs(formula: &Formula, testbed: Testbed, config: GridConfig, obs: Obs) -> GridSim {
    let master_id = NodeId(0);
    let speeds: BTreeMap<NodeId, (f64, gridsat_grid::Site)> = testbed
        .hosts
        .iter()
        .enumerate()
        .map(|(i, h)| (NodeId(i as u32), (h.speed, h.site)))
        .collect();
    let formula = formula.clone();
    let node_obs = obs.clone();
    let fp_ids = FpIds::shared();
    let standby_id = config.failover.then_some(NodeId(STANDBY_NODE));
    // hierarchy wiring: hosts marked as brokers become per-site
    // sub-masters, and every solver client is pointed at its site's one
    let brokers: std::collections::HashMap<gridsat_grid::Site, NodeId> = if config.hierarchy {
        testbed
            .hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| h.broker)
            .map(|(i, h)| (h.site, NodeId(i as u32)))
            .collect()
    } else {
        Default::default()
    };
    assert!(
        standby_id.is_none_or(|id| !brokers.values().any(|&b| b == id)),
        "the standby host cannot double as a sub-master"
    );
    let mut sim = Sim::new(testbed, move |id| {
        let node = if id == master_id {
            let mut master = Master::new(formula.clone(), config.clone(), speeds.clone());
            master.set_obs(node_obs.clone());
            GridNode::Master(Box::new(master))
        } else if brokers.values().any(|&b| b == id) {
            GridNode::SubMaster(Box::new(SubMaster::new(master_id)))
        } else {
            let mut client = Client::with_fp_ids(master_id, config.clone(), fp_ids.clone());
            client.set_obs(node_obs.clone());
            if let Some(&broker) = speeds.get(&id).and_then(|(_, site)| brokers.get(site)) {
                client.set_broker(broker);
            }
            if Some(id) == standby_id {
                GridNode::Standby(Box::new(StandbyNode::new(
                    client,
                    formula.clone(),
                    config.clone(),
                    speeds.clone(),
                    node_obs.clone(),
                )))
            } else {
                GridNode::Client(Box::new(client))
            }
        };
        let mut wrapped =
            Reliable::new(node, config.reliability).with_rng_salt(u64::from(id.0) + 1);
        wrapped.set_obs(node_obs.clone());
        wrapped
    });
    sim.set_obs(obs);
    sim
}

/// Run GridSAT on a formula over a testbed. Deterministic.
pub fn run(formula: &Formula, testbed: Testbed, config: GridConfig) -> GridReport {
    let cap = config.overall_timeout;
    let mut sim = build_sim(formula, testbed, config);
    // slack so the master's timeout tick can fire after the cap
    sim.run_until(cap + 60.0);
    report(&sim, cap)
}

/// Extract the report from a finished (or capped) simulation.
pub fn report(sim: &GridSim, cap: f64) -> GridReport {
    let GridNode::Master(master) = sim.process(NodeId(0)).inner() else {
        panic!("node 0 is the master");
    };
    let mut master_stats = master.stats;
    let mut telemetry = master.telemetry.clone();
    let mut decided = master.outcome().cloned().map(|o| (o, master.finished_at()));
    let mut clients = ClientStats::default();
    let mut submasters = SubMasterStats::default();
    let mut reliable = ReliableStats::default();
    for i in 0..sim.num_nodes() {
        let wrapper = sim.process(NodeId(i as u32));
        reliable.absorb(&wrapper.stats);
        match wrapper.inner() {
            GridNode::Client(c) => clients.absorb(&c.stats),
            GridNode::SubMaster(b) => submasters.absorb(&b.stats),
            GridNode::Standby(s) => {
                clients.absorb(&s.client().stats);
                // a promoted standby carried the run after node 0 died:
                // fold its scheduling stats in and take its verdict
                if let Some(m) = s.promoted_master() {
                    master_stats.absorb(&m.stats);
                    telemetry.absorb(&m.telemetry);
                    if decided.is_none() {
                        decided = m.outcome().cloned().map(|o| (o, m.finished_at()));
                    }
                }
            }
            GridNode::Master(_) => {}
        }
    }
    let outcome = match decided {
        Some((ref o, _)) => o.clone(),
        // no decision: distinguish "still grinding when the cap hit"
        // from "the event queue drained with work open" (a lost message
        // nobody recovered — the quiescence detector)
        None => match sim.last_run_end() {
            Some(RunEnd::Exhausted) => GridOutcome::Wedged,
            _ => GridOutcome::TimeOut,
        },
    };
    let seconds = match outcome {
        GridOutcome::TimeOut | GridOutcome::Wedged => cap,
        _ => decided.expect("decided outcome has a timestamp").1,
    };
    GridReport {
        outcome,
        seconds,
        master: master_stats,
        clients,
        submasters,
        reliable,
        sim: sim.stats,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsat_satgen as satgen;

    fn tb(workers: usize) -> Testbed {
        Testbed::uniform(workers, 1000.0, 3 << 20)
    }

    #[test]
    fn solves_a_tiny_sat_instance() {
        let f = gridsat_cnf::paper::fig1_formula();
        let r = run(&f, tb(3), GridConfig::default());
        match r.outcome {
            GridOutcome::Sat(model) => assert!(f.is_satisfied_by(&model)),
            other => panic!("expected SAT, got {other:?}"),
        }
        assert!(r.seconds < 100.0);
        assert_eq!(r.master.verification_failures, 0);
    }

    #[test]
    fn traced_run_yields_a_utilization_report_and_metrics() {
        let f = gridsat_cnf::paper::fig1_formula();
        let (obs, ring) = Obs::ring(1 << 16);
        let config = GridConfig::default();
        let cap = config.overall_timeout;
        let mut sim = build_sim_obs(&f, tb(3), config, obs);
        sim.run_until(cap + 60.0);
        let r = report(&sim, cap);
        assert!(matches!(r.outcome, GridOutcome::Sat(_)));

        // the trace round-trips through JSONL and folds into utilization
        let jsonl = ring.lock().unwrap().to_jsonl();
        let events = gridsat_obs::from_jsonl(&jsonl).expect("trace decodes");
        assert!(!events.is_empty());
        let util = gridsat_obs::fold_utilization(&events);
        assert!(util.event_counts.contains_key("client_launch"));
        assert!(util.event_counts.contains_key("assign"));
        assert_eq!(util.event_counts.get("outcome"), Some(&1));
        assert!(util.peak_active >= 1);
        let busy: f64 = util.clients.iter().map(|c| c.busy_s).sum();
        assert!(busy > 0.0, "at least one client did work");

        // the report's stats structs agree with the trace they ran beside
        let count = |k: &str| util.event_counts.get(k).copied().unwrap_or(0);
        assert!(r.master.results > 0 && r.clients.work > 0);
        assert!(r.clients.results >= r.master.results);
        assert_eq!(count("result"), r.master.results);
        assert_eq!(count("msg_deliver"), r.sim.messages_delivered);
    }

    #[test]
    fn reliability_layer_is_free_without_faults() {
        let f = gridsat_cnf::paper::fig1_formula();
        let bare = run(&f, tb(3), GridConfig::default());
        assert!(matches!(bare.outcome, GridOutcome::Sat(_)));
        // passthrough mode never tracks anything
        assert_eq!(bare.reliable, ReliableStats::default());
        // hardened on a clean network: tracked sends, but no recovery work
        let hardened = run(&f, tb(3), GridConfig::chaos_hardened());
        assert!(matches!(hardened.outcome, GridOutcome::Sat(_)));
        assert!(hardened.reliable.data_sent > 0);
        assert_eq!(hardened.reliable.retransmits, 0);
        assert_eq!(hardened.reliable.dup_drops, 0);
        assert_eq!(hardened.reliable.expired, 0);
        assert_eq!(hardened.master.lease_expiries, 0);
        assert_eq!(hardened.master.requeues, 0);
    }

    #[test]
    #[should_panic(expected = "the standby host cannot double as a sub-master")]
    fn failover_on_a_brokered_testbed_is_refused() {
        // node 1 of a hierarchical testbed is the broker `sm0`: built as a
        // sub-master it would drop the master's journal batches, and the
        // run would have no standby while its config says it has
        let f = gridsat_cnf::paper::fig1_formula();
        let config = GridConfig::failover_hardened().hierarchical();
        build_sim(&f, Testbed::scaling(4, 2, true), config);
    }

    #[test]
    fn refutes_a_tiny_unsat_instance() {
        let f = satgen::php::php(5, 4);
        let r = run(&f, tb(3), GridConfig::default());
        assert_eq!(r.outcome, GridOutcome::Unsat);
    }

    #[test]
    fn splits_happen_on_harder_instances() {
        let f = satgen::php::php(9, 8);
        let config = GridConfig {
            min_split_timeout: 0.5, // force early splitting
            work_quantum_s: 0.25,
            ..GridConfig::default()
        };
        let r = run(&f, tb(6), config);
        assert_eq!(r.outcome, GridOutcome::Unsat);
        assert!(r.master.splits > 0, "expected at least one split");
        assert!(r.master.max_active_clients >= 2);
        assert!(r.clients.results >= 2, "both halves report");
    }

    #[test]
    fn hierarchical_run_steals_work_and_matches_the_oracle() {
        let f = satgen::php::php(9, 8);
        let config = GridConfig {
            min_split_timeout: 0.5,
            work_quantum_s: 0.25,
            ..GridConfig::default()
        }
        .hierarchical();
        let r = run(&f, Testbed::scaling(6, 2, true), config);
        assert_eq!(r.outcome, GridOutcome::Unsat);
        assert_eq!(r.master.verification_failures, 0);
        assert!(
            r.master.steals_settled > 0,
            "expected at least one settled steal, stats: settled={} aborted={} tickets={}",
            r.master.steals_settled,
            r.master.steals_aborted,
            r.submasters.tickets,
        );
        assert!(r.submasters.announcements > 0, "idle clients announce");
        // the master's cube ledger panics on any illegal transition and
        // holds the verdict while a cube is unsettled: reaching UNSAT
        // means every cube of the split tree was refuted
    }

    #[test]
    fn hierarchical_run_is_deterministic() {
        let f = satgen::php::php(8, 7);
        let config = GridConfig {
            min_split_timeout: 0.5,
            work_quantum_s: 0.25,
            ..GridConfig::default()
        }
        .hierarchical();
        let a = run(&f, Testbed::scaling(4, 2, true), config.clone());
        let b = run(&f, Testbed::scaling(4, 2, true), config);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.master.steals_settled, b.master.steals_settled);
        assert_eq!(a.sim.messages_delivered, b.sim.messages_delivered);
    }

    #[test]
    fn deterministic_end_to_end() {
        let f = satgen::php::php(8, 7);
        let config = GridConfig {
            min_split_timeout: 0.5,
            work_quantum_s: 0.25,
            ..GridConfig::default()
        };
        let a = run(&f, tb(4), config.clone());
        let b = run(&f, tb(4), config);
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.master.splits, b.master.splits);
        assert_eq!(a.clients.work, b.clients.work);
        assert_eq!(a.sim.messages_delivered, b.sim.messages_delivered);
    }

    #[test]
    fn timeout_gives_unknown() {
        let f = satgen::php::php(9, 8);
        let config = GridConfig {
            overall_timeout: 2.0, // absurdly short
            ..GridConfig::default()
        };
        let r = run(&f, tb(2), config);
        assert_eq!(r.outcome, GridOutcome::TimeOut);
        assert_eq!(r.seconds, 2.0);
    }

    #[test]
    fn clause_sharing_traffic_flows() {
        let f = satgen::php::php(9, 8);
        let config = GridConfig {
            min_split_timeout: 0.5,
            work_quantum_s: 0.25,
            share_len_limit: Some(10),
            ..GridConfig::default()
        };
        let r = run(&f, tb(6), config);
        assert_eq!(r.outcome, GridOutcome::Unsat);
        assert!(r.clients.share_batches_sent > 0);
        assert!(r.clients.clauses_received > 0);
    }

    #[test]
    fn share_tree_bounds_share_traffic_on_a_wide_grid() {
        // tb(13) is a master plus 13 worker clients: a share tree three
        // levels deep, and wide enough that it and the paper's all-pairs
        // flood behave very differently
        let f = satgen::php::php(9, 8);
        let config = GridConfig {
            min_split_timeout: 0.5,
            work_quantum_s: 0.25,
            share_len_limit: Some(10),
            ..GridConfig::default()
        };
        let cap = config.overall_timeout;
        let mut sim = build_sim(&f, tb(13), config.clone());
        sim.enable_trace();
        sim.run_until(cap + 60.0);
        let r = report(&sim, cap);
        assert_eq!(r.outcome, GridOutcome::Unsat, "oracle answer first");
        assert!(r.clients.share_batches_sent > 0);
        assert!(r.clients.clauses_received > 0);
        assert!(
            r.clients.shares_forwarded > 0,
            "inner tree nodes must pass the root's batches on"
        );

        // one message up per round and node, and n-1 down per round of
        // the root: a node's batch is never on the wire more than once
        // per other client
        let n = 13u64; // clients in tb(13)
        let shares = || sim.trace_events().iter().filter(|e| e.label == "share");
        assert!(shares().count() > 0);
        assert!(
            shares().count() as u64 <= r.clients.share_batches_sent * (n - 1),
            "{} share msgs for {} batches",
            shares().count(),
            r.clients.share_batches_sent
        );

        // per-node egress: nobody ever sends more than the fan-out's worth
        // of share messages at one instant; the flood bursts n-1 = 12
        let mut bursts: std::collections::HashMap<(u32, u64), usize> = Default::default();
        for e in shares() {
            *bursts.entry((e.from.0, e.time_s.to_bits())).or_default() += 1;
        }
        let max_burst = bursts.values().copied().max().unwrap_or(0);
        assert!(
            max_burst <= crate::config::SHARE_TREE_FANOUT,
            "egress burst {max_burst} exceeds the tree's fan-out"
        );

        // against the paper's flood: the tree must answer the same and
        // never put more share bytes on the wire
        let flood = run(
            &f,
            tb(13),
            GridConfig {
                share_round_s: None,
                ..config
            },
        );
        assert_eq!(flood.outcome, GridOutcome::Unsat);
        assert_eq!(flood.clients.shares_forwarded, 0, "the flood is one hop");
        assert!(
            r.clients.share_bytes_sent <= flood.clients.share_bytes_sent,
            "share tree sent {} share bytes, all-pairs {}",
            r.clients.share_bytes_sent,
            flood.clients.share_bytes_sent
        );
    }

    #[test]
    fn causal_trace_critical_path_covers_a_wide_run() {
        // 13 workers on PHP(9,8) with splits forced early: the same
        // shape as the share-tree test, but traced with Lamport stamps
        // so the analyzer can walk the causal chain back from the
        // UNSAT verdict.
        let f = satgen::php::php(9, 8);
        let config = GridConfig {
            min_split_timeout: 0.5,
            work_quantum_s: 0.25,
            ..GridConfig::default()
        };
        let cap = config.overall_timeout;
        let (obs, ring) = Obs::causal_ring(1 << 20);
        let mut sim = build_sim_obs(&f, tb(13), config, obs);
        sim.run_until(cap + 60.0);
        let r = report(&sim, cap);
        assert_eq!(r.outcome, GridOutcome::Unsat);

        let ring = ring.lock().unwrap();
        assert_eq!(ring.evicted(), 0, "ring must hold the whole trace");
        let events = ring.events();
        let analysis = gridsat_obs::analyze(&events);
        assert!(
            analysis.anomalies.is_empty(),
            "clean run flagged: {:?}",
            analysis.anomalies
        );

        // the chain exists, ends at the master's verdict, and stays
        // inside the simulated run
        let cp = analysis.critical.expect("causal trace has a path");
        assert_eq!(cp.answer_kind, "outcome");
        assert_eq!(cp.answer_node, 0);
        assert!(cp.end_s <= r.seconds + 1e-6);
        assert!(cp.total_s() > 0.0);

        // segments and the per-kind breakdown both cover the chain's
        // span to within 1% — no unattributed time
        let covered: f64 = cp.segments.iter().map(|s| s.duration_s()).sum();
        let attributed: f64 = cp.breakdown().values().sum();
        let tol = 0.01 * cp.total_s();
        assert!((covered - cp.total_s()).abs() <= tol, "{covered} segment-s");
        assert!((attributed - cp.total_s()).abs() <= tol);
        let solve = cp
            .breakdown()
            .get(&gridsat_obs::SegmentKind::Solve)
            .copied()
            .unwrap_or(0.0);
        assert!(solve > 0.0, "some chain time must be solver work");

        // control-plane telemetry reached the report
        let t = &r.telemetry;
        assert!(t.queue_depth_max > 0, "backlog was sampled");
        let sw = t.split_wait_summary();
        assert!(sw.count > 0, "split waits were observed");
        assert!(sw.p99_s >= sw.p50_s);
        assert!(t
            .service_summaries()
            .iter()
            .any(|(k, s)| k == "split_request" && s.count > 0));
    }

    #[test]
    fn torn_master_journal_recovers_and_reaches_the_oracle_answer() {
        use crate::chaos::{CrashWindow, FaultPlan};
        // the master crashes mid-run; while it is down, the tail of its
        // on-disk journal is torn off at an arbitrary byte boundary (a
        // lost disk append — deeper tears lose whole committed records).
        // The restart must truncate to the verified prefix, observably,
        // and the grid must still converge on the oracle answer.
        let f = satgen::php::php(7, 6); // oracle: UNSAT, runs well past the crash
        for depth in 0..4u64 {
            let config = GridConfig {
                min_split_timeout: 0.2,
                work_quantum_s: 0.1,
                ..GridConfig::chaos_hardened()
            };
            let cap = config.overall_timeout;
            let (obs, ring) = Obs::ring(1 << 16);
            let mut sim = build_sim_obs(&f, tb(4), config, obs);
            FaultPlan {
                name: "torn-journal".into(),
                crashes: vec![CrashWindow {
                    node: 0,
                    down_at: 2.0,
                    up_at: Some(5.0),
                }],
                ..FaultPlan::default()
            }
            .apply(&mut sim);
            sim.run_until(3.0);
            assert!(
                !matches!(sim.last_run_end(), Some(RunEnd::Shutdown)),
                "depth {depth}: the run must still be going at the tear point"
            );
            if let GridNode::Master(m) = sim.process_mut(NodeId(0)).inner_mut() {
                let disk = m.journal_mut();
                let len = disk.log_bytes().len();
                let keep = len.saturating_sub(2 + 11 * depth as usize).max(1);
                assert!(disk.len() > 1, "depth {depth}: journal too short to tear");
                disk.tear_log(keep);
            }
            // check the restart's truncate report right after the node
            // comes back, before a long run cycles it out of the ring
            sim.run_until(6.0);
            assert!(
                ring.lock()
                    .unwrap()
                    .to_jsonl()
                    .contains("\"kind\":\"journal_truncate\""),
                "depth {depth}: the torn tail must be reported on restart"
            );
            sim.run_until(cap + 60.0);
            let r = report(&sim, cap);
            assert!(
                matches!(r.outcome, GridOutcome::Unsat),
                "depth {depth}: oracle UNSAT, torn-journal run {:?}",
                r.outcome
            );
        }
    }

    #[test]
    fn sat_answers_match_sequential_on_random_instances() {
        for seed in 0..8 {
            let f = satgen::random_ksat::random_ksat(30, 126, 3, seed);
            let seq = gridsat_solver::driver::decide(&f);
            let config = GridConfig {
                min_split_timeout: 0.2,
                work_quantum_s: 0.1,
                ..GridConfig::default()
            };
            let r = run(&f, tb(4), config);
            match (seq, r.outcome) {
                (gridsat_solver::SolveStatus::Sat, GridOutcome::Sat(m)) => {
                    assert!(f.is_satisfied_by(&m), "seed {seed}");
                }
                (gridsat_solver::SolveStatus::Unsat, GridOutcome::Unsat) => {}
                (want, got) => panic!("seed {seed}: sequential {want:?}, grid {got:?}"),
            }
        }
    }
}

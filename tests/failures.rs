//! Failure-model integration tests: the paper's "limited form of
//! recovery" (idle-client loss tolerated, busy-client loss fatal) and the
//! checkpointing extension that lifts the limitation.

use gridsat::{experiment, GridConfig, GridOutcome};
use gridsat_grid::Testbed;
use gridsat_satgen as satgen;

#[test]
fn idle_client_deaths_are_tolerated() {
    // kill three clients that never receive work (they come up and then
    // leave); the run completes normally
    let f = satgen::php::php(8, 7);
    let mut tb = Testbed::uniform(6, 1000.0, 3 << 20);
    for i in [4usize, 5, 6] {
        tb.hosts[i].down_at = 2.0; // die before any split reaches them
    }
    let config = GridConfig {
        min_split_timeout: 20.0,
        ..GridConfig::default()
    };
    let r = experiment::run(&f, tb, config);
    assert_eq!(r.outcome, GridOutcome::Unsat);
}

#[test]
fn busy_client_death_without_checkpoints_is_fatal() {
    let f = satgen::php::php(9, 8);
    let mut tb = Testbed::uniform(4, 1000.0, 3 << 20);
    tb.hosts[1].down_at = 100.0; // the first client, mid-solve
    let r = experiment::run(&f, tb, GridConfig::default());
    assert_eq!(r.outcome, GridOutcome::ClientLost);
    assert!(r.seconds <= 101.0);
}

#[test]
fn checkpointing_survives_cascading_failures() {
    // two busy clients die at different times; checkpoints recover both
    // subproblems and the answer stays correct
    let f = satgen::php::php(9, 8);
    let mut tb = Testbed::uniform(6, 1000.0, 3 << 20);
    tb.hosts[1].down_at = 80.0;
    tb.hosts[2].down_at = 160.0;
    let config = GridConfig {
        reliability: true,
        min_split_timeout: 15.0,
        ..GridConfig::default()
    };
    let r = experiment::run(&f, tb, config);
    assert_eq!(r.outcome, GridOutcome::Unsat);
    assert!(r.master.recoveries >= 1, "at least one recovery happened");
}

#[test]
fn an_interior_share_tree_node_killed_mid_run_costs_shares_never_the_verdict() {
    // 13 clients register in id order: node 2 sits at slot 1 of the share
    // tree, between the root (node 1) and nodes 6..=9
    let f = satgen::php::php(9, 8);
    let mut tb = Testbed::uniform(13, 1000.0, 3 << 20);
    let killed_at = 100.0;
    tb.hosts[2].down_at = killed_at;
    let config = GridConfig {
        reliability: true,
        min_split_timeout: 15.0,
        ..GridConfig::default()
    };
    let cap = config.overall_timeout;
    let mut sim = experiment::build_sim(&f, tb, config);
    sim.enable_trace();
    sim.run_until(cap + 60.0);
    let r = experiment::report(&sim, cap);
    assert_eq!(r.outcome, GridOutcome::Unsat, "the verdict survives");
    assert!(
        r.seconds > killed_at + 20.0,
        "{} s: it died mid-run",
        r.seconds
    );

    let sent = |label: &'static str, from: u32| {
        let events = sim.trace_events().iter();
        events.filter(move |e| e.label == label && e.from.0 == from)
    };
    let below = |e: &&gridsat_grid::TraceEvent| (6..=9).contains(&e.to.0);
    // while it lived, node 2 passed the root's batches on to its children
    assert!(sent("share", 2).filter(below).count() > 0);
    assert_eq!(sent("share", 2).filter(|e| e.time_s > killed_at).count(), 0);
    // one re-link: the last client moves into the dead node's slot, and
    // the nodes around that slot and its old one are told, nobody else
    let relinked: Vec<u32> = sent("peers", 0)
        .filter(|e| e.time_s >= killed_at)
        .map(|e| e.to.0)
        .collect();
    assert!((1..=7).contains(&relinked.len()), "re-linked {relinked:?}");
    for orphan in 6..=9 {
        assert!(
            relinked.contains(&orphan),
            "node {orphan} got no new parent"
        );
    }
    // and the orphans are back in the tree: node 13 took the slot
    assert!(relinked.contains(&13));
    assert!(sent("share", 13).filter(below).count() > 0);
}

#[test]
fn sat_answers_survive_recovery() {
    for seed in [3u64, 5] {
        let f = satgen::random_ksat::planted_ksat(80, 336, 3, seed);
        let mut tb = Testbed::uniform(4, 1000.0, 3 << 20);
        tb.hosts[1].down_at = 30.0;
        let config = GridConfig {
            reliability: true,
            min_split_timeout: 10.0,
            ..GridConfig::default()
        };
        let r = experiment::run(&f, tb, config);
        match r.outcome {
            GridOutcome::Sat(model) => assert!(f.is_satisfied_by(&model), "seed {seed}"),
            other => panic!("seed {seed}: {other:?}"),
        }
    }
}

#[test]
fn batch_window_expiry_with_busy_nodes_terminates_the_run() {
    // a batch host joins, takes work, and its window expires mid-solve:
    // the paper terminates the whole run
    let f = satgen::php::php(10, 9);
    let tb = Testbed::uniform(2, 800.0, 3 << 20).with_blue_horizon(3, 30.0, 120.0);
    let config = GridConfig {
        min_split_timeout: 10.0,
        overall_timeout: 10_000.0,
        ..GridConfig::default()
    };
    let r = experiment::run(&f, tb, config);
    // either the run finished before the window closed, or it terminated
    // with ClientLost exactly at expiry — never a wrong answer
    match r.outcome {
        GridOutcome::Unsat => {}
        GridOutcome::ClientLost => assert!(r.seconds >= 140.0 && r.seconds <= 160.0),
        other => panic!("{other:?}"),
    }
}

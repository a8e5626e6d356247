//! Reliability integration tests: the acked control plane, heartbeat
//! leases, and the chaos fault plans, checked end-to-end against the
//! sequential solver as a SAT/UNSAT oracle.

use gridsat::chaos::{CrashWindow, FaultPlan, LinkWindow};
use gridsat::{experiment, GridConfig, GridOutcome, GridReport};
use gridsat_cnf::Formula;
use gridsat_grid::Testbed;
use gridsat_satgen as satgen;

fn chaos_config() -> GridConfig {
    GridConfig {
        min_split_timeout: 0.2,
        work_quantum_s: 0.1,
        ..GridConfig::chaos_hardened()
    }
}

fn run_with_plan(f: &Formula, plan: &FaultPlan, config: GridConfig) -> GridReport {
    let cap = config.overall_timeout;
    let mut sim = experiment::build_sim(f, Testbed::uniform(4, 1000.0, 3 << 20), config);
    plan.apply(&mut sim);
    sim.run_until(cap + 60.0);
    experiment::report(&sim, cap)
}

#[test]
fn fault_free_runs_pay_zero_retransmits() {
    // acceptance criterion: with no faults injected, the reliable layer
    // must be pure bookkeeping — no retransmit fires, nothing is deduped
    let f = satgen::php::php(7, 6);
    let r = run_with_plan(&f, &FaultPlan::default(), chaos_config());
    assert_eq!(r.outcome, GridOutcome::Unsat);
    assert_eq!(r.reliable.retransmits, 0, "no faults, no retransmits");
    assert_eq!(r.reliable.dup_drops, 0, "no faults, no duplicates");
    assert_eq!(r.reliable.expired, 0, "no faults, no expiries");
}

#[test]
fn lossy_network_heals_and_answers_correctly() {
    let f = satgen::php::php(7, 6);
    let r = run_with_plan(&f, &FaultPlan::drop_happy(5), chaos_config());
    assert_eq!(r.outcome, GridOutcome::Unsat);
    assert!(r.reliable.retransmits > 0, "8% loss must trigger retries");
}

#[test]
fn partitioned_busy_client_lease_expires_and_recovers() {
    // the first client takes the whole problem, then its link to the
    // master goes silent for longer than the lease
    // (heartbeat_period x lease_misses = 30 s): the master must expire
    // it and recover the subproblem from the checkpoint it holds
    let f = satgen::php::php(7, 6);
    let plan = FaultPlan {
        name: "partition".into(),
        links: vec![LinkWindow {
            a: 0,
            b: 1,
            down_at: 5.0,
            up_at: 50.0,
        }],
        ..FaultPlan::default()
    };
    let r = run_with_plan(&f, &plan, chaos_config());
    assert_eq!(r.outcome, GridOutcome::Unsat);
    assert!(
        r.master.lease_expiries >= 1,
        "the partition must be noticed"
    );
    assert!(r.master.recoveries >= 1, "the subproblem must be recovered");
}

#[test]
fn master_blink_is_survived() {
    let f = satgen::php::php(7, 6);
    let plan = FaultPlan {
        name: "blink".into(),
        crashes: vec![CrashWindow {
            node: 0,
            down_at: 10.0,
            up_at: Some(21.0),
        }],
        loss_prob: 0.02,
        seed: 3,
        ..FaultPlan::default()
    };
    let r = run_with_plan(&f, &plan, chaos_config());
    assert_eq!(r.outcome, GridOutcome::Unsat);
}

#[test]
fn sat_models_survive_chaos() {
    let f = satgen::random_ksat::planted_ksat(40, 160, 3, 9);
    let r = run_with_plan(&f, &FaultPlan::crash_restart(9), chaos_config());
    match r.outcome {
        GridOutcome::Sat(model) => assert!(f.is_satisfied_by(&model)),
        other => panic!("expected SAT, got {other:?}"),
    }
}

#[test]
fn dead_master_fails_over_to_the_standby() {
    // the master dies for good at t=8 on a lossy network; under the
    // failover profile node 1 tails the journal, notices the silence,
    // promotes itself, re-adopts the survivors, and drives the run to
    // the oracle's answer — with the master's cube ledger checking that
    // no cube is ever lost or owned twice along the way
    let f = satgen::php::php(7, 6);
    let plan = FaultPlan::master_gone(3);
    let config = GridConfig {
        min_split_timeout: 0.2,
        work_quantum_s: 0.1,
        ..GridConfig::failover_hardened()
    };
    let cap = config.overall_timeout;
    let mut sim = experiment::build_sim(&f, Testbed::uniform(4, 1000.0, 3 << 20), config);
    plan.apply(&mut sim);
    sim.run_until(cap + 60.0);
    let gridsat::GridNode::Standby(standby) = sim.process(gridsat_grid::NodeId(1)).inner() else {
        panic!("node 1 is the standby under failover_hardened");
    };
    let promoted = standby
        .promoted_master()
        .expect("the standby must have taken over");
    // node 0 never came back, so only the promoted master can decide
    assert_eq!(promoted.outcome(), Some(&GridOutcome::Unsat));
    let r = experiment::report(&sim, cap);
    assert_eq!(r.outcome, GridOutcome::Unsat);
    assert_eq!(r.master.verification_failures, 0);
}

#[test]
fn failover_preserves_sat_models() {
    let f = satgen::random_ksat::planted_ksat(40, 160, 3, 5);
    let plan = FaultPlan::master_gone(5);
    let config = GridConfig {
        min_split_timeout: 0.2,
        work_quantum_s: 0.1,
        ..GridConfig::failover_hardened()
    };
    let r = run_with_plan(&f, &plan, config);
    match r.outcome {
        GridOutcome::Sat(model) => assert!(f.is_satisfied_by(&model)),
        other => panic!("expected SAT through the failover, got {other:?}"),
    }
}

#[test]
fn unreliable_control_plane_wedges_detectably() {
    // kill the master for good under the paper-mode config (no acked
    // delivery, no leases, no master restart): the clients' reports go
    // nowhere, the cluster goes quiet, and quiescence detection reports
    // Wedged instead of spinning until the cap — a dead control plane
    // cannot hide behind a timeout
    let f = satgen::php::php(7, 6);
    let plan = FaultPlan {
        name: "master-gone".into(),
        crashes: vec![CrashWindow {
            node: 0,
            down_at: 10.0,
            up_at: None,
        }],
        ..FaultPlan::default()
    };
    let config = GridConfig {
        min_split_timeout: 0.2,
        work_quantum_s: 0.1,
        ..GridConfig::default()
    };
    let r = run_with_plan(&f, &plan, config);
    assert_eq!(r.outcome, GridOutcome::Wedged);
}

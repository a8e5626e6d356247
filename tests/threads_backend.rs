//! The same GridSAT master/client processes on the real-thread backend:
//! answers must match the simulator and the sequential core.

use gridsat::msg::{GridMsg, ProblemId};
use gridsat::wire::SpecFrame;
use gridsat::{Client, GridConfig, GridNode, GridOutcome, Master};
use gridsat_cnf::{Clause, Formula};
use gridsat_grid::{Action, Ctx, NodeId, NodeInfo, Process, Site, ThreadGrid};
use gridsat_satgen as satgen;
use gridsat_solver::{FpIds, SplitSpec};
use std::collections::BTreeMap;
use std::time::Duration;

fn config() -> GridConfig {
    GridConfig {
        min_split_timeout: 0.05,
        work_quantum_s: 20_000.0, // thread speed is 1.0: units per tick
        load_report_period: 0.5,
        master_period: 0.02,
        migration: false,
        ..GridConfig::default()
    }
}

/// A client as the threads backend builds it: a fingerprint id table of
/// its own, and the formula's variable count as the bound on a received
/// spec's.
fn client(config: GridConfig, f: &Formula) -> Client {
    Client::with_fp_ids(NodeId(0), config, FpIds::shared(), f.num_vars())
}

fn run_threaded(f: &Formula, workers: u32) -> GridOutcome {
    let config = config();
    let host_info: BTreeMap<NodeId, (f64, Site)> = (0..=workers)
        .map(|i| (NodeId(i), (1.0, Site::Ucsd)))
        .collect();
    let f2 = f.clone();
    let grid = ThreadGrid::spawn(workers as usize + 1, 3 << 20, move |id| {
        if id == NodeId(0) {
            GridNode::Master(Box::new(Master::new(
                f2.clone(),
                config.clone(),
                host_info.clone(),
            )))
        } else {
            GridNode::Client(Box::new(client(config.clone(), &f2)))
        }
    });
    let nodes = grid.join(Duration::from_secs(60));
    let GridNode::Master(master) = &nodes[0] else {
        panic!("node 0 is the master")
    };
    master.outcome().cloned().expect("finished in time")
}

#[test]
fn threaded_unsat_agrees() {
    let f = satgen::php::php(8, 7);
    assert_eq!(run_threaded(&f, 3), GridOutcome::Unsat);
}

#[test]
fn threaded_sat_model_verifies() {
    let f = satgen::random_ksat::planted_ksat(60, 252, 3, 5);
    match run_threaded(&f, 3) {
        GridOutcome::Sat(model) => assert!(f.is_satisfied_by(&model)),
        other => panic!("{other:?}"),
    }
}

/// A transfer naming one variable more than the formula is refused like
/// an unreadable one, and its half goes back to the master.
#[test]
fn a_threaded_client_refuses_a_spec_past_the_formulas_variables() {
    let f = satgen::php::php(4, 3);
    let mut c = client(config(), &f);
    let spec = SplitSpec {
        num_vars: f.num_vars() + 1,
        assumptions: vec![],
        clauses: f.clauses().map(Clause::from).collect(),
    };
    let mut cx = Ctx::new(NodeInfo {
        id: NodeId(1),
        speed: 1.0,
        memory: 3 << 20,
        now: 0.0,
        availability: 1.0,
    });
    let transfer = GridMsg::Subproblem {
        spec: Box::new(SpecFrame::seal(&spec)),
        sent_at: 0.0,
        problem: ProblemId::new(NodeId(2), 1),
        stolen: false,
    };
    c.on_message(NodeId(2), transfer, &mut cx);
    let to_master: Vec<GridMsg> = (cx.take_actions().into_iter())
        .filter_map(|a| match a {
            Action::Send { to: NodeId(0), msg } => Some(msg),
            _ => None,
        })
        .collect();
    assert!(matches!(
        to_master.as_slice(),
        [
            GridMsg::SplitDone { ok: false, .. },
            GridMsg::Requeue { .. }
        ]
    ));
}

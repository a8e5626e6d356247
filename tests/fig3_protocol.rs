//! Integration test for the Figure 3 reproduction: the five-message
//! split handshake, captured from a live simulated run.

use gridsat::{experiment, GridConfig};
use gridsat_grid::{NodeId, Testbed};
use gridsat_satgen as satgen;

type TraceRow = (f64, NodeId, NodeId, String, usize);

fn traced_run() -> (Vec<TraceRow>, String) {
    let f = satgen::php::php(8, 7);
    let config = GridConfig {
        min_split_timeout: 1.0,
        work_quantum_s: 0.5,
        ..GridConfig::experiment1()
    };
    let mut sim = experiment::build_sim(&f, Testbed::uniform(3, 1000.0, 3 << 20), config);
    sim.enable_trace();
    sim.run_until(6000.0);
    let events = sim
        .trace_events()
        .iter()
        .map(|e| (e.time_s, e.from, e.to, e.label.clone(), e.bytes))
        .collect();
    let outcome = experiment::report(&sim, 6000.0).outcome.table_cell();
    (events, outcome)
}

#[test]
fn five_message_handshake_in_the_papers_order() {
    let (events, outcome) = traced_run();
    assert_eq!(outcome, "UNSAT", "php(8,7)");

    let start = events
        .iter()
        .position(|(_, _, _, l, _)| l.contains("split-request"))
        .expect("at least one split");
    let master = NodeId(0);

    // (1) requester -> master
    let (_, a, to, _, _) = &events[start];
    assert_eq!(*to, master);
    let a = *a;

    let handshake: Vec<&TraceRow> = events[start..]
        .iter()
        .filter(|(_, _, _, l, _)| {
            l.contains("split-request")
                || l.contains("split-grant")
                || l.contains("subproblem")
                || l.contains("split-done")
        })
        .take(5)
        .collect();
    assert_eq!(handshake.len(), 5);

    // (2) master -> requester: grant
    assert!(handshake[1].3.contains("split-grant"));
    assert_eq!(handshake[1].1, master);
    assert_eq!(handshake[1].2, a);

    // (3) requester -> peer: the big subproblem transfer
    assert!(handshake[2].3.contains("subproblem"));
    assert_eq!(handshake[2].1, a);
    let b = handshake[2].2;
    assert_ne!(b, master);

    // (4)/(5): both peers report to the master
    assert!(handshake[3].3.contains("split-done"));
    assert!(handshake[4].3.contains("split-done"));
    let reporters: Vec<NodeId> = vec![handshake[3].1, handshake[4].1];
    assert!(reporters.contains(&a));
    assert!(reporters.contains(&b));
    assert_eq!(handshake[3].2, master);
    assert_eq!(handshake[4].2, master);

    // the subproblem is by far the largest message of the handshake
    let sub_bytes = handshake[2].4;
    for (i, h) in handshake.iter().enumerate() {
        if i != 2 {
            assert!(
                sub_bytes > 10 * h.4,
                "subproblem ({} B) should dwarf control message {} ({} B)",
                sub_bytes,
                h.3,
                h.4
            );
        }
    }
}

#[test]
fn peer_to_peer_transfer_bypasses_the_master() {
    let (events, _) = traced_run();
    for (_, from, to, label, _) in &events {
        if label.contains("subproblem") {
            assert_ne!(*from, NodeId(0), "master never sends subproblem(3)");
            assert_ne!(
                *to,
                NodeId(0),
                "subproblem(3) never routes through the master"
            );
        }
    }
}

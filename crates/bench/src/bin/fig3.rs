//! Regenerates the paper's **Figure 3**: the five-message communication
//! scenario of splitting the subproblem assigned to client A with
//! client B, captured from a live simulated run.
//!
//! Usage: `cargo run --release -p gridsat-bench --bin fig3`

use gridsat::{experiment, GridConfig};
use gridsat_grid::{NodeId, Testbed};
use gridsat_satgen as satgen;

fn main() {
    println!("=== Figure 3: communication scenario of a split ===\n");

    // A small instance that triggers at least one split quickly.
    let f = satgen::php::php(8, 7);
    let config = GridConfig {
        min_split_timeout: 1.0,
        work_quantum_s: 0.5,
        ..GridConfig::experiment1()
    };
    let mut sim = experiment::build_sim(&f, Testbed::uniform(3, 1000.0, 3 << 20), config);
    sim.enable_trace();
    sim.run_until(6000.0);

    // Find the first complete split handshake in the trace.
    let events = sim.trace_events();
    let first_request = events
        .iter()
        .position(|e| e.label.contains("split-request"))
        .expect("a split happened");

    println!(
        "(master is {}, clients are n1..n3; times in simulated seconds)\n",
        NodeId(0)
    );
    let mut shown = 0;
    for e in &events[first_request..] {
        let interesting = e.label.contains("split-request")
            || e.label.contains("split-grant")
            || e.label.contains("subproblem")
            || e.label.contains("split-done");
        if interesting {
            shown += 1;
            println!(
                "  ({shown}) t={:8.2}  {} -> {}  {:<18} {:>8} bytes",
                e.time_s, e.from, e.to, e.label, e.bytes
            );
            if shown == 5 {
                break;
            }
        }
    }
    assert_eq!(shown, 5, "the paper's five-message handshake");

    println!(
        "\nThe paper's protocol: (1) A asks the master to split, (2) the master \
         names idle peer B, (3) A ships the subproblem directly to B (the large \
         message), then (4)/(5) B and A report success to the master."
    );
    println!("\nFull run outcome: {:?}", {
        let r = experiment::report(&sim, 6000.0);
        r.outcome.table_cell()
    });
}

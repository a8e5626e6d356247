//! The paper's Section 3.4 checkpointing sketch, exercised end to end:
//! a busy client is killed mid-run. Without checkpointing the run aborts
//! (the paper's "limited form of recovery" tolerates only idle-client
//! loss); with the robustness extension's level-0 checkpoints the master
//! reassigns the lost subproblem and the run completes correctly.
//!
//!     cargo run --release -p gridsat-examples --bin fault_tolerance

use gridsat::{experiment, GridConfig, GridOutcome, Reliability};
use gridsat_grid::Testbed;
use gridsat_satgen as satgen;

fn run(reliability: Reliability) -> GridOutcome {
    let formula = satgen::php::php(9, 8);
    let mut testbed = Testbed::uniform(5, 1000.0, 3 << 20);
    // worker n1 (which receives the whole problem first) dies at t=60
    testbed.hosts[1].down_at = 60.0;
    let config = GridConfig {
        reliability,
        min_split_timeout: 5.0,
        ..GridConfig::default()
    };
    experiment::run(&formula, testbed, config).outcome
}

fn main() {
    println!("killing a busy client at t=60 s...");

    let without = run(Reliability::Bare);
    println!("  checkpointing off:   {:?}", without.table_cell());
    assert_eq!(
        without,
        GridOutcome::ClientLost,
        "paper: the run cannot continue"
    );

    let with = run(Reliability::Leases);
    println!("  level-0 checkpoints: {:?}", with.table_cell());
    assert_eq!(with, GridOutcome::Unsat, "recovered and finished correctly");

    println!(
        "\nWith checkpointing, the master reconstructs the lost subproblem \
         from its level-0 assignment over the original clauses and \
         reassigns it to an idle client — the answer is still correct."
    );
}

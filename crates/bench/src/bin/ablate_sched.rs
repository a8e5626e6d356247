//! Ablation: the master's resource-ranking scheduler (paper Section 3.3).
//! Compares NWS-style ranking against random and worst-first placement on
//! the heterogeneous GrADS testbed.
//!
//! Usage: cargo run --release -p gridsat-bench --bin ablate_sched

use gridsat::{experiment, GridConfig, SchedPolicy};
use gridsat_grid::Testbed;
use gridsat_satgen as satgen;

fn main() {
    let instances = [
        ("urq-13", satgen::xor::urquhart(13, 38)),
        ("php-10-9", satgen::php::php(10, 9)),
        ("par-sat-100", satgen::xor::parity(100, 88, 5, true, 900)),
    ];
    println!(
        "{:<14} {:>10} {:>10} {:>8} {:>8}",
        "instance", "policy", "grid (s)", "splits", "maxcl"
    );
    for (name, f) in &instances {
        for (pname, policy) in [
            ("nws-rank", SchedPolicy::NwsRank),
            ("random", SchedPolicy::Random(11)),
            ("worst", SchedPolicy::WorstRank),
        ] {
            let config = GridConfig {
                scheduler: policy,
                ..GridConfig::experiment1()
            };
            let r = experiment::run(f, Testbed::grads(), config);
            println!(
                "{:<14} {:>10} {:>10} {:>8} {:>8}",
                name,
                pname,
                r.table_cell(),
                r.master.splits,
                r.master.max_active_clients
            );
        }
        println!();
    }
    println!(
        "Ranked placement finds fast hosts first; worst-first placement shows why it matters."
    );
}

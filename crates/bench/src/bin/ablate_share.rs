//! Ablation: clause sharing and the share-length limit (paper Section
//! 3.2). Sweeps limit in {off, 3, 10, all} over a few instances and
//! reports simulated time, clauses exchanged and bytes moved — showing
//! the paper's trade-off: short clauses carry most of the pruning power
//! at a fraction of the communication cost.
//!
//! Usage: cargo run --release -p gridsat-bench --bin ablate_share

use gridsat::{experiment, GridConfig};
use gridsat_cnf::Formula;
use gridsat_grid::Testbed;
use gridsat_satgen as satgen;

fn main() {
    let instances: Vec<Formula> = vec![
        satgen::xor::urquhart(13, 38),
        satgen::php::php(9, 8),
        satgen::random_ksat::random_ksat(195, 896, 3, 1),
        satgen::xor::parity(100, 88, 5, true, 900),
    ];
    println!(
        "{:<28} {:>6} {:>10} {:>12} {:>14} {:>10}",
        "instance", "limit", "grid (s)", "clauses rx", "bytes moved", "maxcl"
    );
    for f in &instances {
        for (name, limit) in [
            ("off", None),
            ("3", Some(3)),
            ("10", Some(10)),
            ("all", Some(10_000)),
        ] {
            let config = GridConfig {
                share_len_limit: limit,
                ..GridConfig::experiment1()
            };
            let r = experiment::run(f, Testbed::grads(), config);
            println!(
                "{:<28} {:>6} {:>10} {:>12} {:>14} {:>10}",
                f.name().unwrap_or("?"),
                name,
                r.table_cell(),
                r.clients.clauses_received,
                r.sim.bytes_delivered,
                r.master.max_active_clients
            );
        }
        println!();
    }
}

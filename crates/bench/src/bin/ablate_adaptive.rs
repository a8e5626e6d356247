//! Extension ablation: adaptive share-length tuning — the paper's open
//! problem ("While we do not yet have a way of determining the length of
//! the clauses to share automatically, GridSAT takes the maximum clause
//! length as a parameter"). Compares fixed limits against the adaptive
//! policy that tightens when merged clauses rarely imply anything and
//! widens when they mostly do.
//!
//! Usage: cargo run --release -p gridsat-bench --bin ablate_adaptive

use gridsat::{config::ShareTuning, experiment, GridConfig};
use gridsat_cnf::Formula;
use gridsat_grid::Testbed;
use gridsat_satgen as satgen;

fn main() {
    let instances: Vec<Formula> = vec![
        satgen::xor::urquhart(13, 38),
        satgen::php::php(10, 9),
        satgen::xor::parity(100, 88, 5, true, 900),
        satgen::random_ksat::random_ksat(195, 896, 3, 1),
    ];
    println!(
        "{:<28} {:>10} {:>10} {:>12} {:>9}",
        "instance", "policy", "grid (s)", "clauses rx", "retunes"
    );
    for f in &instances {
        for (name, limit, tuning) in [
            ("fixed-3", Some(3), ShareTuning::Fixed),
            ("fixed-10", Some(10), ShareTuning::Fixed),
            (
                "adaptive",
                Some(6),
                ShareTuning::Adaptive { min: 2, max: 16 },
            ),
        ] {
            let config = GridConfig {
                share_len_limit: limit,
                share_tuning: tuning,
                ..GridConfig::experiment1()
            };
            let r = experiment::run(f, Testbed::grads(), config);
            println!(
                "{:<28} {:>10} {:>10} {:>12} {:>9}",
                f.name().unwrap_or("?"),
                name,
                r.table_cell(),
                r.clients.clauses_received,
                r.clients.share_limit_changes
            );
        }
        println!();
    }
}

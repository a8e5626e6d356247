//! Host-count scaling: the paper's Section 4.2 claim that "more resources
//! ... can cover more of the search space during the same time". Sweeps
//! uniform testbed sizes on one hard UNSAT instance.
//!
//! Usage: cargo run --release -p gridsat-bench --bin scaling

use gridsat::{experiment, GridConfig};
use gridsat_bench::{ZCHAFF_MEM_BUDGET, ZCHAFF_WORK_CAP};
use gridsat_grid::Testbed;
use gridsat_satgen as satgen;
use gridsat_solver::{driver, SolverConfig};

fn main() {
    let f = satgen::xor::urquhart(13, 38);
    let seq = driver::solve(
        &f,
        SolverConfig::sequential_baseline(ZCHAFF_MEM_BUDGET),
        driver::Limits::with_max_work(ZCHAFF_WORK_CAP),
    );
    let seq_s = seq.stats.work as f64 / 1000.0;
    println!(
        "instance: {} | sequential: {:.0} s\n",
        f.name().unwrap_or("?"),
        seq_s
    );
    println!(
        "{:>7} {:>10} {:>9} {:>8} {:>8}",
        "hosts", "grid (s)", "speedup", "splits", "maxcl"
    );
    for workers in [1usize, 2, 4, 8, 16, 32] {
        let r = experiment::run(
            &f,
            Testbed::uniform(workers, 1000.0, 3 << 20),
            GridConfig::experiment1(),
        );
        let speedup = match r.outcome {
            gridsat::GridOutcome::Sat(_) | gridsat::GridOutcome::Unsat => {
                format!("{:.2}", seq_s / r.seconds)
            }
            _ => "-".into(),
        };
        println!(
            "{:>7} {:>10} {:>9} {:>8} {:>8}",
            workers,
            r.table_cell(),
            speedup,
            r.master.splits,
            r.master.max_active_clients
        );
    }
}

//! Ablation: the "ping-pong" effect (paper Section 3.1) — when the split
//! time-out is too small, clients spend their time communicating
//! subproblem descriptions instead of searching, and parallel execution
//! is slower than sequential. Sweeps the split time-out on a small and a
//! medium instance.
//!
//! Usage: cargo run --release -p gridsat-bench --bin ablate_pingpong

use gridsat::{experiment, GridConfig};
use gridsat_bench::{ZCHAFF_MEM_BUDGET, ZCHAFF_WORK_CAP};
use gridsat_grid::Testbed;
use gridsat_satgen as satgen;
use gridsat_solver::{driver, SolverConfig};

fn main() {
    let instances = [
        (
            "small: rand3sat-150",
            satgen::random_ksat::random_ksat(150, 615, 3, 3),
        ),
        ("medium: urq-13", satgen::xor::urquhart(13, 38)),
    ];
    println!(
        "{:<22} {:>9} {:>10} {:>8} {:>8} {:>10}",
        "instance", "timeout", "grid (s)", "speedup", "splits", "msgs"
    );
    for (name, f) in &instances {
        let seq = driver::solve(
            f,
            SolverConfig::sequential_baseline(ZCHAFF_MEM_BUDGET),
            driver::Limits::with_max_work(ZCHAFF_WORK_CAP),
        );
        let seq_s = seq.stats.work as f64 / 1000.0;
        for timeout in [5.0, 25.0, 100.0, 400.0, 1600.0] {
            let config = GridConfig {
                min_split_timeout: timeout,
                ..GridConfig::experiment1()
            };
            let r = experiment::run(f, Testbed::grads(), config);
            let speedup = match r.outcome {
                gridsat::GridOutcome::Sat(_) | gridsat::GridOutcome::Unsat => {
                    format!("{:.2}", seq_s / r.seconds)
                }
                _ => "-".into(),
            };
            println!(
                "{:<22} {:>9} {:>10} {:>8} {:>8} {:>10}",
                name,
                timeout,
                r.table_cell(),
                speedup,
                r.master.splits,
                r.sim.messages_delivered
            );
        }
        println!();
    }
    println!("Too-eager splitting (small time-outs) reproduces the paper's ping-pong effect.");
}

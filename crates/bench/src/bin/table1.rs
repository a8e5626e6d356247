//! Regenerates the paper's **Table 1**: GridSAT vs sequential zChaff on
//! the 42-instance SAT2002-like suite over the (simulated) GrADS testbed.
//!
//! Columns mirror the paper: instance, SAT/UNSAT/unknown, zChaff seconds
//! (or TIME_OUT / MEM_OUT), GridSAT seconds (or TIME_OUT), speed-up, and
//! the maximum number of active clients the scheduler chose.
//!
//! * sequential baseline: fastest dedicated host (1000 work-units/s),
//!   18000 s cap, 2.2 MB model-memory budget;
//! * GridSAT: 34-host shared GrADS testbed, share limit 10, split
//!   time-out 100 s, 6000 s cap for the solvable category and 12000 s for
//!   the challenge categories — all per the paper's Section 4.
//!
//! Usage: `cargo run --release -p gridsat-bench --bin table1 [filter] [--trace FILE]`
//! Writes `table1.csv` next to the printed table. With `--trace FILE`,
//! every GridSAT run is captured as a JSONL event stream (concatenated
//! into FILE) that `grid_report` folds into per-client utilization —
//! best combined with a filter selecting a single instance.

use gridsat::{experiment, GridConfig, GridOutcome};
use gridsat_bench::{work_to_seconds, ZCHAFF_MEM_BUDGET, ZCHAFF_WORK_CAP};
use gridsat_grid::Testbed;
use gridsat_obs::Obs;
use gridsat_satgen::suite::{self, Section, Status};
use gridsat_solver::{driver, Outcome, SolverConfig};
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let mut filter = String::new();
    let mut trace_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace" {
            trace_path = Some(args.next().expect("--trace needs a file path"));
        } else {
            filter = a;
        }
    }
    let mut trace = String::new();
    let mut csv = String::from(
        "instance,status,section,zchaff_outcome,zchaff_s,gridsat_outcome,gridsat_s,speedup,max_clients,splits\n",
    );
    println!(
        "{:<32} {:>8} {:>10} {:>10} {:>9} {:>8}",
        "File name", "Status", "zChaff", "GridSAT", "Speed-Up", "Max cl."
    );
    let mut section = None;
    let wall = Instant::now();
    for spec in suite::table1_suite() {
        if !spec.paper_name.contains(&filter) {
            continue;
        }
        if section != Some(spec.section) {
            section = Some(spec.section);
            let title = match spec.section {
                Section::SolvedByBoth => "Problems solved by zChaff and GridSAT",
                Section::GridOnly => "Problems solved by GridSAT only",
                Section::Unsolved => "Remaining problems",
            };
            println!("---- {title} ----");
        }
        let f = spec.formula();

        // zChaff on the fastest dedicated machine
        let seq = driver::solve(
            &f,
            SolverConfig::sequential_baseline(ZCHAFF_MEM_BUDGET),
            driver::Limits::with_max_work(ZCHAFF_WORK_CAP),
        );
        let zchaff_cell = match &seq.outcome {
            Outcome::Sat(_) | Outcome::Unsat => format!("{:.0}", work_to_seconds(seq.stats.work)),
            other => other.table_cell(),
        };

        // GridSAT on the GrADS testbed
        let config = match spec.section {
            Section::SolvedByBoth => GridConfig::experiment1(),
            _ => GridConfig::experiment1_challenge(),
        };
        let grid = if trace_path.is_some() {
            let (obs, ring) = Obs::ring(1 << 20);
            let cap = config.overall_timeout;
            let mut sim = experiment::build_sim_obs(&f, Testbed::grads(), config, obs);
            sim.run_until(cap + 60.0);
            let ring = ring.lock().unwrap();
            if ring.evicted() > 0 {
                eprintln!(
                    "{}: trace ring full, {} oldest events dropped",
                    spec.paper_name,
                    ring.evicted()
                );
            }
            trace.push_str(&ring.to_jsonl());
            experiment::report(&sim, cap)
        } else {
            experiment::run(&f, Testbed::grads(), config)
        };

        let speedup = match (&seq.outcome, &grid.outcome) {
            (Outcome::Sat(_) | Outcome::Unsat, GridOutcome::Sat(_) | GridOutcome::Unsat) => {
                format!("{:.2}", work_to_seconds(seq.stats.work) / grid.seconds)
            }
            _ => "-".into(),
        };
        let status = match spec.status {
            Status::Unknown => "(*)".to_string(),
            s => s.to_string(),
        };
        println!(
            "{:<32} {:>8} {:>10} {:>10} {:>9} {:>8}",
            spec.paper_name,
            status,
            zchaff_cell,
            grid.table_cell(),
            speedup,
            grid.master.max_active_clients
        );
        let _ = writeln!(
            csv,
            "{},{},{:?},{},{:.0},{},{:.0},{},{},{}",
            spec.paper_name,
            spec.status,
            spec.section,
            seq.outcome.table_cell(),
            work_to_seconds(seq.stats.work),
            grid.outcome.table_cell(),
            grid.seconds,
            speedup,
            grid.master.max_active_clients,
            grid.master.splits,
        );

        // consistency guards: decided answers must match ground truth
        match (&seq.outcome, spec.status) {
            (Outcome::Sat(_), Status::Unsat) | (Outcome::Unsat, Status::Sat) => {
                panic!("{}: sequential answer contradicts suite", spec.paper_name)
            }
            _ => {}
        }
        match (&grid.outcome, spec.status) {
            (GridOutcome::Sat(_), Status::Unsat) | (GridOutcome::Unsat, Status::Sat) => {
                panic!("{}: grid answer contradicts suite", spec.paper_name)
            }
            _ => {}
        }
    }
    std::fs::write("table1.csv", csv).expect("write table1.csv");
    if let Some(path) = trace_path {
        std::fs::write(&path, trace).expect("write trace");
        eprintln!("event trace written to {path} (fold with the grid_report binary)");
    }
    eprintln!(
        "table1.csv written; wall time {:.0} s",
        wall.elapsed().as_secs_f64()
    );
}

//! Regenerates the paper's **Table 2**: the hard instances re-run on the
//! second testbed (27 better-provisioned hosts, share limit 3) with a
//! 100-node Blue Horizon batch job that joins after its ~33-hour queue
//! wait and runs for a 12-hour window.
//!
//! Also reproduces the paper's Blue Horizon accounting for `par32-1-c`:
//! the BH-only rerun and the processor-hours-saved arithmetic
//! ("(12 - 8) hours x 8 cpus/node x 100 nodes = 3200 processor hours").
//!
//! Usage: `cargo run --release -p gridsat-bench --bin table2 [--quick]`
//! `--quick` scales the windows down 8x for a fast smoke run, whose table
//! is only printed: `table2.csv` holds full runs alone.

use gridsat::{experiment, GridConfig, GridOutcome};
use gridsat_grid::Testbed;
use gridsat_satgen::suite::{self, Status};
use std::fmt::Write as _;
use std::time::Instant;

/// Blue Horizon parameters (paper Section 4): ~33 h average queue wait,
/// 12 h window, 100 nodes x 8 CPUs. We model each node as one client;
/// the 8 CPUs/node enter the processor-hour arithmetic only.
const BH_WAIT_S: f64 = 33.0 * 3600.0;
const BH_WINDOW_S: f64 = 12.0 * 3600.0;
const BH_NODES: usize = 100;
const BH_CPUS_PER_NODE: usize = 8;

fn fmt_hms(seconds: f64) -> String {
    format!("{:.1}hrs", seconds / 3600.0)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 0.125 } else { 1.0 };
    let wait = BH_WAIT_S * scale;
    let window = BH_WINDOW_S * scale;
    let cap = wait + window;

    let mut csv = String::from("instance,status,outcome,seconds,bh_used,max_clients\n");
    println!("{:<32} {:>8} {:>24}", "File name", "Status", "GridSAT(sec)");
    let wall = Instant::now();
    let mut par32_after_bh: Option<f64> = None;

    for spec in suite::table2_suite() {
        let f = spec.formula();
        let testbed = Testbed::set2().with_blue_horizon(BH_NODES, wait, window);
        let config = GridConfig::experiment2(cap);
        let r = experiment::run(&f, testbed, config);

        let bh_used = r.seconds > wait && !matches!(r.outcome, GridOutcome::TimeOut);
        // batch-window expiry with busy batch clients terminates the whole
        // run in the paper; both that and the overall cap print as X
        let cell = match &r.outcome {
            GridOutcome::Sat(_) | GridOutcome::Unsat => {
                if bh_used {
                    // the paper prints "33hrs+(8hrs on BH)"
                    format!("{}+({} on BH)", fmt_hms(wait), fmt_hms(r.seconds - wait))
                } else {
                    format!("{:.0}", r.seconds)
                }
            }
            _ => "X".into(),
        };
        let status = match spec.status {
            Status::Unknown => "(*)".to_string(),
            s => s.to_string(),
        };
        println!("{:<32} {:>8} {:>24}", spec.paper_name, status, cell);
        let _ = writeln!(
            csv,
            "{},{},{},{:.0},{},{}",
            spec.paper_name,
            spec.status,
            r.outcome.table_cell(),
            r.seconds,
            bh_used,
            r.master.max_active_clients
        );
        if spec.paper_name == "par32-1-c.cnf" && bh_used {
            par32_after_bh = Some(r.seconds - wait);
        }
    }

    // ---- Blue Horizon savings analysis for par32-1-c (paper Section 4.1)
    if let Some(bh_time) = par32_after_bh {
        println!("\n--- par32-1-c Blue Horizon accounting ---");
        println!(
            "with interactive grid: solved {} after BH start ({} total)",
            fmt_hms(bh_time),
            fmt_hms(wait + bh_time),
        );
        // re-launch on Blue Horizon alone (after another queue wait)
        let f = suite::table2_suite()
            .into_iter()
            .find(|s| s.paper_name == "par32-1-c.cnf")
            .unwrap()
            .formula();
        let mut bh_only = Testbed::set2();
        bh_only.hosts.truncate(1); // master only
        let bh_only = bh_only.with_blue_horizon(BH_NODES, wait, window);
        let r = experiment::run(&f, bh_only, GridConfig::experiment2(cap));
        let bh_alone = match &r.outcome {
            GridOutcome::Sat(_) => r.seconds - wait,
            _ => window, // did not finish inside the window
        };
        println!(
            "Blue Horizon alone: {} of batch time{}",
            fmt_hms(bh_alone),
            if matches!(r.outcome, GridOutcome::Sat(_)) {
                ""
            } else {
                " (not solved in window)"
            },
        );
        let saved_hours = (bh_alone - bh_time) / 3600.0 * (BH_CPUS_PER_NODE * BH_NODES) as f64;
        println!(
            "non-dedicated Grid saved ({:.1} - {:.1})(hours) * {}(cpus/node) * {}(nodes) = {:.0} processor hours",
            bh_alone / 3600.0,
            bh_time / 3600.0,
            BH_CPUS_PER_NODE,
            BH_NODES,
            saved_hours
        );
        println!(
            "time to solution shortened by {:.1} hours",
            (bh_alone - bh_time) / 3600.0
        );
        let _ = writeln!(
            csv,
            "par32-bh-alone,SAT,{},{:.0},true,",
            r.outcome.table_cell(),
            r.seconds
        );
    }

    let written = if quick {
        "--quick scaled the windows down: table2.csv not written"
    } else {
        std::fs::write("table2.csv", csv).expect("write table2.csv");
        "table2.csv written"
    };
    eprintln!("{written}; wall {:.0} s", wall.elapsed().as_secs_f64());
}

//! Real parallelism: the same GridSAT master/client processes running on
//! OS threads with `std::sync::mpsc` channels — no simulation, real
//! wall-clock speedup on a multicore machine.
//!
//!     cargo run --release -p gridsat-examples --bin threads_parallel

use gridsat::{Client, GridConfig, GridNode, Master};
use gridsat_grid::{NodeId, Site, ThreadGrid};
use gridsat_satgen as satgen;
use gridsat_solver::{driver, SolverConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn main() {
    let formula = satgen::random_ksat::random_ksat(200, 920, 3, 1);
    println!(
        "instance: {} ({} vars, {} clauses)",
        formula.name().unwrap_or("?"),
        formula.num_vars(),
        formula.num_clauses()
    );

    // sequential wall time
    let t0 = Instant::now();
    let seq = driver::solve(&formula, SolverConfig::default(), driver::Limits::default());
    let seq_wall = t0.elapsed();
    println!(
        "sequential: {} in {:.2?}",
        seq.outcome.table_cell(),
        seq_wall
    );

    // threaded GridSAT: node 0 is the master, workers solve
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).clamp(2, 12))
        .unwrap_or(4);
    println!("threads:    spawning 1 master + {workers} worker threads");

    let config = GridConfig {
        // thread-backend clocks are wall seconds and NodeInfo.speed is 1,
        // so work_quantum_s is directly the work units per tick
        min_split_timeout: 0.05,
        work_quantum_s: 30_000.0,
        load_report_period: 1.0,
        master_period: 0.02,
        migration: false, // real hardware is homogeneous here
        ..GridConfig::default()
    };
    let host_info: BTreeMap<NodeId, (f64, Site)> = (0..=workers as u32)
        .map(|i| (NodeId(i), (1.0, Site::Ucsd)))
        .collect();
    let f2 = formula.clone();
    let t0 = Instant::now();
    let grid = ThreadGrid::spawn(workers + 1, 3 << 20, move |id| {
        if id == NodeId(0) {
            GridNode::Master(Box::new(Master::new(
                f2.clone(),
                config.clone(),
                host_info.clone(),
            )))
        } else {
            GridNode::Client(Box::new(Client::new(NodeId(0), config.clone())))
        }
    });
    let nodes = grid.join(Duration::from_secs(120));
    let par_wall = t0.elapsed();

    let GridNode::Master(master) = &nodes[0] else {
        panic!("node 0 is the master")
    };
    let outcome = master.outcome().expect("finished within the timeout");
    println!(
        "threaded:   {} in {:.2?} ({} splits, max {} active clients)",
        outcome.table_cell(),
        par_wall,
        master.stats.splits,
        master.stats.max_active_clients
    );
    println!(
        "wall-clock speedup: {:.2}x on {} worker threads",
        seq_wall.as_secs_f64() / par_wall.as_secs_f64(),
        workers
    );
    if std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        <= 2
    {
        println!("(few cores available: expect overhead, not speedup, on this machine)");
    }
}

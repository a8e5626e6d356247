//! Drives the real executable through `all --smoke`: every workload at
//! toy size, untraced and traced, one pass each.

use std::process::Command;
use std::time::Instant;

/// The value on the `name value unit` line of one workload's section of
/// the printed report (`trace` 0: end to end, 1: per layer).
fn metric(stdout: &str, workload: &str, trace: u8, name: &str) -> f64 {
    let header = format!("workload {workload} seed 5 trace {trace}:");
    let section = stdout
        .split("\nworkload ")
        .map(|s| format!("workload {}", s.trim_start_matches("workload ")))
        .find(|s| s.starts_with(&header))
        .unwrap_or_else(|| panic!("no section {header}"));
    section
        .lines()
        .find_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some(name)).then(|| words.next().unwrap().parse().unwrap())
        })
        .unwrap_or_else(|| panic!("{header} lacks {name}"))
}

#[test]
fn smoke_profile_runs_every_workload_and_stresses_what_it_says() {
    let exe = env!("CARGO_BIN_EXE_gridsat-benchmark");
    let start = Instant::now();
    let output = Command::new(exe)
        .args(["all", "--smoke", "--seconds", "0", "--seed", "5"])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "all --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // the budget is for an optimised build; this one may not be
    assert!(start.elapsed().as_secs() < 120, "{:?}", start.elapsed());
    for workload in ["seq_suite", "grid_table1", "scale400_flat", "scale400_hier"] {
        assert!(stdout.contains(&format!("workload {workload} seed 5 trace 0")));
        assert!(stdout.contains(&format!("workload {workload} seed 5 trace 1")));
    }
    assert!(!stdout.contains("FAILED"));

    let dir = std::path::Path::new(exe)
        .parent()
        .unwrap()
        .parent()
        .unwrap();
    let results = std::fs::read_to_string(dir.join("benchmark/results.json")).unwrap();
    for workload in ["seq_suite", "grid_table1", "scale400_flat", "scale400_hier"] {
        assert!(results.contains(&format!("\"{workload}\": {{")));
    }
    assert!(results.contains("\"host_wall_s\"") && results.contains("\"journal.len\""));
    let trace = std::fs::read_to_string(dir.join("benchmark/trace.jsonl")).unwrap();
    assert!(trace.lines().any(|l| l.contains("\"name\":\"run.sim\"")));
    assert!(trace
        .lines()
        .any(|l| l.contains("\"name\":\"replay.solver\"")));

    // the sequential workload leaves engine and wire idle
    assert_eq!(metric(&stdout, "seq_suite", 1, "engine.events"), 0.0);
    assert_eq!(metric(&stdout, "seq_suite", 1, "wire.bytes_total"), 0.0);
    assert!(metric(&stdout, "seq_suite", 1, "solver.work_total") > 0.0);
    // the grid workloads move bytes, and only the hierarchy steals
    for workload in ["grid_table1", "scale400_flat", "scale400_hier"] {
        assert!(metric(&stdout, workload, 1, "wire.bytes_subproblem") > 0.0);
        assert!(metric(&stdout, workload, 1, "journal.len") > 0.0);
        assert!(metric(&stdout, workload, 0, "sim_answer_s") > 0.0);
        assert!(metric(&stdout, workload, 0, "peak_rss_mb") > 0.0);
    }
    assert_eq!(
        metric(&stdout, "scale400_flat", 1, "submaster.tickets"),
        0.0
    );
    assert!(metric(&stdout, "scale400_hier", 1, "submaster.steals_settled") > 0.0);
    assert!(metric(&stdout, "grid_table1", 1, "critpath.solve_s") > 0.0);
}

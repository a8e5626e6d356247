//! Fold a causal JSONL event trace into the full observability report:
//! per-client busy timeline, utilization summary, critical-path
//! breakdown (solve / wire / master-queue / retransmit), and anomaly
//! flags.
//!
//! Capture a trace with the `--trace` flag of the `table1` or `fig1`
//! binaries (or via `gridsat::experiment::build_sim_obs` plus
//! [`gridsat_obs::Obs::causal_ring`] in code), then fold it here — or
//! skip the file and run the built-in seeded simulation:
//!
//! Usage:
//!   grid_report <trace.jsonl> [--json] [--check]
//!   grid_report --sim [--clients N] [--json] [--check]
//!
//! `--sim` runs PHP(9,8) over a uniform testbed (13 nodes by default)
//! with a causal ring installed and reports on the captured trace plus
//! the master's control-plane telemetry, the worst step-budget overrun
//! any client saw and what the share rounds and fixed-size inboxes
//! dropped. `--check` exits nonzero when
//! an anomaly fires, the critical path is missing or does not end at
//! the answer, the path's segments fail to cover its span, or (`--sim`)
//! one foreign-clause merge charged more than a quantum plus the longest
//! shareable clause — the CI smoke mode.

use gridsat::client::ClientStats;
use gridsat::{experiment, GridConfig, GridOutcome, LatencySummary, MasterTelemetry};
use gridsat_bench::{merge_burst_bound, REFERENCE_SPEED};
use gridsat_grid::Testbed;
use gridsat_obs::{analyze, from_jsonl, Obs, TimedEvent, TraceAnalysis};
use std::fmt::Write as _;
use std::process::exit;

struct Args {
    trace: Option<String>,
    sim: bool,
    clients: usize,
    json: bool,
    check: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        trace: None,
        sim: false,
        clients: 13,
        json: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sim" => args.sim = true,
            "--json" => args.json = true,
            "--check" => args.check = true,
            "--clients" => {
                let n = it.next().and_then(|v| v.parse().ok());
                let Some(n) = n else {
                    eprintln!("grid_report: --clients needs a positive integer");
                    exit(2);
                };
                args.clients = n;
            }
            "--help" | "-h" => {
                eprintln!("usage: grid_report <trace.jsonl> [--json] [--check]");
                eprintln!("       grid_report --sim [--clients N] [--json] [--check]");
                exit(2);
            }
            other if !other.starts_with('-') && args.trace.is_none() => {
                args.trace = Some(other.to_string());
            }
            other => {
                eprintln!("grid_report: unknown argument {other:?}");
                exit(2);
            }
        }
    }
    if args.sim == args.trace.is_some() {
        eprintln!("grid_report: pass exactly one of <trace.jsonl> or --sim");
        exit(2);
    }
    args
}

fn load_trace(path: &str) -> Vec<TimedEvent> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("grid_report: {path}: {e}");
            exit(1);
        }
    };
    match from_jsonl(&text) {
        Ok(events) => events,
        Err((line, e)) => {
            eprintln!("grid_report: {path}:{line}: {e}");
            exit(1);
        }
    }
}

/// The seeded smoke simulation: PHP(9,8) over a uniform testbed with
/// splits forced early so the run actually fans out. Deterministic.
/// Also returns what one foreign-clause merge may charge under the
/// run's sharing rounds ([`merge_burst_bound`]).
fn run_sim(clients: usize) -> (Vec<TimedEvent>, experiment::GridReport, Option<u64>) {
    let formula = gridsat_satgen::php::php(9, 8);
    let config = GridConfig {
        min_split_timeout: 0.5,
        work_quantum_s: 0.25,
        ..GridConfig::default()
    };
    let merge_bound = merge_burst_bound(&config, REFERENCE_SPEED);
    let cap = config.overall_timeout;
    let (obs, ring) = Obs::causal_ring(1 << 20);
    let mut sim = experiment::build_sim_obs(
        &formula,
        Testbed::uniform(clients, REFERENCE_SPEED, 3 << 20),
        config,
        obs,
    );
    sim.run_until(cap + 60.0);
    let report = experiment::report(&sim, cap);
    let ring = ring.lock().unwrap();
    if ring.evicted() > 0 {
        eprintln!(
            "grid_report: trace ring full, {} oldest events dropped",
            ring.evicted()
        );
    }
    (ring.events(), report, merge_bound)
}

fn outcome_str(outcome: &GridOutcome) -> String {
    match outcome {
        GridOutcome::Sat(_) => "sat".into(),
        GridOutcome::Unsat => "unsat".into(),
        other => other.table_cell(),
    }
}

fn render_latency(out: &mut String, label: &str, s: &LatencySummary) {
    let _ = writeln!(
        out,
        "  {label:<14} n={:<6} p50={:.6}s p90={:.6}s p99={:.6}s mean={:.6}s",
        s.count, s.p50_s, s.p90_s, s.p99_s, s.mean_s
    );
}

/// Control-plane section of the sim-mode text report.
fn render_control_plane(t: &MasterTelemetry) -> String {
    let mut out = String::from("control plane:\n");
    let _ = writeln!(
        out,
        "  queue depth    max={} mean={:.2} (samples={})",
        t.queue_depth_max,
        t.mean_queue_depth(),
        t.queue_samples()
    );
    render_latency(&mut out, "split wait", &t.split_wait_summary());
    for (kind, s) in t.service_summaries() {
        render_latency(&mut out, &format!("svc {kind}"), &s);
    }
    out
}

/// Step-budget section of the sim-mode text report: how far one solver
/// step, and one foreign-clause merge inside it, ran past the quantum,
/// and what the bounds that keep the merge short cost — clauses evicted
/// from a full inbox, clauses a round's batch had no room for.
fn render_step_overrun(c: &ClientStats, merge_bound: Option<u64>) -> String {
    let bound = merge_bound.map_or(String::new(), |b| {
        format!(" (bound {b}: quantum + longest shareable clause)")
    });
    format!(
        "solver steps (work units, worst client):\n  \
         max step work   {}\n  \
         max merge burst {}{bound}\n  \
         inbox peak      {} literals, {} clauses evicted unmerged\n  \
         share rounds    {} flushed, {} clauses dropped at the source\n",
        c.max_step_work,
        c.max_merge_burst,
        c.peak_inbox_lits,
        c.merge_dropped,
        c.share_rounds,
        c.share_export_dropped
    )
}

fn latency_json(s: &LatencySummary) -> String {
    format!(
        "{{\"count\":{},\"p50_s\":{:.9},\"p90_s\":{:.9},\"p99_s\":{:.9},\"mean_s\":{:.9}}}",
        s.count, s.p50_s, s.p90_s, s.p99_s, s.mean_s
    )
}

fn control_plane_json(t: &MasterTelemetry) -> String {
    let mut out = format!(
        "{{\"queue_depth_max\":{},\"queue_depth_mean\":{:.6},\"queue_samples\":{},\"split_wait\":{}",
        t.queue_depth_max,
        t.mean_queue_depth(),
        t.queue_samples(),
        latency_json(&t.split_wait_summary())
    );
    out.push_str(",\"service\":{");
    for (i, (kind, s)) in t.service_summaries().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{kind:?}:{}", latency_json(s));
    }
    out.push_str("}}");
    out
}

/// `--check`: every condition the CI smoke run demands of a healthy
/// causal trace. Returns the failures (empty = pass).
fn check_failures(analysis: &TraceAnalysis) -> Vec<String> {
    let mut fails = Vec::new();
    for a in &analysis.anomalies {
        fails.push(format!("anomaly [{}] {}", a.code, a.detail));
    }
    match &analysis.critical {
        None => fails.push("no critical path (trace lacks causal stamps or an answer)".into()),
        Some(cp) => {
            let total = cp.total_s();
            let covered: f64 = cp.segments.iter().map(|s| s.duration_s()).sum();
            if total > 0.0 && ((covered - total).abs() / total) > 0.01 {
                fails.push(format!(
                    "critical-path segments cover {covered:.3}s of {total:.3}s span (>1% gap)"
                ));
            }
        }
    }
    fails
}

fn main() {
    let args = parse_args();
    let (events, report) = if args.sim {
        let (events, report, merge_bound) = run_sim(args.clients);
        (events, Some((report, merge_bound)))
    } else {
        (load_trace(args.trace.as_deref().unwrap()), None)
    };
    let analysis = analyze(&events);

    if args.json {
        let mut out = analysis.render_json();
        if let Some((r, merge_bound)) = &report {
            // splice run metadata + control-plane telemetry into the
            // analysis object rather than nesting a second document
            out.truncate(out.len() - 1);
            let c = &r.clients;
            let _ = write!(
                out,
                ",\"events\":{},\"outcome\":{:?},\"run_seconds\":{:.3},\"control_plane\":{},\
                 \"max_step_work\":{},\"max_merge_burst\":{},\"merge_burst_bound\":{},\
                 \"peak_inbox_lits\":{},\"merge_dropped\":{},\
                 \"share_rounds\":{},\"share_export_dropped\":{}}}",
                events.len(),
                outcome_str(&r.outcome),
                r.seconds,
                control_plane_json(&r.telemetry),
                c.max_step_work,
                c.max_merge_burst,
                merge_bound.map_or("null".into(), |b| b.to_string()),
                c.peak_inbox_lits,
                c.merge_dropped,
                c.share_rounds,
                c.share_export_dropped
            );
        }
        println!("{out}");
    } else {
        if let Some((r, _)) = &report {
            println!(
                "{} events; outcome {} in {:.1}s simulated\n",
                events.len(),
                outcome_str(&r.outcome),
                r.seconds
            );
        } else {
            println!("{} events\n", events.len());
        }
        print!("{}", analysis.render_text());
        if let Some((r, merge_bound)) = &report {
            println!();
            print!("{}", render_control_plane(&r.telemetry));
            println!();
            print!("{}", render_step_overrun(&r.clients, *merge_bound));
        }
    }

    if args.check {
        let mut fails = check_failures(&analysis);
        if let Some((r, Some(merge_bound))) = &report {
            let burst = r.clients.max_merge_burst;
            if burst > *merge_bound {
                fails.push(format!(
                    "one merge charged {burst} work units, over the {merge_bound} a slice may"
                ));
            }
        }
        if !fails.is_empty() {
            for f in &fails {
                eprintln!("grid_report: check failed: {f}");
            }
            exit(3);
        }
        eprintln!("grid_report: check passed");
    }
}

//! One workload, measured in this process: the untraced passes that give
//! the end-to-end numbers, or the traced passes and replays that give the
//! per-layer numbers.

use crate::catalog::{
    Workload, END_TO_END, HOST_WALL_S, PEAK_RSS_MB, PER_LAYER, SETUP_S, SIM_ANSWER_S,
};
use crate::layers::{self, Group, SolverWire, ThreadsReplay};
use crate::run::{run_pass, Pass, Tracing};
use crate::spans::{self, Recorder};
use crate::stats::{ratio, summarize, Summary};
use crate::workloads::{case_list, CaseList, Plan, Profile};
use gridsat_satgen::suite::Status;
use std::time::{Duration, Instant};

/// What one run of one workload found.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Failed operations and broken determinism, one line each.
    pub problems: Vec<String>,
    /// Metric values in catalog order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Median, extremes and count behind each timing.
    pub timings: Vec<(&'static str, Summary)>,
    /// Benchmark-owned spans as JSON lines (traced runs only).
    pub trace_jsonl: String,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

fn note_failures(passes: &[Pass], problems: &mut Vec<String>) -> (usize, usize) {
    let mut attempted = 0;
    let mut failed = 0;
    for pass in passes {
        attempted += pass.runs.len();
        failed += pass.failed();
        for run in &pass.runs {
            if let Some(why) = &run.failure {
                problems.push(format!("{}: {why}", run.name));
            }
        }
    }
    (attempted, failed)
}

/// Simulated numbers must not depend on which pass produced them.
fn note_nondeterminism(passes: &[&Pass], problems: &mut Vec<String>) {
    let Some(first) = passes.first() else { return };
    for pass in &passes[1..] {
        let same = pass.sim_s().to_bits() == first.sim_s().to_bits()
            && pass.acc.events == first.acc.events
            && pass.acc.messages == first.acc.messages
            && pass.acc.solver.work == first.acc.solver.work
            && pass.acc.clients.work == first.acc.clients.work;
        if !same {
            problems.push(format!(
                "simulated numbers differ between passes: {} s / {} events vs {} s / {} events",
                first.sim_s(),
                first.acc.events,
                pass.sim_s(),
                pass.acc.events
            ));
        }
    }
}

/// `VmHWM` of this process in MB (Linux; 0 where `/proc` is missing).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Untraced passes over the cases until `seconds` have gone by (always at
/// least one), then the four end-to-end metrics.
pub fn end_to_end(workload: Workload, seed: u64, seconds: u64, profile: Profile) -> Outcome {
    let list = case_list(workload, seed, profile);
    let mut rec = Recorder::new(false);
    let mut passes = Vec::new();
    let start = Instant::now();
    loop {
        passes.push(run_pass(&list, Tracing::Off, &mut rec));
        if start.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
    }
    let mut problems = Vec::new();
    let (attempted, failed) = note_failures(&passes, &mut problems);
    note_nondeterminism(&passes.iter().collect::<Vec<_>>(), &mut problems);

    let host = summarize(&passes.iter().map(Pass::run_s).collect::<Vec<_>>());
    let setup = summarize(&passes.iter().map(Pass::setup_s).collect::<Vec<_>>());
    let value = |name: &str| match name {
        SIM_ANSWER_S => passes[0].sim_s(),
        HOST_WALL_S => host.median,
        SETUP_S => setup.median,
        PEAK_RSS_MB => peak_rss_mb(),
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    Outcome {
        attempted,
        failed,
        problems,
        metrics: END_TO_END.iter().map(|m| (m.name, value(m.name))).collect(),
        timings: vec![(HOST_WALL_S, host), (SETUP_S, setup)],
        trace_jsonl: String::new(),
    }
}

/// Passes per tracing mode in a traced run: enough for a median.
const TRACED_PASSES: usize = 3;

fn passes_of(list: &CaseList, tracing: Tracing, n: usize, rec: &mut Recorder) -> Vec<Pass> {
    (0..n).map(|_| run_pass(list, tracing, rec)).collect()
}

fn median_run_s(passes: &[Pass]) -> f64 {
    summarize(&passes.iter().map(Pass::run_s).collect::<Vec<_>>()).median
}

/// `traced / untraced - 1`, or 0 when either side did not run.
fn overhead_frac(traced: &[Pass], untraced: &[Pass]) -> f64 {
    if traced.is_empty() || untraced.is_empty() {
        return 0.0;
    }
    ratio(median_run_s(traced), median_run_s(untraced)) - 1.0
}

/// The traced run: untraced passes as the base, passes with the engine's
/// message trace and with an `Obs` ring, then the replay harnesses.
pub fn per_layer(workload: Workload, seed: u64, profile: Profile) -> Outcome {
    let full = profile == Profile::Full;
    let n = if full { TRACED_PASSES } else { 1 };
    let list = case_list(workload, seed, profile);
    let grid = workload != Workload::SeqSuite;
    let mut rec = Recorder::new(true);
    let mut problems = Vec::new();

    let off = passes_of(&list, Tracing::Off, n, &mut rec);
    let engine = if grid {
        passes_of(&list, Tracing::Engine, n, &mut rec)
    } else {
        Vec::new()
    };
    // the causal ring cannot hold a 400-client run
    let ring = if matches!(workload, Workload::SeqSuite | Workload::GridTable1) {
        passes_of(&list, Tracing::Ring, n, &mut rec)
    } else {
        Vec::new()
    };

    let probe = (list.cases[list.probe].build)();
    let (splits, slice_work) = if full { (200, 200_000) } else { (20, 50_000) };
    let solver_wire = layers::replay_solver_wire(&probe, splits, slice_work, &mut rec)
        .unwrap_or_else(|e| {
            problems.push(format!("replay on {}: {e}", list.cases[list.probe].name));
            SolverWire::default()
        });

    // the engine alone, on the testbed of the workload's first case
    let null_events_per_s = match &list.cases[0].plan {
        Plan::Grid { testbed, .. } => {
            let messages = if full { 1_000_000 } else { 50_000 };
            rec.scope("replay.engine", &list.cases[0].name, |_| {
                layers::null_engine_events_per_s(testbed, messages)
            })
            .0
        }
        _ => 0.0,
    };

    let threads = if workload == Workload::SeqSuite {
        // two UNSAT rows long enough to outlast thread start-up
        let rows: &[&str] = if full {
            &["homer12", "rand_net50-60-5"]
        } else {
            &["homer11"]
        };
        let formulas: Vec<_> = list
            .cases
            .iter()
            .filter(|c| rows.contains(&c.name.as_str()))
            .map(|c| ((c.build)(), c.expect))
            .collect();
        debug_assert!(formulas.iter().all(|(_, e)| *e == Status::Unsat));
        let reps = if full { 5 } else { 1 };
        layers::replay_threads(&formulas, reps, &mut rec).unwrap_or_else(|e| {
            problems.push(format!("thread backend: {e}"));
            ThreadsReplay::default()
        })
    } else {
        ThreadsReplay::default()
    };

    // search overhead of splitting: the same formulas on the sequential core
    let sequential_work: u64 = if workload == Workload::GridTable1 {
        rec.scope("replay.sequential", "all", |_| {
            list.cases
                .iter()
                .map(|c| layers::sequential_work(&(c.build)()))
                .sum()
        })
        .0
    } else {
        0
    };

    let all: Vec<&Pass> = off.iter().chain(&engine).chain(&ring).collect();
    note_nondeterminism(&all, &mut problems);
    let (mut attempted, mut failed) = (0, 0);
    for passes in [&off, &engine, &ring] {
        let (a, f) = note_failures(passes, &mut problems);
        attempted += a;
        failed += f;
    }

    let base = &off[0].acc;
    let traced = engine.first().map(|p| &p.acc);
    let wire = traced.map(|a| a.wire).unwrap_or_default();
    let journal = traced.map(|a| a.journal).unwrap_or_default();
    let critpath = if grid {
        ring.first().map(|p| p.acc.critpath).unwrap_or_default()
    } else {
        Default::default()
    };
    let split_wait = base.telemetry.split_wait_summary();
    let sw = &solver_wire;
    let wire_bytes_total: u64 = wire.bytes.iter().sum();
    let wire_msgs_total: u64 = wire.msgs.iter().sum();

    let value = |name: &str| -> f64 {
        match name {
            "solver.work_per_s" => sw.work_per_s,
            "solver.props_per_s" => sw.props_per_s,
            "solver.conflicts_per_s" => sw.conflicts_per_s,
            "solver.work_total" => base.solver.work as f64,
            "solver.conflicts_total" => base.solver.conflicts as f64,
            "solver.learned_total" => base.solver.learned as f64,
            "solver.deleted_total" => base.solver.deleted as f64,
            "solver.gc_runs" => base.solver.gc_runs as f64,
            "solver.peak_db_bytes" => base.solver.peak_db_bytes as f64,
            "solver.new_us" => sw.new_us,
            "solver.split_off_us" => sw.split_off_us,
            "solver.from_split_us" => sw.from_split_us,
            "solver.spec_clauses_median" => sw.spec_clauses_median,
            "wire.spec_seal_mb_s" => sw.spec_seal_mb_s,
            "wire.spec_open_mb_s" => sw.spec_open_mb_s,
            "wire.spec_bytes_median" => sw.spec_bytes_median,
            "wire.batch_encode_mb_s" => sw.batch_encode_mb_s,
            "wire.batch_decode_mb_s" => sw.batch_decode_mb_s,
            "wire.batch_bytes_per_clause" => sw.batch_bytes_per_clause,
            "wire.crc32_mb_s" => sw.crc32_mb_s,
            "wire.bytes_total" => wire_bytes_total as f64,
            "wire.bytes_subproblem" => wire.bytes_of(Group::Subproblem) as f64,
            "wire.bytes_share" => wire.bytes_of(Group::Share) as f64,
            "wire.bytes_checkpoint" => wire.bytes_of(Group::Checkpoint) as f64,
            "wire.bytes_roster" => wire.bytes_of(Group::Roster) as f64,
            "wire.bytes_control" => wire.bytes_of(Group::Control) as f64,
            "wire.msgs_total" => wire_msgs_total as f64,
            "wire.msgs_subproblem" => wire.msgs_of(Group::Subproblem) as f64,
            "wire.msgs_share" => wire.msgs_of(Group::Share) as f64,
            "wire.msgs_checkpoint" => wire.msgs_of(Group::Checkpoint) as f64,
            "wire.msgs_roster" => wire.msgs_of(Group::Roster) as f64,
            "wire.msgs_control" => wire.msgs_of(Group::Control) as f64,
            "engine.events" => base.events as f64,
            "engine.messages" => base.messages as f64,
            "engine.ticks" => base.ticks as f64,
            "engine.dropped" => base.dropped as f64,
            "engine.host_us_per_event" => ratio(median_run_s(&off) * 1e6, base.events as f64),
            "engine.null_events_per_s" => null_events_per_s,
            "engine.trace_overhead_frac" => overhead_frac(&engine, &off),
            "master.queue_depth_max" => base.telemetry.queue_depth_max as f64,
            "master.queue_depth_mean" => base.telemetry.mean_queue_depth(),
            "master.split_wait_p50_s" => split_wait.p50_s,
            "master.split_wait_p99_s" => split_wait.p99_s,
            "master.splits" => base.master.splits as f64,
            "master.backlogged" => base.master.backlogged as f64,
            "master.migrations" => base.master.migrations as f64,
            "master.max_active_clients" => base.master.max_active_clients as f64,
            "master.results" => base.master.results as f64,
            "submaster.tickets" => base.submasters.tickets as f64,
            "submaster.steals_settled" => base.master.steals_settled as f64,
            "submaster.steals_aborted" => base.master.steals_aborted as f64,
            "submaster.escalations" => base.submasters.escalations as f64,
            "submaster.steal_success_frac" => ratio(
                base.master.steals_settled as f64,
                base.submasters.tickets as f64,
            ),
            "client.work_total" => base.clients.work as f64,
            "client.work_vs_seq" => ratio(base.clients.work as f64, sequential_work as f64),
            "client.busy_frac" => ratio(base.clients.work as f64, base.client_capacity),
            "client.subproblems" => base.clients.subproblems as f64,
            "client.split_requests" => base.clients.split_requests as f64,
            "client.load_reports_sent" => base.clients.load_reports_sent as f64,
            "client.load_reports_suppressed" => base.clients.load_reports_suppressed as f64,
            "client.share_batches_sent" => base.clients.share_batches_sent as f64,
            "client.clauses_received" => base.clients.clauses_received as f64,
            "client.dup_share_drops" => base.clients.dup_share_drops as f64,
            "client.shares_forwarded" => base.clients.shares_forwarded as f64,
            "journal.len" => journal.len as f64,
            "journal.log_bytes" => journal.log_bytes as f64,
            "journal.append_records_per_s" => journal.append_records_per_s(),
            "journal.recover_records_per_s" => journal.recover_records_per_s(),
            "critpath.solve_s" => critpath.solve_s,
            "critpath.wire_s" => critpath.wire_s,
            "critpath.master_queue_s" => critpath.master_queue_s,
            "critpath.retransmit_s" => critpath.retransmit_s,
            "critpath.uncovered_cases" => critpath.uncovered_cases as f64,
            "obs.ring_overhead_frac" if grid => overhead_frac(&ring, &off),
            "obs.solver_ring_overhead_frac" if !grid => overhead_frac(&ring, &off),
            "obs.ring_overhead_frac" | "obs.solver_ring_overhead_frac" => 0.0,
            "threads.workers" => threads.workers as f64,
            "threads.wall_ratio_vs_seq" => threads.wall_ratio_vs_seq,
            other => unreachable!("per-layer metric {other} has no measurement"),
        }
    };
    let metrics = PER_LAYER.iter().map(|m| (m.name, value(m.name))).collect();
    Outcome {
        attempted,
        failed,
        problems,
        metrics,
        timings: vec![(
            HOST_WALL_S,
            summarize(&off.iter().map(Pass::run_s).collect::<Vec<_>>()),
        )],
        trace_jsonl: spans::to_jsonl(workload.name(), rec.spans()),
    }
}

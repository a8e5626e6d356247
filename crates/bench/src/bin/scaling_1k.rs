//! Control-plane scaling to 1000 clients: flat (every client talks to
//! the root master) vs hierarchical (per-site sub-masters broker split
//! traffic and steal tickets locally, the root pulling offers from
//! saturated sites for its idle clients). Hard UNSAT instances sized to
//! the fleet (weak scaling, so 1000 slow clients stay busy), swept over
//! testbed sizes; the headline number is the
//! root master's peak queue depth — backlogged split requests plus
//! recovered subproblems — which grows O(n) flat and stays O(sites)
//! hierarchical. Control-plane bytes (everything that is neither a
//! solver payload nor the roster broadcast), roster bytes, and the
//! load-report coalescing counters are read off the deterministic engine
//! trace and the client stats, for `BENCH_scale.json` at the repo root.
//! Each row also carries what a counting allocator saw while it ran —
//! peak live heap bytes and allocator calls — the numbers a memory claim
//! needs beside resident-set size, which the allocator's own caching and
//! the page granularity blur.
//!
//! Usage: cargo run --release -p gridsat-bench --bin scaling_1k \
//!            [--fast] [--check] [--out PATH]
//!
//! `--fast` sweeps n ∈ {12, 100} (the CI smoke profile); the default
//! adds n = 1000. `--check` exits nonzero unless every run reaches the
//! oracle answer (the instance family is UNSAT by construction), the
//! master's cube ledger stays silent, the hierarchical peak queue
//! depth honors its O(sites) bound, no foreign-clause merge charged
//! a client more than a quantum plus the longest shareable clause, and
//! every row matches its row in the checked-in `BENCH_scale.json`: each
//! simulated or counted column exactly, as written, and the peak live
//! heap within 5 % above it (the memory footprint's regression gate;
//! `wall_ms`, `alloc_calls` and `alloc_bytes_requested` are not held). The
//! ledger is read after the sweep and before `--out` writes, so `--check
//! --out BENCH_scale.json` holds the new rows to the old ones.

use gridsat::client::ClientStats;
use gridsat::{experiment, GridConfig, GridOutcome};
use gridsat_bench::merge_burst_bound;
use gridsat_grid::Testbed;
use gridsat_obs::json::{parse_object, JsonScalar};
use gridsat_satgen as satgen;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// The system allocator with four counters in front of it. Statistics
/// only, so every update is relaxed; the simulator is single-threaded.
struct Counting;

/// Bytes allocated and not yet freed.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Highest `LIVE_BYTES` since the last [`HeapMark::take`].
static PEAK_LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// `alloc`, `alloc_zeroed` and `realloc` calls.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes those calls asked for.
static BYTES_REQUESTED: AtomicU64 = AtomicU64::new(0);

fn count_alloc(freed: usize, size: usize) {
    ALLOC_CALLS.fetch_add(1, Relaxed);
    BYTES_REQUESTED.fetch_add(size as u64, Relaxed);
    LIVE_BYTES.fetch_sub(freed, Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Relaxed) + size;
    PEAK_LIVE_BYTES.fetch_max(live, Relaxed);
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count_alloc(0, layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count_alloc(0, layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count_alloc(layout.size(), new_size);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counters at the start of a measured section.
struct HeapMark {
    calls: u64,
    requested: u64,
}

impl HeapMark {
    /// Start a section: the peak restarts from what is live now.
    fn take() -> HeapMark {
        PEAK_LIVE_BYTES.store(LIVE_BYTES.load(Relaxed), Relaxed);
        HeapMark {
            calls: ALLOC_CALLS.load(Relaxed),
            requested: BYTES_REQUESTED.load(Relaxed),
        }
    }

    /// (peak live bytes, allocator calls, bytes requested) since `take`.
    fn since(&self) -> (u64, u64, u64) {
        (
            PEAK_LIVE_BYTES.load(Relaxed) as u64,
            ALLOC_CALLS.load(Relaxed) - self.calls,
            BYTES_REQUESTED.load(Relaxed) - self.requested,
        )
    }
}

/// What a traced message carries, as far as this bench's byte columns
/// are concerned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Traffic {
    /// Solver state on the move: subproblem specs, share batches,
    /// checkpoints and the journal records that replicate them.
    Payload,
    /// Membership on the wire (`peers`): the share-tree links the master
    /// sends to the few clients a join or a leave re-links. It was the
    /// whole client list to every client on every change, O(n) bytes to
    /// each of n, until PR 22.
    Roster,
    /// Everything else: registrations, split handshakes, results, load
    /// reports, heartbeats, steal tickets, acks, site status.
    Control,
}

/// Message kinds that carry solver payloads.
const PAYLOAD_KINDS: &[&str] = &[
    "subproblem",
    "solve",
    "requeue",
    "share",
    "checkpoint",
    "journal-batch",
];

/// Sort an engine-trace label (`GridMsg::label`, or the reliability
/// layer's `ack`). Labels carry a parenthesised detail — `subproblem(3)`,
/// `split-done(ok)`, `journal-batch(12)` — that is not part of the kind
/// and is stripped before matching. Same grouping as the repository
/// benchmark's `layers::classify`, with its three payload groups merged.
fn classify(label: &str) -> Traffic {
    let kind = label.split('(').next().unwrap_or(label);
    if PAYLOAD_KINDS.contains(&kind) {
        Traffic::Payload
    } else if kind == "peers" {
        Traffic::Roster
    } else {
        Traffic::Control
    }
}

/// Commodity-grid solver speed (work units per simulated second; the
/// root and brokers stay at 1000). Slow clients hold each cube longer,
/// so split demand outruns capacity at every sweep size and the bench
/// measures control-plane behavior in the saturated regime — the one
/// where the root's queue is the bottleneck.
const CLIENT_SPEED: f64 = 400.0;

/// The checked-in ledger `--check` holds each row to.
const LEDGER: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");

/// How far a row's peak live heap may rise above its checked-in row.
const HEAP_SLACK: f64 = 1.05;

/// The columns a rerun of the same tree may move: host time and what
/// the allocator saw. Every other column is simulated or counted, and a
/// row must write it exactly as its checked-in row does.
const HOST_COLUMNS: [&str; 4] = [
    "wall_ms",
    "peak_live_heap_bytes",
    "alloc_calls",
    "alloc_bytes_requested",
];

/// One row object of a ledger, keyed by column.
type Columns = BTreeMap<String, JsonScalar>;

/// A ledger's rows as `(n, mode, peak_live_heap_bytes, columns)`: every
/// line that holds one row object, the way [`json_row`] writes them. A
/// ledger without one is an error, not a gate that holds nothing.
fn ledger_rows(json: &str) -> Result<Vec<(usize, String, u64, Columns)>, String> {
    let rows: Vec<_> = json
        .lines()
        .map(|line| line.trim().trim_end_matches(','))
        .filter(|line| line.starts_with("{\"n\":"))
        .map(|line| {
            let row = parse_object(line).map_err(|e| format!("{e} in {line}"))?;
            let num = |k: &str| match row.get(k) {
                Some(JsonScalar::Num(x)) => Ok(*x),
                _ => Err(format!("no number {k:?} in {line}")),
            };
            let mode = match row.get("mode") {
                Some(JsonScalar::Str(mode)) => mode.clone(),
                _ => return Err(format!("no mode in {line}")),
            };
            let (n, heap) = (num("n")? as usize, num("peak_live_heap_bytes")? as u64);
            Ok((n, mode, heap, row))
        })
        .collect::<Result<_, String>>()?;
    if rows.is_empty() {
        return Err("no rows".into());
    }
    Ok(rows)
}

/// The columns outside [`HOST_COLUMNS`] whose written values differ
/// between a swept row and its checked-in row, one `name: old -> new`
/// each; a column only one side has differs too.
fn moved_columns(checked_in: &Columns, swept: &Columns) -> Vec<String> {
    let shown = |v: Option<&JsonScalar>| match v {
        Some(JsonScalar::Num(x)) => x.to_string(),
        Some(JsonScalar::Str(s)) => s.clone(),
        Some(other) => format!("{other:?}"),
        None => "missing".into(),
    };
    let names: BTreeSet<&String> = checked_in.keys().chain(swept.keys()).collect();
    names
        .into_iter()
        .filter(|name| !HOST_COLUMNS.contains(&name.as_str()))
        .filter(|name| checked_in.get(*name) != swept.get(*name))
        .map(|name| {
            format!(
                "{name}: {} -> {}",
                shown(checked_in.get(name)),
                shown(swept.get(name))
            )
        })
        .collect()
}

struct Row {
    n: usize,
    sites: usize,
    instance: String,
    mode: &'static str,
    outcome: &'static str,
    sim_s: f64,
    wall_ms: f64,
    peak_queue: u64,
    mean_queue: f64,
    messages: u64,
    wire_bytes: u64,
    control_bytes: u64,
    control_msgs: u64,
    roster_bytes: u64,
    load_reports_sent: u64,
    load_reports_suppressed: u64,
    splits: u64,
    steals_settled: u64,
    escalations: u64,
    tickets: u64,
    clients: ClientStats,
    /// What one foreign-clause merge may charge ([`merge_burst_bound`]).
    merge_bound: Option<u64>,
    peak_live_heap_bytes: u64,
    alloc_calls: u64,
    alloc_bytes_requested: u64,
}

fn config(hierarchical: bool) -> GridConfig {
    let base = GridConfig {
        // small quanta force real split pressure at every testbed size
        min_split_timeout: 0.5,
        work_quantum_s: 0.25,
        // report fast enough that the coalescing actually has traffic
        // to suppress within a run
        load_report_period: 5.0,
        ..GridConfig::default()
    };
    if hierarchical {
        base.hierarchical()
    } else {
        base
    }
}

fn run_one(f: &gridsat_cnf::Formula, n: usize, sites: usize, hierarchical: bool) -> Row {
    // building the fleet is part of the row: its windows, rosters and
    // solvers are the resident memory of a run
    let heap = HeapMark::take();
    let cfg = config(hierarchical);
    let cap = cfg.overall_timeout;
    let merge_bound = merge_burst_bound(&cfg, CLIENT_SPEED);
    let tb = Testbed::scaling(n, sites, hierarchical).with_client_speed(CLIENT_SPEED);
    let mut sim = experiment::build_sim(f, tb, cfg);
    sim.enable_trace();
    let wall = Instant::now();
    sim.run_until(cap + 60.0);
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let r = experiment::report(&sim, cap);
    let (peak_live_heap_bytes, alloc_calls, alloc_bytes_requested) = heap.since();
    let (mut control_bytes, mut control_msgs, mut roster_bytes) = (0u64, 0u64, 0u64);
    for ev in sim.trace_events() {
        match classify(&ev.label) {
            Traffic::Payload => {}
            Traffic::Roster => roster_bytes += ev.bytes as u64,
            Traffic::Control => {
                control_bytes += ev.bytes as u64;
                control_msgs += 1;
            }
        }
    }
    Row {
        n,
        sites,
        instance: f.name().unwrap_or("?").to_string(),
        mode: if hierarchical { "hierarchical" } else { "flat" },
        outcome: match r.outcome {
            GridOutcome::Sat(_) => "SAT",
            GridOutcome::Unsat => "UNSAT",
            _ => "OTHER",
        },
        sim_s: r.seconds,
        wall_ms,
        peak_queue: r.telemetry.queue_depth_max,
        mean_queue: r.telemetry.mean_queue_depth(),
        messages: r.sim.messages_delivered,
        wire_bytes: r.sim.bytes_delivered,
        control_bytes,
        control_msgs,
        roster_bytes,
        load_reports_sent: r.clients.load_reports_sent,
        load_reports_suppressed: r.clients.load_reports_suppressed,
        splits: r.master.splits,
        steals_settled: r.master.steals_settled,
        escalations: r.master.escalations,
        tickets: r.submasters.tickets,
        clients: r.clients,
        merge_bound,
        peak_live_heap_bytes,
        alloc_calls,
        alloc_bytes_requested,
    }
}

fn json_row(out: &mut String, row: &Row) {
    let _ = write!(
        out,
        concat!(
            "    {{\"n\":{},\"sites\":{},\"instance\":\"{}\",\"mode\":\"{}\",\"outcome\":\"{}\",",
            "\"sim_s\":{:.1},\"wall_ms\":{:.0},",
            "\"peak_queue\":{},\"mean_queue\":{:.2},",
            "\"messages\":{},\"wire_bytes\":{},",
            "\"control_bytes\":{},\"control_msgs\":{},\"roster_bytes\":{},",
            "\"load_reports_sent\":{},\"load_reports_suppressed\":{},",
            "\"splits\":{},\"steals_settled\":{},\"escalations\":{},\"tickets\":{},",
            "\"share_batches_sent\":{},\"clauses_received\":{},\"dup_share_drops\":{},",
            "\"share_export_dropped\":{},\"merge_dropped\":{},\"peak_inbox_lits\":{},",
            "\"max_step_work\":{},\"max_merge_burst\":{},",
            "\"peak_live_heap_bytes\":{},\"alloc_calls\":{},\"alloc_bytes_requested\":{}}}"
        ),
        row.n,
        row.sites,
        row.instance,
        row.mode,
        row.outcome,
        row.sim_s,
        row.wall_ms,
        row.peak_queue,
        row.mean_queue,
        row.messages,
        row.wire_bytes,
        row.control_bytes,
        row.control_msgs,
        row.roster_bytes,
        row.load_reports_sent,
        row.load_reports_suppressed,
        row.splits,
        row.steals_settled,
        row.escalations,
        row.tickets,
        row.clients.share_batches_sent,
        row.clients.clauses_received,
        row.clients.dup_share_drops,
        row.clients.share_export_dropped,
        row.clients.merge_dropped,
        row.clients.peak_inbox_lits,
        row.clients.max_step_work,
        row.clients.max_merge_burst,
        row.peak_live_heap_bytes,
        row.alloc_calls,
        row.alloc_bytes_requested,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let check = args.iter().any(|a| a == "--check");
    let out_path: Option<String> = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out PATH").clone());

    // weak scaling: the instance grows with the fleet so total work
    // keeps 1000 slow clients occupied — hard UNSAT XOR chains (Table
    // 1's `ip38` family) sized so split pressure, and with
    // it the flat root's backlog, saturates at every tier. Flat and
    // hierarchical always see the same instance at the same n, which
    // is the comparison that matters.
    let sweep: &[(usize, usize, usize)] = if fast {
        &[(12, 2, 16), (100, 4, 16)]
    } else {
        &[(12, 2, 16), (100, 4, 16), (1000, 10, 20)]
    };

    println!("instance family: urquhart(size, 38) per tier | modes: flat vs hierarchical\n");
    println!(
        "{:>6} {:>6} {:>11} {:>13} {:>8} {:>9} {:>10} {:>10} {:>11} {:>12} {:>8} {:>7} {:>12} {:>11}",
        "n",
        "sites",
        "instance",
        "mode",
        "outcome",
        "sim (s)",
        "peak q",
        "mean q",
        "ctl bytes",
        "roster bytes",
        "splits",
        "steals",
        "peak heap MB",
        "alloc calls"
    );

    let mut rows: Vec<Row> = Vec::new();
    for &(n, sites, size) in sweep {
        let f = satgen::xor::urquhart(size, 38);
        for hierarchical in [false, true] {
            let row = run_one(&f, n, sites, hierarchical);
            println!(
                "{:>6} {:>6} {:>11} {:>13} {:>8} {:>9.1} {:>10} {:>10.2} {:>11} {:>12} {:>8} {:>7} {:>12.2} {:>11}",
                row.n,
                row.sites,
                row.instance,
                row.mode,
                row.outcome,
                row.sim_s,
                row.peak_queue,
                row.mean_queue,
                row.control_bytes,
                row.roster_bytes,
                row.splits,
                row.steals_settled,
                row.peak_live_heap_bytes as f64 / 1e6,
                row.alloc_calls,
            );
            rows.push(row);
        }
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"scaling_1k\",\n");
    let _ = writeln!(
        json,
        "  \"source\": \"cargo run --release -p gridsat-bench --bin scaling_1k{}\",",
        if fast { " --fast" } else { "" }
    );
    let _ = writeln!(
        json,
        "  \"workload\": \"weak-scaling urquhart UNSAT refutations (instance per row), client speed {} (saturated regime); flat = every client talks to the root, hierarchical = per-site sub-masters broker splits and steal tickets; bytes by kind off the engine trace: control = neither solver payload ({}) nor roster (peers)\",",
        CLIENT_SPEED,
        PAYLOAD_KINDS.join("/")
    );
    json.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json_row(&mut json, row);
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]");
    for (n, _, _) in sweep {
        let flat = rows.iter().find(|r| r.n == *n && r.mode == "flat");
        let hier = rows.iter().find(|r| r.n == *n && r.mode == "hierarchical");
        if let (Some(flat), Some(hier)) = (flat, hier) {
            let _ = write!(
                json,
                ",\n  \"peak_queue_reduction_n{}\": {:.2}",
                n,
                flat.peak_queue as f64 / (hier.peak_queue.max(1)) as f64
            );
        }
    }
    json.push_str("\n}\n");

    // read after the sweep, so no row's peak live heap counts it, and
    // before the write: `--out` may be about to overwrite it
    let ledger = check.then(|| {
        std::fs::read_to_string(LEDGER)
            .map_err(|e| format!("cannot read {LEDGER}: {e}"))
            .and_then(|json| ledger_rows(&json))
    });
    if let Some(path) = &out_path {
        std::fs::write(path, &json).expect("write BENCH_scale.json");
        println!("\nwrote {path}");
    } else {
        println!("\n{json}");
    }

    if check {
        let mut failures: Vec<String> = Vec::new();
        let ledger = ledger.expect("read under --check").unwrap_or_else(|e| {
            failures.push(format!("checked-in rows: {e}"));
            Vec::new()
        });
        for row in &rows {
            let checked_in = ledger
                .iter()
                .find(|(n, mode, ..)| *n == row.n && mode == row.mode);
            match checked_in {
                Some((_, _, heap, columns)) => {
                    // the footprint: a row may not outgrow its checked-in row
                    if row.peak_live_heap_bytes as f64 > *heap as f64 * HEAP_SLACK {
                        failures.push(format!(
                            "{} n={}: peak live heap {} bytes, over the checked-in {heap} by more than {:.0} %",
                            row.mode,
                            row.n,
                            row.peak_live_heap_bytes,
                            (HEAP_SLACK - 1.0) * 100.0
                        ));
                    }
                    // what was simulated and counted: exactly the checked-in row
                    let mut written = String::new();
                    json_row(&mut written, row);
                    let swept = parse_object(written.trim()).expect("json_row writes one object");
                    for moved in moved_columns(columns, &swept) {
                        failures.push(format!(
                            "{} n={}: {moved} (checked-in -> swept)",
                            row.mode, row.n
                        ));
                    }
                }
                // unreadable: one failure above says so
                None if ledger.is_empty() => {}
                None => failures.push(format!(
                    "{} n={}: no checked-in row in {LEDGER} to hold it to",
                    row.mode, row.n
                )),
            }
            if row.outcome != "UNSAT" {
                failures.push(format!(
                    "{} n={}: expected UNSAT (instance family is UNSAT by construction), got {}",
                    row.mode, row.n, row.outcome
                ));
            }
            // sharing in rounds: a merge is one slice of at most a quantum
            let burst = row.clients.max_merge_burst;
            if let Some(bound) = row.merge_bound.filter(|&bound| burst > bound) {
                failures.push(format!(
                    "{} n={}: one merge charged {burst} work units, over the {bound} a slice may",
                    row.mode, row.n
                ));
            }
            if row.mode == "hierarchical" {
                // the whole point of the hierarchy: the root's backlog
                // is bounded by escalation traffic, O(sites) not O(n)
                let bound = (8 * row.sites + 16) as u64;
                if row.peak_queue > bound {
                    failures.push(format!(
                        "hierarchical n={}: peak root queue {} exceeds O(sites) bound {}",
                        row.n, row.peak_queue, bound
                    ));
                }
            }
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("scaling_1k: FAIL {f}");
            }
            std::process::exit(1);
        }
        println!("scaling_1k: all gates passed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsat::journal::SealedRecord;
    use gridsat::msg::{Checkpoint, GridMsg, ProblemId, SubResult};
    use gridsat::wire::{EncodedBatch, SpecFrame};
    use gridsat_grid::{MessageSize, NodeId};
    use std::sync::Arc;

    /// One message of every `GridMsg` variant (both label spellings
    /// where a variant has two) with the column it must land in.
    fn one_of_each() -> Vec<(GridMsg, Traffic)> {
        use Traffic::{Control, Payload, Roster};
        let problem = ProblemId::new(NodeId(1), 1);
        let spec = || Box::new(SpecFrame::from_wire(Vec::new()));
        let light = || Box::new(Checkpoint { level0: Vec::new() });
        let split_done = |ok| GridMsg::SplitDone {
            requester: NodeId(1),
            peer: NodeId(2),
            ok,
            problem: None,
            pivot: None,
            checkpoint: None,
            stolen: false,
        };
        vec![
            (
                GridMsg::Register {
                    memory: 0,
                    availability: 1.0,
                    problem: None,
                    checkpoint: None,
                },
                Control,
            ),
            // a claim's level 0 rides along, booked as the benchmark's
            // `layers::classify` books a registration
            (
                GridMsg::Register {
                    memory: 0,
                    availability: 1.0,
                    problem: Some(problem),
                    checkpoint: Some(light()),
                },
                Control,
            ),
            (GridMsg::SplitRequest { problem }, Control),
            (split_done(true), Control),
            (split_done(false), Control),
            (
                GridMsg::Result {
                    result: SubResult::Unsat,
                    problem,
                },
                Control,
            ),
            (
                GridMsg::Result {
                    result: SubResult::Sat(Vec::new()),
                    problem,
                },
                Control,
            ),
            (GridMsg::LoadReport { availability: 1.0 }, Control),
            (
                GridMsg::CheckpointMsg {
                    problem,
                    checkpoint: light(),
                },
                Payload,
            ),
            (GridMsg::Heartbeat, Control),
            (
                GridMsg::Requeue {
                    spec: spec(),
                    problem,
                },
                Payload,
            ),
            (
                GridMsg::Solve {
                    spec: spec(),
                    problem,
                },
                Payload,
            ),
            (
                GridMsg::SplitGrant {
                    peer: NodeId(2),
                    problem,
                },
                Control,
            ),
            (
                GridMsg::Migrate {
                    peer: NodeId(2),
                    problem,
                },
                Control,
            ),
            (
                GridMsg::Peers {
                    up: Some(NodeId(1)),
                    down: [NodeId(2)].into(),
                },
                Roster,
            ),
            (GridMsg::Terminate, Control),
            (
                GridMsg::Subproblem {
                    spec: spec(),
                    sent_at: 0.0,
                    problem,
                    stolen: false,
                },
                Payload,
            ),
            (
                GridMsg::Share {
                    batch: Arc::new(EncodedBatch::encode(&[])),
                    down: true,
                },
                Payload,
            ),
            (
                GridMsg::JournalBatch {
                    start: 0,
                    records: vec![SealedRecord::from_wire(Vec::new()); 12],
                },
                Payload,
            ),
            (GridMsg::JournalAck { next: 0 }, Control),
            (GridMsg::Takeover, Control),
            (GridMsg::StealRequest, Control),
            (
                GridMsg::StealTicket {
                    donor: NodeId(1),
                    problem,
                },
                Control,
            ),
            (GridMsg::Steal { problem }, Control),
            (GridMsg::StealRefused, Control),
            (
                GridMsg::StealNotice {
                    parent: problem,
                    problem,
                    pivot: None,
                },
                Control,
            ),
            (
                GridMsg::SplitEscalate {
                    offers: vec![(NodeId(1), problem)],
                },
                Control,
            ),
            (GridMsg::OfferSolicit { want: 1 }, Control),
        ]
    }

    #[test]
    fn every_message_kind_lands_in_its_column() {
        let all = one_of_each();
        // a label's kind is what precedes its parenthesised detail
        let kinds: BTreeSet<String> = all
            .iter()
            .map(|(m, _)| m.label().split('(').next().unwrap_or_default().to_owned())
            .collect();
        assert_eq!(kinds.len(), 25, "one message of every GridMsg variant");
        for (msg, want) in &all {
            assert_eq!(classify(&msg.label()), *want, "{}", msg.label());
        }
        // the labels that carry a parenthesised detail are the ones the
        // exact-match classifier used to book as control
        assert_eq!(classify("subproblem(3)"), Traffic::Payload);
        assert_eq!(classify("journal-batch(12)"), Traffic::Payload);
        // the reliability layer's own envelope
        assert_eq!(classify("ack"), Traffic::Control);
    }

    /// `--check` holds every row of the full sweep to a checked-in row:
    /// the ledger parses, and has one row per size and mode.
    #[test]
    fn the_ledger_holds_a_heap_bound_for_every_swept_row() {
        let rows =
            ledger_rows(include_str!("../../../../BENCH_scale.json")).expect("the ledger parses");
        for n in [12, 100, 1000] {
            for mode in ["flat", "hierarchical"] {
                let found: Vec<_> = rows.iter().filter(|r| r.0 == n && r.1 == mode).collect();
                assert_eq!(found.len(), 1, "n={n} {mode}");
                assert!(found[0].2 > 1_000_000, "n={n} {mode}: {} bytes", found[0].2);
            }
        }
        let row = r#"    {"n":12,"mode":"flat","sim_s":1.0},"#;
        assert!(ledger_rows(row)
            .unwrap_err()
            .contains("peak_live_heap_bytes"));
        assert_eq!(
            ledger_rows("{\n  \"rows\": [\n  ]\n}\n").map(|rows| rows.len()),
            Err("no rows".into())
        );
    }

    /// A swept row passes only if every simulated or counted column is
    /// written as in its checked-in row; the host columns may move.
    #[test]
    fn a_row_that_moves_one_count_column_fails() {
        let ledger = include_str!("../../../../BENCH_scale.json");
        let (.., checked_in) = ledger_rows(ledger).expect("the ledger parses").remove(0);
        let mut swept = checked_in.clone();
        assert!(moved_columns(&checked_in, &swept).is_empty());
        for host in HOST_COLUMNS {
            swept.insert(host.into(), JsonScalar::Num(1.0));
        }
        assert!(moved_columns(&checked_in, &swept).is_empty());
        let Some(JsonScalar::Num(splits)) = checked_in.get("splits") else {
            panic!("the row counts its splits");
        };
        swept.insert("splits".into(), JsonScalar::Num(splits + 1.0));
        assert_eq!(
            moved_columns(&checked_in, &swept),
            [format!("splits: {splits} -> {}", splits + 1.0)]
        );
        swept.remove("splits");
        assert_eq!(
            moved_columns(&checked_in, &swept),
            [format!("splits: {splits} -> missing")]
        );
    }
}

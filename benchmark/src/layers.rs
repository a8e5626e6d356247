//! Per-layer numbers, all taken from outside the program: folds over the
//! public traces a run leaves behind, and replay harnesses that time
//! calls into one layer's public functions.

use crate::run::verify_outcome;
use crate::spans::Recorder;
use crate::stats::{median, ratio};
use gridsat::wire::{self, SpecFrame};
use gridsat::{Client, EncodedBatch, GridConfig, GridNode, Master, MasterJournal};
use gridsat_bench::ZCHAFF_MEM_BUDGET;
use gridsat_cnf::Formula;
use gridsat_grid::{Ctx, MessageSize, NodeId, Process, Sim, Site, Testbed, ThreadGrid, TraceEvent};
use gridsat_obs::{critical_path, RingBuffer, SegmentKind};
use gridsat_satgen::suite::Status;
use gridsat_solver::{driver, Solver, SolverConfig, Step};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// gridsat::wire — the engine trace grouped by message kind
// ---------------------------------------------------------------------

/// What a message on the wire carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// A whole subproblem spec: `solve`, `subproblem`, `requeue`.
    Subproblem,
    /// Recovery state: `checkpoint`, `adopt`, `journal-batch`.
    Checkpoint,
    /// A learned-clause batch.
    Share,
    /// The client roster the master broadcasts (`peers`): every client
    /// gets the whole list on every change, so it grows with n squared.
    Roster,
    /// Everything else: handshakes, reports, tickets, acks.
    Control,
}

/// Map an engine trace label (`GridMsg::label`, or the reliability
/// layer's `ack`) to its group. Labels carry a parenthesised detail —
/// `subproblem(3)`, `split-done(ok)`, `journal-batch(12)` — that is not
/// part of the kind. A label this table does not know is an error: new
/// message kinds must be sorted by hand, not booked as control traffic.
pub fn classify(label: &str) -> Result<Group, String> {
    let kind = label.split('(').next().unwrap_or(label);
    Ok(match kind {
        "solve" | "subproblem" | "requeue" => Group::Subproblem,
        "checkpoint" | "adopt" | "journal-batch" => Group::Checkpoint,
        "share" => Group::Share,
        "peers" => Group::Roster,
        "register" | "split-request" | "split-done" | "result" | "load-report" | "heartbeat"
        | "split-grant" | "migrate" | "terminate" | "journal-ack" | "takeover"
        | "steal-request" | "steal-ticket" | "steal" | "steal-refused" | "steal-notice"
        | "split-escalate" | "offer-solicit" | "site-status" | "ack" => Group::Control,
        _ => return Err(format!("unknown trace label {label:?}")),
    })
}

/// Bytes and messages per [`Group`], indexed by `Group as usize`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireGroups {
    pub bytes: [u64; 5],
    pub msgs: [u64; 5],
}

impl WireGroups {
    pub fn add(&mut self, events: &[TraceEvent]) -> Result<(), String> {
        for ev in events {
            let group = classify(&ev.label)? as usize;
            self.bytes[group] += ev.bytes as u64;
            self.msgs[group] += 1;
        }
        Ok(())
    }

    pub fn bytes_of(&self, group: Group) -> u64 {
        self.bytes[group as usize]
    }

    pub fn msgs_of(&self, group: Group) -> u64 {
        self.msgs[group as usize]
    }
}

// ---------------------------------------------------------------------
// gridsat::journal — replay of a finished root master's journal
// ---------------------------------------------------------------------

/// Times the replay is repeated, so short journals still give a rate.
const JOURNAL_ROUNDS: usize = 5;

#[derive(Clone, Copy, Debug, Default)]
pub struct JournalReplay {
    pub len: u64,
    pub log_bytes: u64,
    records_replayed: u64,
    append_s: f64,
    recover_s: f64,
}

impl JournalReplay {
    /// Re-append every record of `journal` into a fresh one and recover a
    /// third from its byte image, timing both.
    pub fn add(&mut self, journal: &MasterJournal) {
        self.len += journal.len();
        self.log_bytes += journal.log_bytes().len() as u64;
        for _ in 0..JOURNAL_ROUNDS {
            let records = journal.records().to_vec();
            let start = Instant::now();
            let mut copy = MasterJournal::new();
            for record in records {
                copy.append(record);
            }
            self.append_s += start.elapsed().as_secs_f64();
            assert!(
                copy.log_bytes() == journal.log_bytes(),
                "re-appending the records reproduces the byte image"
            );
            let start = Instant::now();
            let (recovered, report) = MasterJournal::recover(black_box(journal.log_bytes()));
            self.recover_s += start.elapsed().as_secs_f64();
            assert!(report.is_clean() && recovered.len() == journal.len());
            self.records_replayed += journal.len();
        }
    }

    pub fn append_records_per_s(&self) -> f64 {
        ratio(self.records_replayed as f64, self.append_s)
    }

    pub fn recover_records_per_s(&self) -> f64 {
        ratio(self.records_replayed as f64, self.recover_s)
    }
}

// ---------------------------------------------------------------------
// gridsat-obs — the causal ring's critical path
// ---------------------------------------------------------------------

/// Simulated seconds on the critical path per segment kind, summed over
/// the cases of a pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CritPath {
    pub solve_s: f64,
    pub wire_s: f64,
    pub master_queue_s: f64,
    pub retransmit_s: f64,
    /// Cases whose trace gave no path: the ring overflowed, or the
    /// verdict event carries no causal stamp to walk back from.
    pub uncovered_cases: u64,
}

impl CritPath {
    /// Fold one case's causal trace in. A path must end no later than the
    /// verdict and its segments must cover its span to within 1 %.
    pub fn add(&mut self, ring: &RingBuffer, answer_s: f64) -> Result<(), String> {
        let path = match critical_path(&ring.events()) {
            Some(path) if ring.evicted() == 0 => path,
            _ => {
                self.uncovered_cases += 1;
                return Ok(());
            }
        };
        let parts = path.breakdown();
        let covered: f64 = parts.values().sum();
        if (covered - path.total_s()).abs() > 0.01 * path.total_s() {
            return Err(format!(
                "critical-path segments cover {covered} s of a {} s span",
                path.total_s()
            ));
        }
        if path.end_s > answer_s + 1e-6 {
            return Err(format!(
                "critical path ends at {} s, after the verdict at {answer_s} s",
                path.end_s
            ));
        }
        self.solve_s += parts[&SegmentKind::Solve];
        self.wire_s += parts[&SegmentKind::Wire];
        self.master_queue_s += parts[&SegmentKind::MasterQueue];
        self.retransmit_s += parts[&SegmentKind::Retransmit];
        Ok(())
    }
}

// ---------------------------------------------------------------------
// gridsat-solver and gridsat::wire — replay on the probe formula
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, Default)]
pub struct SolverWire {
    pub work_per_s: f64,
    pub props_per_s: f64,
    pub conflicts_per_s: f64,
    pub new_us: f64,
    pub split_off_us: f64,
    pub from_split_us: f64,
    pub spec_clauses_median: f64,
    pub spec_seal_mb_s: f64,
    pub spec_open_mb_s: f64,
    pub spec_bytes_median: f64,
    pub batch_encode_mb_s: f64,
    pub batch_decode_mb_s: f64,
    pub batch_bytes_per_clause: f64,
    pub crc32_mb_s: f64,
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mb_per_s(bytes: u64, seconds: f64) -> f64 {
    ratio(bytes as f64 / 1e6, seconds)
}

/// Warm a client-configured solver on `formula` and split it `splits`
/// times, `slice_work` work units apart: the stepping gives the solver
/// rates, every split gives one real spec and every slice one real share
/// batch for the codec. A solver that finishes is replaced by a new one.
pub fn replay_solver_wire(
    formula: &Formula,
    splits: usize,
    slice_work: u64,
    rec: &mut Recorder,
) -> Result<SolverWire, String> {
    let config = SolverConfig::grid_client(10, ZCHAFF_MEM_BUDGET);
    let case = formula.name().unwrap_or("probe").to_string();
    rec.scope("replay.solver", &case, |rec| {
        let new_us: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                black_box(Solver::new(black_box(formula), config.clone()));
                micros(start.elapsed())
            })
            .collect();

        let mut solver = Solver::new(formula, config.clone());
        let (mut work, mut props, mut conflicts, mut step_s) = (0u64, 0u64, 0u64, 0.0f64);
        let (mut split_us, mut from_us) = (Vec::new(), Vec::new());
        let (mut spec_clauses, mut spec_bytes) = (Vec::new(), Vec::new());
        let (mut seal_s, mut open_s, mut spec_total) = (0.0f64, 0.0f64, 0u64);
        let (mut encode_s, mut decode_s) = (0.0f64, 0.0f64);
        let (mut batch_bytes, mut batch_clauses) = (0u64, 0u64);

        for _ in 0..splits {
            let before = *solver.stats();
            let start = Instant::now();
            let step = solver.step(slice_work);
            step_s += start.elapsed().as_secs_f64();
            let after = *solver.stats();
            work += after.work - before.work;
            props += after.propagations - before.propagations;
            conflicts += after.conflicts - before.conflicts;
            if step != Step::Running {
                solver = Solver::new(formula, config.clone());
                continue;
            }
            let shares = solver.take_shared();
            let start = Instant::now();
            let spec = solver.split_off();
            let split_took = start.elapsed();

            rec.scope("replay.wire", &case, |_| -> Result<(), String> {
                if !shares.is_empty() {
                    let start = Instant::now();
                    let batch = EncodedBatch::encode(black_box(&shares));
                    encode_s += start.elapsed().as_secs_f64();
                    let start = Instant::now();
                    let decoded = batch.decode().map_err(|e| format!("share batch: {e}"))?;
                    decode_s += start.elapsed().as_secs_f64();
                    let fps = |pairs: &[(_, u64)]| pairs.iter().map(|p| p.1).collect::<Vec<_>>();
                    if fps(&decoded) != fps(&shares) {
                        return Err("share batch does not decode to what was encoded".into());
                    }
                    batch_bytes += batch.wire_len() as u64;
                    batch_clauses += shares.len() as u64;
                }
                if let Some(spec) = &spec {
                    let start = Instant::now();
                    let frame = SpecFrame::seal(black_box(spec));
                    seal_s += start.elapsed().as_secs_f64();
                    let start = Instant::now();
                    let opened = frame.open().map_err(|e| format!("spec frame: {e}"))?;
                    open_s += start.elapsed().as_secs_f64();
                    if opened != *spec {
                        return Err("spec frame does not open to what was sealed".into());
                    }
                    spec_total += frame.wire_len() as u64;
                    spec_bytes.push(frame.wire_len() as f64);
                }
                Ok(())
            })
            .0?;

            if let Some(spec) = spec {
                split_us.push(micros(split_took));
                spec_clauses.push(spec.clauses.len() as f64);
                let start = Instant::now();
                black_box(Solver::from_split(black_box(&spec), config.clone()));
                from_us.push(micros(start.elapsed()));
            }
        }

        // table-driven CRC: the content does not matter, the length does
        let buf: Vec<u8> = (0..1u32 << 20)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        let rounds = 32;
        let start = Instant::now();
        for _ in 0..rounds {
            black_box(wire::crc32(black_box(&buf)));
        }
        let crc_s = start.elapsed().as_secs_f64();

        Ok(SolverWire {
            work_per_s: ratio(work as f64, step_s),
            props_per_s: ratio(props as f64, step_s),
            conflicts_per_s: ratio(conflicts as f64, step_s),
            new_us: median(&new_us),
            split_off_us: median(&split_us),
            from_split_us: median(&from_us),
            spec_clauses_median: median(&spec_clauses),
            spec_seal_mb_s: mb_per_s(spec_total, seal_s),
            spec_open_mb_s: mb_per_s(spec_total, open_s),
            spec_bytes_median: median(&spec_bytes),
            batch_encode_mb_s: mb_per_s(batch_bytes, encode_s),
            batch_decode_mb_s: mb_per_s(batch_bytes, decode_s),
            batch_bytes_per_clause: ratio(batch_bytes as f64, batch_clauses as f64),
            crc32_mb_s: mb_per_s(rounds * buf.len() as u64, crc_s),
        })
    })
    .0
}

// ---------------------------------------------------------------------
// gridsat-grid::engine — its own cost, with handlers that do nothing
// ---------------------------------------------------------------------

#[derive(Clone)]
struct Token {
    hops_left: u32,
}

impl MessageSize for Token {
    fn size_bytes(&self) -> usize {
        64
    }
}

/// Passes every token it receives to the next node until its hops run out.
struct Relay {
    next: NodeId,
    hops: u32,
}

impl Process for Relay {
    type Msg = Token;

    fn on_start(&mut self, ctx: &mut Ctx<Token>) {
        ctx.send(
            self.next,
            Token {
                hops_left: self.hops,
            },
        );
    }

    fn on_message(&mut self, _from: NodeId, msg: Token, ctx: &mut Ctx<Token>) {
        if msg.hops_left > 0 {
            ctx.send(
                self.next,
                Token {
                    hops_left: msg.hops_left - 1,
                },
            );
        }
    }

    fn on_tick(&mut self, _ctx: &mut Ctx<Token>) {}
}

/// Events per host second of the engine alone on `testbed`: every node
/// starts one token round the ring, about `messages` deliveries in all.
/// What is left is the engine's heap, link model and size accounting.
pub fn null_engine_events_per_s(testbed: &Testbed, messages: u64) -> f64 {
    let nodes = testbed.num_hosts() as u64;
    let hops = (messages / nodes).max(1) as u32;
    let mut sim = Sim::new(testbed.clone(), |id| Relay {
        next: NodeId((u64::from(id.0) + 1).rem_euclid(nodes) as u32),
        hops,
    });
    let start = Instant::now();
    sim.run_until(1e12);
    ratio(sim.stats.events as f64, start.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------
// gridsat-grid::threads — the real-thread backend against the core
// ---------------------------------------------------------------------

/// One master and `workers` clients on OS threads, to the verdict.
fn thread_grid_wall(formula: &Formula, expect: Status, workers: usize) -> Result<f64, String> {
    // thread-backend clocks are wall seconds and NodeInfo.speed is 1, so
    // work_quantum_s is directly the work units per tick
    let config = GridConfig {
        min_split_timeout: 0.05,
        work_quantum_s: 30_000.0,
        load_report_period: 1.0,
        master_period: 0.02,
        migration: false,
        ..GridConfig::default()
    };
    let hosts: BTreeMap<NodeId, (f64, Site)> = (0..=workers as u32)
        .map(|i| (NodeId(i), (1.0, Site::Ucsd)))
        .collect();
    let shared = formula.clone();
    let start = Instant::now();
    let grid = ThreadGrid::spawn(workers + 1, 3 << 20, move |id| {
        if id == NodeId(0) {
            GridNode::Master(Box::new(Master::new(
                shared.clone(),
                config.clone(),
                hosts.clone(),
            )))
        } else {
            GridNode::Client(Box::new(Client::new(NodeId(0), config.clone())))
        }
    });
    let nodes = grid.join(Duration::from_secs(60));
    let wall = start.elapsed().as_secs_f64();
    let GridNode::Master(master) = &nodes[0] else {
        return Err("node 0 is not the master".into());
    };
    verify_outcome(formula, expect, master.outcome())?;
    Ok(wall)
}

#[derive(Default)]
pub struct ThreadsReplay {
    pub workers: usize,
    /// Thread-backend wall over sequential wall, medians summed over the
    /// formulas. Schedule-dependent on a shared box: informational.
    pub wall_ratio_vs_seq: f64,
}

pub fn replay_threads(
    formulas: &[(Formula, Status)],
    reps: usize,
    rec: &mut Recorder,
) -> Result<ThreadsReplay, String> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get().saturating_sub(1))
        .max(1);
    let (mut seq_s, mut par_s) = (0.0, 0.0);
    for (formula, expect) in formulas {
        let case = formula.name().unwrap_or("threads").to_string();
        let (walls, _) = rec.scope("replay.threads", &case, |_| -> Result<_, String> {
            let mut seq = Vec::new();
            let mut par = Vec::new();
            for _ in 0..reps {
                let start = Instant::now();
                black_box(driver::solve(
                    formula,
                    SolverConfig::default(),
                    driver::Limits::default(),
                ));
                seq.push(start.elapsed().as_secs_f64());
                par.push(thread_grid_wall(formula, *expect, workers)?);
            }
            Ok((median(&seq), median(&par)))
        });
        let (seq, par) = walls?;
        seq_s += seq;
        par_s += par;
    }
    Ok(ThreadsReplay {
        workers,
        wall_ratio_vs_seq: ratio(par_s, seq_s),
    })
}

/// Work the sequential core spends on `formula`, default configuration,
/// no cap: the denominator of `client.work_vs_seq`.
pub fn sequential_work(formula: &Formula) -> u64 {
    driver::solve(formula, SolverConfig::default(), driver::Limits::default())
        .stats
        .work
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsat::journal::SealedRecord;
    use gridsat::msg::{GridMsg, ProblemId};
    use gridsat_solver::SplitSpec;

    #[test]
    fn every_label_has_exactly_one_group_and_unknown_labels_are_errors() {
        let spec = SplitSpec {
            num_vars: 1,
            assumptions: vec![],
            clauses: vec![],
        };
        let problem = ProblemId::new(NodeId(1), 2);
        // real messages, so a renamed label fails here first
        let subproblem = GridMsg::Subproblem {
            spec: Box::new(SpecFrame::seal(&spec)),
            sent_at: 0.0,
            problem,
            stolen: false,
        };
        assert_eq!(subproblem.label(), "subproblem(3)");
        assert_eq!(classify(&subproblem.label()), Ok(Group::Subproblem));
        let batch = GridMsg::JournalBatch {
            start: 0,
            records: vec![SealedRecord::from_wire(vec![]); 12],
        };
        assert_eq!(batch.label(), "journal-batch(12)");
        assert_eq!(classify(&batch.label()), Ok(Group::Checkpoint));
        assert_eq!(classify(&GridMsg::Heartbeat.label()), Ok(Group::Control));
        assert_eq!(classify(&GridMsg::StealRequest.label()), Ok(Group::Control));

        for (label, group) in [
            ("solve", Group::Subproblem),
            ("requeue", Group::Subproblem),
            ("checkpoint", Group::Checkpoint),
            ("adopt", Group::Checkpoint),
            ("share", Group::Share),
            ("split-done(ok)", Group::Control),
            ("split-done(fail)", Group::Control),
            ("split-request(1)", Group::Control),
            ("split-grant(2)", Group::Control),
            ("result(UNSAT)", Group::Control),
            ("peers", Group::Roster),
            ("ack", Group::Control),
        ] {
            assert_eq!(classify(label), Ok(group), "{label}");
        }
        assert!(classify("gossip").is_err());
        assert!(classify("subproblems").is_err());
        assert!(classify("").is_err());

        let mut groups = WireGroups::default();
        let event = |label: &str, bytes| TraceEvent {
            time_s: 0.0,
            from: NodeId(0),
            to: NodeId(1),
            label: label.into(),
            bytes,
        };
        groups
            .add(&[
                event("subproblem(3)", 1000),
                event("peers", 24),
                event("share", 80),
            ])
            .unwrap();
        assert_eq!(groups.bytes_of(Group::Subproblem), 1000);
        assert_eq!(groups.msgs_of(Group::Roster), 1);
        assert_eq!(groups.msgs_of(Group::Control), 0);
        assert!(groups.add(&[event("gossip", 1)]).is_err());
    }

    #[test]
    fn null_engine_delivers_about_what_was_asked() {
        let rate = null_engine_events_per_s(&Testbed::uniform(3, 1000.0, 1 << 20), 1000);
        assert!(rate > 0.0);
    }
}

//! Critical-path analysis over a causally-stamped trace.
//!
//! A causal trace (every [`TimedEvent`] carrying a per-node Lamport
//! `seq` and a `cause` edge) forms a DAG: `msg_send -> msg_deliver`
//! edges cross nodes, everything else chains locally. Walking the
//! `cause` edges backward from the final answer yields *the* causal
//! chain that determined the run's length; because each event's cause
//! immediately precedes it, the chain is contiguous in time and its
//! segment durations sum exactly to `answer.t - chain_start.t`. Each
//! segment is attributed to one of four cost classes so "the sim took
//! 120 s" becomes "84 s solving, 22 s waiting on the master, 9 s wire,
//! 5 s retransmit backoff".
//!
//! Attribution rules, for the edge `A -> B` (A = B's cause):
//! - `B = msg_deliver`: the message was on the wire -> **wire**.
//! - `B = retransmit`: the wait was RTO backoff -> **retransmit** (the
//!   re-sent `msg_send` at the same instant also counts as retransmit).
//! - any other local edge on a node that was acting as the master (or a
//!   promoted standby) at that time -> **master-queue**: the grant /
//!   assignment / outcome waited on the master's scheduling.
//! - any other local edge -> **solve**: the client was computing.

use crate::event::{Event, TimedEvent};
use crate::report::UtilizationReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a critical-path segment's elapsed time was spent on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegmentKind {
    /// A client was computing (solver work between causal events).
    Solve,
    /// The message that advanced the run was in flight.
    Wire,
    /// The master sat on the request (backlog wait, scheduling).
    MasterQueue,
    /// Retransmit backoff: the payload was lost and the run waited on
    /// the RTO clock.
    Retransmit,
}

impl SegmentKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            SegmentKind::Solve => "solve",
            SegmentKind::Wire => "wire",
            SegmentKind::MasterQueue => "master-queue",
            SegmentKind::Retransmit => "retransmit",
        }
    }

    const ALL: [SegmentKind; 4] = [
        SegmentKind::Solve,
        SegmentKind::Wire,
        SegmentKind::MasterQueue,
        SegmentKind::Retransmit,
    ];
}

/// One attributed interval of the critical path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    pub kind: SegmentKind,
    pub start_s: f64,
    pub end_s: f64,
    /// Node the segment *ends* on (where the consequence happened).
    pub node: u32,
}

impl Segment {
    pub fn duration_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }
}

/// The longest causal chain ending at the run's answer.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalPath {
    /// Raw segments in chronological order, one per causal edge
    /// (zero-duration edges included; see [`CriticalPath::merged`]).
    pub segments: Vec<Segment>,
    /// Timestamp of the chain's root event.
    pub start_s: f64,
    /// Timestamp of the answer event the chain ends at.
    pub end_s: f64,
    /// Node the answer event was recorded on.
    pub answer_node: u32,
    /// Kind of the answer event (`outcome`, or `result` for truncated
    /// traces that end before the master folds the verdict).
    pub answer_kind: &'static str,
    /// Number of events on the chain (segments + 1).
    pub events: usize,
}

impl CriticalPath {
    /// Total chain time. Equals the sum of all segment durations because
    /// consecutive segments share endpoints.
    pub fn total_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }

    /// Seconds attributed to each [`SegmentKind`] (all four keys always
    /// present).
    pub fn breakdown(&self) -> BTreeMap<SegmentKind, f64> {
        let mut out: BTreeMap<SegmentKind, f64> =
            SegmentKind::ALL.iter().map(|&k| (k, 0.0)).collect();
        for s in &self.segments {
            *out.get_mut(&s.kind).unwrap() += s.duration_s();
        }
        out
    }

    /// Consecutive same-kind segments merged — the human-readable shape
    /// of the path (a solver stint shows as one interval, not hundreds
    /// of conflict-to-conflict hops).
    pub fn merged(&self) -> Vec<Segment> {
        let mut out: Vec<Segment> = Vec::new();
        for s in &self.segments {
            match out.last_mut() {
                Some(last) if last.kind == s.kind && last.node == s.node => {
                    last.end_s = s.end_s;
                }
                _ => out.push(*s),
            }
        }
        // zero-duration connective tissue (same-instant handler hops)
        // only obscures the picture once merged intervals exist
        if out.iter().any(|s| s.duration_s() > 0.0) {
            out.retain(|s| s.duration_s() > 0.0);
        }
        out
    }

    /// Render the paper-style breakdown plus the merged timeline.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path: {:.1} s over {} events, t={:.1}..{:.1}, ends at `{}` on n{}",
            self.total_s(),
            self.events,
            self.start_s,
            self.end_s,
            self.answer_kind,
            self.answer_node
        );
        let total = self.total_s().max(f64::MIN_POSITIVE);
        for (kind, secs) in self.breakdown() {
            let _ = writeln!(
                out,
                "  {:<13} {:>9.2} s {:>5.1}%",
                kind.as_str(),
                secs,
                secs / total * 100.0
            );
        }
        let merged = self.merged();
        const SHOWN: usize = 24;
        let _ = writeln!(out, "  path ({} merged segments):", merged.len());
        for s in merged.iter().take(SHOWN) {
            let _ = writeln!(
                out,
                "    t={:>8.2}..{:>8.2}  {:<13} on n{} ({:.2} s)",
                s.start_s,
                s.end_s,
                s.kind.as_str(),
                s.node,
                s.duration_s()
            );
        }
        if merged.len() > SHOWN {
            let _ = writeln!(out, "    ... and {} more", merged.len() - SHOWN);
        }
        out
    }
}

/// Fold a causally-stamped trace into its [`CriticalPath`].
///
/// Returns `None` when the trace holds no answer event, or when the
/// answer carries no causal stamps (a trace recorded without a causal
/// clock): there is no chain to walk.
pub fn critical_path(events: &[TimedEvent]) -> Option<CriticalPath> {
    let answer_idx = events
        .iter()
        .rposition(|e| matches!(e.event, Event::Outcome { .. }))
        .or_else(|| {
            events
                .iter()
                .rposition(|e| matches!(e.event, Event::ResultReport { .. }))
        })?;

    // (node, seq) -> event index, for stamped events only. Stamps are
    // unique per node in a well-formed trace; a ring-evicted prefix can
    // leave dangling causes, which simply terminate the walk early.
    let mut by_stamp: BTreeMap<(u32, u64), usize> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.seq != 0 {
            by_stamp.entry((e.node, e.seq)).or_insert(i);
        }
    }

    // A node attributes local waits to master-queue from its first
    // master-role event onward (node 0 from the start; a standby from
    // its promotion).
    let mut master_since: BTreeMap<u32, f64> = BTreeMap::new();
    for e in events {
        let masterish = matches!(
            e.event,
            Event::ClientLaunch { .. }
                | Event::Assign { .. }
                | Event::Split { .. }
                | Event::BacklogEnqueue { .. }
                | Event::BacklogDequeue { .. }
                | Event::Migrate { .. }
                | Event::CheckpointSaved { .. }
                | Event::ResultReport { .. }
                | Event::Outcome { .. }
                | Event::LeaseExpire { .. }
                | Event::JournalAppend { .. }
                | Event::StandbyPromote { .. }
        );
        if masterish {
            master_since.entry(e.node).or_insert(e.t_s);
        }
    }
    // strictly after: the wait *ending at* the first master-role event
    // (e.g. a standby's promotion) happened while the node was still a
    // client, so it stays attributed to solve
    let is_master_at = |node: u32, t_s: f64| master_since.get(&node).is_some_and(|&t0| t0 < t_s);

    // Walk the cause edges backward from the answer. The step guard
    // bounds malformed traces with stamp cycles.
    let mut chain = vec![answer_idx];
    let mut cur = answer_idx;
    for _ in 0..events.len() {
        let b = &events[cur];
        if b.cause == 0 {
            break;
        }
        let cause_node = match &b.event {
            // a deliver's cause is the matching send, on the sender
            Event::MsgDeliver { from, .. } => *from,
            _ => b.node,
        };
        let Some(&a_idx) = by_stamp.get(&(cause_node, b.cause)) else {
            break;
        };
        if a_idx == cur {
            break;
        }
        chain.push(a_idx);
        cur = a_idx;
    }
    if chain.len() < 2 {
        return None;
    }
    chain.reverse();

    let mut segments = Vec::with_capacity(chain.len() - 1);
    for w in chain.windows(2) {
        let (a, b) = (&events[w[0]], &events[w[1]]);
        let kind = match &b.event {
            Event::MsgDeliver { .. } => SegmentKind::Wire,
            Event::Retransmit { .. } => SegmentKind::Retransmit,
            Event::MsgSend { .. } if matches!(a.event, Event::Retransmit { .. }) => {
                SegmentKind::Retransmit
            }
            _ if is_master_at(b.node, b.t_s) => SegmentKind::MasterQueue,
            _ => SegmentKind::Solve,
        };
        segments.push(Segment {
            kind,
            start_s: a.t_s,
            end_s: b.t_s.max(a.t_s),
            node: b.node,
        });
    }

    let answer = &events[answer_idx];
    Some(CriticalPath {
        start_s: events[chain[0]].t_s,
        end_s: answer.t_s,
        answer_node: answer.node,
        answer_kind: answer.event.kind(),
        events: chain.len(),
        segments,
    })
}

/// A suspicious pattern flagged by [`detect_anomalies`].
#[derive(Clone, Debug, PartialEq)]
pub struct Anomaly {
    /// Stable machine-readable code (`lease_churn`, `retransmit_storm`,
    /// `wedged`, `relink_churn`, `corrupt_storm`,
    /// `journal_truncated`, `peer_quarantined`).
    pub code: &'static str,
    pub detail: String,
}

/// Scan a trace for the failure signatures a healthy run never shows.
/// Thresholds are calibrated so a fault-free seeded run raises nothing.
pub fn detect_anomalies(events: &[TimedEvent]) -> Vec<Anomaly> {
    let mut lease_expiries = 0u64;
    let mut retransmits = 0u64;
    let mut relinks = 0u64;
    let mut launches = 0u64;
    let mut outcome: Option<&str> = None;
    let mut any_assign = false;
    let mut corrupt_drops = 0u64;
    let mut truncations = 0u64;
    let mut truncated_bytes = 0u64;
    let mut quarantined = Vec::new();
    for e in events {
        match &e.event {
            Event::LeaseExpire { .. } => lease_expiries += 1,
            Event::Retransmit { .. } => retransmits += 1,
            Event::Relink { .. } => relinks += 1,
            Event::ClientLaunch { .. } => launches += 1,
            Event::Outcome { outcome: o } => outcome = Some(o),
            Event::Assign { .. } => any_assign = true,
            Event::CorruptDrop { .. } => corrupt_drops += 1,
            Event::JournalTruncate { dropped_bytes, .. } => {
                truncations += 1;
                truncated_bytes += dropped_bytes;
            }
            Event::PeerQuarantine { client, .. } => quarantined.push(*client),
            _ => {}
        }
    }

    let mut out = Vec::new();
    if lease_expiries >= 3 {
        out.push(Anomaly {
            code: "lease_churn",
            detail: format!("{lease_expiries} heartbeat leases expired"),
        });
    }
    if retransmits >= 20 {
        out.push(Anomaly {
            code: "retransmit_storm",
            detail: format!("{retransmits} retransmits"),
        });
    }
    match outcome {
        Some("WEDGED") => out.push(Anomaly {
            code: "wedged",
            detail: "run went quiescent with open subproblems".into(),
        }),
        None if any_assign => out.push(Anomaly {
            code: "wedged",
            detail: "work was assigned but the trace has no outcome".into(),
        }),
        _ => {}
    }
    // one re-link per join is the floor; past half as many again, more
    // than half the clients that joined were also seen to leave
    if relinks > 4 && relinks as f64 > 1.5 * launches as f64 {
        out.push(Anomaly {
            code: "relink_churn",
            detail: format!("{relinks} share-tree re-links for {launches} client launches"),
        });
    }
    // a handful of checksum drops is survivable noise (the reliable
    // layer retransmits); a steady stream means a path is actively
    // mangling traffic
    if corrupt_drops >= 10 {
        out.push(Anomaly {
            code: "corrupt_storm",
            detail: format!("{corrupt_drops} payloads dropped on checksum failure"),
        });
    }
    // any journal truncation is data loss on the master's disk — always
    // worth a flag, even though recovery is designed to survive it
    if truncations > 0 {
        out.push(Anomaly {
            code: "journal_truncated",
            detail: format!(
                "{truncations} torn-tail recoveries discarded {truncated_bytes} journal bytes"
            ),
        });
    }
    if !quarantined.is_empty() {
        out.push(Anomaly {
            code: "peer_quarantined",
            detail: format!("clients {quarantined:?} deregistered for corrupting traffic"),
        });
    }
    out
}

/// Everything `grid_report` renders: utilization, the critical path (when
/// the trace is causal), and anomaly flags.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceAnalysis {
    pub utilization: UtilizationReport,
    pub critical: Option<CriticalPath>,
    pub anomalies: Vec<Anomaly>,
}

/// Run the full analysis pipeline over a decoded trace.
pub fn analyze(events: &[TimedEvent]) -> TraceAnalysis {
    TraceAnalysis {
        utilization: crate::report::fold_utilization(events),
        critical: critical_path(events),
        anomalies: detect_anomalies(events),
    }
}

impl TraceAnalysis {
    /// ASCII busy timeline: one row per client, `#` where busy.
    fn render_timeline(&self) -> String {
        const COLS: usize = 60;
        let mut out = String::new();
        let horizon = self.utilization.horizon_s;
        if horizon <= 0.0 || self.utilization.clients.is_empty() {
            return out;
        }
        let _ = writeln!(out, "timeline (0 .. {horizon:.1} s):");
        for c in &self.utilization.clients {
            let mut row = vec![b'.'; COLS];
            for s in self
                .utilization
                .spans
                .iter()
                .filter(|s| s.client == c.client)
            {
                let a = ((s.start_s / horizon) * COLS as f64).floor() as usize;
                let b = ((s.end_s / horizon) * COLS as f64).ceil() as usize;
                for cell in row.iter_mut().take(b.min(COLS)).skip(a.min(COLS)) {
                    *cell = b'#';
                }
            }
            let _ = writeln!(
                out,
                "  {:>5} |{}|",
                format!("n{}", c.client),
                String::from_utf8(row).unwrap()
            );
        }
        out
    }

    /// The full text report: timeline, utilization, critical path,
    /// anomaly flags.
    pub fn render_text(&self) -> String {
        let mut out = self.render_timeline();
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&self.utilization.render_text());
        out.push('\n');
        match &self.critical {
            Some(cp) => out.push_str(&cp.render_text()),
            None => {
                out.push_str("critical path: unavailable (trace has no causal stamps)\n");
            }
        }
        out.push('\n');
        if self.anomalies.is_empty() {
            out.push_str("anomalies: none\n");
        } else {
            out.push_str("anomalies:\n");
            for a in &self.anomalies {
                let _ = writeln!(out, "  [{}] {}", a.code, a.detail);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_s: f64, node: u32, seq: u64, cause: u64, event: Event) -> TimedEvent {
        TimedEvent {
            t_s,
            node,
            seq,
            cause,
            event,
        }
    }

    fn send(t: f64, node: u32, seq: u64, cause: u64, to: u32) -> TimedEvent {
        ev(
            t,
            node,
            seq,
            cause,
            Event::MsgSend {
                from: node,
                to,
                label: "m".into(),
                bytes: 64,
            },
        )
    }

    fn deliver(t: f64, node: u32, seq: u64, cause: u64, from: u32) -> TimedEvent {
        ev(
            t,
            node,
            seq,
            cause,
            Event::MsgDeliver {
                from,
                to: node,
                label: "m".into(),
                bytes: 64,
            },
        )
    }

    fn outcome(t: f64, node: u32, seq: u64, cause: u64) -> TimedEvent {
        ev(
            t,
            node,
            seq,
            cause,
            Event::Outcome {
                outcome: "UNSAT".into(),
            },
        )
    }

    fn breakdown_of(cp: &CriticalPath) -> [f64; 4] {
        let b = cp.breakdown();
        [
            b[&SegmentKind::Solve],
            b[&SegmentKind::Wire],
            b[&SegmentKind::MasterQueue],
            b[&SegmentKind::Retransmit],
        ]
    }

    /// master (n0) assigns -> wire -> client (n1) solves -> wire back ->
    /// master folds the outcome. Pure linear chain.
    #[test]
    fn linear_chain_breakdown_is_exact() {
        let events = vec![
            ev(0.0, 0, 1, 0, Event::Assign { client: 1 }),
            send(0.0, 0, 2, 1, 1),
            deliver(2.0, 1, 3, 2, 0),                        // 2 s wire
            ev(10.0, 1, 4, 3, Event::Conflict { level: 1 }), // 8 s solve
            send(10.0, 1, 5, 4, 0),
            deliver(11.0, 0, 12, 5, 1), // 1 s wire
            outcome(11.5, 0, 13, 12),   // 0.5 s master
        ];
        let cp = critical_path(&events).expect("chain must resolve");
        assert_eq!(cp.events, 7);
        assert_eq!(cp.start_s, 0.0);
        assert_eq!(cp.end_s, 11.5);
        let [solve, wire, master, rtx] = breakdown_of(&cp);
        assert_eq!(solve, 8.0);
        assert_eq!(wire, 3.0);
        assert_eq!(master, 0.5);
        assert_eq!(rtx, 0.0);
        // contiguity: the segments tile the whole interval
        assert!((cp.total_s() - (solve + wire + master + rtx)).abs() < 1e-12);
    }

    /// Two clients race (a diamond): the chain follows the recorded
    /// cause of the outcome — the slower branch that actually produced
    /// the final answer — not the fast one.
    #[test]
    fn diamond_follows_the_answer_branch() {
        let events = vec![
            ev(0.0, 0, 1, 0, Event::Assign { client: 1 }),
            // branch A: fast client on n1
            send(0.0, 0, 2, 1, 1),
            deliver(1.0, 1, 3, 2, 0),
            send(3.0, 1, 4, 3, 0),
            deliver(4.0, 0, 3, 4, 1),
            // branch B: slow client on n2
            send(0.0, 0, 4, 1, 2),
            deliver(1.0, 2, 1, 4, 0),
            send(9.0, 2, 2, 1, 0),
            deliver(10.0, 0, 5, 2, 2),
            // outcome folds once the slow branch reports
            outcome(10.0, 0, 6, 5),
        ];
        let cp = critical_path(&events).unwrap();
        // chain: assign -> send(B) -> deliver(n2) -> send -> deliver -> outcome
        assert_eq!(cp.events, 6);
        let [solve, wire, _master, _] = breakdown_of(&cp);
        assert_eq!(solve, 8.0, "slow branch solving, not the fast one");
        assert_eq!(wire, 2.0);
        assert_eq!(cp.total_s(), 10.0);
    }

    /// A lost result forces an RTO backoff: the detour shows up as
    /// retransmit time, not solve or wire.
    #[test]
    fn retransmit_detour_is_attributed_to_backoff() {
        let events = vec![
            ev(0.0, 0, 1, 0, Event::Assign { client: 1 }),
            send(0.0, 0, 2, 1, 1),
            deliver(1.0, 1, 3, 2, 0),
            // client solves 4 s, sends the result, which is lost
            send(5.0, 1, 4, 3, 0),
            // 2.5 s later the RTO fires (cause: the original dispatch)
            ev(
                7.5,
                1,
                5,
                4,
                Event::Retransmit {
                    to: 0,
                    label: "result".into(),
                    attempt: 1,
                },
            ),
            // the re-send at the same instant, caused by the retransmit
            send(7.5, 1, 6, 5, 0),
            deliver(8.5, 0, 7, 6, 1),
            outcome(8.5, 0, 8, 7),
        ];
        let cp = critical_path(&events).unwrap();
        let [solve, wire, master, rtx] = breakdown_of(&cp);
        assert_eq!(solve, 4.0);
        assert_eq!(wire, 2.0);
        assert_eq!(rtx, 2.5, "the RTO wait plus the zero-width re-send");
        assert_eq!(master, 0.0);
        assert_eq!(cp.total_s(), 8.5);
    }

    #[test]
    fn pre_causal_trace_has_no_path() {
        let events = vec![
            ev(0.0, 0, 0, 0, Event::Assign { client: 1 }),
            outcome(5.0, 0, 0, 0),
        ];
        assert!(critical_path(&events).is_none());
    }

    #[test]
    fn empty_or_answerless_trace_has_no_path() {
        assert!(critical_path(&[]).is_none());
        let events = vec![ev(0.0, 0, 1, 0, Event::Assign { client: 1 })];
        assert!(critical_path(&events).is_none());
    }

    #[test]
    fn promoted_standby_counts_as_master_after_promotion() {
        let events = vec![
            // n1 is a client first: local wait before promotion = solve
            ev(0.0, 1, 1, 0, Event::Conflict { level: 1 }),
            ev(4.0, 1, 2, 1, Event::StandbyPromote { records: 3 }),
            // after promotion its local waits are master-queue
            ev(6.0, 1, 3, 2, Event::Assign { client: 2 }),
            send(6.0, 1, 4, 3, 2),
            deliver(7.0, 2, 1, 4, 1),
            send(9.0, 2, 2, 1, 1),
            deliver(10.0, 1, 5, 2, 2),
            outcome(10.0, 1, 6, 5),
        ];
        let cp = critical_path(&events).unwrap();
        let [solve, wire, master, _] = breakdown_of(&cp);
        assert_eq!(solve, 6.0, "pre-promotion wait (4 s) + n2 solving (2 s)");
        assert_eq!(master, 2.0, "promote -> assign wait counts as master");
        assert_eq!(wire, 2.0);
    }

    #[test]
    fn merged_collapses_runs_and_drops_zero_hops() {
        let events = vec![
            ev(0.0, 1, 1, 0, Event::Conflict { level: 1 }),
            ev(1.0, 1, 2, 1, Event::Conflict { level: 2 }),
            ev(2.0, 1, 3, 2, Event::Conflict { level: 3 }),
            send(2.0, 1, 4, 3, 0),
            deliver(3.0, 0, 1, 4, 1),
            outcome(3.0, 0, 2, 1),
        ];
        let cp = critical_path(&events).unwrap();
        assert_eq!(cp.segments.len(), 5);
        let merged = cp.merged();
        // three conflict hops + the zero-width send merge into one solve
        // interval; the zero-width outcome hop is dropped
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].kind, SegmentKind::Solve);
        assert_eq!((merged[0].start_s, merged[0].end_s), (0.0, 2.0));
        assert_eq!(merged[1].kind, SegmentKind::Wire);
    }

    #[test]
    fn anomaly_thresholds() {
        // clean trace: nothing flags
        let clean = vec![
            ev(0.0, 0, 1, 0, Event::Assign { client: 1 }),
            outcome(1.0, 0, 2, 1),
        ];
        assert!(detect_anomalies(&clean).is_empty());

        // churn + storm + wedged outcome + re-link churn all flag
        let mut noisy = Vec::new();
        for i in 0..3 {
            noisy.push(ev(1.0, 0, 0, 0, Event::LeaseExpire { client: i }));
        }
        for _ in 0..20 {
            noisy.push(ev(
                2.0,
                1,
                0,
                0,
                Event::Retransmit {
                    to: 0,
                    label: "x".into(),
                    attempt: 1,
                },
            ));
        }
        for _ in 0..6 {
            noisy.push(ev(3.0, 0, 0, 0, Event::Relink { nodes: 3 }));
        }
        noisy.push(ev(
            4.0,
            0,
            0,
            0,
            Event::Outcome {
                outcome: "WEDGED".into(),
            },
        ));
        let codes: Vec<&str> = detect_anomalies(&noisy).iter().map(|a| a.code).collect();
        assert_eq!(
            codes,
            ["lease_churn", "retransmit_storm", "wedged", "relink_churn"]
        );

        // assigned work but no outcome at all: wedged
        let truncated = vec![ev(0.0, 0, 1, 0, Event::Assign { client: 1 })];
        let codes: Vec<&str> = detect_anomalies(&truncated)
            .iter()
            .map(|a| a.code)
            .collect();
        assert_eq!(codes, ["wedged"]);
    }

    #[test]
    fn integrity_anomalies() {
        // a few corrupt drops stay below the storm threshold
        let mut quiet = vec![
            ev(0.0, 0, 1, 0, Event::Assign { client: 1 }),
            outcome(1.0, 0, 2, 1),
        ];
        for _ in 0..9 {
            quiet.push(ev(
                0.5,
                0,
                0,
                0,
                Event::CorruptDrop {
                    from: 2,
                    label: "share".into(),
                },
            ));
        }
        assert!(detect_anomalies(&quiet).is_empty());

        // a storm of drops, any truncation, and any quarantine all flag
        let mut bad = quiet.clone();
        bad.push(ev(
            0.6,
            0,
            0,
            0,
            Event::CorruptDrop {
                from: 2,
                label: "share".into(),
            },
        ));
        bad.push(ev(
            0.7,
            0,
            0,
            0,
            Event::JournalTruncate {
                kept: 40,
                dropped_bytes: 17,
            },
        ));
        bad.push(ev(
            0.8,
            0,
            0,
            0,
            Event::PeerQuarantine {
                client: 2,
                strikes: 40,
            },
        ));
        let found = detect_anomalies(&bad);
        let codes: Vec<&str> = found.iter().map(|a| a.code).collect();
        assert_eq!(
            codes,
            ["corrupt_storm", "journal_truncated", "peer_quarantined"]
        );
        assert!(found[1].detail.contains("17 journal bytes"));
        assert!(found[2].detail.contains("[2]"));
    }

    #[test]
    fn analysis_renders_text() {
        let events = vec![
            ev(0.0, 0, 1, 0, Event::Assign { client: 1 }),
            send(0.0, 0, 2, 1, 1),
            deliver(1.0, 1, 3, 2, 0),
            send(3.0, 1, 4, 3, 0),
            deliver(4.0, 0, 3, 4, 1),
            ev(
                4.0,
                0,
                4,
                3,
                Event::ResultReport {
                    client: 1,
                    sat: false,
                },
            ),
            outcome(4.0, 0, 5, 3),
        ];
        let a = analyze(&events);
        assert!(a.critical.is_some());
        assert!(a.anomalies.is_empty());
        let text = a.render_text();
        assert!(text.contains("critical path:"));
        assert!(text.contains("anomalies: none"));
        assert!(text.contains("timeline"));
    }
}

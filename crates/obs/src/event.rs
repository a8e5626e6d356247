//! The GridSAT lifecycle event taxonomy and its JSONL wire format.
//!
//! Every event is recorded as a [`TimedEvent`]: the simulated-time
//! timestamp, the node it happened on, its causal stamp (`seq`, a
//! per-node Lamport clock, plus the `seq` of the event that caused it),
//! and the [`Event`] payload. One event serializes to one flat JSON
//! object per line; field order is fixed (`t`, `node`, `seq`, `cause`,
//! `kind`, then payload fields) so traces are byte-stable and diffable.
//! A line without `seq` or `cause` does not decode (a `MissingField`
//! error); an unstamped ring writes both as zero.

use crate::json::{parse_object, JsonScalar, ObjWriter};
use std::collections::BTreeMap;

/// Why the engine dropped a message instead of delivering it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The link between the endpoints was administratively down.
    LinkDown,
    /// The destination node had left the Grid before delivery.
    DeadPeer,
    /// The chaos-injection layer lost the message (seeded fault plan).
    Chaos,
    /// The chaos-injection layer corrupted a scalar-only message
    /// (modeled header damage: nothing to deliver mangled).
    Corrupt,
}

impl DropReason {
    pub fn as_str(&self) -> &'static str {
        match self {
            DropReason::LinkDown => "link_down",
            DropReason::DeadPeer => "dead_peer",
            DropReason::Chaos => "chaos",
            DropReason::Corrupt => "corrupt",
        }
    }

    pub fn parse(s: &str) -> Option<DropReason> {
        match s {
            "link_down" => Some(DropReason::LinkDown),
            "dead_peer" => Some(DropReason::DeadPeer),
            "chaos" => Some(DropReason::Chaos),
            "corrupt" => Some(DropReason::Corrupt),
            _ => None,
        }
    }
}

/// One lifecycle event, covering the solver core, the Grid engine, and
/// the master's scheduling decisions.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    // ---- solver ----
    /// A conflict was analyzed (at the decision level it occurred on).
    Conflict { level: u64 },
    /// A clause was learned; `global` means it is sound to share.
    Learn { len: u64, global: bool },
    /// The learned database was reduced.
    DbReduce { deleted: u64, live: u64 },
    /// The clause arena was compacted by the relocating GC.
    DbGc { freed_bytes: u64, live: u64 },

    // ---- engine ----
    /// A message entered the network.
    MsgSend {
        from: u32,
        to: u32,
        label: String,
        bytes: u64,
    },
    /// A message reached its destination process.
    MsgDeliver {
        from: u32,
        to: u32,
        label: String,
        bytes: u64,
    },
    /// A message was dropped (see [`DropReason`]).
    MsgDrop {
        from: u32,
        to: u32,
        label: String,
        bytes: u64,
        reason: DropReason,
    },
    /// The node came up (batch window opened / host booted).
    NodeUp,
    /// The node went away.
    NodeDown,
    /// A fault-plan action fired (link cut/heal, chaos delay spike).
    FaultInject { what: String },

    // ---- reliable delivery ----
    /// An unacked control message was sent again (attempt is 1-based).
    Retransmit {
        to: u32,
        label: String,
        attempt: u64,
    },
    /// An acknowledgement closed an outstanding control message.
    Acked { peer: u32 },
    /// A duplicate delivery was suppressed by the receiver's dedup window.
    DupDrop { from: u32, label: String },
    /// A delivered message failed its payload checksum and was discarded
    /// by the receiver (control traffic recovers by retransmit;
    /// fire-and-forget streams just lose the message).
    CorruptDrop { from: u32, label: String },
    /// The master's heartbeat lease on a client ran out.
    LeaseExpire { client: u32 },
    /// A peer exceeded the corruption-strike threshold and was
    /// deregistered, its work requeued from checkpoint.
    PeerQuarantine { client: u32, strikes: u64 },

    // ---- master ----
    /// A client registered with the master.
    ClientLaunch { client: u32 },
    /// The master handed a (sub)problem directly to a client
    /// (initial dispatch or checkpoint recovery).
    Assign { client: u32 },
    /// A split completed: `requester` kept half, `peer` took the other.
    Split { requester: u32, peer: u32 },
    /// A split request had to wait; `depth` is the backlog size after.
    BacklogEnqueue { client: u32, depth: u64 },
    /// A backlogged request was finally served; `depth` is the size after.
    BacklogDequeue { client: u32, depth: u64 },
    /// The master moved a subproblem between clients.
    Migrate { from: u32, to: u32 },
    /// A client uploaded a checkpoint.
    CheckpointSaved { client: u32 },
    /// A client reported its subproblem's result.
    ResultReport { client: u32, sat: bool },
    /// The run ended (`SAT`/`UNSAT`/`TIME_OUT`/`CLIENT_LOST`).
    Outcome { outcome: String },

    // ---- master durability ----
    /// A scheduling decision was appended to the master journal.
    /// `record` is the 0-based record index; `lag` is how many records
    /// the standby has not yet acknowledged.
    JournalAppend { record: u64, lag: u64 },
    /// A restarted master rebuilt its state by folding the journal.
    JournalReplay { records: u64 },
    /// Journal recovery cut a torn or corrupt tail off the durable byte
    /// log: `kept` records verified, `dropped_bytes` discarded.
    JournalTruncate { kept: u64, dropped_bytes: u64 },
    /// A standby promoted itself to master after the lease lapsed.
    StandbyPromote { records: u64 },
    /// The master's cube ledger refused a record that would leak or
    /// doubly own a guiding-path cube (the run aborts right after).
    AuditViolation { path: String },

    // ---- clause sharing ----
    /// Duplicate shared clauses dropped by a receiver's fingerprint
    /// window before any merge work was spent on them.
    ShareDedup { dropped: u64 },
    /// A membership change (join, leave, lease expiry) moved clause-sharing
    /// links: the master sent `nodes` clients their new ones.
    Relink { nodes: u64 },
}

impl Event {
    /// Stable `kind` discriminator used in the JSONL schema.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Conflict { .. } => "conflict",
            Event::Learn { .. } => "learn",
            Event::DbReduce { .. } => "db_reduce",
            Event::DbGc { .. } => "db_gc",
            Event::MsgSend { .. } => "msg_send",
            Event::MsgDeliver { .. } => "msg_deliver",
            Event::MsgDrop { .. } => "msg_drop",
            Event::NodeUp => "node_up",
            Event::NodeDown => "node_down",
            Event::FaultInject { .. } => "fault_inject",
            Event::Retransmit { .. } => "retransmit",
            Event::Acked { .. } => "ack",
            Event::DupDrop { .. } => "dup_drop",
            Event::CorruptDrop { .. } => "corrupt_drop",
            Event::LeaseExpire { .. } => "lease_expire",
            Event::PeerQuarantine { .. } => "peer_quarantine",
            Event::ClientLaunch { .. } => "client_launch",
            Event::Assign { .. } => "assign",
            Event::Split { .. } => "split",
            Event::BacklogEnqueue { .. } => "backlog_enqueue",
            Event::BacklogDequeue { .. } => "backlog_dequeue",
            Event::Migrate { .. } => "migrate",
            Event::CheckpointSaved { .. } => "checkpoint",
            Event::ResultReport { .. } => "result",
            Event::Outcome { .. } => "outcome",
            Event::JournalAppend { .. } => "journal_append",
            Event::JournalReplay { .. } => "journal_replay",
            Event::JournalTruncate { .. } => "journal_truncate",
            Event::StandbyPromote { .. } => "standby_promote",
            Event::AuditViolation { .. } => "audit_violation",
            Event::ShareDedup { .. } => "share_dedup",
            Event::Relink { .. } => "relink",
        }
    }
}

/// An [`Event`] with its simulated timestamp, originating node, and
/// causal stamp.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedEvent {
    /// Simulated seconds since the start of the run.
    pub t_s: f64,
    /// Node the event happened on (`NodeId.0`; the master is 0).
    pub node: u32,
    /// Per-node Lamport sequence number. 0 means "unstamped" (trace
    /// recorded without a causal clock); stamped events start at 1, so
    /// `(node, seq)` is unique whenever `seq != 0`.
    pub seq: u64,
    /// `seq` of the event this one is a causal consequence of. The cause
    /// lives on the *same* node, except for `msg_deliver` events whose
    /// cause is the matching `msg_send`'s `seq` on the `from` node.
    /// 0 means "no recorded cause" (a root, or an unstamped trace).
    pub cause: u64,
    pub event: Event,
}

/// Why a trace line failed to decode.
#[derive(Clone, Debug, PartialEq)]
pub enum DecodeError {
    Json(crate::json::JsonError),
    MissingField(&'static str),
    BadField(&'static str),
    UnknownKind(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Json(e) => write!(f, "{e}"),
            DecodeError::MissingField(k) => write!(f, "missing field {k:?}"),
            DecodeError::BadField(k) => write!(f, "bad value for field {k:?}"),
            DecodeError::UnknownKind(k) => write!(f, "unknown event kind {k:?}"),
        }
    }
}

impl std::error::Error for DecodeError {}

type Fields = BTreeMap<String, JsonScalar>;

fn num(m: &Fields, k: &'static str) -> Result<f64, DecodeError> {
    match m.get(k) {
        Some(JsonScalar::Num(v)) => Ok(*v),
        Some(_) => Err(DecodeError::BadField(k)),
        None => Err(DecodeError::MissingField(k)),
    }
}

fn u64f(m: &Fields, k: &'static str) -> Result<u64, DecodeError> {
    let v = num(m, k)?;
    if v >= 0.0 && v.fract() == 0.0 {
        Ok(v as u64)
    } else {
        Err(DecodeError::BadField(k))
    }
}

fn u32f(m: &Fields, k: &'static str) -> Result<u32, DecodeError> {
    u64f(m, k)?.try_into().map_err(|_| DecodeError::BadField(k))
}

fn string(m: &Fields, k: &'static str) -> Result<String, DecodeError> {
    match m.get(k) {
        Some(JsonScalar::Str(s)) => Ok(s.clone()),
        Some(_) => Err(DecodeError::BadField(k)),
        None => Err(DecodeError::MissingField(k)),
    }
}

fn boolean(m: &Fields, k: &'static str) -> Result<bool, DecodeError> {
    match m.get(k) {
        Some(JsonScalar::Bool(b)) => Ok(*b),
        Some(_) => Err(DecodeError::BadField(k)),
        None => Err(DecodeError::MissingField(k)),
    }
}

impl TimedEvent {
    /// Serialize to one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut w = ObjWriter::new();
        w.f64("t", self.t_s).u64("node", u64::from(self.node));
        w.u64("seq", self.seq).u64("cause", self.cause);
        w.str("kind", self.event.kind());
        match &self.event {
            Event::Conflict { level } => {
                w.u64("level", *level);
            }
            Event::Learn { len, global } => {
                w.u64("len", *len).bool("global", *global);
            }
            Event::DbReduce { deleted, live } => {
                w.u64("deleted", *deleted).u64("live", *live);
            }
            Event::DbGc { freed_bytes, live } => {
                w.u64("freed_bytes", *freed_bytes).u64("live", *live);
            }
            Event::MsgSend {
                from,
                to,
                label,
                bytes,
            }
            | Event::MsgDeliver {
                from,
                to,
                label,
                bytes,
            } => {
                w.u64("from", u64::from(*from))
                    .u64("to", u64::from(*to))
                    .str("label", label)
                    .u64("bytes", *bytes);
            }
            Event::MsgDrop {
                from,
                to,
                label,
                bytes,
                reason,
            } => {
                w.u64("from", u64::from(*from))
                    .u64("to", u64::from(*to))
                    .str("label", label)
                    .u64("bytes", *bytes)
                    .str("reason", reason.as_str());
            }
            Event::NodeUp | Event::NodeDown => {}
            Event::FaultInject { what } => {
                w.str("what", what);
            }
            Event::Retransmit { to, label, attempt } => {
                w.u64("to", u64::from(*to))
                    .str("label", label)
                    .u64("attempt", *attempt);
            }
            Event::Acked { peer } => {
                w.u64("peer", u64::from(*peer));
            }
            Event::DupDrop { from, label } | Event::CorruptDrop { from, label } => {
                w.u64("from", u64::from(*from)).str("label", label);
            }
            Event::LeaseExpire { client } => {
                w.u64("client", u64::from(*client));
            }
            Event::PeerQuarantine { client, strikes } => {
                w.u64("client", u64::from(*client)).u64("strikes", *strikes);
            }
            Event::ClientLaunch { client } | Event::Assign { client } => {
                w.u64("client", u64::from(*client));
            }
            Event::Split { requester, peer } => {
                w.u64("requester", u64::from(*requester))
                    .u64("peer", u64::from(*peer));
            }
            Event::BacklogEnqueue { client, depth } | Event::BacklogDequeue { client, depth } => {
                w.u64("client", u64::from(*client)).u64("depth", *depth);
            }
            Event::Migrate { from, to } => {
                w.u64("from", u64::from(*from)).u64("to", u64::from(*to));
            }
            Event::CheckpointSaved { client } => {
                w.u64("client", u64::from(*client));
            }
            Event::ResultReport { client, sat } => {
                w.u64("client", u64::from(*client)).bool("sat", *sat);
            }
            Event::Outcome { outcome } => {
                w.str("outcome", outcome);
            }
            Event::JournalAppend { record, lag } => {
                w.u64("record", *record).u64("lag", *lag);
            }
            Event::JournalReplay { records } | Event::StandbyPromote { records } => {
                w.u64("records", *records);
            }
            Event::JournalTruncate {
                kept,
                dropped_bytes,
            } => {
                w.u64("kept", *kept).u64("dropped_bytes", *dropped_bytes);
            }
            Event::AuditViolation { path } => {
                w.str("path", path);
            }
            Event::ShareDedup { dropped } => {
                w.u64("dropped", *dropped);
            }
            Event::Relink { nodes } => {
                w.u64("nodes", *nodes);
            }
        }
        w.finish()
    }

    /// Decode one JSON line produced by [`TimedEvent::to_json_line`].
    pub fn from_json_line(line: &str) -> Result<TimedEvent, DecodeError> {
        let m = parse_object(line).map_err(DecodeError::Json)?;
        let t_s = num(&m, "t")?;
        let node = u32f(&m, "node")?;
        let seq = u64f(&m, "seq")?;
        let cause = u64f(&m, "cause")?;
        let kind = string(&m, "kind")?;
        let event = match kind.as_str() {
            "conflict" => Event::Conflict {
                level: u64f(&m, "level")?,
            },
            "learn" => Event::Learn {
                len: u64f(&m, "len")?,
                global: boolean(&m, "global")?,
            },
            "db_reduce" => Event::DbReduce {
                deleted: u64f(&m, "deleted")?,
                live: u64f(&m, "live")?,
            },
            "db_gc" => Event::DbGc {
                freed_bytes: u64f(&m, "freed_bytes")?,
                live: u64f(&m, "live")?,
            },
            "msg_send" => Event::MsgSend {
                from: u32f(&m, "from")?,
                to: u32f(&m, "to")?,
                label: string(&m, "label")?,
                bytes: u64f(&m, "bytes")?,
            },
            "msg_deliver" => Event::MsgDeliver {
                from: u32f(&m, "from")?,
                to: u32f(&m, "to")?,
                label: string(&m, "label")?,
                bytes: u64f(&m, "bytes")?,
            },
            "msg_drop" => Event::MsgDrop {
                from: u32f(&m, "from")?,
                to: u32f(&m, "to")?,
                label: string(&m, "label")?,
                bytes: u64f(&m, "bytes")?,
                reason: DropReason::parse(&string(&m, "reason")?)
                    .ok_or(DecodeError::BadField("reason"))?,
            },
            "node_up" => Event::NodeUp,
            "node_down" => Event::NodeDown,
            "fault_inject" => Event::FaultInject {
                what: string(&m, "what")?,
            },
            "retransmit" => Event::Retransmit {
                to: u32f(&m, "to")?,
                label: string(&m, "label")?,
                attempt: u64f(&m, "attempt")?,
            },
            "ack" => Event::Acked {
                peer: u32f(&m, "peer")?,
            },
            "dup_drop" => Event::DupDrop {
                from: u32f(&m, "from")?,
                label: string(&m, "label")?,
            },
            "corrupt_drop" => Event::CorruptDrop {
                from: u32f(&m, "from")?,
                label: string(&m, "label")?,
            },
            "lease_expire" => Event::LeaseExpire {
                client: u32f(&m, "client")?,
            },
            "peer_quarantine" => Event::PeerQuarantine {
                client: u32f(&m, "client")?,
                strikes: u64f(&m, "strikes")?,
            },
            "client_launch" => Event::ClientLaunch {
                client: u32f(&m, "client")?,
            },
            "assign" => Event::Assign {
                client: u32f(&m, "client")?,
            },
            "split" => Event::Split {
                requester: u32f(&m, "requester")?,
                peer: u32f(&m, "peer")?,
            },
            "backlog_enqueue" => Event::BacklogEnqueue {
                client: u32f(&m, "client")?,
                depth: u64f(&m, "depth")?,
            },
            "backlog_dequeue" => Event::BacklogDequeue {
                client: u32f(&m, "client")?,
                depth: u64f(&m, "depth")?,
            },
            "migrate" => Event::Migrate {
                from: u32f(&m, "from")?,
                to: u32f(&m, "to")?,
            },
            "checkpoint" => Event::CheckpointSaved {
                client: u32f(&m, "client")?,
            },
            "result" => Event::ResultReport {
                client: u32f(&m, "client")?,
                sat: boolean(&m, "sat")?,
            },
            "outcome" => Event::Outcome {
                outcome: string(&m, "outcome")?,
            },
            "journal_append" => Event::JournalAppend {
                record: u64f(&m, "record")?,
                lag: u64f(&m, "lag")?,
            },
            "journal_replay" => Event::JournalReplay {
                records: u64f(&m, "records")?,
            },
            "journal_truncate" => Event::JournalTruncate {
                kept: u64f(&m, "kept")?,
                dropped_bytes: u64f(&m, "dropped_bytes")?,
            },
            "standby_promote" => Event::StandbyPromote {
                records: u64f(&m, "records")?,
            },
            "audit_violation" => Event::AuditViolation {
                path: string(&m, "path")?,
            },
            "share_dedup" => Event::ShareDedup {
                dropped: u64f(&m, "dropped")?,
            },
            "relink" => Event::Relink {
                nodes: u64f(&m, "nodes")?,
            },
            other => return Err(DecodeError::UnknownKind(other.to_string())),
        };
        Ok(TimedEvent {
            t_s,
            node,
            seq,
            cause,
            event,
        })
    }
}

/// Serialize a slice of events as JSONL (one event per line, trailing
/// newline included when non-empty).
pub fn to_jsonl(events: &[TimedEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json_line());
        out.push('\n');
    }
    out
}

/// Parse a JSONL document. Blank lines are skipped; the first malformed
/// line aborts with its (1-based) line number.
pub fn from_jsonl(text: &str) -> Result<Vec<TimedEvent>, (usize, DecodeError)> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(TimedEvent::from_json_line(line).map_err(|e| (i + 1, e))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One of every event kind, with representative payloads. Causal
    /// stamps form a simple chain: event i has `seq == i + 1` and
    /// `cause == i`, exercising both the zero (root) and non-zero cases.
    pub fn sample_events() -> Vec<TimedEvent> {
        let ev = |t_s: f64, node: u32, event: Event| TimedEvent {
            t_s,
            node,
            seq: 0,
            cause: 0,
            event,
        };
        vec![
            ev(0.0, 3, Event::NodeUp),
            ev(0.5, 1, Event::ClientLaunch { client: 1 }),
            ev(0.5, 0, Event::Assign { client: 1 }),
            ev(
                1.25,
                0,
                Event::MsgSend {
                    from: 0,
                    to: 1,
                    label: "solve".into(),
                    bytes: 4096,
                },
            ),
            ev(
                2.5,
                1,
                Event::MsgDeliver {
                    from: 0,
                    to: 1,
                    label: "solve".into(),
                    bytes: 4096,
                },
            ),
            ev(3.0, 1, Event::Conflict { level: 7 }),
            ev(
                3.0,
                1,
                Event::Learn {
                    len: 3,
                    global: true,
                },
            ),
            ev(
                5.0,
                1,
                Event::DbReduce {
                    deleted: 50,
                    live: 51,
                },
            ),
            ev(
                5.1,
                1,
                Event::DbGc {
                    freed_bytes: 1184,
                    live: 51,
                },
            ),
            ev(
                6.0,
                0,
                Event::BacklogEnqueue {
                    client: 1,
                    depth: 1,
                },
            ),
            ev(
                7.0,
                0,
                Event::BacklogDequeue {
                    client: 1,
                    depth: 0,
                },
            ),
            ev(
                8.0,
                0,
                Event::Split {
                    requester: 1,
                    peer: 2,
                },
            ),
            ev(
                9.5,
                2,
                Event::MsgDrop {
                    from: 2,
                    to: 3,
                    label: "share".into(),
                    bytes: 128,
                    reason: DropReason::DeadPeer,
                },
            ),
            ev(10.0, 0, Event::Migrate { from: 2, to: 4 }),
            ev(11.0, 0, Event::CheckpointSaved { client: 4 }),
            ev(
                12.0,
                0,
                Event::ResultReport {
                    client: 4,
                    sat: false,
                },
            ),
            ev(13.0, 3, Event::NodeDown),
            ev(
                13.1,
                0,
                Event::FaultInject {
                    what: "link_down 1-2".into(),
                },
            ),
            ev(
                13.2,
                1,
                Event::Retransmit {
                    to: 0,
                    label: "result(UNSAT)".into(),
                    attempt: 1,
                },
            ),
            ev(13.3, 1, Event::Acked { peer: 0 }),
            ev(
                13.4,
                0,
                Event::DupDrop {
                    from: 1,
                    label: "result(UNSAT)".into(),
                },
            ),
            ev(
                13.45,
                0,
                Event::CorruptDrop {
                    from: 2,
                    label: "share".into(),
                },
            ),
            ev(
                13.47,
                0,
                Event::PeerQuarantine {
                    client: 2,
                    strikes: 25,
                },
            ),
            ev(13.5, 0, Event::LeaseExpire { client: 2 }),
            ev(13.6, 0, Event::JournalAppend { record: 41, lag: 3 }),
            ev(13.7, 5, Event::JournalReplay { records: 42 }),
            ev(
                13.75,
                0,
                Event::JournalTruncate {
                    kept: 40,
                    dropped_bytes: 17,
                },
            ),
            ev(13.8, 1, Event::StandbyPromote { records: 42 }),
            ev(
                13.9,
                0,
                Event::AuditViolation {
                    path: "[-3 7]".into(),
                },
            ),
            ev(13.92, 2, Event::ShareDedup { dropped: 6 }),
            ev(13.95, 0, Event::Relink { nodes: 5 }),
            ev(
                14.0,
                0,
                Event::Outcome {
                    outcome: "UNSAT".into(),
                },
            ),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, mut e)| {
            e.seq = i as u64 + 1;
            e.cause = i as u64;
            e
        })
        .collect()
    }

    #[test]
    fn every_kind_round_trips() {
        for ev in sample_events() {
            let line = ev.to_json_line();
            let back = TimedEvent::from_json_line(&line).unwrap_or_else(|e| {
                panic!("failed to decode {line}: {e}");
            });
            assert_eq!(back, ev, "{line}");
        }
    }

    #[test]
    fn jsonl_round_trips_with_blank_lines() {
        let events = sample_events();
        let mut text = to_jsonl(&events);
        text.insert(0, '\n');
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn malformed_line_reports_its_number() {
        let text = format!("{}\nnot json\n", sample_events()[0].to_json_line());
        let (line_no, _) = from_jsonl(&text).unwrap_err();
        assert_eq!(line_no, 2);
    }

    #[test]
    fn line_shape_is_stable() {
        let ev = TimedEvent {
            t_s: 1.5,
            node: 2,
            seq: 9,
            cause: 4,
            event: Event::Conflict { level: 4 },
        };
        assert_eq!(
            ev.to_json_line(),
            r#"{"t":1.5,"node":2,"seq":9,"cause":4,"kind":"conflict","level":4}"#
        );
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let err =
            TimedEvent::from_json_line(r#"{"t":0,"node":0,"seq":0,"cause":0,"kind":"frobnicate"}"#);
        assert!(matches!(err, Err(DecodeError::UnknownKind(_))));
    }
}

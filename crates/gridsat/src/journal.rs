//! Write-ahead journal for the master's scheduling state (durability
//! extension).
//!
//! Every scheduling decision the master takes — launch, assign, grant,
//! backlog movement, checkpoint accept, recovery, adoption — is first
//! appended to the [`MasterJournal`] as a [`JournalRecord`], sealed into
//! its byte log, and only then applied to the in-memory [`MasterCore`].
//! The byte log is the only copy of that history. The core is a
//! deterministic fold over it, record by record, which rebuilds the
//! exact client roster, grants, backlog and checkpoint set: that is what
//! lets a restarted master self-check its state and lets a standby
//! promote itself from the bytes it tailed off the control traffic.
//!
//! Records are *unconditional* state deltas: every conditional the live
//! master evaluates (problem-id matches, grant-open checks, checkpoint
//! freshness) is resolved at emit time, so `apply` never needs to guess
//! and replay can never diverge from the live fold.

use crate::config::{CheckpointMode, GridConfig, SHARE_TREE_FANOUT};
use crate::idle::{Hosts, IdleIndex};
use crate::master::{ClientState, GrantKind};
use crate::msg::{Checkpoint, ProblemId};
use crate::wire::{self, SpecFrame, WireError};
use gridsat_cnf::Clause;
use gridsat_grid::NodeId;
use gridsat_nws::{Adaptive, Forecaster};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// A recovered or requeued subproblem awaiting an idle client, as the
/// sealed frame its next `Solve` sends, plus the identity of the instance
/// it re-covers (for audit provenance: the re-dispatch owns the same
/// guiding-path cube as `source`).
#[derive(Clone, Debug, PartialEq)]
pub struct RecoverySpec {
    pub frame: SpecFrame,
    pub source: Option<ProblemId>,
}

/// One appended scheduling decision. Every variant is a plain state
/// delta; the journal is the authoritative history and [`MasterCore`] is
/// its fold.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord {
    /// A client registered (or re-registered after a restart).
    Launch {
        client: NodeId,
        memory: usize,
        speed: f64,
        availability: f64,
        at: f64,
    },
    /// A client left the roster (loss, lease expiry, or promotion of the
    /// standby out of client duty).
    Deregister { client: NodeId },
    /// The first registrant was handed the entire problem.
    AssignWhole {
        client: NodeId,
        problem: ProblemId,
        at: f64,
    },
    /// The head of the recovery queue was dispatched to an idle client.
    AssignRecovery {
        client: NodeId,
        problem: ProblemId,
        at: f64,
    },
    /// The master learned which subproblem a busy client holds (from a
    /// split request naming a problem we had lost track of).
    ProblemLearned { client: NodeId, problem: ProblemId },
    /// A split request found no idle peer and joined the backlog.
    BacklogPush { client: NodeId },
    /// A client left the backlog (served, finished, or deregistered).
    BacklogRemove { client: NodeId },
    /// A split or migrate grant opened: `peer` turns Receiving.
    GrantOpen {
        requester: NodeId,
        peer: NodeId,
        kind: GrantKind,
    },
    /// A grant closed; `free_peer` records whether the reserved peer
    /// returns to Idle (transfer failed / grant dropped) or not (the
    /// transfer confirmation already made it Busy, or the peer is gone).
    GrantClose { requester: NodeId, free_peer: bool },
    /// Figure 3 message (5): the requester kept its half on a fresh
    /// clock.
    SplitKept { requester: NodeId, at: f64 },
    /// A migration source handed its subproblem off and went idle.
    MigrateSent { requester: NodeId },
    /// Figure 3 message (4): the receiving peer confirmed the transfer
    /// and is now busy, with its bundled initial recovery image.
    TransferIn {
        peer: NodeId,
        problem: Option<ProblemId>,
        checkpoint: Option<Checkpoint>,
        at: f64,
    },
    /// A checkpoint upload passed the freshness guard. `learn_problem`
    /// records that the upload also taught us a Receiving peer's
    /// subproblem id.
    CheckpointAccept {
        client: NodeId,
        problem: ProblemId,
        checkpoint: Checkpoint,
        learn_problem: bool,
    },
    /// A client finished (or was confirmed finished) and went idle.
    ClientIdle { client: NodeId },
    /// A result arrived from the peer of an in-flight transfer before
    /// the transfer confirmation; remember it so the late confirmation
    /// cannot resurrect a finished subproblem.
    EarlyResultNote { client: NodeId, problem: ProblemId },
    /// The late transfer confirmation consumed an early result.
    EarlyResultConsume { client: NodeId, problem: ProblemId },
    /// A subproblem was taken back (checkpoint recovery, undeliverable
    /// assignment, or a client's Requeue) and queued for re-dispatch.
    RecoveryQueued { recovery: RecoverySpec },
    /// Narrative marker: a client's heartbeat lease ran out (the state
    /// consequences follow as Deregister/RecoveryQueued records).
    LeaseExpired { client: NodeId },
    /// A client re-registered with its in-progress state after a
    /// takeover (failover extension).
    AdoptClaim {
        client: NodeId,
        memory: usize,
        speed: f64,
        availability: f64,
        busy: bool,
        problem: Option<ProblemId>,
        checkpoint: Option<Checkpoint>,
        at: f64,
    },
    /// Narrative marker: `node` promoted itself to master at `at`.
    Promoted { node: NodeId, at: f64 },
    /// A sub-master-brokered steal transfer is in flight (hierarchy
    /// extension): `donor` is splitting `problem`'s extension off to
    /// `thief` without a grant. Opened from the donor's notice, settled
    /// or aborted by the thief's confirmation.
    StealOpen {
        donor: NodeId,
        thief: NodeId,
        problem: ProblemId,
        at: f64,
    },
    /// The thief confirmed the stolen transfer: donor keeps its half on
    /// a fresh clock, thief turns Busy with its bundled recovery image.
    StealSettle {
        donor: NodeId,
        thief: NodeId,
        problem: ProblemId,
        checkpoint: Option<Checkpoint>,
        at: f64,
    },
    /// The stolen transfer failed, its subproblem was requeued, or the
    /// thief's result arrived before its confirmation; the steal stops
    /// gating termination and a late confirmation is a duplicate.
    StealAbort { problem: ProblemId },
}

// ----------------------------------------------------------------------
// Byte-serialized records (data-integrity extension)
// ----------------------------------------------------------------------

/// Why a sealed journal record failed to decode. `Checksum` and
/// `BadSeq` are integrity verdicts (the bytes parsed but are not
/// trustworthy); `Wire` and `BadTag` are malformed-bytes verdicts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// Malformed payload bytes: truncation, overflow, trailing garbage.
    Wire(WireError),
    /// The per-record CRC32 does not match the payload.
    Checksum,
    /// Unknown record tag byte (future version or corruption that
    /// happened to pass the CRC of a different payload).
    BadTag(u8),
    /// The sequence stamp does not continue the verified prefix.
    BadSeq { want: u64, got: u64 },
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Wire(e) => write!(f, "record payload: {e}"),
            RecordError::Checksum => write!(f, "record checksum mismatch"),
            RecordError::BadTag(tag) => write!(f, "unknown record tag {tag}"),
            RecordError::BadSeq { want, got } => {
                write!(f, "record sequence {got} where {want} expected")
            }
        }
    }
}

impl std::error::Error for RecordError {}

impl From<WireError> for RecordError {
    fn from(e: WireError) -> RecordError {
        RecordError::Wire(e)
    }
}

fn put_node(n: NodeId, out: &mut Vec<u8>) {
    wire::write_varint(u64::from(n.0), out);
}

fn get_node(buf: &[u8], pos: &mut usize) -> Result<NodeId, RecordError> {
    let v = wire::read_varint(buf, pos)?;
    if v > u64::from(u32::MAX) {
        return Err(WireError::Overflow.into());
    }
    Ok(NodeId(v as u32))
}

fn put_problem(p: ProblemId, out: &mut Vec<u8>) {
    wire::write_varint(p.0, out);
}

fn get_problem(buf: &[u8], pos: &mut usize) -> Result<ProblemId, RecordError> {
    Ok(ProblemId(wire::read_varint(buf, pos)?))
}

fn put_f64(v: f64, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn get_f64(buf: &[u8], pos: &mut usize) -> Result<f64, RecordError> {
    if buf.len().saturating_sub(*pos) < 8 {
        return Err(WireError::Truncated.into());
    }
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[*pos..*pos + 8]);
    *pos += 8;
    Ok(f64::from_bits(u64::from_le_bytes(b)))
}

fn put_bool(v: bool, out: &mut Vec<u8>) {
    out.push(u8::from(v));
}

fn get_bool(buf: &[u8], pos: &mut usize) -> Result<bool, RecordError> {
    match buf.get(*pos) {
        Some(&b @ (0 | 1)) => {
            *pos += 1;
            Ok(b == 1)
        }
        Some(_) => Err(WireError::Overflow.into()),
        None => Err(WireError::Truncated.into()),
    }
}

fn put_clauses(clauses: &[Clause], out: &mut Vec<u8>) {
    wire::write_varint(clauses.len() as u64, out);
    for clause in clauses {
        wire::encode_codes(clause.lits().iter().map(|l| l.code() as u32), out);
    }
}

fn get_clauses(buf: &[u8], pos: &mut usize) -> Result<Vec<Clause>, RecordError> {
    let n = wire::read_varint(buf, pos)?;
    if n > buf.len() as u64 {
        return Err(WireError::Truncated.into());
    }
    let mut clauses = Vec::with_capacity(n as usize);
    for _ in 0..n {
        clauses.push(wire::decode_clause(buf, pos)?);
    }
    Ok(clauses)
}

fn put_checkpoint(cp: &Checkpoint, out: &mut Vec<u8>) {
    match cp {
        Checkpoint::Light { level0 } => {
            out.push(0);
            wire::write_pairs(level0, out);
        }
        Checkpoint::Heavy { level0, learned } => {
            out.push(1);
            wire::write_pairs(level0, out);
            put_clauses(learned, out);
        }
    }
}

fn get_checkpoint(buf: &[u8], pos: &mut usize) -> Result<Checkpoint, RecordError> {
    match buf.get(*pos) {
        Some(0) => {
            *pos += 1;
            Ok(Checkpoint::Light {
                level0: wire::read_pairs(buf, pos)?,
            })
        }
        Some(1) => {
            *pos += 1;
            Ok(Checkpoint::Heavy {
                level0: wire::read_pairs(buf, pos)?,
                learned: get_clauses(buf, pos)?,
            })
        }
        Some(_) => Err(WireError::Overflow.into()),
        None => Err(WireError::Truncated.into()),
    }
}

fn put_opt<T>(v: &Option<T>, put: impl Fn(&T, &mut Vec<u8>), out: &mut Vec<u8>) {
    match v {
        None => out.push(0),
        Some(inner) => {
            out.push(1);
            put(inner, out);
        }
    }
}

fn get_opt<T>(
    buf: &[u8],
    pos: &mut usize,
    get: impl Fn(&[u8], &mut usize) -> Result<T, RecordError>,
) -> Result<Option<T>, RecordError> {
    Ok(if get_bool(buf, pos)? {
        Some(get(buf, pos)?)
    } else {
        None
    })
}

/// A spec is journaled as its frame's payload, length-prefixed because
/// the spec decoder demands full consumption of its buffer.
fn put_frame(frame: &SpecFrame, out: &mut Vec<u8>) {
    let body = frame.payload();
    wire::write_varint(body.len() as u64, out);
    out.extend_from_slice(body);
}

fn get_frame(buf: &[u8], pos: &mut usize) -> Result<SpecFrame, RecordError> {
    let len = wire::read_varint(buf, pos)?;
    if len > buf.len().saturating_sub(*pos) as u64 {
        return Err(WireError::Truncated.into());
    }
    let end = *pos + len as usize;
    let frame = SpecFrame::from_payload(&buf[*pos..end])?;
    *pos = end;
    Ok(frame)
}

/// Serialize one record: a tag byte (the variant's declaration index)
/// followed by its fields.
fn encode_record(rec: &JournalRecord, out: &mut Vec<u8>) {
    match rec {
        JournalRecord::Launch {
            client,
            memory,
            speed,
            availability,
            at,
        } => {
            out.push(0);
            put_node(*client, out);
            wire::write_varint(*memory as u64, out);
            put_f64(*speed, out);
            put_f64(*availability, out);
            put_f64(*at, out);
        }
        JournalRecord::Deregister { client } => {
            out.push(1);
            put_node(*client, out);
        }
        JournalRecord::AssignWhole {
            client,
            problem,
            at,
        } => {
            out.push(2);
            put_node(*client, out);
            put_problem(*problem, out);
            put_f64(*at, out);
        }
        JournalRecord::AssignRecovery {
            client,
            problem,
            at,
        } => {
            out.push(3);
            put_node(*client, out);
            put_problem(*problem, out);
            put_f64(*at, out);
        }
        JournalRecord::ProblemLearned { client, problem } => {
            out.push(4);
            put_node(*client, out);
            put_problem(*problem, out);
        }
        JournalRecord::BacklogPush { client } => {
            out.push(5);
            put_node(*client, out);
        }
        JournalRecord::BacklogRemove { client } => {
            out.push(6);
            put_node(*client, out);
        }
        JournalRecord::GrantOpen {
            requester,
            peer,
            kind,
        } => {
            out.push(7);
            put_node(*requester, out);
            put_node(*peer, out);
            out.push(match kind {
                GrantKind::Split => 0,
                GrantKind::Migrate => 1,
            });
        }
        JournalRecord::GrantClose {
            requester,
            free_peer,
        } => {
            out.push(8);
            put_node(*requester, out);
            put_bool(*free_peer, out);
        }
        JournalRecord::SplitKept { requester, at } => {
            out.push(9);
            put_node(*requester, out);
            put_f64(*at, out);
        }
        JournalRecord::MigrateSent { requester } => {
            out.push(10);
            put_node(*requester, out);
        }
        JournalRecord::TransferIn {
            peer,
            problem,
            checkpoint,
            at,
        } => {
            out.push(11);
            put_node(*peer, out);
            put_opt(problem, |p, o| put_problem(*p, o), out);
            put_opt(checkpoint, put_checkpoint, out);
            put_f64(*at, out);
        }
        JournalRecord::CheckpointAccept {
            client,
            problem,
            checkpoint,
            learn_problem,
        } => {
            out.push(12);
            put_node(*client, out);
            put_problem(*problem, out);
            put_checkpoint(checkpoint, out);
            put_bool(*learn_problem, out);
        }
        JournalRecord::ClientIdle { client } => {
            out.push(13);
            put_node(*client, out);
        }
        JournalRecord::EarlyResultNote { client, problem } => {
            out.push(14);
            put_node(*client, out);
            put_problem(*problem, out);
        }
        JournalRecord::EarlyResultConsume { client, problem } => {
            out.push(15);
            put_node(*client, out);
            put_problem(*problem, out);
        }
        JournalRecord::RecoveryQueued { recovery } => {
            out.push(16);
            put_frame(&recovery.frame, out);
            put_opt(&recovery.source, |p, o| put_problem(*p, o), out);
        }
        JournalRecord::LeaseExpired { client } => {
            out.push(17);
            put_node(*client, out);
        }
        JournalRecord::AdoptClaim {
            client,
            memory,
            speed,
            availability,
            busy,
            problem,
            checkpoint,
            at,
        } => {
            out.push(18);
            put_node(*client, out);
            wire::write_varint(*memory as u64, out);
            put_f64(*speed, out);
            put_f64(*availability, out);
            put_bool(*busy, out);
            put_opt(problem, |p, o| put_problem(*p, o), out);
            put_opt(checkpoint, put_checkpoint, out);
            put_f64(*at, out);
        }
        JournalRecord::Promoted { node, at } => {
            out.push(19);
            put_node(*node, out);
            put_f64(*at, out);
        }
        JournalRecord::StealOpen {
            donor,
            thief,
            problem,
            at,
        } => {
            out.push(20);
            put_node(*donor, out);
            put_node(*thief, out);
            put_problem(*problem, out);
            put_f64(*at, out);
        }
        JournalRecord::StealSettle {
            donor,
            thief,
            problem,
            checkpoint,
            at,
        } => {
            out.push(21);
            put_node(*donor, out);
            put_node(*thief, out);
            put_problem(*problem, out);
            put_opt(checkpoint, put_checkpoint, out);
            put_f64(*at, out);
        }
        JournalRecord::StealAbort { problem } => {
            out.push(22);
            put_problem(*problem, out);
        }
    }
}

/// Decode one record payload. Inverse of [`encode_record`]; the whole
/// buffer must be consumed.
fn decode_record(buf: &[u8]) -> Result<JournalRecord, RecordError> {
    let mut pos = 0usize;
    let Some(&tag) = buf.first() else {
        return Err(WireError::Truncated.into());
    };
    pos += 1;
    let rec = match tag {
        0 => JournalRecord::Launch {
            client: get_node(buf, &mut pos)?,
            memory: wire::read_varint(buf, &mut pos)? as usize,
            speed: get_f64(buf, &mut pos)?,
            availability: get_f64(buf, &mut pos)?,
            at: get_f64(buf, &mut pos)?,
        },
        1 => JournalRecord::Deregister {
            client: get_node(buf, &mut pos)?,
        },
        2 => JournalRecord::AssignWhole {
            client: get_node(buf, &mut pos)?,
            problem: get_problem(buf, &mut pos)?,
            at: get_f64(buf, &mut pos)?,
        },
        3 => JournalRecord::AssignRecovery {
            client: get_node(buf, &mut pos)?,
            problem: get_problem(buf, &mut pos)?,
            at: get_f64(buf, &mut pos)?,
        },
        4 => JournalRecord::ProblemLearned {
            client: get_node(buf, &mut pos)?,
            problem: get_problem(buf, &mut pos)?,
        },
        5 => JournalRecord::BacklogPush {
            client: get_node(buf, &mut pos)?,
        },
        6 => JournalRecord::BacklogRemove {
            client: get_node(buf, &mut pos)?,
        },
        7 => JournalRecord::GrantOpen {
            requester: get_node(buf, &mut pos)?,
            peer: get_node(buf, &mut pos)?,
            kind: match buf.get(pos) {
                Some(0) => {
                    pos += 1;
                    GrantKind::Split
                }
                Some(1) => {
                    pos += 1;
                    GrantKind::Migrate
                }
                Some(_) => return Err(WireError::Overflow.into()),
                None => return Err(WireError::Truncated.into()),
            },
        },
        8 => JournalRecord::GrantClose {
            requester: get_node(buf, &mut pos)?,
            free_peer: get_bool(buf, &mut pos)?,
        },
        9 => JournalRecord::SplitKept {
            requester: get_node(buf, &mut pos)?,
            at: get_f64(buf, &mut pos)?,
        },
        10 => JournalRecord::MigrateSent {
            requester: get_node(buf, &mut pos)?,
        },
        11 => JournalRecord::TransferIn {
            peer: get_node(buf, &mut pos)?,
            problem: get_opt(buf, &mut pos, get_problem)?,
            checkpoint: get_opt(buf, &mut pos, get_checkpoint)?,
            at: get_f64(buf, &mut pos)?,
        },
        12 => JournalRecord::CheckpointAccept {
            client: get_node(buf, &mut pos)?,
            problem: get_problem(buf, &mut pos)?,
            checkpoint: get_checkpoint(buf, &mut pos)?,
            learn_problem: get_bool(buf, &mut pos)?,
        },
        13 => JournalRecord::ClientIdle {
            client: get_node(buf, &mut pos)?,
        },
        14 => JournalRecord::EarlyResultNote {
            client: get_node(buf, &mut pos)?,
            problem: get_problem(buf, &mut pos)?,
        },
        15 => JournalRecord::EarlyResultConsume {
            client: get_node(buf, &mut pos)?,
            problem: get_problem(buf, &mut pos)?,
        },
        16 => JournalRecord::RecoveryQueued {
            recovery: RecoverySpec {
                frame: get_frame(buf, &mut pos)?,
                source: get_opt(buf, &mut pos, get_problem)?,
            },
        },
        17 => JournalRecord::LeaseExpired {
            client: get_node(buf, &mut pos)?,
        },
        18 => JournalRecord::AdoptClaim {
            client: get_node(buf, &mut pos)?,
            memory: wire::read_varint(buf, &mut pos)? as usize,
            speed: get_f64(buf, &mut pos)?,
            availability: get_f64(buf, &mut pos)?,
            busy: get_bool(buf, &mut pos)?,
            problem: get_opt(buf, &mut pos, get_problem)?,
            checkpoint: get_opt(buf, &mut pos, get_checkpoint)?,
            at: get_f64(buf, &mut pos)?,
        },
        19 => JournalRecord::Promoted {
            node: get_node(buf, &mut pos)?,
            at: get_f64(buf, &mut pos)?,
        },
        20 => JournalRecord::StealOpen {
            donor: get_node(buf, &mut pos)?,
            thief: get_node(buf, &mut pos)?,
            problem: get_problem(buf, &mut pos)?,
            at: get_f64(buf, &mut pos)?,
        },
        21 => JournalRecord::StealSettle {
            donor: get_node(buf, &mut pos)?,
            thief: get_node(buf, &mut pos)?,
            problem: get_problem(buf, &mut pos)?,
            checkpoint: get_opt(buf, &mut pos, get_checkpoint)?,
            at: get_f64(buf, &mut pos)?,
        },
        22 => JournalRecord::StealAbort {
            problem: get_problem(buf, &mut pos)?,
        },
        other => return Err(RecordError::BadTag(other)),
    };
    if pos != buf.len() {
        return Err(WireError::TrailingBytes.into());
    }
    Ok(rec)
}

/// One journal record in its durable/wire form:
/// `varint(seq) · varint(payload_len) · check(seq, payload) LE · payload`.
/// The sequence stamp ties the record to its position in the log, the
/// checksum makes a bit flip or torn write detectable, and the length
/// prefix lets a reader skip to the next record without decoding the
/// payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedRecord {
    bytes: Vec<u8>,
}

/// The stored checksum mixes the sequence stamp into the payload CRC
/// (splitmix-style fold), so a bit flip in the stamp's own varint is as
/// detectable as one in the payload.
fn record_check(seq: u64, payload: &[u8]) -> u32 {
    wire::crc32(payload) ^ (seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as u32
}

/// Parse one sealed record starting at `start`; returns the sequence
/// stamp, the record, and the offset one past its final byte.
fn parse_sealed(buf: &[u8], start: usize) -> Result<(u64, JournalRecord, usize), RecordError> {
    let mut pos = start;
    let seq = wire::read_varint(buf, &mut pos)?;
    let len = wire::read_varint(buf, &mut pos)?;
    if buf.len().saturating_sub(pos) < 4 {
        return Err(WireError::Truncated.into());
    }
    let mut crc = [0u8; 4];
    crc.copy_from_slice(&buf[pos..pos + 4]);
    pos += 4;
    if len > buf.len().saturating_sub(pos) as u64 {
        return Err(WireError::Truncated.into());
    }
    let payload = &buf[pos..pos + len as usize];
    if record_check(seq, payload) != u32::from_le_bytes(crc) {
        return Err(RecordError::Checksum);
    }
    let rec = decode_record(payload)?;
    Ok((seq, rec, pos + len as usize))
}

impl SealedRecord {
    /// Serialize, stamp, and checksum one record.
    pub fn seal(seq: u64, rec: &JournalRecord) -> SealedRecord {
        let mut payload = Vec::new();
        encode_record(rec, &mut payload);
        let mut bytes = Vec::with_capacity(payload.len() + 14);
        wire::write_varint(seq, &mut bytes);
        wire::write_varint(payload.len() as u64, &mut bytes);
        bytes.extend_from_slice(&record_check(seq, &payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        SealedRecord { bytes }
    }

    /// Adopt raw wire bytes (receiver/fuzzer entry).
    pub fn from_wire(bytes: Vec<u8>) -> SealedRecord {
        SealedRecord { bytes }
    }

    /// Verify the checksum and decode the stamped record.
    pub fn open(&self) -> Result<(u64, JournalRecord), RecordError> {
        let (seq, rec, next) = parse_sealed(&self.bytes, 0)?;
        if next != self.bytes.len() {
            return Err(WireError::TrailingBytes.into());
        }
        Ok((seq, rec))
    }

    /// Integrity check without keeping the decoded record.
    pub fn intact(&self) -> bool {
        self.open().is_ok()
    }

    /// Bytes on the wire / on disk.
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }

    /// Fault injection: flip one bit, chosen by `seed`.
    pub fn corrupt_bit(&mut self, seed: u64) {
        wire::flip_bit(&mut self.bytes, seed);
    }
}

/// A client's row in the master's roster. All scheduling state lives in
/// [`MasterCore`]; the forecaster and lease clock are live-only
/// refinements excluded from replay equality (they are rebuilt from the
/// availability carried in Launch/AdoptClaim records and from fresh
/// traffic). State and rank change only through [`MasterCore`], which
/// keeps its idle index in step with them.
pub(crate) struct ClientInfo {
    state: ClientState,
    memory: usize,
    speed: f64,
    forecast: Adaptive,
    /// Cached [`ClientInfo::rank`], refreshed whenever the forecast moves.
    rank: f64,
    /// When the client's current subproblem was assigned.
    pub(crate) problem_since: f64,
    /// Identity of the client's current subproblem, as far as the master
    /// knows (refreshed by dispatches, split confirmations and requests).
    pub(crate) problem: Option<ProblemId>,
    /// What the client's cube is rebuilt from if it is lost (extension).
    pub(crate) image: Option<RecoveryImage>,
    /// Simulated second of the last message from this client; heartbeats
    /// keep it fresh so the master can expire silent clients
    /// (reliability extension).
    pub(crate) last_seen: f64,
}

impl ClientInfo {
    fn launched(memory: usize, speed: f64, availability: f64, at: f64) -> ClientInfo {
        let mut info = ClientInfo {
            state: ClientState::Idle,
            memory,
            speed,
            forecast: Adaptive::standard(),
            rank: 0.0,
            problem_since: 0.0,
            problem: None,
            image: None,
            last_seen: at,
        };
        info.observe(availability);
        info
    }

    pub(crate) fn state(&self) -> ClientState {
        self.state
    }

    /// The scheduler's rank (paper Section 3.3): peak speed times the
    /// forecast availability, memory as a small tie-break so
    /// better-provisioned hosts win.
    pub(crate) fn rank(&self) -> f64 {
        self.rank
    }

    /// Feed one availability measurement to the forecaster.
    fn observe(&mut self, availability: f64) {
        self.forecast.update(availability);
        let availability = self.forecast.predict().unwrap_or(1.0).clamp(0.01, 1.0);
        self.rank = self.speed * availability + self.memory as f64 * 1e-9;
    }
}

/// What the master rebuilds a lost client's cube from.
#[derive(Clone, Debug, PartialEq)]
pub enum RecoveryImage {
    /// The frame the master dispatched, until the client's first
    /// checkpoint lands: recovering re-sends the same bytes.
    Sent(SpecFrame),
    /// The client's latest checkpoint, re-dispatched as `Checkpoint::frame`.
    Uploaded(Checkpoint),
}

impl RecoveryImage {
    /// The cube as the frame that re-dispatches it.
    pub(crate) fn frame(&self, formula: &gridsat_cnf::Formula) -> SpecFrame {
        match self {
            RecoveryImage::Sent(frame) => frame.clone(),
            RecoveryImage::Uploaded(cp) => cp.frame(formula),
        }
    }
}

/// One client's row in a [`CoreImage`]: id, state, memory,
/// problem-since, assigned problem, recovery image.
pub type ClientImage = (
    NodeId,
    ClientState,
    usize,
    f64,
    Option<ProblemId>,
    Option<RecoveryImage>,
);

/// Replay-equality image of a [`MasterCore`]: everything scheduling
/// depends on, excluding the live-only forecaster state and lease
/// clocks.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreImage {
    pub clients: Vec<ClientImage>,
    pub backlog: Vec<NodeId>,
    pub grants: Vec<(NodeId, NodeId, GrantKind)>,
    pub pending_recovery: Vec<RecoverySpec>,
    pub early_results: Vec<(NodeId, ProblemId)>,
    pub pending_steals: Vec<(ProblemId, NodeId, NodeId)>,
    pub seen_steals: Vec<ProblemId>,
    pub first_problem_sent: bool,
    pub slots: Vec<NodeId>,
}

/// The slot above `slot` in the share tree; none above the root.
pub(crate) fn tree_parent(slot: usize) -> Option<usize> {
    slot.checked_sub(1).map(|below| below / SHARE_TREE_FANOUT)
}

/// The slots below `slot` in the share tree, occupied or not.
pub(crate) fn tree_children(slot: usize) -> std::ops::Range<usize> {
    SHARE_TREE_FANOUT * slot + 1..SHARE_TREE_FANOUT * (slot + 1) + 1
}

/// The journaled scheduling state: a deterministic fold over
/// [`JournalRecord`]s.
#[derive(Default)]
pub(crate) struct MasterCore {
    pub(crate) clients: BTreeMap<NodeId, ClientInfo>,
    pub(crate) backlog: VecDeque<NodeId>,
    /// requester -> (peer, kind) for in-flight grants.
    pub(crate) grants: BTreeMap<NodeId, (NodeId, GrantKind)>,
    /// Subproblems recovered from checkpoints of lost clients (or handed
    /// back by clients), awaiting an idle client.
    pub(crate) pending_recovery: VecDeque<RecoverySpec>,
    /// Results that arrived before the transfer confirmation that would
    /// have marked their sender Busy (at-least-once delivery reorders).
    pub(crate) early_results: BTreeSet<(NodeId, ProblemId)>,
    /// Steal transfers the root knows are in flight (hierarchy
    /// extension): stolen problem -> (donor, thief). Gates the all-idle
    /// termination check exactly like an open grant.
    pub(crate) pending_steals: BTreeMap<ProblemId, (NodeId, NodeId)>,
    /// Every steal ever opened, settled or aborted — dedups the
    /// at-least-once redeliveries of notices and confirmations, which
    /// can arrive in either order.
    pub(crate) seen_steals: BTreeSet<ProblemId>,
    pub(crate) first_problem_sent: bool,
    /// The registered clients in share-tree order: a
    /// [`SHARE_TREE_FANOUT`]-ary heap, slot 0 the root. A client joins at
    /// the end and the last one moves into the slot of one that leaves,
    /// so a membership change re-links a handful of nodes. Folded from the
    /// journal, so a replayed master links the fleet as the live one did.
    pub(crate) slots: Vec<NodeId>,
    /// Derived from `clients` and kept in step with it by
    /// [`MasterCore::set_state`], [`MasterCore::admit`],
    /// [`MasterCore::remove`] and [`MasterCore::report_load`]: the idle
    /// clients ordered for the scheduler, and how many clients are Busy or
    /// Receiving. Outside [`CoreImage`]; a replay rebuilds both.
    pub(crate) idle: IdleIndex,
    busy: usize,
}

impl MasterCore {
    /// An empty core whose idle index knows each host's site.
    pub(crate) fn new(hosts: Hosts) -> MasterCore {
        MasterCore {
            idle: IdleIndex::new(hosts),
            ..MasterCore::default()
        }
    }

    /// Take `client` out of the derived counts before its row changes.
    fn untrack(&mut self, client: NodeId) {
        if let Some(info) = self.clients.get(&client) {
            match info.state {
                ClientState::Idle => self.idle.remove(client, info.rank),
                ClientState::Busy | ClientState::Receiving => self.busy -= 1,
            }
        }
    }

    /// Put `client` back into the derived counts after its row changed.
    fn track(&mut self, client: NodeId) {
        if let Some(info) = self.clients.get(&client) {
            match info.state {
                ClientState::Idle => self.idle.insert(client, info.rank),
                ClientState::Busy | ClientState::Receiving => self.busy += 1,
            }
        }
    }

    /// Every state transition of a registered client goes through here.
    fn set_state(&mut self, client: NodeId, state: ClientState) {
        self.untrack(client);
        if let Some(info) = self.clients.get_mut(&client) {
            info.state = state;
        }
        self.track(client);
    }

    /// Put `info` on the roster under `client`, replacing any earlier row.
    fn admit(&mut self, client: NodeId, info: ClientInfo) {
        self.untrack(client);
        if self.clients.insert(client, info).is_none() {
            self.slots.push(client);
        }
        self.track(client);
    }

    /// Take `client` off the roster; the client in the share tree's last
    /// slot moves into its slot.
    fn remove(&mut self, client: NodeId) {
        self.untrack(client);
        self.clients.remove(&client);
        if let Some(slot) = self.slot_of(client) {
            self.slots.swap_remove(slot);
        }
    }

    /// A client's availability measurement (a live-only refinement, not
    /// journaled): its forecast and rank move.
    pub(crate) fn report_load(&mut self, client: NodeId, availability: f64) {
        self.untrack(client);
        if let Some(info) = self.clients.get_mut(&client) {
            info.observe(availability);
        }
        self.track(client);
    }

    /// How many registered clients are Busy or Receiving.
    pub(crate) fn busy_count(&self) -> usize {
        self.busy
    }

    /// Install a freshly dispatched subproblem on `client`, with the
    /// frame sent as its initial recovery image, so a crash before the
    /// client's first own checkpoint stays recoverable.
    fn install(
        &mut self,
        client: NodeId,
        problem: ProblemId,
        frame: &SpecFrame,
        at: f64,
        config: &GridConfig,
    ) {
        let Some(info) = self.clients.get_mut(&client) else {
            return;
        };
        info.problem_since = at;
        info.problem = Some(problem);
        info.image =
            (config.checkpoint != CheckpointMode::Off).then(|| RecoveryImage::Sent(frame.clone()));
        self.set_state(client, ClientState::Busy);
    }

    /// Apply one record. Returns the dispatched subproblem for the two
    /// assignment records (the live master sends it; replay discards
    /// it).
    pub(crate) fn apply(
        &mut self,
        rec: JournalRecord,
        formula: &gridsat_cnf::Formula,
        config: &GridConfig,
    ) -> Option<RecoverySpec> {
        match rec {
            JournalRecord::Launch {
                client,
                memory,
                speed,
                availability,
                at,
            } => {
                let info = ClientInfo::launched(memory, speed, availability, at);
                self.admit(client, info);
                None
            }
            JournalRecord::Deregister { client } => {
                self.remove(client);
                self.backlog.retain(|id| *id != client);
                self.early_results.retain(|(n, _)| *n != client);
                None
            }
            JournalRecord::AssignWhole {
                client,
                problem,
                at,
            } => {
                self.first_problem_sent = true;
                let clauses = formula.clauses().iter().map(Clause::lits);
                let frame = SpecFrame::build(formula.num_vars(), &[], clauses);
                self.install(client, problem, &frame, at, config);
                Some(RecoverySpec {
                    frame,
                    source: None,
                })
            }
            JournalRecord::AssignRecovery {
                client,
                problem,
                at,
            } => {
                let recovery = self.pending_recovery.pop_front()?;
                self.install(client, problem, &recovery.frame, at, config);
                Some(recovery)
            }
            JournalRecord::ProblemLearned { client, problem } => {
                if let Some(info) = self.clients.get_mut(&client) {
                    info.problem = Some(problem);
                }
                None
            }
            JournalRecord::BacklogPush { client } => {
                if !self.backlog.contains(&client) {
                    self.backlog.push_back(client);
                }
                None
            }
            JournalRecord::BacklogRemove { client } => {
                self.backlog.retain(|id| *id != client);
                None
            }
            JournalRecord::GrantOpen {
                requester,
                peer,
                kind,
            } => {
                self.set_state(peer, ClientState::Receiving);
                self.grants.insert(requester, (peer, kind));
                None
            }
            JournalRecord::GrantClose {
                requester,
                free_peer,
            } => {
                if let Some((peer, _)) = self.grants.remove(&requester) {
                    let receiving = (self.clients.get(&peer))
                        .is_some_and(|p| p.state == ClientState::Receiving);
                    if free_peer && receiving {
                        self.set_state(peer, ClientState::Idle);
                    }
                }
                None
            }
            JournalRecord::SplitKept { requester, at } => {
                if let Some(r) = self.clients.get_mut(&requester) {
                    r.problem_since = at;
                }
                None
            }
            JournalRecord::MigrateSent { requester } => {
                self.set_state(requester, ClientState::Idle);
                None
            }
            JournalRecord::TransferIn {
                peer,
                problem,
                checkpoint,
                at,
            } => {
                if let Some(info) = self.clients.get_mut(&peer) {
                    info.problem_since = at;
                    info.problem = problem;
                    if let Some(cp) = checkpoint {
                        info.image = Some(RecoveryImage::Uploaded(cp));
                    }
                }
                self.set_state(peer, ClientState::Busy);
                None
            }
            JournalRecord::CheckpointAccept {
                client,
                problem,
                checkpoint,
                learn_problem,
            } => {
                if let Some(info) = self.clients.get_mut(&client) {
                    if learn_problem {
                        info.problem = Some(problem);
                    }
                    info.image = Some(RecoveryImage::Uploaded(checkpoint));
                }
                None
            }
            JournalRecord::ClientIdle { client } => {
                if let Some(info) = self.clients.get_mut(&client) {
                    info.problem = None;
                    info.image = None;
                }
                self.set_state(client, ClientState::Idle);
                None
            }
            JournalRecord::EarlyResultNote { client, problem } => {
                self.early_results.insert((client, problem));
                None
            }
            JournalRecord::EarlyResultConsume { client, problem } => {
                self.early_results.remove(&(client, problem));
                None
            }
            JournalRecord::RecoveryQueued { recovery } => {
                self.pending_recovery.push_back(recovery);
                None
            }
            JournalRecord::LeaseExpired { .. } | JournalRecord::Promoted { .. } => None,
            JournalRecord::AdoptClaim {
                client,
                memory,
                speed,
                availability,
                busy,
                problem,
                checkpoint,
                at,
            } => {
                let mut info = ClientInfo::launched(memory, speed, availability, at);
                info.state = if busy {
                    ClientState::Busy
                } else {
                    ClientState::Idle
                };
                info.problem_since = at;
                info.problem = problem;
                info.image = checkpoint.map(RecoveryImage::Uploaded);
                self.admit(client, info);
                None
            }
            JournalRecord::StealOpen {
                donor,
                thief,
                problem,
                ..
            } => {
                // a notice redelivered after the settle/abort must not
                // reopen the steal
                if !self.seen_steals.contains(&problem) {
                    self.pending_steals.insert(problem, (donor, thief));
                }
                None
            }
            JournalRecord::StealSettle {
                donor,
                thief,
                problem,
                checkpoint,
                at,
            } => {
                self.pending_steals.remove(&problem);
                self.seen_steals.insert(problem);
                // donor kept its half on a fresh clock (like SplitKept)
                if let Some(d) = self.clients.get_mut(&donor) {
                    d.problem_since = at;
                }
                // thief is now busy with the stolen extension (like
                // TransferIn, but no grant reserved it)
                if let Some(t) = self.clients.get_mut(&thief) {
                    t.problem_since = at;
                    t.problem = Some(problem);
                    if let Some(cp) = checkpoint {
                        t.image = Some(RecoveryImage::Uploaded(cp));
                    }
                }
                self.set_state(thief, ClientState::Busy);
                None
            }
            JournalRecord::StealAbort { problem } => {
                self.pending_steals.remove(&problem);
                self.seen_steals.insert(problem);
                None
            }
        }
    }

    /// `client`'s slot in the share tree. Searched from the end: the
    /// common question is about the client that just joined.
    pub(crate) fn slot_of(&self, client: NodeId) -> Option<usize> {
        self.slots.iter().rposition(|&c| c == client)
    }

    /// The share-tree links of the client at `slot`: its parent (none at
    /// the root) and its children.
    pub(crate) fn tree_links(&self, slot: usize) -> (Option<NodeId>, Arc<[NodeId]>) {
        let n = self.slots.len();
        let below = tree_children(slot);
        (
            tree_parent(slot).map(|p| self.slots[p]),
            self.slots[below.start.min(n)..below.end.min(n)].into(),
        )
    }

    /// The replay-equality image (see [`CoreImage`]).
    pub(crate) fn image(&self) -> CoreImage {
        CoreImage {
            clients: self
                .clients
                .iter()
                .map(|(id, c)| {
                    (
                        *id,
                        c.state,
                        c.memory,
                        c.problem_since,
                        c.problem,
                        c.image.clone(),
                    )
                })
                .collect(),
            backlog: self.backlog.iter().copied().collect(),
            grants: self.grants.iter().map(|(r, (p, k))| (*r, *p, *k)).collect(),
            pending_recovery: self.pending_recovery.iter().cloned().collect(),
            early_results: self.early_results.iter().copied().collect(),
            pending_steals: self
                .pending_steals
                .iter()
                .map(|(p, (d, t))| (*p, *d, *t))
                .collect(),
            seen_steals: self.seen_steals.iter().copied().collect(),
            first_problem_sent: self.first_problem_sent,
            slots: self.slots.clone(),
        }
    }
}

/// Outcome of [`MasterJournal::recover`]: how much of the byte log was
/// verified, how much was cut, and why the scan stopped.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoverReport {
    /// Records whose checksum and sequence stamp verified.
    pub recovered: u64,
    /// Bytes discarded past the verified prefix (0 on a clean log).
    pub truncated_bytes: usize,
    /// The failure that ended the scan, if the log was not clean.
    pub error: Option<RecordError>,
}

impl RecoverReport {
    pub fn is_clean(&self) -> bool {
        self.truncated_bytes == 0 && self.error.is_none()
    }
}

/// The append-only record log: every record sealed ([`SealedRecord`])
/// and concatenated, exactly what a real master would have on disk. It
/// is the only copy of the master's history; [`MasterJournal::records`]
/// decodes it. The live master appends before applying. A standby
/// appends each shipped record that verifies as the next one, so its log
/// is a prefix of the master's, byte for byte, and a promotion takes it
/// over as it is. A crashed master restarts from the bytes via
/// [`MasterJournal::recover`], which truncates any torn or corrupt tail
/// instead of trusting it.
#[derive(Default)]
pub struct MasterJournal {
    /// Simulated disk image: concatenated sealed records.
    log: Vec<u8>,
    /// Byte offset of each record in `log`.
    offsets: Vec<usize>,
}

impl MasterJournal {
    pub fn new() -> MasterJournal {
        MasterJournal::default()
    }

    /// Append one record; returns its 0-based sequence number.
    pub fn append(&mut self, rec: impl Borrow<JournalRecord>) -> u64 {
        let seq = self.len();
        let sealed = SealedRecord::seal(seq, rec.borrow());
        self.offsets.push(self.log.len());
        self.log.extend_from_slice(&sealed.bytes);
        seq
    }

    /// Append a shipped record if it verifies as the next one (the
    /// standby's side of the feed). One that does not is left out, and
    /// nothing after it can verify until it is re-shipped.
    pub fn append_sealed(&mut self, sealed: &SealedRecord) -> Result<(), RecordError> {
        if self.verify_next(&sealed.bytes, 0)? != sealed.bytes.len() {
            return Err(WireError::TrailingBytes.into());
        }
        self.offsets.push(self.log.len());
        self.log.extend_from_slice(&sealed.bytes);
        Ok(())
    }

    /// Where the sealed record at `buf[start..]` ends, if it verifies as
    /// this journal's next record: its checksum holds, its payload
    /// decodes, and its stamp is [`MasterJournal::len`].
    fn verify_next(&self, buf: &[u8], start: usize) -> Result<usize, RecordError> {
        let (seq, _, next) = parse_sealed(buf, start)?;
        let want = self.len();
        if seq != want {
            return Err(RecordError::BadSeq { want, got: seq });
        }
        Ok(next)
    }

    pub fn len(&self) -> u64 {
        self.offsets.len() as u64
    }

    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The records, decoded from the log. The log must be whole: after a
    /// simulated-disk fault only [`MasterJournal::recover`] reads it.
    pub fn records(&self) -> Vec<JournalRecord> {
        (self.offsets.iter())
            .map(|&at| {
                let (_, rec, _) = parse_sealed(&self.log, at).expect("the log verified on append");
                rec
            })
            .collect()
    }

    /// The suffix starting at `start`, in sealed wire form (what a
    /// `JournalBatch` carries).
    pub fn sealed_from(&self, start: u64) -> Vec<SealedRecord> {
        let start = (start as usize).min(self.offsets.len());
        (start..self.offsets.len())
            .map(|i| {
                let end = self.offsets.get(i + 1).copied().unwrap_or(self.log.len());
                SealedRecord {
                    bytes: self.log[self.offsets[i]..end].to_vec(),
                }
            })
            .collect()
    }

    /// The durable byte image (simulated disk contents).
    pub fn log_bytes(&self) -> &[u8] {
        &self.log
    }

    /// Simulated-disk fault: tear the byte log at an arbitrary byte
    /// boundary, as a crash mid-append would. Only the disk image is
    /// damaged; the record offsets stand in for the state lost with the
    /// crashed process (their count is how the restart tells a tear at a
    /// record boundary from records never written) and are discarded by
    /// the restart's [`MasterJournal::recover`].
    pub fn tear_log(&mut self, keep_bytes: usize) {
        self.log.truncate(keep_bytes.min(self.log.len()));
    }

    /// Simulated-disk fault: flip one pseudo-random bit of the byte
    /// log, chosen by `seed` (bit rot / partial sector write).
    pub fn flip_log_bit(&mut self, seed: u64) {
        wire::flip_bit(&mut self.log, seed);
    }

    /// Rebuild a journal from a durable byte image, truncating at the
    /// first record that does not verify as the next one: a failed
    /// checksum, sequence check, or parse. Everything before the failure
    /// is verified good; everything from it on is discarded (the report
    /// says how much and why).
    pub fn recover(bytes: &[u8]) -> (MasterJournal, RecoverReport) {
        let mut j = MasterJournal::new();
        let mut pos = 0usize;
        let mut error = None;
        while pos < bytes.len() {
            match j.verify_next(bytes, pos) {
                Ok(next) => {
                    j.offsets.push(pos);
                    pos = next;
                }
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        j.log.extend_from_slice(&bytes[..pos]);
        let report = RecoverReport {
            recovered: j.len(),
            truncated_bytes: bytes.len() - pos,
            error,
        };
        (j, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsat_cnf::Lit;
    use gridsat_solver::SplitSpec;

    fn config() -> GridConfig {
        GridConfig {
            checkpoint: crate::config::CheckpointMode::Heavy,
            ..GridConfig::default()
        }
    }

    /// The state `records` fold to, applied one by one to an empty core.
    fn fold(f: &gridsat_cnf::Formula, cfg: &GridConfig, records: &[JournalRecord]) -> MasterCore {
        let mut core = MasterCore::default();
        for rec in records {
            core.apply(rec.clone(), f, cfg);
        }
        core
    }

    #[test]
    fn replay_folds_a_launch_assign_split_sequence() {
        let f = gridsat_cnf::paper::fig1_formula();
        let cfg = config();
        let n1 = NodeId(1);
        let n2 = NodeId(2);
        let p1 = ProblemId::new(NodeId(0), 1);
        let p2 = ProblemId::new(n1, 1);
        let records = vec![
            JournalRecord::Launch {
                client: n1,
                memory: 1 << 20,
                speed: 100.0,
                availability: 1.0,
                at: 0.0,
            },
            JournalRecord::AssignWhole {
                client: n1,
                problem: p1,
                at: 0.0,
            },
            JournalRecord::Launch {
                client: n2,
                memory: 1 << 20,
                speed: 200.0,
                availability: 1.0,
                at: 1.0,
            },
            JournalRecord::GrantOpen {
                requester: n1,
                peer: n2,
                kind: GrantKind::Split,
            },
            JournalRecord::SplitKept {
                requester: n1,
                at: 3.0,
            },
            JournalRecord::TransferIn {
                peer: n2,
                problem: Some(p2),
                checkpoint: Some(Checkpoint::Light {
                    level0: vec![(Lit::pos(0), false)],
                }),
                at: 4.0,
            },
            JournalRecord::GrantClose {
                requester: n1,
                free_peer: false,
            },
        ];
        let core = fold(&f, &cfg, &records);
        assert!(core.first_problem_sent);
        assert_eq!(core.clients.len(), 2);
        assert_eq!(core.clients[&n1].state, ClientState::Busy);
        assert_eq!(core.clients[&n1].problem, Some(p1));
        assert_eq!(core.clients[&n1].problem_since, 3.0);
        assert_eq!(core.clients[&n2].state, ClientState::Busy);
        assert_eq!(core.clients[&n2].problem, Some(p2));
        assert!(core.grants.is_empty());
        // the whole-problem dispatch keeps the frame it sent as the
        // recovery image: the formula, encoded by reference
        let whole = SpecFrame::seal(&SplitSpec {
            num_vars: f.num_vars(),
            assumptions: vec![],
            clauses: f.clauses().to_vec(),
        });
        assert_eq!(
            core.clients[&n1].image,
            Some(RecoveryImage::Sent(whole.clone()))
        );
        assert_eq!(core.clients[&n1].image.as_ref().unwrap().frame(&f), whole);
    }

    #[test]
    fn assign_recovery_pops_the_queue_and_returns_the_spec() {
        let f = gridsat_cnf::paper::fig1_formula();
        let cfg = config();
        let mut core = MasterCore::default();
        core.apply(
            JournalRecord::Launch {
                client: NodeId(3),
                memory: 1 << 20,
                speed: 100.0,
                availability: 1.0,
                at: 0.0,
            },
            &f,
            &cfg,
        );
        let frame = SpecFrame::seal(&SplitSpec {
            num_vars: f.num_vars(),
            assumptions: vec![(Lit::neg(2), false)],
            clauses: vec![],
        });
        core.apply(
            JournalRecord::RecoveryQueued {
                recovery: RecoverySpec {
                    frame: frame.clone(),
                    source: Some(ProblemId::new(NodeId(0), 1)),
                },
            },
            &f,
            &cfg,
        );
        assert_eq!(core.pending_recovery.len(), 1);
        let out = core
            .apply(
                JournalRecord::AssignRecovery {
                    client: NodeId(3),
                    problem: ProblemId::new(NodeId(0), 2),
                    at: 5.0,
                },
                &f,
                &cfg,
            )
            .expect("dispatch returns the spec");
        assert_eq!(out.frame, frame);
        assert_eq!(out.source, Some(ProblemId::new(NodeId(0), 1)));
        assert!(core.pending_recovery.is_empty());
        assert_eq!(core.clients[&NodeId(3)].state, ClientState::Busy);
        // the frame sent is the recovery image, re-sent as it was
        assert_eq!(
            core.clients[&NodeId(3)].image.as_ref().map(|i| i.frame(&f)),
            Some(frame)
        );
    }

    #[test]
    fn steal_records_fold_like_a_grantless_split() {
        let f = gridsat_cnf::paper::fig1_formula();
        let cfg = config();
        let (donor, thief) = (NodeId(1), NodeId(2));
        let stolen = ProblemId::new(donor, 5);
        let mut core = MasterCore::default();
        for (client, at) in [(donor, 0.0), (thief, 0.5)] {
            core.apply(
                JournalRecord::Launch {
                    client,
                    memory: 1 << 20,
                    speed: 100.0,
                    availability: 1.0,
                    at,
                },
                &f,
                &cfg,
            );
        }
        let open = JournalRecord::StealOpen {
            donor,
            thief,
            problem: stolen,
            at: 1.0,
        };
        core.apply(open.clone(), &f, &cfg);
        assert_eq!(core.pending_steals.get(&stolen), Some(&(donor, thief)));
        core.apply(
            JournalRecord::StealSettle {
                donor,
                thief,
                problem: stolen,
                checkpoint: Some(Checkpoint::Light {
                    level0: vec![(Lit::pos(0), false)],
                }),
                at: 2.0,
            },
            &f,
            &cfg,
        );
        assert!(core.pending_steals.is_empty());
        assert_eq!(core.clients[&thief].state, ClientState::Busy);
        assert_eq!(core.clients[&thief].problem, Some(stolen));
        assert_eq!(core.clients[&thief].problem_since, 2.0);
        assert_eq!(core.clients[&donor].problem_since, 2.0, "fresh clock");
        // a redelivered notice after the settle must not reopen the steal
        core.apply(open, &f, &cfg);
        assert!(core.pending_steals.is_empty(), "seen-steals dedup holds");
        // aborts settle the ledger too
        let other = ProblemId::new(donor, 6);
        core.apply(
            JournalRecord::StealOpen {
                donor,
                thief,
                problem: other,
                at: 3.0,
            },
            &f,
            &cfg,
        );
        core.apply(JournalRecord::StealAbort { problem: other }, &f, &cfg);
        assert!(core.pending_steals.is_empty());
        assert!(core.image().seen_steals.contains(&other));
    }

    #[test]
    fn images_ignore_forecast_but_compare_scheduling_state() {
        let f = gridsat_cnf::paper::fig1_formula();
        let cfg = config();
        let records = vec![JournalRecord::Launch {
            client: NodeId(1),
            memory: 1 << 20,
            speed: 100.0,
            availability: 1.0,
            at: 0.0,
        }];
        let mut a = fold(&f, &cfg, &records);
        let b = fold(&f, &cfg, &records);
        // live-only refinements do not affect the image
        a.report_load(NodeId(1), 0.5);
        a.clients.get_mut(&NodeId(1)).unwrap().last_seen = 99.0;
        assert_eq!(a.image(), b.image());
        // scheduling state does
        a.set_state(NodeId(1), ClientState::Busy);
        assert_ne!(a.image(), b.image());
    }

    #[test]
    fn sealed_from_clamps_and_ships_suffixes() {
        let mut j = MasterJournal::new();
        assert_eq!(
            j.append(JournalRecord::LeaseExpired { client: NodeId(1) }),
            0
        );
        assert_eq!(
            j.append(JournalRecord::Promoted {
                node: NodeId(1),
                at: 3.0
            }),
            1
        );
        assert_eq!(j.len(), 2);
        assert_eq!(j.sealed_from(1).len(), 1);
        assert_eq!(j.sealed_from(1)[0].open().expect("verifies").0, 1);
        assert_eq!(j.sealed_from(7).len(), 0);
    }

    #[test]
    fn record_sizes_scale_with_payload() {
        let small = JournalRecord::CheckpointAccept {
            client: NodeId(1),
            problem: ProblemId::new(NodeId(1), 1),
            checkpoint: Checkpoint::Light { level0: vec![] },
            learn_problem: false,
        };
        let big = JournalRecord::CheckpointAccept {
            client: NodeId(1),
            problem: ProblemId::new(NodeId(1), 1),
            checkpoint: Checkpoint::Light {
                level0: (0..100).map(|v| (Lit::pos(v), false)).collect(),
            },
            learn_problem: false,
        };
        assert!(SealedRecord::seal(0, &big).wire_len() > SealedRecord::seal(0, &small).wire_len());
    }

    /// One of every record variant, with every optional field exercised
    /// in both polarities across the set.
    fn sample_records() -> Vec<JournalRecord> {
        let cp_light = Checkpoint::Light {
            level0: vec![(Lit::pos(0), false), (Lit::neg(3), true)],
        };
        let cp_heavy = Checkpoint::Heavy {
            level0: vec![(Lit::neg(1), false)],
            learned: vec![
                Clause::new(vec![Lit::pos(0), Lit::neg(2)]),
                Clause::new(vec![Lit::pos(4)]),
            ],
        };
        let frame = SpecFrame::seal(&SplitSpec {
            num_vars: 6,
            assumptions: vec![(Lit::pos(2), true)],
            clauses: vec![Clause::new(vec![Lit::neg(0), Lit::pos(5)])],
        });
        vec![
            JournalRecord::Launch {
                client: NodeId(1),
                memory: 1 << 30,
                speed: 123.5,
                availability: 0.875,
                at: 1.25,
            },
            JournalRecord::Deregister { client: NodeId(2) },
            JournalRecord::AssignWhole {
                client: NodeId(1),
                problem: ProblemId::new(NodeId(0), 1),
                at: 2.0,
            },
            JournalRecord::AssignRecovery {
                client: NodeId(3),
                problem: ProblemId::new(NodeId(0), 2),
                at: 3.0,
            },
            JournalRecord::ProblemLearned {
                client: NodeId(3),
                problem: ProblemId::new(NodeId(3), 7),
            },
            JournalRecord::BacklogPush { client: NodeId(4) },
            JournalRecord::BacklogRemove { client: NodeId(4) },
            JournalRecord::GrantOpen {
                requester: NodeId(1),
                peer: NodeId(3),
                kind: GrantKind::Split,
            },
            JournalRecord::GrantClose {
                requester: NodeId(1),
                free_peer: true,
            },
            JournalRecord::SplitKept {
                requester: NodeId(1),
                at: 4.5,
            },
            JournalRecord::MigrateSent {
                requester: NodeId(5),
            },
            JournalRecord::TransferIn {
                peer: NodeId(3),
                problem: Some(ProblemId::new(NodeId(1), 2)),
                checkpoint: Some(cp_light.clone()),
                at: 5.0,
            },
            JournalRecord::TransferIn {
                peer: NodeId(6),
                problem: None,
                checkpoint: None,
                at: 5.5,
            },
            JournalRecord::CheckpointAccept {
                client: NodeId(3),
                problem: ProblemId::new(NodeId(1), 2),
                checkpoint: cp_heavy.clone(),
                learn_problem: true,
            },
            JournalRecord::ClientIdle { client: NodeId(3) },
            JournalRecord::EarlyResultNote {
                client: NodeId(5),
                problem: ProblemId::new(NodeId(5), 1),
            },
            JournalRecord::EarlyResultConsume {
                client: NodeId(5),
                problem: ProblemId::new(NodeId(5), 1),
            },
            JournalRecord::RecoveryQueued {
                recovery: RecoverySpec {
                    frame,
                    source: Some(ProblemId::new(NodeId(3), 9)),
                },
            },
            JournalRecord::LeaseExpired { client: NodeId(6) },
            JournalRecord::AdoptClaim {
                client: NodeId(7),
                memory: 1 << 20,
                speed: 42.0,
                availability: 0.5,
                busy: true,
                problem: Some(ProblemId::new(NodeId(7), 3)),
                checkpoint: Some(cp_heavy),
                at: 6.0,
            },
            JournalRecord::Promoted {
                node: NodeId(9),
                at: 7.0,
            },
            JournalRecord::StealOpen {
                donor: NodeId(3),
                thief: NodeId(4),
                problem: ProblemId::new(NodeId(3), 11),
                at: 8.0,
            },
            JournalRecord::StealSettle {
                donor: NodeId(3),
                thief: NodeId(4),
                problem: ProblemId::new(NodeId(3), 11),
                checkpoint: Some(cp_light),
                at: 8.5,
            },
            JournalRecord::StealAbort {
                problem: ProblemId::new(NodeId(3), 12),
            },
        ]
    }

    #[test]
    fn every_record_variant_round_trips_sealed() {
        for (i, rec) in sample_records().into_iter().enumerate() {
            let sealed = SealedRecord::seal(i as u64, &rec);
            assert!(sealed.intact());
            let (seq, back) = sealed.open().expect("clean record opens");
            assert_eq!(seq, i as u64);
            assert_eq!(back, rec, "variant {i} round-trips");
        }
    }

    /// A recovery journals its frame's payload as received: for a fixed
    /// spec the sealed record is the bytes the decode-and-re-encode path
    /// wrote, captured before the frame became the one form. The
    /// standby's feed and a restart read that format back to the frame.
    #[test]
    fn a_recovery_record_seals_to_the_pinned_bytes() {
        let frame = SpecFrame::seal(&SplitSpec {
            num_vars: 6,
            assumptions: vec![(Lit::pos(2), true), (Lit::neg(4), false)],
            clauses: vec![
                Clause::new(vec![Lit::neg(0), Lit::pos(5)]),
                Clause::new(vec![Lit::pos(1), Lit::neg(3), Lit::pos(2)]),
            ],
        });
        let rec = JournalRecord::RecoveryQueued {
            recovery: RecoverySpec {
                frame,
                source: Some(ProblemId::new(NodeId(3), 9)),
            },
        };
        let pinned: [u8; 26] = [
            7, 20, 150, 55, 173, 63, 16, 12, 6, 2, 9, 18, 2, 2, 2, 18, 3, 4, 10, 5, 1, 137, 128,
            128, 128, 48,
        ];
        assert_eq!(SealedRecord::seal(7, &rec).bytes, pinned);
        // the standby's feed: a record at seq 7 verifies as a tail's next
        let mut master = MasterJournal::new();
        for client in 0..7 {
            master.append(JournalRecord::ClientIdle {
                client: NodeId(client),
            });
        }
        master.append(&rec);
        let mut tail = MasterJournal::new();
        for sealed in master.sealed_from(0) {
            tail.append_sealed(&sealed)
                .expect("verifies as the next record");
        }
        assert!(tail.log_bytes().ends_with(&pinned));
        assert_eq!(tail.records()[7], rec);
        // a restart: recovered from the bytes, the record is the frame
        let (back, report) = MasterJournal::recover(tail.log_bytes());
        assert!(report.is_clean());
        assert_eq!(back.records()[7], rec);
        // a record without a source, over an empty spec
        let empty = JournalRecord::RecoveryQueued {
            recovery: RecoverySpec {
                frame: SpecFrame::seal(&SplitSpec {
                    num_vars: 1,
                    assumptions: vec![],
                    clauses: vec![],
                }),
                source: None,
            },
        };
        let sealed = SealedRecord::seal(0, &empty);
        assert_eq!(sealed.bytes, [0, 6, 141, 190, 8, 77, 16, 3, 1, 0, 0, 0]);
        assert_eq!(sealed.open(), Ok((0, empty)));
    }

    #[test]
    fn sealed_record_rejects_any_single_bit_flip() {
        let rec = JournalRecord::CheckpointAccept {
            client: NodeId(3),
            problem: ProblemId::new(NodeId(1), 2),
            checkpoint: Checkpoint::Light {
                level0: vec![(Lit::pos(1), false)],
            },
            learn_problem: false,
        };
        let sealed = SealedRecord::seal(5, &rec);
        for bit in 0..sealed.wire_len() * 8 {
            let mut bad = sealed.clone();
            bad.bytes[bit / 8] ^= 1 << (bit % 8);
            assert!(
                bad.open().is_err(),
                "bit {bit} flipped but the record still opened"
            );
        }
    }

    #[test]
    fn open_rejects_wrong_tag_trailing_bytes_and_truncation() {
        let sealed = SealedRecord::seal(0, &JournalRecord::ClientIdle { client: NodeId(1) });
        // truncation at every prefix length
        for cut in 0..sealed.wire_len() {
            let torn = SealedRecord::from_wire(sealed.bytes[..cut].to_vec());
            assert!(torn.open().is_err(), "prefix of {cut} bytes opened");
        }
        // trailing garbage after a valid record
        let mut padded = sealed.bytes.clone();
        padded.push(0);
        assert_eq!(
            SealedRecord::from_wire(padded).open(),
            Err(RecordError::Wire(WireError::TrailingBytes))
        );
        // unknown tag, re-sealed with a valid CRC
        let mut payload = vec![200u8];
        payload.push(1);
        let mut bytes = Vec::new();
        wire::write_varint(0, &mut bytes);
        wire::write_varint(payload.len() as u64, &mut bytes);
        bytes.extend_from_slice(&record_check(0, &payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert_eq!(
            SealedRecord::from_wire(bytes).open(),
            Err(RecordError::BadTag(200))
        );
    }

    #[test]
    fn journal_maintains_a_recoverable_byte_log() {
        let mut j = MasterJournal::new();
        for rec in sample_records() {
            j.append(rec);
        }
        assert_eq!(j.sealed_from(0).len(), j.records().len());
        assert!(j.sealed_from(0).iter().all(SealedRecord::intact));
        let (back, report) = MasterJournal::recover(j.log_bytes());
        assert!(report.is_clean());
        assert_eq!(report.recovered, j.len());
        assert_eq!(back.records(), j.records());
        assert_eq!(back.log_bytes(), j.log_bytes());
    }

    #[test]
    fn journal_records_decode_exactly_what_was_appended() {
        let mut j = MasterJournal::new();
        assert!(j.is_empty() && j.records().is_empty());
        for (seq, rec) in sample_records().into_iter().enumerate() {
            assert_eq!(j.append(rec), seq as u64);
        }
        assert_eq!(j.len(), sample_records().len() as u64);
        assert_eq!(j.records(), sample_records());
    }

    #[test]
    fn journal_tail_appends_a_shipped_record_only_as_the_next_one() {
        let mut master = MasterJournal::new();
        for rec in sample_records() {
            master.append(rec);
        }
        let shipped = master.sealed_from(0);
        let mut tail = MasterJournal::new();
        for sealed in &shipped[..3] {
            tail.append_sealed(sealed).expect("in order and intact");
        }
        // a record mangled in flight, one that skips ahead, one already
        // held, and one with trailing bytes are all left out
        let mut mangled = shipped[3].clone();
        mangled.corrupt_bit(7);
        assert!(tail.append_sealed(&mangled).is_err());
        assert_eq!(
            tail.append_sealed(&shipped[4]),
            Err(RecordError::BadSeq { want: 3, got: 4 })
        );
        assert_eq!(
            tail.append_sealed(&shipped[2]),
            Err(RecordError::BadSeq { want: 3, got: 2 })
        );
        let mut padded = shipped[3].bytes.clone();
        padded.push(0);
        assert_eq!(
            tail.append_sealed(&SealedRecord::from_wire(padded)),
            Err(RecordError::Wire(WireError::TrailingBytes))
        );
        assert_eq!(tail.len(), 3);
        assert!(master.log_bytes().starts_with(tail.log_bytes()));
        // the re-shipped suffix completes the tail, byte for byte
        for sealed in master.sealed_from(tail.len()) {
            tail.append_sealed(&sealed).expect("re-shipped intact");
        }
        assert_eq!(tail.log_bytes(), master.log_bytes());
        assert_eq!(tail.records(), master.records());
    }

    #[test]
    fn recover_truncates_a_torn_tail_at_any_byte_boundary() {
        let mut j = MasterJournal::new();
        for rec in sample_records() {
            j.append(rec);
        }
        let full = j.log_bytes().to_vec();
        let records = j.records();
        for cut in 0..full.len() {
            let (back, report) = MasterJournal::recover(&full[..cut]);
            // the verified prefix is a whole number of records and a
            // strict prefix of the original sequence
            assert!(back.len() <= j.len());
            assert_eq!(
                back.records(),
                &records[..back.len() as usize],
                "cut at {cut}"
            );
            // clean iff the cut landed exactly on a record boundary
            assert_eq!(report.is_clean(), cut == back.log_bytes().len());
        }
    }

    #[test]
    fn recover_truncates_at_a_flipped_bit_and_reports_it() {
        let mut j = MasterJournal::new();
        for rec in sample_records() {
            j.append(rec);
        }
        let clean_len = j.len();
        j.flip_log_bit(0xdead_beef);
        let (back, report) = MasterJournal::recover(j.log_bytes());
        assert!(back.len() < clean_len);
        assert!(!report.is_clean());
        assert!(report.error.is_some());
        assert!(report.truncated_bytes > 0);
    }

    #[test]
    fn recover_rejects_replayed_sequence_numbers() {
        let mut j = MasterJournal::new();
        j.append(JournalRecord::ClientIdle { client: NodeId(1) });
        // splice record 0 in again: valid CRC, stale stamp
        let mut doctored = j.log_bytes().to_vec();
        doctored.extend_from_slice(j.log_bytes());
        let (back, report) = MasterJournal::recover(&doctored);
        assert_eq!(back.len(), 1);
        assert_eq!(report.error, Some(RecordError::BadSeq { want: 1, got: 0 }));
    }
}

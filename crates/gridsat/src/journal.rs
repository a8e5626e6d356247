//! Write-ahead journal for the master's scheduling state (durability
//! extension).
//!
//! Every scheduling decision the master takes — launch, assign, grant,
//! backlog movement, checkpoint accept, recovery, adoption — is first
//! appended to the [`MasterJournal`] as a [`JournalRecord`], sealed into
//! its byte log, and only then applied to the in-memory `MasterCore`.
//! The byte log is the only copy of that history. The core is a
//! deterministic fold over it, record by record, which rebuilds the
//! exact client roster, grants, backlog and checkpoint set: that is what
//! lets a restarted master self-check its state and lets a standby
//! promote itself from the bytes it tailed off the control traffic.
//!
//! Records are state deltas: every conditional the live master evaluates
//! on a message is resolved at emit time, and what a record reads of the
//! core is state the fold holds too, so replay never diverges from the
//! live fold. The fold includes the cube ledger (`Cubes`): every cube the
//! run minted, where it came from, and where it is.

use crate::config::SHARE_TREE_FANOUT;
use crate::idle::{Hosts, IdleIndex};
use crate::master::GrantKind;
use crate::msg::{Checkpoint, ProblemId};
use crate::wire::{self, SpecFrame, WireError};
use gridsat_cnf::{ClauseLits, Lit};
use gridsat_grid::NodeId;
use gridsat_nws::Adaptive;
use std::borrow::Borrow;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// A recovered or requeued subproblem awaiting an idle client, as the
/// sealed frame its next `Solve` sends, plus the identity of the cube it
/// re-covers: the re-dispatch is that cube's twin in the ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoverySpec {
    pub frame: SpecFrame,
    pub source: Option<ProblemId>,
}

/// One appended scheduling decision. Every variant is a plain state
/// delta; the journal is the authoritative history and `MasterCore` is
/// its fold.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord {
    /// A client left the roster (loss, lease expiry, or promotion of the
    /// standby out of client duty); every grant naming it closes.
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
    /// A split request found no idle peer and joined the backlog. The
    /// entry goes when the client's row changes or its grant opens.
    BacklogPush { client: NodeId },
    /// A grant of the cube the requester's row names opened: `peer` turns
    /// Receiving and the requester leaves the backlog.
    GrantOpen {
        requester: NodeId,
        peer: NodeId,
        kind: GrantKind,
    },
    /// A grant closed: a peer it left Receiving returns to Idle (the
    /// transfer failed or the grant was dropped); one the confirmation
    /// made Busy, or one that is gone, is left alone.
    GrantClose { requester: NodeId },
    /// Figure 3 message (5): the requester handed `child` to `peer` and
    /// kept `pivot`, on a fresh clock while its split grant is open.
    SplitKept {
        requester: NodeId,
        peer: NodeId,
        child: ProblemId,
        pivot: Lit,
        at: f64,
    },
    /// A migration source handed its subproblem off and went idle.
    MigrateSent { requester: NodeId },
    /// Figure 3 message (4): the receiving peer confirmed the transfer
    /// and is now busy; the level 0 it bundled is the cube's image.
    TransferIn {
        peer: NodeId,
        problem: ProblemId,
        checkpoint: Option<Checkpoint>,
        at: f64,
    },
    /// A checkpoint upload for the cube the client's row names: its level
    /// 0 becomes the cube's image.
    CheckpointAccept {
        client: NodeId,
        checkpoint: Checkpoint,
    },
    /// A client finished (or was confirmed finished) and went idle.
    ClientIdle { client: NodeId },
    /// `client` refuted `problem`: the cube settles, and the client goes
    /// idle when its row names that cube or none.
    Refuted { client: NodeId, problem: ProblemId },
    /// A subproblem was taken back (checkpoint recovery, undeliverable
    /// assignment, or a client's Requeue) and queued for re-dispatch.
    RecoveryQueued { recovery: RecoverySpec },
    /// A client joined the roster: a registration, which claims nothing,
    /// or a re-registration after a takeover (failover extension) with its
    /// in-progress state: busy on `problem` with its level 0, or idle. Its
    /// host's speed is the information service's, which the fold holds.
    Join {
        client: NodeId,
        memory: usize,
        availability: f64,
        problem: Option<ProblemId>,
        checkpoint: Option<Checkpoint>,
        at: f64,
    },
    /// A sub-master-brokered steal transfer is in flight (hierarchy
    /// extension): `donor` split `problem` off its cube `parent` without
    /// a grant, keeping `pivot`. Settled by the thief's confirmation or
    /// result; a failed steal comes back as a requeue.
    StealOpen {
        donor: NodeId,
        parent: ProblemId,
        problem: ProblemId,
        pivot: Lit,
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

fn put_lit(lit: Lit, out: &mut Vec<u8>) {
    wire::write_varint(lit.code() as u64, out);
}

fn get_lit(buf: &[u8], pos: &mut usize) -> Result<Lit, RecordError> {
    let code = wire::read_varint(buf, pos)?;
    if code > u64::from(u32::MAX) {
        return Err(WireError::Overflow.into());
    }
    Ok(Lit::from_code(code as usize))
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

/// A checkpoint is its level 0.
fn put_checkpoint(cp: &Checkpoint, out: &mut Vec<u8>) {
    wire::write_pairs(&cp.level0, out);
}

fn get_checkpoint(buf: &[u8], pos: &mut usize) -> Result<Checkpoint, RecordError> {
    let level0 = wire::read_pairs(buf, pos, u64::MAX)?;
    Ok(Checkpoint { level0 })
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

/// Serialize one record: the variant's tag byte followed by its fields.
/// A tag is never reused for a different variant: 0, 4, 6, 15, 17 and 19
/// belonged to retired ones.
fn encode_record(rec: &JournalRecord, out: &mut Vec<u8>) {
    match rec {
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
        JournalRecord::BacklogPush { client } => {
            out.push(5);
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
            out.push(u8::from(*kind == GrantKind::Migrate));
        }
        JournalRecord::GrantClose { requester } => {
            out.push(8);
            put_node(*requester, out);
        }
        JournalRecord::SplitKept {
            requester,
            peer,
            child,
            pivot,
            at,
        } => {
            out.push(9);
            put_node(*requester, out);
            put_node(*peer, out);
            put_problem(*child, out);
            put_lit(*pivot, out);
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
            put_problem(*problem, out);
            put_opt(checkpoint, put_checkpoint, out);
            put_f64(*at, out);
        }
        JournalRecord::CheckpointAccept { client, checkpoint } => {
            out.push(12);
            put_node(*client, out);
            put_checkpoint(checkpoint, out);
        }
        JournalRecord::ClientIdle { client } => {
            out.push(13);
            put_node(*client, out);
        }
        JournalRecord::Refuted { client, problem } => {
            out.push(14);
            put_node(*client, out);
            put_problem(*problem, out);
        }
        JournalRecord::RecoveryQueued { recovery } => {
            out.push(16);
            put_frame(&recovery.frame, out);
            put_opt(&recovery.source, |p, o| put_problem(*p, o), out);
        }
        JournalRecord::Join {
            client,
            memory,
            availability,
            problem,
            checkpoint,
            at,
        } => {
            out.push(18);
            put_node(*client, out);
            wire::write_varint(*memory as u64, out);
            put_f64(*availability, out);
            put_opt(problem, |p, o| put_problem(*p, o), out);
            put_opt(checkpoint, put_checkpoint, out);
            put_f64(*at, out);
        }
        JournalRecord::StealOpen {
            donor,
            parent,
            problem,
            pivot,
        } => {
            out.push(20);
            put_node(*donor, out);
            put_problem(*parent, out);
            put_problem(*problem, out);
            put_lit(*pivot, out);
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
        5 => JournalRecord::BacklogPush {
            client: get_node(buf, &mut pos)?,
        },
        7 => JournalRecord::GrantOpen {
            requester: get_node(buf, &mut pos)?,
            peer: get_node(buf, &mut pos)?,
            kind: match get_bool(buf, &mut pos)? {
                false => GrantKind::Split,
                true => GrantKind::Migrate,
            },
        },
        8 => JournalRecord::GrantClose {
            requester: get_node(buf, &mut pos)?,
        },
        9 => JournalRecord::SplitKept {
            requester: get_node(buf, &mut pos)?,
            peer: get_node(buf, &mut pos)?,
            child: get_problem(buf, &mut pos)?,
            pivot: get_lit(buf, &mut pos)?,
            at: get_f64(buf, &mut pos)?,
        },
        10 => JournalRecord::MigrateSent {
            requester: get_node(buf, &mut pos)?,
        },
        11 => JournalRecord::TransferIn {
            peer: get_node(buf, &mut pos)?,
            problem: get_problem(buf, &mut pos)?,
            checkpoint: get_opt(buf, &mut pos, get_checkpoint)?,
            at: get_f64(buf, &mut pos)?,
        },
        12 => JournalRecord::CheckpointAccept {
            client: get_node(buf, &mut pos)?,
            checkpoint: get_checkpoint(buf, &mut pos)?,
        },
        13 => JournalRecord::ClientIdle {
            client: get_node(buf, &mut pos)?,
        },
        14 => JournalRecord::Refuted {
            client: get_node(buf, &mut pos)?,
            problem: get_problem(buf, &mut pos)?,
        },
        16 => JournalRecord::RecoveryQueued {
            recovery: RecoverySpec {
                frame: get_frame(buf, &mut pos)?,
                source: get_opt(buf, &mut pos, get_problem)?,
            },
        },
        18 => JournalRecord::Join {
            client: get_node(buf, &mut pos)?,
            memory: wire::read_varint(buf, &mut pos)? as usize,
            availability: get_f64(buf, &mut pos)?,
            problem: get_opt(buf, &mut pos, get_problem)?,
            checkpoint: get_opt(buf, &mut pos, get_checkpoint)?,
            at: get_f64(buf, &mut pos)?,
        },
        20 => JournalRecord::StealOpen {
            donor: get_node(buf, &mut pos)?,
            parent: get_problem(buf, &mut pos)?,
            problem: get_problem(buf, &mut pos)?,
            pivot: get_lit(buf, &mut pos)?,
        },
        21 => JournalRecord::StealSettle {
            donor: get_node(buf, &mut pos)?,
            thief: get_node(buf, &mut pos)?,
            problem: get_problem(buf, &mut pos)?,
            checkpoint: get_opt(buf, &mut pos, get_checkpoint)?,
            at: get_f64(buf, &mut pos)?,
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

/// A client's scheduling state as the master sees it. A Busy row names
/// the cube its client holds; what rebuilds that cube is the ledger's
/// (`Cubes::level0`). A Receiving row names nothing: the ledger has the
/// cube in flight to it. An idle row naming a cube, or a busy row naming
/// none, cannot be written.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientState {
    /// Registered, no work.
    Idle,
    /// A subproblem transfer to this client is in flight.
    Receiving,
    /// Solving `cube`.
    Busy { cube: ProblemId },
}

impl ClientState {
    /// The cube the row names, if any.
    pub(crate) fn cube(&self) -> Option<ProblemId> {
        match self {
            ClientState::Idle | ClientState::Receiving => None,
            ClientState::Busy { cube } => Some(*cube),
        }
    }
}

/// A client's row in the master's roster. All scheduling state lives in
/// [`MasterCore`]; the forecaster, its rank and the lease clock are
/// live-only refinements its equality skips (they are rebuilt from the
/// availability carried in Join records and from fresh
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
    /// Simulated second of the last message from this client: any message
    /// keeps it fresh, heartbeats when there is nothing else to send, so
    /// the master can expire silent clients (reliability extension).
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
            last_seen: at,
        };
        info.observe(availability);
        info
    }

    pub(crate) fn state(&self) -> &ClientState {
        &self.state
    }

    /// The cube the master believes the client holds.
    pub(crate) fn cube(&self) -> Option<ProblemId> {
        self.state.cube()
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

/// Replay equality: every journaled field, none of the live-only ones.
/// Destructured, so a field added to the row does not compile until it is
/// put in one group or the other.
impl PartialEq for ClientInfo {
    fn eq(&self, other: &ClientInfo) -> bool {
        let ClientInfo {
            state,
            memory,
            speed,
            problem_since,
            forecast: _,
            rank: _,
            last_seen: _,
        } = self;
        (state, memory, speed, problem_since)
            == (
                &other.state,
                &other.memory,
                &other.speed,
                &other.problem_since,
            )
    }
}

impl fmt::Debug for ClientInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientInfo")
            .field("state", &self.state)
            .field("memory", &self.memory)
            .field("speed", &self.speed)
            .field("problem_since", &self.problem_since)
            .field("rank", &self.rank)
            .field("last_seen", &self.last_seen)
            .finish_non_exhaustive()
    }
}

// ----------------------------------------------------------------------
// The cube ledger
// ----------------------------------------------------------------------

/// Where a cube came from, which is what its path is built from.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Origin {
    /// The whole problem: the empty path.
    Root,
    /// Known by id alone: met in a confirmation, claim, result or requeue
    /// ahead of any report naming its parent, or split off a cube whose
    /// own path is unknown. Rebuilt only from an image.
    Unknown,
    /// `parent` as it stood with `at` pivots kept, then `lit`: a split off
    /// it (`lit` the complement of the pivot kept), or a re-dispatch of it
    /// (no `lit`).
    From {
        parent: ProblemId,
        at: usize,
        lit: Option<Lit>,
    },
}

/// Where a cube is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CubeState {
    /// Queued for re-dispatch.
    Backlog,
    /// Held by a client.
    Open(NodeId),
    /// On its way to a client: a split's or a migration's transfer, or a
    /// steal's (`steal`).
    InFlight { to: NodeId, steal: bool },
    /// Done with: refuted by a result (`refuted`), or superseded by the
    /// twin a re-dispatch minted.
    Settled { refuted: bool },
}

impl CubeState {
    fn sent(to: NodeId, steal: bool) -> CubeState {
        CubeState::InFlight { to, steal }
    }

    /// The client the cube is at or on its way to.
    fn holder(self) -> Option<NodeId> {
        match self {
            CubeState::Open(n) | CubeState::InFlight { to: n, .. } => Some(n),
            CubeState::Backlog | CubeState::Settled { .. } => None,
        }
    }
}

/// A pivot a cube kept, the half it split off, and where in
/// [`Cubes::kept`] the cube's next kept pivot is.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Kept {
    pivot: Lit,
    half: ProblemId,
    next: u32,
}

/// The end of a list of kept pivots.
const NONE: u32 = u32::MAX;

/// A ledger entry: where the cube came from, the first of the pivots it
/// has kept since, and where it is. A path is built only to rebuild or
/// check one.
#[derive(Debug, PartialEq)]
struct Cube {
    origin: Origin,
    kept: u32,
    state: CubeState,
}

/// The cube ledger: the split tree of every cube the run has minted,
/// each with its place and, while a client holds it, the level 0 that
/// rebuilds it. Every record costs O(1).
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Cubes {
    map: BTreeMap<ProblemId, Cube>,
    /// Every cube's kept pivots, linked lists in one buffer: a vector per
    /// cube fragments the heap the clients' solvers share.
    kept: Vec<Kept>,
    /// Entries not `Settled`; the UNSAT verdict waits for none.
    unsettled: usize,
    /// At most one level 0 per cube, from its holder: the one it was
    /// dispatched with, confirmed with or last checkpointed. It goes when
    /// the cube moves away from that holder.
    images: BTreeMap<ProblemId, Checkpoint>,
}

impl Cubes {
    pub(crate) fn state(&self, id: ProblemId) -> Option<CubeState> {
        self.map.get(&id).map(|c| c.state)
    }

    /// How many cubes are queued, held or in flight.
    pub(crate) fn unsettled(&self) -> usize {
        self.unsettled
    }

    /// Did a result refute `id`?
    pub(crate) fn refuted(&self, id: ProblemId) -> bool {
        self.state(id) == Some(CubeState::Settled { refuted: true })
    }

    /// Is `id` done with?
    pub(crate) fn settled(&self, id: ProblemId) -> bool {
        matches!(self.state(id), Some(CubeState::Settled { .. }))
    }

    /// Has `id` a known parent or twin source (or is it the root)?
    pub(crate) fn placed(&self, id: ProblemId) -> bool {
        self.map
            .get(&id)
            .is_some_and(|c| c.origin != Origin::Unknown)
    }

    /// The kept pivots of the list starting at `first`, in split order.
    fn pivots(&self, first: u32) -> impl Iterator<Item = &Kept> {
        std::iter::successors(self.kept.get(first as usize), |k| {
            self.kept.get(k.next as usize)
        })
    }

    /// Move `id` to `state`, entering it by id alone if it is new; a move
    /// away from its holder drops its level 0.
    fn enter(&mut self, id: ProblemId, state: CubeState) {
        let open = |s: CubeState| usize::from(!matches!(s, CubeState::Settled { .. }));
        let cube = self.map.entry(id).or_insert(Cube {
            origin: Origin::Unknown,
            kept: NONE,
            state: CubeState::Settled { refuted: false },
        });
        self.unsettled = self.unsettled + open(state) - open(cube.state);
        if state.holder() != cube.state.holder() {
            self.images.remove(&id);
        }
        cube.state = state;
    }

    /// Keep `level0`, which `client` was sent or reported, as what
    /// rebuilds `id`: only while the ledger has the cube at that client.
    fn keep(&mut self, id: ProblemId, client: NodeId, level0: Checkpoint) {
        if self.state(id).and_then(CubeState::holder) == Some(client) {
            self.images.insert(id, level0);
        }
    }

    /// What rebuilds `id` over the base formula: its holder's level 0,
    /// else its path; `None` when it has neither.
    pub(crate) fn level0(&self, id: ProblemId) -> Option<Checkpoint> {
        if let Some(image) = self.images.get(&id) {
            return Some(image.clone());
        }
        let level0 = self.path(id)?.into_iter().map(|l| (l, false)).collect();
        Some(Checkpoint { level0 })
    }

    /// The level 0 each cube keeps.
    #[cfg(test)]
    pub(crate) fn images(&self) -> &BTreeMap<ProblemId, Checkpoint> {
        &self.images
    }

    /// The master sent `holder` a fresh id: the root, or the twin of the
    /// cube a re-dispatch re-covers, whose path stops at the pivots its
    /// frame carries (an image taken before the source's latest splits
    /// covers their halves too). A queued source is superseded.
    fn mint(&mut self, id: ProblemId, twin: Option<&RecoverySpec>, holder: NodeId) {
        let origin = match twin {
            None => Origin::Root,
            Some(RecoverySpec { frame, source }) => {
                match source.and_then(|s| Some((s, self.map.get(&s)?.kept))) {
                    Some((parent, first)) => {
                        let carried = if first == NONE {
                            vec![]
                        } else {
                            frame.assumptions()
                        };
                        let at = (self.pivots(first))
                            .take_while(|k| carried.iter().any(|&(l, _)| l == k.pivot))
                            .count();
                        Origin::From {
                            parent,
                            at,
                            lit: None,
                        }
                    }
                    None => Origin::Unknown,
                }
            }
        };
        self.enter(id, CubeState::Open(holder));
        self.map.get_mut(&id).expect("entered").origin = origin;
        if let Some(source) = twin.and_then(|t| t.source) {
            if self.state(source) == Some(CubeState::Backlog) {
                self.enter(source, CubeState::Settled { refuted: false });
            }
        }
    }

    /// `parent` kept `pivot` and split `child` off, now `state`; a child
    /// known by id keeps its state. A report landing after a later split's
    /// takes its place in the order the holder's minted ids give, so the
    /// halves recorded since keep paths that omit its pivot.
    fn split(&mut self, parent: Option<ProblemId>, child: ProblemId, pivot: Lit, state: CubeState) {
        if self.placed(child) {
            return;
        }
        let origin = match parent {
            Some(parent) if parent != child => match self.map.get(&parent) {
                Some(cube) => {
                    let minter = |id: ProblemId| id.0 >> 32;
                    let (mut at, mut prev, mut next) = (0, NONE, cube.kept);
                    while let Some(k) = self.kept.get(next as usize) {
                        if minter(k.half) == minter(child) && k.half > child {
                            break;
                        }
                        (at, prev, next) = (at + 1, next, k.next);
                    }
                    let this = self.kept.len() as u32;
                    (self.kept).push(Kept {
                        pivot,
                        half: child,
                        next,
                    });
                    match self.kept.get_mut(prev as usize) {
                        Some(k) => k.next = this,
                        None => self.map.get_mut(&parent).expect("present").kept = this,
                    }
                    let lit = Some(!pivot);
                    Origin::From { parent, at, lit }
                }
                None => Origin::Unknown,
            },
            _ => Origin::Unknown,
        };
        if !self.map.contains_key(&child) {
            self.enter(child, state);
        }
        self.map.get_mut(&child).expect("entered").origin = origin;
    }

    /// The literals that cut `id` out of the whole problem, or `None`
    /// when some cube on its lineage is known by id alone.
    pub(crate) fn path(&self, id: ProblemId) -> Option<Vec<Lit>> {
        // leaf to root: the literal each cube began with, and its first
        // kept pivots
        let mut pieces = Vec::new();
        let (mut id, mut at) = (id, usize::MAX);
        loop {
            let cube = self.map.get(&id)?;
            let kept = (cube.kept, at);
            if pieces.len() > self.map.len() {
                return None; // an origin cycle, from ids confused by faults
            }
            match cube.origin {
                Origin::Root => {
                    pieces.push((None, kept));
                    break;
                }
                Origin::Unknown => return None,
                Origin::From { parent, at: k, lit } => {
                    pieces.push((lit, kept));
                    (id, at) = (parent, k);
                }
            }
        }
        let mut path = Vec::new();
        for (lit, (first, at)) in pieces.into_iter().rev() {
            path.extend(lit);
            path.extend(self.pivots(first).take(at).map(|k| k.pivot));
        }
        Some(path)
    }

    /// The highest id counter among the cubes `node` minted.
    pub(crate) fn last_minted(&self, node: NodeId) -> u32 {
        let ids = ProblemId::new(node, 0)..=ProblemId::new(node, u32::MAX);
        self.map
            .range(ids)
            .next_back()
            .map_or(0, |(id, _)| id.0 as u32)
    }

    /// The unsettled cubes held or being sent, with their holders.
    pub(crate) fn held(&self) -> impl Iterator<Item = (ProblemId, NodeId)> + '_ {
        (self.map.iter()).filter_map(|(id, c)| Some((*id, c.state.holder()?)))
    }

    /// The unsettled cubes `node` holds or is being sent.
    pub(crate) fn held_by(&self, node: NodeId) -> Vec<ProblemId> {
        (self.held())
            .filter(|&(_, n)| n == node)
            .map(|(id, _)| id)
            .collect()
    }
}

/// The slot above `slot` in the share tree; none above the root.
pub(crate) fn tree_parent(slot: usize) -> Option<usize> {
    slot.checked_sub(1).map(|below| below / SHARE_TREE_FANOUT)
}

/// The slots below `slot` in the share tree, occupied or not.
pub(crate) fn tree_children(slot: usize) -> std::ops::Range<usize> {
    SHARE_TREE_FANOUT * slot + 1..SHARE_TREE_FANOUT * (slot + 1) + 1
}

/// The roster: each registered client's row at its node id's index,
/// `None` where no registered client has that id. The engine numbers its
/// nodes densely from 0, so the table is sized once to the hosts the
/// master knows at boot and grows only for an id past them. Iteration is
/// in ascending node id. Equality compares occupied rows only.
#[derive(Debug, Default)]
pub(crate) struct Roster {
    rows: Vec<Option<ClientInfo>>,
    len: usize,
}

impl Roster {
    /// A table with a slot for every id up to `last`, none occupied.
    fn up_to(last: Option<NodeId>) -> Roster {
        let slots = last.map_or(0, |id| id.0 as usize + 1);
        Roster {
            rows: (0..slots).map(|_| None).collect(),
            len: 0,
        }
    }

    pub(crate) fn get(&self, id: &NodeId) -> Option<&ClientInfo> {
        self.rows.get(id.0 as usize)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: &NodeId) -> Option<&mut ClientInfo> {
        self.rows.get_mut(id.0 as usize)?.as_mut()
    }

    pub(crate) fn contains_key(&self, id: &NodeId) -> bool {
        self.get(id).is_some()
    }

    /// Put `info` in `id`'s row; returns the row it replaced.
    pub(crate) fn insert(&mut self, id: NodeId, info: ClientInfo) -> Option<ClientInfo> {
        let i = id.0 as usize;
        if i >= self.rows.len() {
            self.rows.resize_with(i + 1, || None);
        }
        let old = self.rows[i].replace(info);
        self.len += usize::from(old.is_none());
        old
    }

    pub(crate) fn remove(&mut self, id: &NodeId) -> Option<ClientInfo> {
        let old = self.rows.get_mut(id.0 as usize)?.take();
        self.len -= usize::from(old.is_some());
        old
    }

    /// How many rows are occupied.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The occupied rows, ascending by node id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, &ClientInfo)> + '_ {
        let rows = self.rows.iter().enumerate();
        rows.filter_map(|(i, row)| Some((NodeId(i as u32), row.as_ref()?)))
    }

    pub(crate) fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut ClientInfo> {
        self.rows.iter_mut().flatten()
    }
}

impl std::ops::Index<&NodeId> for Roster {
    type Output = ClientInfo;

    fn index(&self, id: &NodeId) -> &ClientInfo {
        self.get(id)
            .unwrap_or_else(|| panic!("no roster row for {id:?}"))
    }
}

impl PartialEq for Roster {
    fn eq(&self, other: &Roster) -> bool {
        self.iter().eq(other.iter())
    }
}

/// The journaled scheduling state: a deterministic fold over
/// [`JournalRecord`]s.
#[derive(Debug, Default)]
pub(crate) struct MasterCore {
    /// One row per registered client, by node id.
    pub(crate) clients: Roster,
    pub(crate) backlog: VecDeque<NodeId>,
    /// requester -> (peer, kind, the requester's cube) for in-flight
    /// grants.
    pub(crate) grants: BTreeMap<NodeId, (NodeId, GrantKind, ProblemId)>,
    /// (requester, peer) -> (cube, horizon) of each split grant, open or
    /// closed, whose message (5) has not landed; `horizon` is the last id
    /// the ledger had seen the requester mint when the grant opened.
    split_grants: BTreeMap<(NodeId, NodeId), (ProblemId, u32)>,
    /// Subproblems recovered from checkpoints of lost clients (or handed
    /// back by clients), awaiting an idle client.
    pub(crate) pending_recovery: VecDeque<RecoverySpec>,
    /// Every cube of the run and where it is.
    pub(crate) cubes: Cubes,
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
    /// Receiving. A replay rebuilds both.
    pub(crate) idle: IdleIndex,
    busy: usize,
}

/// Replay equality: a fold of the journal reproduces every field but the
/// idle index, which orders clients by their live-only forecasts.
/// Destructured, so a field added to the core does not compile until it is
/// put in one group or the other.
impl PartialEq for MasterCore {
    fn eq(&self, other: &MasterCore) -> bool {
        let MasterCore {
            clients,
            backlog,
            grants,
            split_grants,
            pending_recovery,
            cubes,
            first_problem_sent,
            slots,
            idle: _,
            busy,
        } = self;
        (
            clients,
            backlog,
            grants,
            split_grants,
            pending_recovery,
            cubes,
            first_problem_sent,
            slots,
            busy,
        ) == (
            &other.clients,
            &other.backlog,
            &other.grants,
            &other.split_grants,
            &other.pending_recovery,
            &other.cubes,
            &other.first_problem_sent,
            &other.slots,
            &other.busy,
        )
    }
}

impl MasterCore {
    /// An empty core whose idle index knows each host's site.
    pub(crate) fn new(hosts: Hosts) -> MasterCore {
        MasterCore {
            clients: Roster::up_to(hosts.keys().next_back().copied()),
            idle: IdleIndex::new(hosts),
            ..MasterCore::default()
        }
    }

    /// Take `client` out of the derived counts before its row changes.
    fn untrack(&mut self, client: NodeId) {
        if let Some(info) = self.clients.get(&client) {
            match info.state {
                ClientState::Idle => self.idle.remove(client, info.rank),
                ClientState::Busy { .. } | ClientState::Receiving => self.busy -= 1,
            }
        }
    }

    /// Put `client` back into the derived counts after its row changed.
    fn track(&mut self, client: NodeId) {
        if let Some(info) = self.clients.get(&client) {
            match info.state {
                ClientState::Idle => self.idle.insert(client, info.rank),
                ClientState::Busy { .. } | ClientState::Receiving => self.busy += 1,
            }
        }
    }

    /// Every state transition of a registered client goes through here;
    /// it ends the client's wait in the backlog.
    fn set_state(&mut self, client: NodeId, state: ClientState) {
        self.unqueue(client);
        self.untrack(client);
        if let Some(info) = self.clients.get_mut(&client) {
            info.state = state;
        }
        self.track(client);
    }

    /// Put `info` on the roster under `client`, replacing any earlier row.
    fn admit(&mut self, client: NodeId, info: ClientInfo) {
        self.unqueue(client);
        self.untrack(client);
        if self.clients.insert(client, info).is_none() {
            self.slots.push(client);
        }
        self.track(client);
    }

    /// Take `client` off the roster; the client in the share tree's last
    /// slot moves into its slot.
    fn remove(&mut self, client: NodeId) {
        self.unqueue(client);
        self.untrack(client);
        self.clients.remove(&client);
        if let Some(slot) = self.slot_of(client) {
            self.slots.swap_remove(slot);
        }
    }

    /// Take `client`'s split request out of the backlog. The fold is the
    /// one place that does, so an entry always names a Busy row with no
    /// open grant.
    fn unqueue(&mut self, client: NodeId) {
        self.backlog.retain(|&id| id != client);
    }

    /// Close `requester`'s grant: a peer it left Receiving returns to
    /// Idle; one the confirmation made Busy, or one that is gone, is left
    /// alone. A reservation must never outlive the grant that made it, or
    /// the peer blocks the all-idle UNSAT verdict forever.
    fn close_grant(&mut self, requester: NodeId) {
        if let Some((peer, ..)) = self.grants.remove(&requester) {
            let receiving = (self.clients.get(&peer))
                .is_some_and(|p| matches!(p.state, ClientState::Receiving));
            if receiving {
                self.set_state(peer, ClientState::Idle);
            }
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

    /// `client` now holds `cube` on a clock started `at`.
    fn occupy(&mut self, client: NodeId, cube: ProblemId, at: f64) {
        let Some(info) = self.clients.get_mut(&client) else {
            return;
        };
        info.problem_since = at;
        self.set_state(client, ClientState::Busy { cube });
    }

    /// `client` was sent `cube` on a clock started `at`: the whole
    /// problem, or `twin`'s re-dispatch. The assumptions it was sent are
    /// the cube's first level 0.
    fn dispatch(&mut self, client: NodeId, cube: ProblemId, twin: Option<&RecoverySpec>, at: f64) {
        self.occupy(client, cube, at);
        self.cubes.mint(cube, twin, client);
        let level0 = twin.map_or(vec![], |t| t.frame.assumptions());
        self.cubes.keep(cube, client, Checkpoint { level0 });
    }

    /// `client` confirmed it holds `cube` on a clock started `at`, with
    /// `cp`, its level 0: message (4), a steal's settle, an adoption claim.
    fn confirm(&mut self, client: NodeId, cube: ProblemId, cp: Option<Checkpoint>, at: f64) {
        self.occupy(client, cube, at);
        self.relocate(cube, CubeState::Open(client));
        if let Some(level0) = cp {
            self.cubes.keep(cube, client, level0);
        }
    }

    /// Move `cube` to `to` in the ledger, and release the row that named
    /// it unless the move keeps it at that row's client: a row names only
    /// a cube its client holds or is being sent. Queued for re-dispatch a
    /// cube is nobody's, so a take-back releases its holder too; a lost
    /// client leaves the roster before its cubes go back.
    fn relocate(&mut self, cube: ProblemId, to: CubeState) {
        let from = self.cubes.state(cube).and_then(CubeState::holder);
        self.cubes.enter(cube, to);
        let away = |row: NodeId| to.holder() != Some(row);
        let names = |i: &ClientInfo| i.cube() == Some(cube);
        if let Some(h) = from.filter(|&h| away(h) && self.clients.get(&h).is_some_and(names)) {
            self.set_state(h, ClientState::Idle);
        }
        debug_assert!(
            !(self.clients.iter()).any(|(n, i)| names(i) && away(n)),
            "a row names {cube:?}, which the ledger has {to:?}"
        );
    }

    /// Apply one record. Returns the dispatched subproblem for the two
    /// assignment records (the live master sends it; replay discards
    /// it).
    pub(crate) fn apply(
        &mut self,
        rec: JournalRecord,
        formula: &gridsat_cnf::Formula,
    ) -> Option<RecoverySpec> {
        match rec {
            JournalRecord::Deregister { client } => {
                self.remove(client);
                let named: Vec<NodeId> = (self.grants.iter())
                    .filter(|&(&r, &(p, ..))| r == client || p == client)
                    .map(|(&r, _)| r)
                    .collect();
                for requester in named {
                    self.close_grant(requester);
                }
                self.split_grants
                    .retain(|&(requester, _), _| requester != client);
                None
            }
            JournalRecord::AssignWhole {
                client,
                problem,
                at,
            } => {
                self.first_problem_sent = true;
                let clauses = formula.clauses().map(ClauseLits::lits);
                let frame = SpecFrame::build(formula.num_vars(), &[], clauses);
                self.dispatch(client, problem, None, at);
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
                self.dispatch(client, problem, Some(&recovery), at);
                Some(recovery)
            }
            JournalRecord::BacklogPush { client } => {
                debug_assert!(
                    (self.clients.get(&client))
                        .is_some_and(|c| matches!(c.state, ClientState::Busy { .. }))
                        && !self.grants.contains_key(&client),
                    "backlogged {client} is not a Busy row without a grant"
                );
                if !self.backlog.contains(&client) {
                    self.backlog.push_back(client);
                }
                None
            }
            JournalRecord::GrantOpen {
                requester,
                peer,
                kind,
            } => {
                let Some(problem) = self.clients.get(&requester).and_then(ClientInfo::cube) else {
                    debug_assert!(false, "granted {requester} names no cube");
                    return None;
                };
                self.unqueue(requester);
                self.set_state(peer, ClientState::Receiving);
                self.grants.insert(requester, (peer, kind, problem));
                if kind == GrantKind::Split {
                    let horizon = self.cubes.last_minted(requester);
                    (self.split_grants).insert((requester, peer), (problem, horizon));
                }
                None
            }
            JournalRecord::GrantClose { requester } => {
                self.close_grant(requester);
                None
            }
            JournalRecord::SplitKept {
                requester,
                peer,
                child,
                pivot,
                at,
            } => {
                let split_grant =
                    matches!(self.grants.get(&requester), Some((_, GrantKind::Split, _)));
                if let (true, Some(r)) = (split_grant, self.clients.get_mut(&requester)) {
                    r.problem_since = at;
                }
                let parent = self.split_parent(requester, peer, child);
                if parent.is_some() {
                    self.split_grants.remove(&(requester, peer));
                }
                (self.cubes).split(parent, child, pivot, CubeState::sent(peer, false));
                None
            }
            JournalRecord::MigrateSent { requester } => {
                if let Some(&(peer, _, cube)) = self.grants.get(&requester) {
                    if !self.cubes.settled(cube) {
                        self.relocate(cube, CubeState::sent(peer, false));
                    }
                }
                None
            }
            JournalRecord::TransferIn {
                peer,
                problem,
                checkpoint,
                at,
            } => {
                self.confirm(peer, problem, checkpoint, at);
                None
            }
            JournalRecord::CheckpointAccept { client, checkpoint } => {
                let Some(problem) = self.clients.get(&client).and_then(ClientInfo::cube) else {
                    debug_assert!(false, "uploading {client} names no cube");
                    return None;
                };
                self.cubes.keep(problem, client, checkpoint);
                None
            }
            JournalRecord::ClientIdle { client } => {
                self.set_state(client, ClientState::Idle);
                None
            }
            JournalRecord::Refuted { client, problem } => {
                let named = self.clients.get(&client).map(ClientInfo::cube);
                if named.is_some_and(|cube| cube.is_none_or(|c| c == problem)) {
                    self.set_state(client, ClientState::Idle);
                }
                self.relocate(problem, CubeState::Settled { refuted: true });
                None
            }
            JournalRecord::RecoveryQueued { recovery } => {
                if let Some(source) = recovery.source.filter(|&s| !self.cubes.settled(s)) {
                    self.relocate(source, CubeState::Backlog);
                }
                self.pending_recovery.push_back(recovery);
                None
            }
            JournalRecord::Join {
                client,
                memory,
                availability,
                problem,
                checkpoint,
                at,
            } => {
                let speed = self.idle.speed(client);
                let info = ClientInfo::launched(memory, speed, availability, at);
                self.admit(client, info);
                if let Some(problem) = problem {
                    self.confirm(client, problem, checkpoint, at);
                }
                None
            }
            JournalRecord::StealOpen {
                donor,
                parent,
                problem,
                pivot,
            } => {
                // in flight from the donor until the thief confirms it
                let to = CubeState::sent(donor, true);
                self.cubes.split(Some(parent), problem, pivot, to);
                None
            }
            JournalRecord::StealSettle {
                donor,
                thief,
                problem,
                checkpoint,
                at,
            } => {
                // donor kept its half on a fresh clock (like SplitKept)
                if let Some(d) = self.clients.get_mut(&donor) {
                    d.problem_since = at;
                }
                // thief is now busy with the stolen extension (like
                // TransferIn, but no grant reserved it)
                self.confirm(thief, problem, checkpoint, at);
                None
            }
        }
    }

    /// The cube `requester` split `child` off to `peer`: the one their
    /// split grant named, which the client checked was its own, if `child`
    /// was minted after it opened. The peer's confirmation or loss can
    /// close the grant first; an older, retransmitted report is unplaced.
    fn split_parent(&self, requester: NodeId, peer: NodeId, child: ProblemId) -> Option<ProblemId> {
        let &(cube, horizon) = self.split_grants.get(&(requester, peer))?;
        (child.0 as u32 > horizon && child.0 >> 32 == u64::from(requester.0)).then_some(cube)
    }

    /// The panic message of the ledger check `rec` fails, if any: a split
    /// must not pivot on a literal its cube's path decides, a minted or
    /// adopted cube must not be held elsewhere, and no level 0 the ledger
    /// keeps — confirmed, claimed or uploaded — may contradict its cube's
    /// path (`[?]`: path unknown). A claim is not checked for ownership: a
    /// master that lost a journal suffix closed the migration grant that
    /// would excuse it.
    pub(crate) fn violation(&self, rec: &JournalRecord) -> Option<String> {
        let on_path = "split pivot already on the path";
        let (check, path) = match *rec {
            JournalRecord::AssignWhole { problem, .. }
            | JournalRecord::AssignRecovery { problem, .. } => {
                let state = self.cubes.state(problem);
                let held = state.is_some_and(|s| !matches!(s, CubeState::Settled { .. }));
                (
                    held.then_some("cube owned twice")?,
                    self.cubes.path(problem),
                )
            }
            JournalRecord::SplitKept {
                requester,
                peer,
                child,
                pivot,
                ..
            } => {
                let parent = self.split_parent(requester, peer, child)?;
                (on_path, Some(self.pivot_on_path(parent, child, pivot)?))
            }
            JournalRecord::StealOpen {
                parent,
                problem,
                pivot,
                ..
            } => (on_path, Some(self.pivot_on_path(parent, problem, pivot)?)),
            JournalRecord::TransferIn {
                peer: to,
                problem: cube,
                ref checkpoint,
                ..
            }
            | JournalRecord::StealSettle {
                thief: to,
                problem: cube,
                ref checkpoint,
                ..
            } => self.adoption(to, cube, checkpoint.as_ref())?,
            JournalRecord::CheckpointAccept {
                client,
                ref checkpoint,
            } => {
                let cube = self.clients.get(&client)?.cube()?;
                self.adoption(client, cube, Some(checkpoint))?
            }
            JournalRecord::Join {
                problem: Some(cube),
                checkpoint: Some(ref checkpoint),
                ..
            } => self.off_path(cube, checkpoint)?,
            _ => return None,
        };
        let lits = path.map(|p| {
            p.iter()
                .map(|l| l.to_dimacs().to_string())
                .collect::<Vec<_>>()
        });
        let path = lits.map_or("[?]".into(), |lits| format!("[{}]", lits.join(" ")));
        // the record's variant name, from its debug form
        let record = format!("{rec:?}");
        let record = record.split(' ').next().unwrap_or_default();
        Some(format!(
            "search-space audit violation: {check} ({record}): path {path}"
        ))
    }

    /// The path of `parent` when it already decides `pivot`'s variable; a
    /// `child` already placed is a repeated report, checked the first time.
    fn pivot_on_path(&self, parent: ProblemId, child: ProblemId, pivot: Lit) -> Option<Vec<Lit>> {
        if self.cubes.placed(child) {
            return None;
        }
        let path = self.cubes.path(parent)?;
        path.iter().any(|l| l.var() == pivot.var()).then_some(path)
    }

    /// What is wrong with `to` adopting `cube` with `checkpoint`: a cube held
    /// elsewhere (not by a migration), or a level 0 against its path.
    fn adoption(
        &self,
        to: NodeId,
        cube: ProblemId,
        checkpoint: Option<&Checkpoint>,
    ) -> Option<(&'static str, Option<Vec<Lit>>)> {
        if let Some(CubeState::Open(holder)) = self.cubes.state(cube) {
            let migrating = self.grants.get(&holder) == Some(&(to, GrantKind::Migrate, cube));
            if holder != to && !migrating {
                return Some(("cube owned twice", self.cubes.path(cube)));
            }
        }
        self.off_path(cube, checkpoint?)
    }

    /// What is wrong with `checkpoint` rebuilding `cube`: a level 0 against
    /// its path.
    fn off_path(
        &self,
        cube: ProblemId,
        checkpoint: &Checkpoint,
    ) -> Option<(&'static str, Option<Vec<Lit>>)> {
        let path = self.cubes.path(cube)?;
        let contradicts = (checkpoint.level0.iter()).any(|&(l, _)| path.contains(&!l));
        contradicts.then_some(("adopted spec contradicts the recorded path", Some(path)))
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
    use gridsat_cnf::Clause;
    use gridsat_solver::SplitSpec;

    /// The state `records` fold to, applied one by one to an empty core.
    fn fold(f: &gridsat_cnf::Formula, records: &[JournalRecord]) -> MasterCore {
        let mut core = MasterCore::default();
        for rec in records {
            core.apply(rec.clone(), f);
        }
        core
    }

    /// `client` registers: a join that claims nothing.
    fn join(client: NodeId) -> JournalRecord {
        JournalRecord::Join {
            client,
            memory: 1 << 20,
            availability: 1.0,
            problem: None,
            checkpoint: None,
            at: 0.0,
        }
    }

    /// Roster rows come out ascending by node id whatever order they
    /// went in, an id past the table grows it, and two rosters with the
    /// same rows are equal however long their tables are.
    #[test]
    fn the_roster_iterates_ascending_and_compares_occupied_rows() {
        let row = |id: u32| ClientInfo::launched(id as usize, 1.0, 1.0, 0.0);
        let mut a = Roster::up_to(Some(NodeId(4)));
        let mut b = Roster::default();
        for id in [3, 9, 1, 4, 7] {
            assert!(a.insert(NodeId(id), row(id)).is_none());
            assert!(b.insert(NodeId(id), row(id)).is_none());
        }
        assert!(a.insert(NodeId(4), row(4)).is_some(), "a replaced row");
        assert_eq!(a.keys().map(|id| id.0).collect::<Vec<_>>(), [1, 3, 4, 7, 9]);
        assert!(a.iter().all(|(id, info)| info.memory == id.0 as usize));
        assert_eq!(a.len(), 5);
        assert_eq!(a, b);
        assert!(a.remove(&NodeId(9)).is_some() && a.remove(&NodeId(9)).is_none());
        assert!(a.remove(&NodeId(200)).is_none());
        assert_ne!(a, b);
        assert!(b.remove(&NodeId(9)).is_some());
        assert_eq!(a, b);
        assert_eq!((a.len(), a.contains_key(&NodeId(9))), (4, false));
        a.get_mut(&NodeId(7)).unwrap().problem_since = 8.0;
        assert_eq!(a[&NodeId(7)].problem_since, 8.0);
        assert_ne!(a, b);
    }

    #[test]
    fn replay_folds_a_launch_assign_split_sequence() {
        let f = gridsat_cnf::paper::fig1_formula();
        let n1 = NodeId(1);
        let n2 = NodeId(2);
        let p1 = ProblemId::new(NodeId(0), 1);
        let p2 = ProblemId::new(n1, 1);
        let records = vec![
            join(n1),
            JournalRecord::AssignWhole {
                client: n1,
                problem: p1,
                at: 0.0,
            },
            join(n2),
            JournalRecord::GrantOpen {
                requester: n1,
                peer: n2,
                kind: GrantKind::Split,
            },
            JournalRecord::SplitKept {
                requester: n1,
                peer: n2,
                child: p2,
                pivot: Lit::pos(0),
                at: 3.0,
            },
            JournalRecord::TransferIn {
                peer: n2,
                problem: p2,
                checkpoint: Some(Checkpoint {
                    level0: vec![(Lit::neg(0), false)],
                }),
                at: 4.0,
            },
            JournalRecord::GrantClose { requester: n1 },
        ];
        let core = fold(&f, &records);
        // the split tree: the root kept +1, the child holds -1
        assert_eq!(core.cubes.path(p1), Some(vec![Lit::pos(0)]));
        assert_eq!(core.cubes.path(p2), Some(vec![Lit::neg(0)]));
        assert_eq!(core.cubes.state(p2), Some(CubeState::Open(n2)));
        assert_eq!(core.cubes.unsettled(), 2);
        assert!(core.first_problem_sent);
        assert_eq!(core.clients.len(), 2);
        assert!(matches!(core.clients[&n1].state, ClientState::Busy { cube, .. } if cube == p1));
        assert_eq!(core.clients[&n1].problem_since, 3.0);
        assert!(matches!(core.clients[&n2].state, ClientState::Busy { cube, .. } if cube == p2));
        assert!(core.grants.is_empty());
        // the whole-problem dispatch keeps the level 0 it sent, none, as
        // the root's image, which rebuilds the formula; the peer's is the
        // level 0 its confirmation bundled
        let whole = SpecFrame::seal(&SplitSpec {
            num_vars: f.num_vars(),
            assumptions: vec![],
            clauses: f.clauses().map(Clause::from).collect(),
        });
        let image = core.cubes.images().get(&p1);
        assert_eq!(image, Some(&Checkpoint { level0: vec![] }));
        assert_eq!(image.unwrap().frame(&f), whole);
        let level0 = vec![(Lit::neg(0), false)];
        assert_eq!(core.cubes.level0(p2), Some(Checkpoint { level0 }));
    }

    #[test]
    fn assign_recovery_pops_the_queue_and_returns_the_spec() {
        let f = gridsat_cnf::paper::fig1_formula();
        let mut core = MasterCore::default();
        core.apply(join(NodeId(3)), &f);
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
            )
            .expect("dispatch returns the spec");
        assert_eq!(out.frame, frame);
        assert_eq!(out.source, Some(ProblemId::new(NodeId(0), 1)));
        assert!(core.pending_recovery.is_empty());
        // the cube's image is the level 0 it was sent
        let twin = ProblemId::new(NodeId(0), 2);
        assert_eq!(core.clients[&NodeId(3)].state.cube(), Some(twin));
        let level0 = vec![(Lit::neg(2), false)];
        assert_eq!(core.cubes.images().get(&twin), Some(&Checkpoint { level0 }));
    }

    /// Join `clients` on an empty core; the first is handed the whole
    /// problem as `ProblemId(0, 1)`.
    fn fleet(f: &gridsat_cnf::Formula, clients: &[u32]) -> MasterCore {
        let mut core = MasterCore::default();
        for &client in clients {
            core.apply(join(NodeId(client)), f);
        }
        let whole = JournalRecord::AssignWhole {
            client: NodeId(clients[0]),
            problem: ProblemId::new(NodeId(0), 1),
            at: 0.0,
        };
        commit(&mut core, f, whole);
        core
    }

    /// Apply `rec` the way the master commits it: a transition the
    /// ledger cannot take panics with the check it fails.
    fn commit(core: &mut MasterCore, f: &gridsat_cnf::Formula, rec: JournalRecord) {
        if let Some(violation) = core.violation(&rec) {
            panic!("{violation}");
        }
        core.apply(rec, f);
    }

    /// The fold alone takes a client out of the backlog and closes a lost
    /// client's grants: a grant opening for a backlogged requester, a
    /// requester's loss and a peer's loss each need no record of their own.
    #[test]
    fn the_fold_releases_backlog_entries_and_a_lost_clients_grants() {
        let f = gridsat_cnf::paper::fig1_formula();
        let mut core = fleet(&f, &[1, 2, 3]);
        let grant = |requester: u32, peer: u32| JournalRecord::GrantOpen {
            requester: NodeId(requester),
            peer: NodeId(peer),
            kind: GrantKind::Split,
        };
        core.apply(JournalRecord::BacklogPush { client: NodeId(1) }, &f);
        assert_eq!(core.backlog, [NodeId(1)]);
        core.apply(grant(1, 2), &f);
        assert!(core.backlog.is_empty());
        // the peer is lost: the requester's grant closes
        core.apply(JournalRecord::Deregister { client: NodeId(2) }, &f);
        assert!(core.grants.is_empty());
        // the requester is lost: its peer is released
        core.apply(grant(1, 3), &f);
        core.apply(JournalRecord::Deregister { client: NodeId(1) }, &f);
        assert!(core.grants.is_empty());
        assert_eq!(core.clients[&NodeId(3)].state(), &ClientState::Idle);
    }

    /// `requester` was granted a split of the cube its row names with
    /// `peer`, kept `pivot` and handed `child` to it: a grant and message
    /// (5).
    fn kept(requester: u32, peer: u32, child: ProblemId, pivot: Lit) -> [JournalRecord; 2] {
        let (requester, peer) = (NodeId(requester), NodeId(peer));
        [
            JournalRecord::GrantOpen {
                requester,
                peer,
                kind: GrantKind::Split,
            },
            JournalRecord::SplitKept {
                requester,
                peer,
                child,
                pivot,
                at: 1.0,
            },
        ]
    }

    /// Message (4): `peer` took `problem` in, bundling `level0`, and the
    /// grant closed.
    fn transfer_in(peer: u32, problem: ProblemId, level0: Vec<(Lit, bool)>) -> [JournalRecord; 2] {
        [
            JournalRecord::TransferIn {
                peer: NodeId(peer),
                problem,
                checkpoint: Some(Checkpoint { level0 }),
                at: 2.0,
            },
            JournalRecord::GrantClose {
                requester: NodeId(1),
            },
        ]
    }

    fn refuted(client: u32, problem: ProblemId) -> JournalRecord {
        JournalRecord::Refuted {
            client: NodeId(client),
            problem,
        }
    }

    /// The panic message of `run`.
    fn panic_of(run: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = std::panic::catch_unwind(run).expect_err("the transition must panic");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn steal_records_fold_like_a_grantless_split() {
        let f = gridsat_cnf::paper::fig1_formula();
        let (donor, thief) = (NodeId(1), NodeId(2));
        let root = ProblemId::new(NodeId(0), 1);
        let stolen = ProblemId::new(donor, 5);
        let mut core = fleet(&f, &[1, 2]);
        let open = JournalRecord::StealOpen {
            donor,
            parent: root,
            problem: stolen,
            pivot: Lit::pos(3),
        };
        commit(&mut core, &f, open.clone());
        // in flight from the donor until the thief confirms it
        let in_flight = CubeState::InFlight {
            to: donor,
            steal: true,
        };
        assert_eq!(core.cubes.state(stolen), Some(in_flight));
        assert_eq!(core.cubes.path(stolen), Some(vec![Lit::neg(3)]));
        let settle = JournalRecord::StealSettle {
            donor,
            thief,
            problem: stolen,
            checkpoint: Some(Checkpoint {
                level0: vec![(Lit::neg(3), false)],
            }),
            at: 2.0,
        };
        commit(&mut core, &f, settle);
        assert_eq!(core.cubes.state(stolen), Some(CubeState::Open(thief)));
        let state = &core.clients[&thief].state;
        assert!(matches!(state, ClientState::Busy { cube, .. } if *cube == stolen));
        assert_eq!(core.clients[&thief].problem_since, 2.0);
        assert_eq!(core.clients[&donor].problem_since, 2.0, "fresh clock");
        // a redelivered notice after the settle reopens nothing, and the
        // donor's cube keeps its pivot once
        commit(&mut core, &f, open);
        assert_eq!(core.cubes.state(stolen), Some(CubeState::Open(thief)));
        assert_eq!(core.cubes.path(root), Some(vec![Lit::pos(3)]));
        // a failed steal stays in flight until its requeue lands
        let other = ProblemId::new(donor, 6);
        let open = JournalRecord::StealOpen {
            donor,
            parent: root,
            problem: other,
            pivot: Lit::neg(5),
        };
        commit(&mut core, &f, open);
        assert_eq!(core.cubes.held_by(donor), [root, other]);
        let frame = SpecFrame::seal(&SplitSpec {
            num_vars: f.num_vars(),
            assumptions: vec![(Lit::pos(3), false), (Lit::pos(5), false)],
            clauses: vec![],
        });
        let requeue = JournalRecord::RecoveryQueued {
            recovery: RecoverySpec {
                frame,
                source: Some(other),
            },
        };
        commit(&mut core, &f, requeue);
        assert_eq!(core.cubes.state(other), Some(CubeState::Backlog));
        assert_eq!(core.cubes.held_by(donor), [root]);
        assert_eq!(core.cubes.held_by(thief), [stolen]);
    }

    /// An exact partition, as ledger transitions: the root
    /// splits twice, every cube is refuted, and nothing is left for the
    /// verdict to wait on.
    #[test]
    fn an_exact_partition_settles_every_cube() {
        let f = gridsat_cnf::paper::fig1_formula();
        let root = ProblemId::new(NodeId(0), 1);
        let (c1, c2) = (ProblemId::new(NodeId(1), 1), ProblemId::new(NodeId(1), 2));
        let mut core = fleet(&f, &[1, 2, 3]);
        let level0 = vec![(Lit::neg(3), false), (Lit::pos(7), false)];
        for rec in [
            kept(1, 2, c1, Lit::pos(3)),
            transfer_in(2, c1, level0),
            kept(1, 3, c2, Lit::neg(5)),
        ]
        .into_iter()
        .flatten()
        {
            commit(&mut core, &f, rec);
        }
        assert_eq!(core.cubes.path(root), Some(vec![Lit::pos(3), Lit::neg(5)]));
        assert_eq!(core.cubes.path(c1), Some(vec![Lit::neg(3)]));
        assert_eq!(core.cubes.path(c2), Some(vec![Lit::pos(3), Lit::pos(5)]));
        assert_eq!(core.cubes.unsettled(), 3);
        for (client, cube) in [(2, c1), (3, c2), (1, root)] {
            commit(&mut core, &f, refuted(client, cube));
        }
        assert_eq!(core.cubes.unsettled(), 0);
        assert!(core.cubes.refuted(c2));
    }

    /// A leak: only the kept side is refuted. The child stays unsettled,
    /// with its holder and its path, which is what holds the verdict and
    /// rebuilds the cube.
    #[test]
    fn a_leaked_cube_stays_unsettled_with_its_path() {
        let f = gridsat_cnf::paper::fig1_formula();
        let root = ProblemId::new(NodeId(0), 1);
        let child = ProblemId::new(NodeId(1), 1);
        let mut core = fleet(&f, &[1, 2]);
        for rec in kept(1, 2, child, Lit::pos(3)) {
            commit(&mut core, &f, rec);
        }
        commit(&mut core, &f, refuted(1, root));
        assert_eq!(core.cubes.unsettled(), 1);
        assert_eq!(core.cubes.held_by(NodeId(2)), [child]);
        assert_eq!(core.cubes.path(child), Some(vec![Lit::neg(3)]));
    }

    #[test]
    fn a_cube_owned_twice_panics_naming_its_record_and_path() {
        let msg = panic_of(|| {
            let f = gridsat_cnf::paper::fig1_formula();
            let child = ProblemId::new(NodeId(1), 1);
            let mut core = fleet(&f, &[1, 2, 3]);
            let records = [
                kept(1, 2, child, Lit::pos(3)),
                transfer_in(2, child, vec![]),
            ];
            for rec in records.into_iter().flatten() {
                commit(&mut core, &f, rec);
            }
            // no grant moves the cube from node 2 to node 3
            let [again, _] = transfer_in(3, child, vec![]);
            commit(&mut core, &f, again);
        });
        assert!(msg.contains("cube owned twice (TransferIn)"), "got: {msg}");
        assert!(msg.ends_with("path [-4]"), "got: {msg}");
        // a minted id handed out while its cube is still held
        let msg = panic_of(|| {
            let f = gridsat_cnf::paper::fig1_formula();
            let mut core = fleet(&f, &[1, 2]);
            let again = JournalRecord::AssignWhole {
                client: NodeId(2),
                problem: ProblemId::new(NodeId(0), 1),
                at: 1.0,
            };
            commit(&mut core, &f, again);
        });
        assert!(msg.contains("cube owned twice (AssignWhole)"), "got: {msg}");
    }

    /// A re-dispatch supersedes its source with a twin. The source's
    /// holder split it before it was taken back, and the twin's holder
    /// splits on the same pivot: neither half is owned twice.
    #[test]
    fn sanctioned_twins_are_tolerated() {
        let f = gridsat_cnf::paper::fig1_formula();
        let root = ProblemId::new(NodeId(0), 1);
        let twin = ProblemId::new(NodeId(0), 2);
        let (a, b) = (ProblemId::new(NodeId(1), 1), ProblemId::new(NodeId(2), 1));
        let mut core = fleet(&f, &[1, 2, 3, 4]);
        let whole = SpecFrame::seal(&SplitSpec {
            num_vars: f.num_vars(),
            assumptions: vec![],
            clauses: f.clauses().map(Clause::from).collect(),
        });
        let requeue = JournalRecord::RecoveryQueued {
            recovery: RecoverySpec {
                frame: whole,
                source: Some(root),
            },
        };
        let assign = JournalRecord::AssignRecovery {
            client: NodeId(2),
            problem: twin,
            at: 5.0,
        };
        let records = [
            kept(1, 3, a, Lit::pos(3)).to_vec(),
            vec![requeue, assign],
            kept(2, 4, b, Lit::pos(3)).to_vec(),
        ];
        for rec in records.into_iter().flatten() {
            commit(&mut core, &f, rec);
        }
        let superseded = CubeState::Settled { refuted: false };
        assert_eq!(core.cubes.state(root), Some(superseded));
        assert_eq!(core.cubes.path(a), core.cubes.path(b));
        assert_eq!(core.cubes.path(twin), Some(vec![Lit::pos(3)]));
        for (client, cube) in [(2, twin), (4, b), (3, a)] {
            commit(&mut core, &f, refuted(client, cube));
        }
        assert_eq!(core.cubes.unsettled(), 0);
    }

    /// A re-dispatch of a frame handed back without its id is tracked by
    /// id alone: its path and its children's are unknown, so it is never
    /// rebuilt from one nor checked against one.
    #[test]
    fn unknown_provenance_is_tracked_by_id_alone() {
        let f = gridsat_cnf::paper::fig1_formula();
        let lone = ProblemId::new(NodeId(0), 2);
        let child = ProblemId::new(NodeId(3), 1);
        let mut core = fleet(&f, &[1, 3, 4]);
        let frame = SpecFrame::seal(&SplitSpec {
            num_vars: f.num_vars(),
            assumptions: vec![(Lit::neg(2), false)],
            clauses: vec![],
        });
        let requeue = JournalRecord::RecoveryQueued {
            recovery: RecoverySpec {
                frame,
                source: None,
            },
        };
        let assign = JournalRecord::AssignRecovery {
            client: NodeId(3),
            problem: lone,
            at: 5.0,
        };
        let split = [
            kept(3, 4, child, Lit::pos(1)),
            transfer_in(4, child, vec![(Lit::pos(1), false)]),
        ];
        for rec in [requeue, assign]
            .into_iter()
            .chain(split.into_iter().flatten())
        {
            commit(&mut core, &f, rec);
        }
        assert_eq!(core.cubes.path(lone), None);
        assert_eq!(core.cubes.path(child), None);
        assert_eq!(core.cubes.held_by(NodeId(3)), [lone]);
        assert_eq!(core.cubes.unsettled(), 3);
    }

    #[test]
    fn a_pivot_already_on_the_path_panics_naming_its_record() {
        let f = gridsat_cnf::paper::fig1_formula();
        let child = |n| ProblemId::new(NodeId(1), n);
        let split_twice = |second: Vec<JournalRecord>| {
            let f = f.clone();
            panic_of(move || {
                let mut core = fleet(&f, &[1, 2, 3]);
                for rec in kept(1, 2, child(1), Lit::pos(3)).into_iter().chain(second) {
                    commit(&mut core, &f, rec);
                }
            })
        };
        let msg = split_twice(kept(1, 3, child(2), Lit::neg(3)).to_vec());
        assert_eq!(
            msg,
            "search-space audit violation: split pivot already on the path (SplitKept): path [4]"
        );
        let msg = split_twice(vec![JournalRecord::StealOpen {
            donor: NodeId(1),
            parent: ProblemId::new(NodeId(0), 1),
            problem: child(2),
            pivot: Lit::pos(3),
        }]);
        assert!(
            msg.contains("on the path (StealOpen): path [4]"),
            "got: {msg}"
        );
    }

    #[test]
    fn an_adopted_cube_off_its_path_panics_naming_its_record() {
        let f = gridsat_cnf::paper::fig1_formula();
        let child = ProblemId::new(NodeId(1), 1);
        let msg = panic_of(|| {
            let mut core = fleet(&f, &[1, 2]);
            let records = [
                kept(1, 2, child, Lit::pos(3)),
                transfer_in(2, child, vec![(Lit::pos(3), false)]),
            ];
            for rec in records.into_iter().flatten() {
                commit(&mut core, &f, rec);
            }
        });
        assert_eq!(
            msg,
            "search-space audit violation: adopted spec contradicts the recorded path \
             (TransferIn): path [-4]"
        );
        let msg = panic_of(|| {
            let mut core = fleet(&f, &[1, 2]);
            let open = JournalRecord::StealOpen {
                donor: NodeId(1),
                parent: ProblemId::new(NodeId(0), 1),
                problem: child,
                pivot: Lit::pos(3),
            };
            commit(&mut core, &f, open);
            let settle = JournalRecord::StealSettle {
                donor: NodeId(1),
                thief: NodeId(2),
                problem: child,
                checkpoint: Some(Checkpoint {
                    level0: vec![(Lit::pos(3), true)],
                }),
                at: 2.0,
            };
            commit(&mut core, &f, settle);
        });
        assert!(
            msg.contains("recorded path (StealSettle): path [-4]"),
            "got: {msg}"
        );
    }

    /// A claim is checked against its cube's path, not its place: a
    /// master that lost a journal suffix closed the migration grant that
    /// would excuse a claim on a cube the ledger has elsewhere, and the
    /// claimed level 0 rebuilds the cube. One off the path panics.
    #[test]
    fn a_claim_off_its_path_panics_naming_its_record() {
        let f = gridsat_cnf::paper::fig1_formula();
        let child = ProblemId::new(NodeId(1), 1);
        let claim = |level0| JournalRecord::Join {
            client: NodeId(3),
            memory: 1 << 20,
            availability: 1.0,
            problem: Some(child),
            checkpoint: Some(Checkpoint { level0 }),
            at: 2.0,
        };
        let sent = || {
            let mut core = fleet(&f, &[1, 2, 3]);
            for rec in kept(1, 2, child, Lit::pos(3)) {
                commit(&mut core, &f, rec);
            }
            core
        };
        let mut core = sent();
        let level0 = vec![(Lit::neg(3), false), (Lit::pos(6), true)];
        commit(&mut core, &f, claim(level0.clone()));
        assert_eq!(core.cubes.state(child), Some(CubeState::Open(NodeId(3))));
        assert_eq!(core.cubes.level0(child), Some(Checkpoint { level0 }));
        let msg = panic_of(|| {
            let mut core = sent();
            commit(&mut core, &f, claim(vec![(Lit::pos(3), true)]));
        });
        assert_eq!(
            msg,
            "search-space audit violation: adopted spec contradicts the recorded path \
             (Join): path [-4]"
        );
    }

    /// An upload is checked like a confirmation: a level 0 that
    /// contradicts its cube's path panics, naming the record.
    #[test]
    fn an_upload_off_its_path_panics_naming_its_record() {
        let f = gridsat_cnf::paper::fig1_formula();
        let child = ProblemId::new(NodeId(1), 1);
        let upload = |level0| JournalRecord::CheckpointAccept {
            client: NodeId(2),
            checkpoint: Checkpoint { level0 },
        };
        let held = || {
            let mut core = fleet(&f, &[1, 2]);
            let records = [
                kept(1, 2, child, Lit::pos(3)),
                transfer_in(2, child, vec![(Lit::neg(3), false)]),
            ];
            for rec in records.into_iter().flatten() {
                commit(&mut core, &f, rec);
            }
            core
        };
        let mut core = held();
        let level0 = vec![(Lit::neg(3), false), (Lit::pos(6), true)];
        commit(&mut core, &f, upload(level0.clone()));
        assert_eq!(core.cubes.level0(child), Some(Checkpoint { level0 }));
        let msg = panic_of(|| {
            let mut core = held();
            commit(&mut core, &f, upload(vec![(Lit::pos(3), true)]));
        });
        assert_eq!(
            msg,
            "search-space audit violation: adopted spec contradicts the recorded path \
             (CheckpointAccept): path [-4]"
        );
    }

    /// The ledger is part of the fold: a journal's records folded live,
    /// and the same records recovered from the log's bytes and folded
    /// again, reproduce the cubes with their origins, pivots and places.
    #[test]
    fn a_fold_and_a_replay_reproduce_the_cubes() {
        let f = gridsat_cnf::paper::fig1_formula();
        let root = ProblemId::new(NodeId(0), 1);
        let (c1, c2, c3) = (
            ProblemId::new(NodeId(1), 1),
            ProblemId::new(NodeId(1), 2),
            ProblemId::new(NodeId(2), 1),
        );
        let mut live = fleet(&f, &[1, 2, 3]);
        let mut journal = MasterJournal::new();
        for client in [1, 2, 3] {
            journal.append(join(NodeId(client)));
        }
        journal.append(JournalRecord::AssignWhole {
            client: NodeId(1),
            problem: root,
            at: 0.0,
        });
        let steal = JournalRecord::StealOpen {
            donor: NodeId(2),
            parent: c1,
            problem: c3,
            pivot: Lit::pos(6),
        };
        let records = [
            kept(1, 2, c1, Lit::pos(3)),
            transfer_in(2, c1, vec![(Lit::neg(3), false)]),
            [steal, refuted(2, c1)],
            kept(1, 3, c2, Lit::neg(5)),
        ];
        for rec in records.into_iter().flatten() {
            journal.append(&rec);
            commit(&mut live, &f, rec);
        }
        let (back, report) = MasterJournal::recover(journal.log_bytes());
        assert!(report.is_clean());
        let replayed = fold(&f, &back.records());
        assert_eq!(replayed, live);
        assert_eq!(replayed.cubes.map.len(), 4);
        assert_eq!(replayed.cubes.unsettled(), live.cubes.unsettled());
        let path = vec![Lit::neg(3), Lit::neg(6)];
        assert_eq!(replayed.cubes.path(c3), Some(path));
    }

    #[test]
    fn images_ignore_forecast_but_compare_scheduling_state() {
        let f = gridsat_cnf::paper::fig1_formula();
        let (n1, n2) = (NodeId(1), NodeId(2));
        let mut records: Vec<_> = [n1, n2].map(join).into();
        records.push(JournalRecord::AssignWhole {
            client: n1,
            problem: ProblemId::new(NodeId(0), 1),
            at: 0.0,
        });
        let mut a = fold(&f, &records);
        let b = fold(&f, &records);
        // live-only refinements do not affect equality
        a.report_load(n1, 0.5);
        assert_eq!(a, b);
        a.clients.get_mut(&n1).unwrap().last_seen = 99.0;
        assert_eq!(a, b);
        // a split grant the peer's confirmation closed still waits for the
        // requester's message (5): only the core's split grants differ
        let mut c = fold(&f, &records);
        let open = JournalRecord::GrantOpen {
            requester: n1,
            peer: n2,
            kind: GrantKind::Split,
        };
        let close = JournalRecord::GrantClose { requester: n1 };
        for rec in [open, close] {
            c.apply(rec, &f);
        }
        assert!(c.grants.is_empty() && *c.clients[&n2].state() == ClientState::Idle);
        assert_ne!(c, b);
        // scheduling state does
        a.set_state(n1, ClientState::Idle);
        assert_ne!(a, b);
    }

    #[test]
    fn sealed_from_clamps_and_ships_suffixes() {
        let mut j = MasterJournal::new();
        assert_eq!(j.append(JournalRecord::ClientIdle { client: NodeId(1) }), 0);
        assert_eq!(j.append(JournalRecord::ClientIdle { client: NodeId(2) }), 1);
        assert_eq!(j.len(), 2);
        assert_eq!(j.sealed_from(1).len(), 1);
        assert_eq!(j.sealed_from(1)[0].open().expect("verifies").0, 1);
        assert_eq!(j.sealed_from(7).len(), 0);
    }

    #[test]
    fn record_sizes_scale_with_payload() {
        let small = JournalRecord::CheckpointAccept {
            client: NodeId(1),
            checkpoint: Checkpoint { level0: vec![] },
        };
        let big = JournalRecord::CheckpointAccept {
            client: NodeId(1),
            checkpoint: Checkpoint {
                level0: (0..100).map(|v| (Lit::pos(v), false)).collect(),
            },
        };
        assert!(SealedRecord::seal(0, &big).wire_len() > SealedRecord::seal(0, &small).wire_len());
    }

    /// One of every record variant, with every optional field exercised
    /// in both polarities across the set.
    fn sample_records() -> Vec<JournalRecord> {
        let cp = Checkpoint {
            level0: vec![(Lit::pos(0), false), (Lit::neg(3), true)],
        };
        let cp_deeper = Checkpoint {
            level0: vec![
                (Lit::neg(1), false),
                (Lit::pos(0), true),
                (Lit::pos(4), true),
            ],
        };
        let frame = SpecFrame::seal(&SplitSpec {
            num_vars: 6,
            assumptions: vec![(Lit::pos(2), true)],
            clauses: vec![Clause::new(vec![Lit::neg(0), Lit::pos(5)])],
        });
        vec![
            JournalRecord::Join {
                client: NodeId(1),
                memory: 1 << 30,
                availability: 0.875,
                problem: None,
                checkpoint: None,
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
            JournalRecord::BacklogPush { client: NodeId(4) },
            JournalRecord::GrantOpen {
                requester: NodeId(1),
                peer: NodeId(3),
                kind: GrantKind::Split,
            },
            JournalRecord::GrantClose {
                requester: NodeId(1),
            },
            JournalRecord::SplitKept {
                requester: NodeId(1),
                peer: NodeId(3),
                child: ProblemId::new(NodeId(1), 2),
                pivot: Lit::neg(4),
                at: 4.5,
            },
            JournalRecord::MigrateSent {
                requester: NodeId(5),
            },
            JournalRecord::TransferIn {
                peer: NodeId(3),
                problem: ProblemId::new(NodeId(1), 2),
                checkpoint: Some(cp.clone()),
                at: 5.0,
            },
            JournalRecord::TransferIn {
                peer: NodeId(6),
                problem: ProblemId::new(NodeId(1), 3),
                checkpoint: None,
                at: 5.5,
            },
            JournalRecord::CheckpointAccept {
                client: NodeId(3),
                checkpoint: cp_deeper.clone(),
            },
            JournalRecord::ClientIdle { client: NodeId(3) },
            JournalRecord::Refuted {
                client: NodeId(5),
                problem: ProblemId::new(NodeId(5), 1),
            },
            JournalRecord::Refuted {
                client: NodeId(6),
                problem: ProblemId::new(NodeId(1), 2),
            },
            JournalRecord::RecoveryQueued {
                recovery: RecoverySpec {
                    frame,
                    source: Some(ProblemId::new(NodeId(3), 9)),
                },
            },
            JournalRecord::Join {
                client: NodeId(7),
                memory: 1 << 20,
                availability: 0.5,
                problem: Some(ProblemId::new(NodeId(7), 3)),
                checkpoint: Some(cp_deeper),
                at: 6.0,
            },
            JournalRecord::StealOpen {
                donor: NodeId(3),
                parent: ProblemId::new(NodeId(5), 2),
                problem: ProblemId::new(NodeId(3), 11),
                pivot: Lit::pos(70_000),
            },
            JournalRecord::StealSettle {
                donor: NodeId(3),
                thief: NodeId(4),
                problem: ProblemId::new(NodeId(3), 11),
                checkpoint: Some(cp),
                at: 8.5,
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

    /// `rec` sealed at `seq` is the pinned bytes: the stamp and the
    /// payload's length (one byte each here), `check`, then `payload`.
    fn assert_pinned(seq: u8, rec: JournalRecord, check: [u8; 4], payload: &[u8]) {
        let pinned = [&[seq, payload.len() as u8], &check[..], payload].concat();
        let sealed = SealedRecord::seal(u64::from(seq), &rec);
        assert_eq!(sealed.bytes, pinned, "{rec:?}");
        assert_eq!(sealed.open(), Ok((u64::from(seq), rec)));
    }

    /// A checkpoint upload is its client and the level 0's pairs: the
    /// cube is the one the row names, and a checkpoint has no tag byte.
    #[test]
    fn a_checkpoint_record_seals_to_the_pinned_bytes() {
        let rec = JournalRecord::CheckpointAccept {
            client: NodeId(3),
            checkpoint: Checkpoint {
                level0: vec![(Lit::pos(1), false), (Lit::neg(4), true)],
            },
        };
        assert_pinned(5, rec, [217, 133, 36, 229], &[12, 3, 2, 4, 19]);
    }

    /// A grant is its requester, its peer and its kind: the cube is the
    /// one the requester's row names.
    #[test]
    fn a_grant_record_seals_to_the_pinned_bytes() {
        let rec = JournalRecord::GrantOpen {
            requester: NodeId(1),
            peer: NodeId(3),
            kind: GrantKind::Migrate,
        };
        assert_pinned(4, rec, [34, 8, 166, 153], &[7, 1, 3, 1]);
    }

    /// A join is its client, memory, availability, claim and clock; the
    /// host's speed is the fold's. A registration claims nothing, a
    /// re-registration after a takeover a cube and its level 0.
    #[test]
    fn a_join_record_seals_to_the_pinned_bytes() {
        let join = |problem, checkpoint| JournalRecord::Join {
            client: NodeId(3),
            memory: 1 << 20,
            availability: 0.5,
            problem,
            checkpoint,
            at: 6.0,
        };
        // tag, client, memory, availability, the two options, clock
        let mut payload = vec![18, 3, 128, 128, 64, 0, 0, 0, 0, 0, 0, 224, 63, 0, 0];
        payload.extend([0, 0, 0, 0, 0, 0, 24, 64]);
        assert_pinned(2, join(None, None), [143, 123, 216, 136], &payload);
        // the claim: a cube and a level 0 of two pairs
        payload.splice(13..15, [1, 130, 128, 128, 128, 16, 1, 2, 4, 19]);
        let level0 = vec![(Lit::pos(1), false), (Lit::neg(4), true)];
        let rec = join(
            Some(ProblemId::new(NodeId(1), 2)),
            Some(Checkpoint { level0 }),
        );
        assert_pinned(2, rec, [162, 94, 160, 74], &payload);
    }

    #[test]
    fn sealed_record_rejects_any_single_bit_flip() {
        let rec = JournalRecord::CheckpointAccept {
            client: NodeId(3),
            checkpoint: Checkpoint {
                level0: vec![(Lit::pos(1), false)],
            },
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
        // an unknown tag and retired ones (6, the backlog remove the fold
        // made redundant; 0, the launch a join without a claim replaced),
        // re-sealed with a valid CRC
        for tag in [200u8, 6, 0] {
            let payload = [tag, 1];
            let mut bytes = Vec::new();
            wire::write_varint(0, &mut bytes);
            wire::write_varint(payload.len() as u64, &mut bytes);
            bytes.extend_from_slice(&record_check(0, &payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
            assert_eq!(
                SealedRecord::from_wire(bytes).open(),
                Err(RecordError::BadTag(tag))
            );
        }
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

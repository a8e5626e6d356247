//! The GridSAT wire protocol (paper Section 3.3 and Figure 3).
//!
//! Control messages are small; the [`GridMsg::Subproblem`] transfer is the
//! big one ("from 10 KBytes to 500 MBytes ... 100s of MBytes on average"),
//! which is why it travels client-to-client rather than through the
//! master.

use crate::journal::SealedRecord;
use crate::wire::{EncodedBatch, SpecFrame};
use gridsat_cnf::{Clause, Formula, Lit};
use gridsat_grid::{MessageSize, NodeId};
use std::sync::Arc;

/// Globally unique subproblem identity: creator node in the high bits,
/// per-creator counter in the low bits. Control messages carry it so the
/// master and clients never act on a stale grant, result or migration —
/// subproblems move between nodes asynchronously, and timestamps alone
/// cannot identify them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProblemId(pub u64);

impl ProblemId {
    pub fn new(creator: NodeId, counter: u32) -> ProblemId {
        ProblemId((u64::from(creator.0) << 32) | u64::from(counter))
    }
}

/// Why a run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EndReason {
    Sat,
    Unsat,
    /// Overall execution cap expired without an answer.
    TimeOut,
    /// A busy client was lost and recovery was not enabled.
    ClientLost,
}

/// The result a client reports for its subproblem.
#[derive(Clone, Debug)]
pub enum SubResult {
    /// Satisfying assignment, as the list of true literals
    /// ("this client sends the assignment stack to the master which
    /// verifies that the stack satisfies the problem").
    Sat(Vec<Lit>),
    /// The subproblem is unsatisfiable.
    Unsat,
}

/// A checkpoint (paper Section 3.4's "light checkpoint", implemented as
/// an extension): the client's level-0 assignment, which over the base
/// formula describes the cube it holds.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    pub level0: Vec<(Lit, bool)>,
}

impl Checkpoint {
    /// The cube this image re-dispatches as: level 0 over the formula's
    /// clauses.
    pub(crate) fn frame(&self, formula: &Formula) -> SpecFrame {
        let clauses = formula.clauses().iter().map(Clause::lits);
        SpecFrame::build(formula.num_vars(), &self.level0, clauses)
    }

    /// Bytes the bandwidth model charges for the payload, whichever
    /// message carries it.
    fn size_bytes(&self) -> usize {
        8 + self.level0.len() * 5
    }
}

/// All GridSAT messages.
#[derive(Clone, Debug)]
pub enum GridMsg {
    // ---- client -> master ----
    /// A client came up and registered (paper: clients "contact the
    /// master and register with it"). Carries the host memory so the
    /// master can rank, and the initial availability measurement.
    Register { memory: usize, availability: f64 },
    /// Figure 3 message (1): "client A notifies the master that it
    /// wishes to split its subproblem".
    SplitRequest { problem: ProblemId },
    /// Figure 3 messages (4)/(5): peers report the success or failure of
    /// the split transfer. `requester`/`peer` identify the transfer, so
    /// the master never misattributes a completion when a node is
    /// involved in several grants over its lifetime.
    SplitDone {
        requester: NodeId,
        peer: NodeId,
        ok: bool,
        /// The half that moved (the peer holds it now).
        problem: Option<ProblemId>,
        /// For the requester's report: the pivot it kept. The half is its
        /// cube plus the pivot's complement.
        pivot: Option<Lit>,
        /// For the peer's confirmation: its initial recovery image,
        /// bundled so the master never holds a Busy client without a
        /// checkpoint (a separate upload could be lost while the client
        /// dies, making the subproblem unrecoverable).
        checkpoint: Option<Box<Checkpoint>>,
        /// The transfer was a sub-master-brokered steal, not a master
        /// grant: the root settles it against the steal its cube ledger
        /// holds open instead of a grant entry (hierarchy extension).
        stolen: bool,
    },
    /// Subproblem finished.
    Result {
        result: SubResult,
        problem: ProblemId,
    },
    /// Periodic NWS-style load measurement feeding the master's
    /// forecasters.
    LoadReport { availability: f64 },
    /// Checkpoint upload (extension). Tagged with the subproblem it
    /// covers so the master can reject a checkpoint delivered after the
    /// subproblem already finished (at-least-once delivery reorders).
    CheckpointMsg {
        problem: ProblemId,
        checkpoint: Box<Checkpoint>,
    },
    /// Lease renewal: "I am alive" (reliability extension). Sent
    /// periodically so the master detects silent loss itself instead of
    /// relying solely on connection teardown.
    Heartbeat,
    /// A subproblem transfer became undeliverable; its spec is handed
    /// back to the master for re-dispatch (reliability extension).
    /// `problem` names the lost instance when the sender knows it, so
    /// the re-dispatch can be attributed to the original subproblem.
    Requeue {
        spec: Box<SpecFrame>,
        problem: Option<ProblemId>,
    },

    // ---- master -> client ----
    /// Assign a (sub)problem; the first registered client receives the
    /// entire problem this way. The spec travels as a checksummed
    /// [`SpecFrame`]; the receiver verifies before decoding.
    Solve {
        spec: Box<SpecFrame>,
        problem: ProblemId,
    },
    /// Figure 3 message (2): the master grants a split and names the
    /// idle peer to split with. `issued_at` guards against the grant
    /// arriving after the requester's subproblem has changed.
    /// The grant names the subproblem it applies to; the client rejects
    /// it if its current subproblem differs.
    SplitGrant { peer: NodeId, problem: ProblemId },
    /// Move the current subproblem to `peer` (backlog/migration).
    Migrate { peer: NodeId, problem: ProblemId },
    /// The receiver's links for clause sharing, whole (not a change to
    /// the ones it holds): `up`, where its sharing round goes — its parent
    /// in the share tree — and `down`, who gets what travels down from it
    /// — its children. Sent to the few nodes whose links a join, a leave
    /// or a lease expiry changes. Under the paper's protocol there is no
    /// tree: `up` is `None` and `down` lists every client, in one
    /// allocation all recipients share.
    Peers {
        up: Option<NodeId>,
        down: Arc<[NodeId]>,
    },
    /// End of run.
    Terminate(EndReason),

    // ---- client -> client ----
    /// Figure 3 message (3): the subproblem transfer, "by far the
    /// largest message sent". `sent_at` lets the receiver compute its
    /// transfer time, which seeds the split time-out heuristic.
    /// `problem` is the subproblem's identity, minted by its creator
    /// (splits mint a fresh id; migrations keep the old one).
    Subproblem {
        spec: Box<SpecFrame>,
        sent_at: f64,
        problem: ProblemId,
        /// Transfer originated from a work steal rather than a master
        /// grant; the receiver echoes this in its [`GridMsg::SplitDone`].
        stolen: bool,
    },
    /// Learned clauses on their way to the peers (paper Section 3.2). The
    /// batch is encoded once per sharing round ([`EncodedBatch`]) and
    /// shared by reference across the whole fan-out — every hop down the
    /// share tree forwards the same buffer by refcount, never
    /// re-serializing. `down` is the direction: `false` from a node to its
    /// parent, who merges the clauses into its own round; `true` from the
    /// root (under the paper's flood, from anyone) to everybody below.
    Share {
        batch: Arc<EncodedBatch>,
        down: bool,
    },

    // ---- master <-> standby (durability extension) ----
    /// Journal records `start..start+records.len()` shipped from the
    /// active master to the standby so a promotion can replay scheduling
    /// history it never witnessed. Each record travels sealed (stamped
    /// and checksummed); the standby verifies record by record and acks
    /// only the verified contiguous prefix, so one mangled record never
    /// poisons the replayed history.
    JournalBatch {
        start: u64,
        records: Vec<SealedRecord>,
    },
    /// Standby's cumulative ack: it holds every record below `next`.
    /// Lossy by design — a missed ack only inflates the reported lag.
    JournalAck { next: u64 },
    /// A promoted standby announces itself; clients retarget their
    /// control traffic and answer with [`GridMsg::Adopt`].
    Takeover,
    /// Re-registration with state: what the client is working on right
    /// now, so the new master can reconcile the journal suffix it lost.
    Adopt {
        memory: usize,
        availability: f64,
        problem: Option<ProblemId>,
        checkpoint: Option<Box<Checkpoint>>,
    },

    // ---- hierarchical control plane (scaling extension) ----
    /// Idle client announces itself to its site sub-master as a steal
    /// target. Lossy by design: the client re-announces periodically
    /// while idle, like a heartbeat.
    StealRequest,
    /// Sub-master pairs the idle announcer with a loaded sibling:
    /// "steal `problem` from `donor`". The ticket is advisory — the
    /// donor silently ignores a steal its subproblem has outgrown.
    StealTicket { donor: NodeId, problem: ProblemId },
    /// Thief presents the ticket to the donor, who splits off a
    /// guiding-path extension directly to it (no master involved).
    Steal { problem: ProblemId },
    /// Donor declines a steal its subproblem has outgrown (finished,
    /// migrated, or too shallow to split). The thief re-announces itself
    /// immediately instead of waiting out its idle period.
    StealRefused { problem: ProblemId },
    /// Donor tells the root master a steal transfer is in flight, at the
    /// instant it splits: the cube it split (`parent`, which only the
    /// donor knows), the stolen half and the pivot it kept. Travels on the
    /// donor->root channel ahead of the donor's own later results.
    StealNotice {
        parent: ProblemId,
        problem: ProblemId,
        pivot: Option<Lit>,
    },
    /// Sub-master hands split offers its site cannot take up to the root
    /// master, each a `(requester, problem)` the root brokers like a
    /// direct [`GridMsg::SplitRequest`]: one offer unasked when the site
    /// saturates, then the answer to each [`GridMsg::OfferSolicit`] — up
    /// to the offers asked for, and empty when it holds none.
    SplitEscalate { offers: Vec<(NodeId, ProblemId)> },
    /// Root pulls up to `want` offers from a saturated site: it has that
    /// many idle clients no other pull covers, and nothing backlogged.
    OfferSolicit { want: u32 },
}

impl GridMsg {
    /// Does losing this message threaten soundness or liveness of the
    /// protocol? Control messages get acked at-least-once delivery under
    /// the reliability layer; the rest is intentionally fire-and-forget,
    /// each because a later message replaces it: clause shares and load
    /// reports are periodic best-effort streams, share-tree links are soft
    /// state (a lost update costs a subtree its sharing until a later
    /// membership change re-links it, never a verdict), a journal ack is
    /// cumulative, heartbeats exist precisely to be allowed to miss, and
    /// the steal protocol's pulls re-arise on their senders' timers.
    pub fn is_control(&self) -> bool {
        match self {
            GridMsg::Share { .. }
            | GridMsg::LoadReport { .. }
            | GridMsg::Peers { .. }
            | GridMsg::JournalAck { .. }
            | GridMsg::Heartbeat
            // idle announcements re-arise on the steal period
            | GridMsg::StealRequest
            // a refusal only shortcuts the thief's own retry timer
            | GridMsg::StealRefused { .. } => false,
            GridMsg::Register { .. }
            | GridMsg::JournalBatch { .. }
            | GridMsg::Takeover
            | GridMsg::Adopt { .. }
            | GridMsg::SplitRequest { .. }
            | GridMsg::SplitDone { .. }
            | GridMsg::Result { .. }
            | GridMsg::CheckpointMsg { .. }
            | GridMsg::Solve { .. }
            | GridMsg::SplitGrant { .. }
            | GridMsg::Migrate { .. }
            | GridMsg::Terminate(_)
            | GridMsg::Subproblem { .. }
            | GridMsg::Requeue { .. }
            | GridMsg::StealTicket { .. }
            | GridMsg::Steal { .. }
            | GridMsg::StealNotice { .. }
            | GridMsg::SplitEscalate { .. }
            // the root counts a pull in flight until it is answered
            | GridMsg::OfferSolicit { .. } => true,
        }
    }

    /// Stable short name of the message kind, used as the metric label
    /// for the master's per-kind service-time histograms.
    pub fn kind_str(&self) -> &'static str {
        match self {
            GridMsg::Register { .. } => "register",
            GridMsg::SplitRequest { .. } => "split_request",
            GridMsg::SplitDone { .. } => "split_done",
            GridMsg::Result { .. } => "result",
            GridMsg::LoadReport { .. } => "load_report",
            GridMsg::CheckpointMsg { .. } => "checkpoint",
            GridMsg::Heartbeat => "heartbeat",
            GridMsg::Requeue { .. } => "requeue",
            GridMsg::Solve { .. } => "solve",
            GridMsg::SplitGrant { .. } => "split_grant",
            GridMsg::Migrate { .. } => "migrate",
            GridMsg::Peers { .. } => "peers",
            GridMsg::Terminate(_) => "terminate",
            GridMsg::Subproblem { .. } => "subproblem",
            GridMsg::Share { .. } => "share",
            GridMsg::JournalBatch { .. } => "journal_batch",
            GridMsg::JournalAck { .. } => "journal_ack",
            GridMsg::Takeover => "takeover",
            GridMsg::Adopt { .. } => "adopt",
            GridMsg::StealRequest => "steal_request",
            GridMsg::StealTicket { .. } => "steal_ticket",
            GridMsg::Steal { .. } => "steal",
            GridMsg::StealRefused { .. } => "steal_refused",
            GridMsg::StealNotice { .. } => "steal_notice",
            GridMsg::SplitEscalate { .. } => "split_escalate",
            GridMsg::OfferSolicit { .. } => "offer_solicit",
        }
    }
}

/// A control message is a 24-byte header and a fixed body: `SplitDone`'s
/// requester and peer (4 bytes each), `ok`, `stolen`, the checkpoint's
/// presence (1 each), problem (8) and pivot (4) are 23 of its 24, and
/// `StealNotice`'s parent, half (8 each) and pivot (4) 20 of 20.
impl MessageSize for GridMsg {
    fn size_bytes(&self) -> usize {
        match self {
            GridMsg::Register { .. } => 64,
            GridMsg::SplitRequest { .. } => 40,
            GridMsg::SplitDone { checkpoint, .. } => {
                48 + checkpoint.as_deref().map_or(0, Checkpoint::size_bytes)
            }
            GridMsg::Result {
                result: SubResult::Unsat,
                ..
            } => 40,
            GridMsg::Result {
                result: SubResult::Sat(lits),
                ..
            } => 40 + lits.len() * 5,
            GridMsg::LoadReport { .. } => 32,
            GridMsg::Heartbeat => 24,
            GridMsg::Requeue { spec, .. } => 24 + spec.wire_len(),
            GridMsg::CheckpointMsg { checkpoint, .. } => 32 + checkpoint.size_bytes(),
            GridMsg::Solve { spec, .. } => 24 + spec.wire_len(),
            GridMsg::SplitGrant { .. } => 32,
            GridMsg::Migrate { .. } => 32,
            GridMsg::Peers { up, down } => 24 + (usize::from(up.is_some()) + down.len()) * 4,
            GridMsg::Terminate(_) => 32,
            GridMsg::Subproblem { spec, .. } => 24 + spec.wire_len(),
            // 24-byte frame plus the actual encoded batch — the real
            // cost the bandwidth model charges
            GridMsg::Share { batch, .. } => 24 + batch.wire_len(),
            GridMsg::JournalBatch { records, .. } => {
                24 + records.iter().map(SealedRecord::wire_len).sum::<usize>()
            }
            GridMsg::JournalAck { .. } => 24,
            GridMsg::Takeover => 24,
            GridMsg::StealRequest => 24,
            GridMsg::StealTicket { .. } => 36,
            GridMsg::Steal { .. } => 32,
            GridMsg::StealRefused { .. } => 32,
            GridMsg::StealNotice { .. } => 44,
            GridMsg::SplitEscalate { offers } => 24 + offers.len() * 12,
            GridMsg::OfferSolicit { .. } => 28,
            GridMsg::Adopt { checkpoint, .. } => {
                64 + checkpoint.as_deref().map_or(0, Checkpoint::size_bytes)
            }
        }
    }

    fn label(&self) -> String {
        match self {
            GridMsg::Register { .. } => "register".into(),
            GridMsg::SplitRequest { .. } => "split-request(1)".into(),
            GridMsg::SplitDone { ok, .. } => {
                format!("split-done({})", if *ok { "ok" } else { "fail" })
            }
            GridMsg::Result {
                result: SubResult::Sat(_),
                ..
            } => "result(SAT)".into(),
            GridMsg::Result {
                result: SubResult::Unsat,
                ..
            } => "result(UNSAT)".into(),
            GridMsg::LoadReport { .. } => "load-report".into(),
            GridMsg::Heartbeat => "heartbeat".into(),
            GridMsg::Requeue { .. } => "requeue".into(),
            GridMsg::CheckpointMsg { .. } => "checkpoint".into(),
            GridMsg::Solve { .. } => "solve".into(),
            GridMsg::SplitGrant { .. } => "split-grant(2)".into(),
            GridMsg::Migrate { .. } => "migrate".into(),
            GridMsg::Peers { .. } => "peers".into(),
            GridMsg::Terminate(_) => "terminate".into(),
            GridMsg::Subproblem { .. } => "subproblem(3)".into(),
            GridMsg::Share { .. } => "share".into(),
            GridMsg::JournalBatch { records, .. } => format!("journal-batch({})", records.len()),
            GridMsg::JournalAck { .. } => "journal-ack".into(),
            GridMsg::Takeover => "takeover".into(),
            GridMsg::Adopt { .. } => "adopt".into(),
            GridMsg::StealRequest => "steal-request".into(),
            GridMsg::StealTicket { .. } => "steal-ticket".into(),
            GridMsg::Steal { .. } => "steal".into(),
            GridMsg::StealRefused { .. } => "steal-refused".into(),
            GridMsg::StealNotice { .. } => "steal-notice".into(),
            GridMsg::SplitEscalate { .. } => "split-escalate".into(),
            GridMsg::OfferSolicit { .. } => "offer-solicit".into(),
        }
    }

    /// Flip one bit in the message's real byte payload, if it has one.
    /// Scalar-only messages return `false` and are dropped by the engine
    /// instead (header corruption: the frame itself is unreadable).
    fn corrupt(&mut self, seed: u64) -> bool {
        match self {
            GridMsg::Requeue { spec, .. }
            | GridMsg::Solve { spec, .. }
            | GridMsg::Subproblem { spec, .. } => {
                spec.corrupt_bit(seed);
                true
            }
            // copy-on-write: the relay fan-out shares this buffer, and
            // only this delivery saw the flipped bit
            GridMsg::Share { batch, .. } => {
                Arc::make_mut(batch).corrupt_bit(seed);
                true
            }
            GridMsg::JournalBatch { records, .. } if !records.is_empty() => {
                let victim = (seed as usize) % records.len();
                records[victim].corrupt_bit(seed);
                true
            }
            _ => false,
        }
    }

    fn payload_intact(&self) -> bool {
        match self {
            GridMsg::Requeue { spec, .. }
            | GridMsg::Solve { spec, .. }
            | GridMsg::Subproblem { spec, .. } => spec.intact(),
            GridMsg::Share { batch, .. } => batch.intact(),
            // journal batches are deliberately let through: records are
            // sealed individually, and the standby rejects bad ones and
            // withholds its ack so the master re-sends from the last
            // verified record
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FRAME_HEADER_BYTES;
    use gridsat_solver::SplitSpec;

    fn share_of(clauses: Vec<Clause>) -> GridMsg {
        let shares: Vec<(Clause, u64)> = clauses
            .into_iter()
            .map(|c| {
                let fp = c.fingerprint();
                (c, fp)
            })
            .collect();
        GridMsg::Share {
            batch: Arc::new(EncodedBatch::encode(&shares)),
            down: true,
        }
    }

    #[test]
    fn sizes_scale_with_payload() {
        let small = share_of(vec![Clause::new([Lit::pos(0)])]);
        let big = share_of(vec![
            Clause::new((0..50).map(Lit::pos)),
            Clause::new((0..50).map(Lit::neg)),
        ]);
        assert!(big.size_bytes() > small.size_bytes());

        let spec = SplitSpec {
            num_vars: 10,
            assumptions: vec![(Lit::pos(0), true)],
            clauses: vec![Clause::new([Lit::pos(1), Lit::pos(2)])],
        };
        let frame = SpecFrame::seal(&spec);
        let payload = frame.payload().len();
        let sub = GridMsg::Subproblem {
            spec: Box::new(frame),
            sent_at: 0.0,
            problem: ProblemId::new(NodeId(1), 1),
            stolen: false,
        };
        // the size model is the exact encoded length plus the checksum
        // frame
        assert_eq!(sub.size_bytes(), 24 + FRAME_HEADER_BYTES + payload);
    }

    /// A recovery image re-dispatches as the spec it describes: level 0
    /// over the formula's clauses.
    #[test]
    fn a_checkpoint_frames_as_its_cube() {
        let f = gridsat_cnf::paper::fig1_formula();
        let level0 = vec![(Lit::pos(0), true), (Lit::neg(2), false)];
        let checkpoint = Checkpoint {
            level0: level0.clone(),
        };
        assert_eq!(
            checkpoint.frame(&f),
            SpecFrame::seal(&SplitSpec {
                num_vars: f.num_vars(),
                assumptions: level0,
                clauses: f.clauses().to_vec(),
            })
        );
    }

    /// One checkpoint model under three carriers: the payload costs the
    /// same bytes on top of each message's own header.
    #[test]
    fn a_checkpoint_costs_the_same_in_every_carrier() {
        let checkpoint = Checkpoint {
            level0: vec![
                (Lit::pos(0), true),
                (Lit::neg(1), false),
                (Lit::pos(2), true),
            ],
        };
        let payload = 8 + 3 * 5;
        let problem = ProblemId::new(NodeId(1), 1);
        let boxed = || Some(Box::new(checkpoint.clone()));
        let done = GridMsg::SplitDone {
            requester: NodeId(1),
            peer: NodeId(2),
            ok: true,
            problem: Some(problem),
            pivot: None,
            checkpoint: boxed(),
            stolen: false,
        };
        assert_eq!(done.size_bytes(), 48 + payload);
        let upload = GridMsg::CheckpointMsg {
            problem,
            checkpoint: Box::new(checkpoint.clone()),
        };
        assert_eq!(upload.size_bytes(), 32 + payload);
        let adopt = GridMsg::Adopt {
            memory: 1 << 20,
            availability: 1.0,
            problem: Some(problem),
            checkpoint: boxed(),
        };
        assert_eq!(adopt.size_bytes(), 64 + payload);
    }

    #[test]
    fn corruption_mangles_real_payloads_and_receivers_notice() {
        let spec = SplitSpec {
            num_vars: 10,
            assumptions: vec![(Lit::pos(0), true)],
            clauses: vec![Clause::new([Lit::pos(1), Lit::pos(2)])],
        };
        let mut sub = GridMsg::Subproblem {
            spec: Box::new(SpecFrame::seal(&spec)),
            sent_at: 0.0,
            problem: ProblemId::new(NodeId(1), 1),
            stolen: false,
        };
        assert!(sub.payload_intact());
        assert!(sub.corrupt(7), "spec transfers carry real bytes");
        assert!(!sub.payload_intact(), "a flipped bit must fail the check");

        let mut share = share_of(vec![Clause::new([Lit::pos(0)])]);
        assert!(share.corrupt(9));
        assert!(!share.payload_intact());

        // scalar-only control: no byte payload to flip — dropped instead
        let mut hb = GridMsg::Heartbeat;
        assert!(!hb.corrupt(3));
        assert!(hb.payload_intact());
    }

    #[test]
    fn a_corrupted_journal_batch_is_delivered_for_per_record_rejection() {
        use crate::journal::{JournalRecord, SealedRecord};
        let records = vec![
            SealedRecord::seal(0, &JournalRecord::ClientIdle { client: NodeId(1) }),
            SealedRecord::seal(1, &JournalRecord::ClientIdle { client: NodeId(2) }),
        ];
        let mut batch = GridMsg::JournalBatch { start: 0, records };
        assert!(batch.corrupt(5), "journal batches carry real bytes");
        assert!(
            batch.payload_intact(),
            "the batch still travels: the standby rejects record by record"
        );
        let GridMsg::JournalBatch { records, .. } = batch else {
            unreachable!()
        };
        let bad = records.iter().filter(|r| !r.intact()).count();
        assert_eq!(bad, 1, "exactly one record took the flipped bit");
    }

    #[test]
    fn control_classification_protects_the_protocol_messages() {
        assert!(GridMsg::Result {
            result: SubResult::Unsat,
            problem: ProblemId::new(NodeId(1), 0)
        }
        .is_control());
        assert!(GridMsg::SplitGrant {
            peer: NodeId(2),
            problem: ProblemId::new(NodeId(0), 0)
        }
        .is_control());
        assert!(GridMsg::Terminate(EndReason::Sat).is_control());
        // the lossy-by-design streams
        assert!(!share_of(vec![]).is_control());
        assert!(!GridMsg::LoadReport { availability: 1.0 }.is_control());
        assert!(!GridMsg::Peers {
            up: None,
            down: Arc::default()
        }
        .is_control());
        assert!(!GridMsg::Heartbeat.is_control());
        // steal protocol: tickets/steals/notices/escalations and the
        // root's pulls are load-bearing, idle announcements are lossy
        let pid = ProblemId::new(NodeId(3), 1);
        assert!(GridMsg::StealTicket {
            donor: NodeId(3),
            problem: pid
        }
        .is_control());
        assert!(GridMsg::Steal { problem: pid }.is_control());
        assert!(GridMsg::StealNotice {
            parent: ProblemId::new(NodeId(0), 1),
            problem: pid,
            pivot: Some(Lit::pos(3)),
        }
        .is_control());
        assert!(GridMsg::SplitEscalate {
            offers: vec![(NodeId(3), pid)]
        }
        .is_control());
        assert!(GridMsg::OfferSolicit { want: 2 }.is_control());
        assert!(!GridMsg::StealRequest.is_control());
        // a refused thief re-announces on its own timer
        assert!(!GridMsg::StealRefused { problem: pid }.is_control());
        assert_eq!(
            GridMsg::StealRefused { problem: pid }.kind_str(),
            "steal_refused"
        );
        assert_eq!(
            GridMsg::OfferSolicit { want: 1 }.kind_str(),
            "offer_solicit"
        );
    }

    #[test]
    fn labels_carry_figure3_numbers() {
        assert!(GridMsg::SplitRequest {
            problem: ProblemId::new(NodeId(1), 0)
        }
        .label()
        .contains("(1)"));
        assert!(GridMsg::SplitGrant {
            peer: NodeId(2),
            problem: ProblemId::new(NodeId(0), 0)
        }
        .label()
        .contains("(2)"));
        let spec = SplitSpec {
            num_vars: 1,
            assumptions: vec![],
            clauses: vec![],
        };
        assert!(GridMsg::Subproblem {
            spec: Box::new(SpecFrame::seal(&spec)),
            sent_at: 0.0,
            problem: ProblemId::new(NodeId(1), 2),
            stolen: false
        }
        .label()
        .contains("(3)"));
    }
}

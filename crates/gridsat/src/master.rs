//! The GridSAT master: resource manager, client manager and scheduler
//! (paper Section 3.3), work backlog and migration (Section 3.4).
//!
//! The master never solves; it reads the problem, hands it to the first
//! registered client, brokers splits toward the best-ranked idle
//! resources, keeps a backlog when everything is busy, verifies reported
//! models against the original formula, and declares UNSAT when every
//! client has gone idle.
//!
//! Durability extension: every scheduling decision is appended to a
//! write-ahead [`MasterJournal`] *before* it is applied, and the
//! scheduling state itself lives in a `MasterCore` that is a
//! deterministic fold over the journal. A restarted master replays its
//! own journal (and self-checks the fold); a designated standby tails
//! journal batches piggybacked on control traffic and can promote
//! itself with [`Master::promoted`] when the feed goes quiet. A restart
//! that lost committed records and a promotion come back to the fleet
//! the same way, through one resync (`Master::resync`).
//!
//! The core's cube ledger is the master's account of the search space:
//! a split reports the pivot it kept, so every cube's path is known from
//! the split tree. "All the clients are idle" becomes UNSAT only once no
//! cube is left unsettled, and a cube whose holder is lost is rebuilt —
//! from its recovery image, or from the base formula and its path.

use crate::config::{
    GridConfig, HEARTBEAT_PERIOD_S, LEASE_MISSES, MIGRATION_FACTOR, PROMOTE_GRACE_S,
    QUARANTINE_STRIKES, STANDBY_NODE,
};
use crate::idle::{Hosts, REMOTE_DISCOUNT};
use crate::journal::{
    tree_children, tree_parent, ClientInfo, ClientState, CubeState, JournalRecord, MasterCore,
    MasterJournal, RecoverySpec, Roster,
};
use crate::msg::{Checkpoint, GridMsg, ProblemId, SubResult};
use crate::wire::SpecFrame;
use gridsat_cnf::{Assignment, Formula, Lit};
use gridsat_grid::{Ctx, NodeId, Process, Site};
use gridsat_obs::{Event, Histogram, Obs};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Final outcome of a GridSAT run.
#[derive(Clone, Debug, PartialEq)]
pub enum GridOutcome {
    /// Verified satisfying assignment.
    Sat(Assignment),
    /// Every subproblem refuted ("all the clients are idle").
    Unsat,
    /// Overall cap expired.
    TimeOut,
    /// A busy client was lost without checkpointing.
    ClientLost,
    /// The simulation went quiescent (event queue drained) while the
    /// master still had open subproblems: a control message was lost and
    /// never recovered. A correct reliability layer makes this
    /// unreachable — it is a detector, not a legitimate end state.
    Wedged,
}

impl GridOutcome {
    pub fn table_cell(&self) -> String {
        match self {
            GridOutcome::Sat(_) => "SAT".into(),
            GridOutcome::Unsat => "UNSAT".into(),
            GridOutcome::TimeOut => "TIME_OUT".into(),
            GridOutcome::ClientLost => "CLIENT_LOST".into(),
            GridOutcome::Wedged => "WEDGED".into(),
        }
    }
}

/// Master-side counters for the experiment report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MasterStats {
    /// Peak number of simultaneously busy clients (the paper's
    /// "Max # of clients" column).
    pub max_active_clients: usize,
    /// Splits successfully brokered.
    pub splits: u64,
    /// Split requests that had to wait in the backlog.
    pub backlogged: u64,
    /// Migrations directed.
    pub migrations: u64,
    /// SAT reports whose verification failed (must stay 0).
    pub verification_failures: u64,
    /// Subproblem results received.
    pub results: u64,
    /// Recoveries from checkpoints (extension).
    pub recoveries: u64,
    /// Client leases expired by missed heartbeats (reliability
    /// extension).
    pub lease_expiries: u64,
    /// Subproblems taken back after an undeliverable assignment or
    /// transfer (reliability extension).
    pub requeues: u64,
    /// Delegated steal splits settled (hierarchy extension): a
    /// donor-to-thief transfer that completed without a master grant.
    pub steals_settled: u64,
    /// Delegated steal splits that failed and were rolled back.
    pub steals_aborted: u64,
    /// Split requests escalated to the root by a sub-master whose site
    /// had no idle client to steal from.
    pub escalations: u64,
}

impl MasterStats {
    /// Merge another master's counters (a promoted standby's into the
    /// run's report). Exhaustively destructured so a new field that
    /// isn't merged is a compile error, not a silently-lost count.
    pub fn absorb(&mut self, other: &MasterStats) {
        let MasterStats {
            max_active_clients,
            splits,
            backlogged,
            migrations,
            verification_failures,
            results,
            recoveries,
            lease_expiries,
            requeues,
            steals_settled,
            steals_aborted,
            escalations,
        } = *other;
        self.max_active_clients = self.max_active_clients.max(max_active_clients);
        self.splits += splits;
        self.backlogged += backlogged;
        self.migrations += migrations;
        self.verification_failures += verification_failures;
        self.results += results;
        self.recoveries += recoveries;
        self.lease_expiries += lease_expiries;
        self.requeues += requeues;
        self.steals_settled += steals_settled;
        self.steals_aborted += steals_aborted;
        self.escalations += escalations;
    }
}

/// Quantile summary of a latency histogram, in seconds — the
/// serializable face of [`Histogram`] for reports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    pub count: u64,
    pub p50_s: f64,
    pub p90_s: f64,
    pub p99_s: f64,
    pub mean_s: f64,
}

impl LatencySummary {
    pub fn from_histogram(h: &Histogram) -> LatencySummary {
        LatencySummary {
            count: h.count(),
            p50_s: h.p50(),
            p90_s: h.p90(),
            p99_s: h.p99(),
            mean_s: h.mean(),
        }
    }
}

/// Control-plane latency telemetry (observability extension): how loaded
/// the master's inbox is, and how long a split request waits before its
/// grant goes out.
#[derive(Clone, Debug)]
pub struct MasterTelemetry {
    /// Highest queue-depth proxy sampled on a handled message or tick:
    /// backlogged split requests plus recovered subproblems awaiting
    /// dispatch.
    pub queue_depth_max: u64,
    queue_depth_sum: u64,
    queue_samples: u64,
    /// Latency from a split request's arrival to its grant being sent.
    split_wait: Histogram,
}

impl Default for MasterTelemetry {
    fn default() -> MasterTelemetry {
        MasterTelemetry {
            queue_depth_max: 0,
            queue_depth_sum: 0,
            queue_samples: 0,
            split_wait: Histogram::latency_s(),
        }
    }
}

impl MasterTelemetry {
    fn sample_queue(&mut self, depth: u64) {
        self.queue_depth_max = self.queue_depth_max.max(depth);
        self.queue_depth_sum += depth;
        self.queue_samples += 1;
    }

    fn observe_split_wait(&mut self, seconds: f64) {
        self.split_wait.observe(seconds);
    }

    /// Mean sampled queue depth (0 when nothing was sampled).
    pub fn mean_queue_depth(&self) -> f64 {
        if self.queue_samples == 0 {
            0.0
        } else {
            self.queue_depth_sum as f64 / self.queue_samples as f64
        }
    }

    /// Number of queue-depth samples folded into the mean.
    pub fn queue_samples(&self) -> u64 {
        self.queue_samples
    }

    pub fn split_wait_summary(&self) -> LatencySummary {
        LatencySummary::from_histogram(&self.split_wait)
    }

    /// Fold another master's telemetry into this one (a promoted standby
    /// absorbing the dead master's history).
    pub fn absorb(&mut self, other: &MasterTelemetry) {
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.queue_depth_sum += other.queue_depth_sum;
        self.queue_samples += other.queue_samples;
        self.split_wait.merge(&other.split_wait);
    }
}

/// What an in-flight grant is for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GrantKind {
    Split,
    Migrate,
}

/// Replication link to the journal-tailing standby.
struct StandbyLink {
    node: NodeId,
    /// Next sequence number to ship (records below it are in flight or
    /// delivered).
    sent: u64,
    /// Standby's cumulative ack: it holds every record below this.
    acked: u64,
}

/// The master process. Lives on node 0 of the testbed (or on the
/// promoted standby's node after a takeover).
pub struct Master {
    formula: Formula,
    config: GridConfig,
    /// Static host information from the Grid information service
    /// (MDS-style): peak speed and site.
    host_info: Hosts,
    /// This master's own node id: 0 for the initial master, the
    /// standby's id after a promotion.
    me: NodeId,
    /// Journaled scheduling state: roster, grants, backlog, recovery
    /// queue. Mutated exclusively through [`Master::commit`] so the
    /// journal is always a faithful history.
    pub(crate) core: MasterCore,
    journal: MasterJournal,
    standby: Option<StandbyLink>,
    /// After a promotion, hold the all-idle UNSAT verdict until this
    /// instant: adoption claims from surviving clients may still be in
    /// flight, and the replayed journal suffix can be behind them.
    reconcile_until: f64,
    /// Set by the first `on_start`; a second call means the master node
    /// was restarted, which replays the journal and grants every client
    /// a fresh lease (their heartbeats could not have reached us while
    /// we were down).
    started: bool,
    /// Counter for subproblem ids minted by the master (dispatches).
    minted: u32,
    outcome: Option<GridOutcome>,
    finished_at: f64,
    last_migration: f64,
    pub stats: MasterStats,
    /// Control-plane latency telemetry (always on; cheap counters).
    pub telemetry: MasterTelemetry,
    /// Pending split requests: requester -> (arrival time of the first
    /// unanswered request, causal stamp of its delivery). Not journaled —
    /// it feeds telemetry and trace causality, never scheduling.
    pending_split_req: BTreeMap<NodeId, (f64, u64)>,
    /// Sub-masters whose site holds split offers no client of its own
    /// can take (hierarchy extension): each escalated an offer unasked,
    /// and stays here while it answers every pull in full. Soft state,
    /// like the sub-masters themselves.
    saturated: BTreeSet<NodeId>,
    /// Pulls in flight: how many offers each sub-master was asked for.
    pulls: BTreeMap<NodeId, u32>,
    /// Per-peer count of checksum-failing deliveries (integrity
    /// extension). Not journaled: strikes are evidence about the live
    /// network path, worthless to a replay.
    corrupt_strikes: BTreeMap<NodeId, u32>,
    /// Event-tracing handle (disabled by default).
    obs: Obs,
}

/// Cubes on their way back to the master: each frame with the cube it
/// re-covers.
type Frames = Vec<(SpecFrame, Option<ProblemId>)>;

/// The idle clients a grant may go to, ascending by node id: the walk
/// over the whole roster that the core's idle index replaced.
fn idle_clients(clients: &Roster, exclude: NodeId) -> impl Iterator<Item = (NodeId, &ClientInfo)> {
    clients
        .iter()
        .filter(move |(id, c)| *id != exclude && matches!(c.state(), ClientState::Idle))
}

/// What [`Master::pick_idle`] picks, found by walking the whole roster:
/// the reference model the idle index is checked against, called only by
/// that function's `debug_assert` and the tests.
fn pick_by_walk(
    clients: &Roster,
    host_info: &Hosts,
    exclude: NodeId,
    near: Option<Site>,
) -> Option<NodeId> {
    let score = |id: &NodeId, info: &ClientInfo| match (near, host_info.get(id)) {
        (Some(a), Some((_, b))) if a != *b => info.rank() * REMOTE_DISCOUNT,
        _ => info.rank(),
    };
    idle_clients(clients, exclude)
        .max_by(|(a, ia), (b, ib)| {
            // deterministic ties: lower id
            score(a, ia).total_cmp(&score(b, ib)).then(b.cmp(a))
        })
        .map(|(id, _)| id)
}

impl Master {
    /// `host_info` is the static per-host information (speed, site) the
    /// paper's master culls from the Grid information system.
    pub fn new(
        formula: Formula,
        config: GridConfig,
        host_info: BTreeMap<NodeId, (f64, Site)>,
    ) -> Master {
        Master::boot(formula, config, host_info, NodeId(0))
    }

    fn boot(
        formula: Formula,
        config: GridConfig,
        host_info: BTreeMap<NodeId, (f64, Site)>,
        me: NodeId,
    ) -> Master {
        let standby = (config.failover && me.0 != STANDBY_NODE).then_some(StandbyLink {
            node: NodeId(STANDBY_NODE),
            sent: 0,
            acked: 0,
        });
        let host_info = Arc::new(host_info);
        Master {
            formula,
            config,
            core: MasterCore::new(Arc::clone(&host_info)),
            host_info,
            me,
            journal: MasterJournal::new(),
            standby,
            reconcile_until: f64::NEG_INFINITY,
            started: false,
            minted: 0,
            outcome: None,
            finished_at: 0.0,
            last_migration: f64::NEG_INFINITY,
            stats: MasterStats::default(),
            telemetry: MasterTelemetry::default(),
            pending_split_req: BTreeMap::new(),
            saturated: BTreeSet::new(),
            pulls: BTreeMap::new(),
            corrupt_strikes: BTreeMap::new(),
            obs: Obs::default(),
        }
    }

    /// Take over as master on the standby's node (`ctx.me()`) from the
    /// journal it tailed. The scheduling state is the journal's fold. Every
    /// surviving client is resynced (`Master::resync`) with
    /// [`PROMOTE_GRACE_S`] to reconcile the journal suffix the standby
    /// never saw. This node's client retires: it leaves the roster, and
    /// `own`, the subproblem it was solving, is queued for re-dispatch,
    /// with anything else the ledger has it holding. Then whatever is
    /// queued goes out and the housekeeping clock starts.
    pub fn promoted(
        formula: Formula,
        config: GridConfig,
        host_info: BTreeMap<NodeId, (f64, Site)>,
        journal: MasterJournal,
        own: Option<(SpecFrame, ProblemId)>,
        obs: Obs,
        ctx: &mut Ctx<GridMsg>,
    ) -> Master {
        let (me, now) = (ctx.me(), ctx.now());
        let mut m = Master::boot(formula, config, host_info, me);
        m.obs = obs;
        m.started = true;
        // This node already minted problem ids while it was a client;
        // a high counter offset keeps the promoted master's mints from
        // colliding with them, and with an earlier master's on this node.
        m.replay(journal, now);
        m.minted = m.core.cubes.last_minted(me).max(1 << 31);
        let mut survivors: BTreeSet<NodeId> = m.core.clients.keys().collect();
        survivors.remove(&me);
        m.resync(survivors, PROMOTE_GRACE_S, ctx);
        let (mut held, _) = m.held_frames(me);
        held.retain(|(_, cube)| {
            own.as_ref()
                .is_none_or(|(_, source)| *cube != Some(*source))
        });
        if m.core.clients.contains_key(&me) {
            m.commit(now, JournalRecord::Deregister { client: me });
        }
        let own = own.map(|(frame, source)| (frame, Some(source)));
        m.take_back_all(own.into_iter().chain(held).collect(), ctx);
        let records = m.journal.len();
        m.obs.emit(now, me.0, || Event::StandbyPromote { records });
        m.dispatch_recoveries(None, ctx);
        m.drain_backlog(ctx);
        ctx.schedule_tick(m.config.master_period);
        m
    }

    /// Install `journal` as this master's history and its fold as the
    /// scheduling state. Every lease restarts at `now`: heartbeats could
    /// not reach a master that was down, or not yet one.
    fn replay(&mut self, journal: MasterJournal, now: f64) {
        self.core = self.fold(&journal);
        self.journal = journal;
        for info in self.core.clients.values_mut() {
            info.last_seen = now;
        }
        let records = self.journal.len();
        let node = self.me.0;
        self.obs
            .emit(now, node, || Event::JournalReplay { records });
    }

    /// Come back to a fleet the journal no longer fully describes: the one
    /// way back for a restart that lost committed records and for a
    /// promoted standby.
    ///
    /// Every open grant closes. The live run had moved past it, so its
    /// handshake cannot complete, and the Receiving peer it pins would
    /// block the all-idle UNSAT verdict forever. A transfer that died on
    /// the wire comes back as the requester's Requeue. `targets` are told
    /// to re-announce their in-progress work ([`GridMsg::Takeover`], answered
    /// by [`GridMsg::Adopt`]), so the roster reconverges on who actually
    /// holds what. The verdict is held for `grace` seconds while their
    /// claims land: right after the loss every client can look idle even
    /// though some are still mid-cube.
    fn resync(&mut self, targets: BTreeSet<NodeId>, grace: f64, ctx: &mut Ctx<GridMsg>) {
        let now = ctx.now();
        for requester in self.core.grants.keys().copied().collect::<Vec<_>>() {
            self.commit(now, JournalRecord::GrantClose { requester });
        }
        for id in targets {
            ctx.send(id, GridMsg::Takeover);
        }
        self.reconcile_until = self.reconcile_until.max(now + grace);
    }

    /// Install an event-tracing handle: the master emits its scheduling
    /// decisions (launch, assign, split, backlog, migrate, checkpoint,
    /// result, journal, outcome) into it.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Direct access to the write-ahead journal, for fault injection:
    /// chaos tests damage the simulated disk image
    /// ([`MasterJournal::tear_log`], [`MasterJournal::flip_log_bit`])
    /// while the master is "down", then let the restart recover it.
    pub fn journal_mut(&mut self) -> &mut MasterJournal {
        &mut self.journal
    }

    /// The run's outcome, once decided.
    pub fn outcome(&self) -> Option<&GridOutcome> {
        self.outcome.as_ref()
    }

    /// Simulated second at which the outcome was decided.
    pub fn finished_at(&self) -> f64 {
        self.finished_at
    }

    /// The master's inbox-pressure proxy: backlogged split requests plus
    /// recovered subproblems waiting for an idle client.
    fn queue_depth(&self) -> u64 {
        (self.core.backlog.len() + self.core.pending_recovery.len()) as u64
    }

    /// Append a record to the write-ahead journal, then apply it to the
    /// core. This is the *only* mutation path for scheduling state: the
    /// journal is always a complete history of the core. A record the
    /// cube ledger cannot take as a legal transition panics, naming the
    /// check, the record and the cube's path, in every build profile.
    fn commit(&mut self, now: f64, rec: JournalRecord) -> Option<RecoverySpec> {
        if let Some(violation) = self.core.violation(&rec) {
            let path = violation.rsplit("path ").next().unwrap_or_default().into();
            self.obs
                .emit(now, self.me.0, || Event::AuditViolation { path });
            panic!("{violation}");
        }
        let record = self.journal.append(&rec);
        let lag = self
            .standby
            .as_ref()
            .map_or(0, |s| self.journal.len().saturating_sub(s.acked));
        let node = self.me.0;
        self.obs
            .emit(now, node, || Event::JournalAppend { record, lag });
        self.core.apply(rec, &self.formula, &self.config)
    }

    /// The scheduling state `journal` folds to, its idle index rebuilt
    /// along the way.
    fn fold(&self, journal: &MasterJournal) -> MasterCore {
        let mut core = MasterCore::new(Arc::clone(&self.host_info));
        for rec in journal.records() {
            core.apply(rec, &self.formula, &self.config);
        }
        core
    }

    /// The one door back into the master for a cube: queue `frame` — a
    /// handed-back frame the caller verified, or one rebuilt here from a
    /// recovery image — as a re-dispatch of `source`'s cube, count it
    /// where `counter` says (a recovery or a requeue), and dispatch it to
    /// anyone but the client that `refused` it.
    fn take_back(
        &mut self,
        frame: SpecFrame,
        source: Option<ProblemId>,
        counter: fn(&mut MasterStats) -> &mut u64,
        refused: Option<NodeId>,
        ctx: &mut Ctx<GridMsg>,
    ) {
        let recovery = RecoverySpec { frame, source };
        self.commit(ctx.now(), JournalRecord::RecoveryQueued { recovery });
        *counter(&mut self.stats) += 1;
        self.dispatch_recoveries(refused, ctx);
    }

    /// The one way out for a cube: mint a problem id, commit `client`'s
    /// assignment — the whole formula for the first registrant (`whole`),
    /// else the head of the recovery queue, whose cube the new id twins —
    /// and send it as a [`GridMsg::Solve`].
    fn assign(&mut self, client: NodeId, whole: bool, ctx: &mut Ctx<GridMsg>) {
        self.minted += 1;
        let (problem, at) = (ProblemId::new(self.me, self.minted), ctx.now());
        let rec = if whole {
            JournalRecord::AssignWhole {
                client,
                problem,
                at,
            }
        } else {
            JournalRecord::AssignRecovery {
                client,
                problem,
                at,
            }
        };
        let RecoverySpec { frame, .. } = self
            .commit(at, rec)
            .expect("an assignment returns the cube it hands out");
        let spec = Box::new(frame);
        ctx.send(client, GridMsg::Solve { spec, problem });
        let node = self.me.0;
        self.obs
            .emit(at, node, || Event::Assign { client: client.0 });
    }

    /// Ship the unsent journal suffix to the standby. With `keepalive`
    /// an empty batch is sent even when nothing is new — the periodic
    /// feed is what lets the standby distinguish a dead master from a
    /// quiet one.
    fn ship_journal(&mut self, ctx: &mut Ctx<GridMsg>, keepalive: bool) {
        if self.outcome.is_some() {
            return;
        }
        let Some(link) = &self.standby else { return };
        let start = link.sent;
        let to = link.node;
        let records = self.journal.sealed_from(start);
        if records.is_empty() && !keepalive {
            return;
        }
        let len = self.journal.len();
        if let Some(link) = self.standby.as_mut() {
            link.sent = len;
        }
        ctx.send(to, GridMsg::JournalBatch { start, records });
    }

    fn site_of(&self, id: NodeId) -> Option<Site> {
        self.host_info.get(&id).map(|(_, site)| *site)
    }

    /// The best NWS-ranked idle client other than `exclude`, from the
    /// core's idle index. `near` biases the pick toward transfer
    /// locality: a client on another site scores its rank times
    /// [`REMOTE_DISCOUNT`].
    fn pick_idle(&self, exclude: NodeId, near: Option<Site>) -> Option<NodeId> {
        let pick = self.core.idle.pick(exclude, near);
        debug_assert_eq!(
            pick,
            pick_by_walk(&self.core.clients, &self.host_info, exclude, near),
            "the idle index disagrees with the roster walk"
        );
        pick
    }

    /// The longest-running client with a backlogged request ("the master
    /// splits clients which have been running the longest"); the earlier
    /// entry wins a tie. Every entry is a Busy row: the fold drops it as
    /// the row changes. One pass over the backlog, each entry's start read
    /// from its roster row by index.
    fn oldest_backlogged(&self) -> Option<NodeId> {
        let since = |id: &NodeId| self.core.clients[id].problem_since;
        (self.core.backlog.iter())
            .reduce(|best, id| if since(id) < since(best) { id } else { best })
            .copied()
    }

    /// A split request reached the root — directly from a client, or
    /// escalated by a sub-master whose site had no idle sibling.
    fn handle_split_request(&mut self, from: NodeId, problem: ProblemId, ctx: &mut Ctx<GridMsg>) {
        // grant only when the request names the subproblem we believe
        // the client is busy on: a retransmitted request can land long
        // after that subproblem was finished or moved, and taking its word
        // would regress our view. The client re-requests periodically, so
        // a skipped grant only delays the split.
        let state = self.core.clients.get(&from).map(ClientInfo::state);
        if matches!(state, Some(ClientState::Busy { cube, .. }) if *cube == problem) {
            // start the request->grant latency clock at the *first*
            // unanswered request; periodic re-requests must not reset it
            self.pending_split_req
                .entry(from)
                .or_insert((ctx.now(), self.obs.cause_of(self.me.0)));
            self.grant_split(from, ctx);
        }
    }

    /// A thief's report on a delegated (sub-master brokered) split. On
    /// success the steal settles: the thief is Busy on the minted
    /// subproblem and the donor's clock restarts — the exact effect of a
    /// grant-brokered split, folded through the journal so standby
    /// promotion and the ledger stay exact. On failure the steal aborts;
    /// the search space comes back via the thief's Requeue, and the
    /// ledger holds the cube in flight until it lands.
    fn handle_steal_done(
        &mut self,
        from: NodeId,
        donor: NodeId,
        ok: bool,
        problem: Option<ProblemId>,
        checkpoint: Option<Box<Checkpoint>>,
        ctx: &mut Ctx<GridMsg>,
    ) {
        let Some(problem) = problem else {
            debug_assert!(false, "stolen SplitDone always names the minted problem");
            return;
        };
        // the steal is open until its cube settles, comes back or lands:
        // anything else is a duplicate delivery of a closed one
        let state = self.core.cubes.state(problem);
        if !state.is_none_or(|s| matches!(s, CubeState::InFlight { steal: true, .. })) {
            return;
        }
        if ok {
            if self.core.clients.contains_key(&from) {
                let cp = checkpoint.filter(|_| self.config.reliability).map(|b| *b);
                self.commit(
                    ctx.now(),
                    JournalRecord::StealSettle {
                        donor,
                        thief: from,
                        problem,
                        checkpoint: cp,
                        at: ctx.now(),
                    },
                );
                self.stats.steals_settled += 1;
                let node = self.me.0;
                self.obs.emit(ctx.now(), node, || Event::Split {
                    requester: donor.0,
                    peer: from.0,
                });
                self.note_activity();
            } else {
                // its thief is gone from the roster
                self.stats.steals_aborted += 1;
                if !self.confirmed_untracked(Some(problem), checkpoint, ctx) {
                    return;
                }
            }
        } else {
            self.stats.steals_aborted += 1;
        }
        self.drain_backlog(ctx);
    }

    fn grant_split(&mut self, requester: NodeId, ctx: &mut Ctx<GridMsg>) -> bool {
        if self.core.grants.contains_key(&requester) {
            return false;
        }
        let Some(problem) = self.core.clients.get(&requester).and_then(|c| c.cube()) else {
            return false;
        };
        let near = self.site_of(requester);
        let Some(peer) = self.pick_idle(requester, near) else {
            if !self.core.backlog.contains(&requester) {
                self.commit(ctx.now(), JournalRecord::BacklogPush { client: requester });
                self.stats.backlogged += 1;
                let depth = self.core.backlog.len() as u64;
                let node = self.me.0;
                self.obs.emit(ctx.now(), node, || Event::BacklogEnqueue {
                    client: requester.0,
                    depth,
                });
            }
            return false;
        };
        self.commit(
            ctx.now(),
            JournalRecord::GrantOpen {
                requester,
                peer,
                kind: GrantKind::Split,
                problem,
            },
        );
        // close the request->grant latency window, and re-anchor the
        // grant's send on the request's delivery so a backlogged grant
        // traces back to the request that asked for it, not to whatever
        // message happened to unblock the backlog
        if let Some((asked_at, cause)) = self.pending_split_req.remove(&requester) {
            self.telemetry
                .observe_split_wait((ctx.now() - asked_at).max(0.0));
            if cause != 0 {
                self.obs.set_cause(self.me.0, cause);
            }
        }
        ctx.send(requester, GridMsg::SplitGrant { peer, problem });
        true
    }

    /// Serve backlog entries while idle clients remain, one scan for the
    /// oldest requester a grant. A grant takes its requester out of the
    /// backlog; with no idle client the drain writes nothing.
    fn drain_backlog(&mut self, ctx: &mut Ctx<GridMsg>) {
        while self.core.idle.len() > 0 {
            let Some(requester) = self.oldest_backlogged() else {
                break;
            };
            if !self.grant_split(requester, ctx) {
                break; // not reached: an entry is a Busy row with no grant
            }
            let depth = self.core.backlog.len() as u64;
            let node = self.me.0;
            self.obs.emit(ctx.now(), node, || Event::BacklogDequeue {
                client: requester.0,
                depth,
            });
        }
    }

    /// Once per master period, with idle clients and nothing backlogged:
    /// ask the saturated sites for as many offers as there are idle
    /// clients no pull in flight will cover, spread evenly over the sites
    /// with no pull of their own in flight (hierarchy extension; a no-op
    /// in flat mode, where no site ever reports saturation). Not at every
    /// change: a client that has just gone idle is usually matched by its
    /// own site's broker within a round trip, and a grant racing that
    /// steal comes back as a requeue. The clients still idle at the tick
    /// are the ones their sites could not place.
    fn pull_offers(&mut self, ctx: &mut Ctx<GridMsg>) {
        if self.saturated.is_empty() || self.outcome.is_some() || !self.core.backlog.is_empty() {
            return;
        }
        let covered: u32 = self.pulls.values().sum();
        let want = (self.core.idle.len() as u32).saturating_sub(covered);
        if want == 0 {
            return;
        }
        let sites: Vec<NodeId> = self
            .saturated
            .iter()
            .filter(|b| !self.pulls.contains_key(b))
            .copied()
            .collect();
        let n = sites.len() as u32;
        for (i, broker) in (0..).zip(sites) {
            let want = want / n + u32::from(i < want % n);
            if want > 0 {
                self.pulls.insert(broker, want);
                ctx.send(broker, GridMsg::OfferSolicit { want });
            }
        }
    }

    /// Migration policy: if a busy client sits on a much weaker host
    /// than the best idle one, move its problem (paper Section 3.4).
    fn maybe_migrate(&mut self, ctx: &mut Ctx<GridMsg>) {
        if !self.config.migration || !self.core.backlog.is_empty() {
            return;
        }
        // Migration is a coarse, rare event in the paper ("when the
        // cluster becomes free"): require a field of idle resources and
        // space out transfers, which are expensive.
        let cooldown = (2.0 * self.config.min_split_timeout).max(200.0);
        if ctx.now() - self.last_migration < cooldown {
            return;
        }
        // Only rescue stragglers during the drain phase: a migrated
        // subproblem restarts its search (keeping learned clauses), so
        // mid-run migration costs more than it saves.
        let busy = self.core.busy_count();
        if self.core.idle.len() < 3 || busy * 4 > self.core.clients.len() {
            return;
        }
        // weakest busy client, not already involved in a grant and old
        // enough on its subproblem that moving it is worth the transfer
        let min_age = (2.0 * self.config.min_split_timeout).max(200.0);
        let mut weakest: Option<(NodeId, f64)> = None;
        for (id, c) in self.core.clients.iter() {
            if !matches!(c.state(), ClientState::Busy { .. }) || self.core.grants.contains_key(&id)
            {
                continue;
            }
            if ctx.now() - c.problem_since < min_age {
                continue;
            }
            let r = c.rank();
            if weakest.map(|(_, wr)| r < wr).unwrap_or(true) {
                weakest = Some((id, r));
            }
        }
        let Some((weak_id, weak_rank)) = weakest else {
            return;
        };
        let near = self.site_of(weak_id);
        let Some(best_idle) = self.pick_idle(weak_id, near) else {
            return;
        };
        let idle_rank = self.core.clients[&best_idle].rank();
        let Some(problem) = self.core.clients.get(&weak_id).and_then(|c| c.cube()) else {
            return;
        };
        if idle_rank >= weak_rank * MIGRATION_FACTOR {
            self.commit(
                ctx.now(),
                JournalRecord::GrantOpen {
                    requester: weak_id,
                    peer: best_idle,
                    kind: GrantKind::Migrate,
                    problem,
                },
            );
            ctx.send(
                weak_id,
                GridMsg::Migrate {
                    peer: best_idle,
                    problem,
                },
            );
            self.last_migration = ctx.now();
            self.stats.migrations += 1;
            let node = self.me.0;
            self.obs.emit(ctx.now(), node, || Event::Migrate {
                from: weak_id.0,
                to: best_idle.0,
            });
        }
    }

    fn note_activity(&mut self) {
        self.stats.max_active_clients = self.stats.max_active_clients.max(self.core.busy_count());
    }

    fn finish(&mut self, outcome: GridOutcome, ctx: &mut Ctx<GridMsg>) {
        if self.outcome.is_some() {
            return;
        }
        self.finished_at = ctx.now();
        let cell = outcome.table_cell();
        let node = self.me.0;
        self.obs
            .emit(ctx.now(), node, || Event::Outcome { outcome: cell });
        self.outcome = Some(outcome);
        for id in self.core.clients.keys().collect::<Vec<_>>() {
            ctx.send(id, GridMsg::Terminate);
        }
        ctx.shutdown();
    }

    fn check_termination(&mut self, ctx: &mut Ctx<GridMsg>) {
        if self.outcome.is_some() {
            return;
        }
        if ctx.now() >= self.config.overall_timeout {
            self.finish(GridOutcome::TimeOut, ctx);
            return;
        }
        // "All the clients are idle" => unsatisfiable. Guard against
        // in-flight transfers via the Receiving state, open grants,
        // queued recoveries, and a just-promoted master's reconcile
        // window — and hold it while the ledger has a cube unsettled:
        // an uncovered cube cannot be declared refuted.
        let all_idle = self.core.first_problem_sent
            && self.core.busy_count() == 0
            && self.core.grants.is_empty()
            && self.core.pending_recovery.is_empty()
            && ctx.now() >= self.reconcile_until;
        if !all_idle {
            return;
        }
        if self.core.cubes.unsettled() == 0 {
            self.finish(GridOutcome::Unsat, ctx);
            return;
        }
        // all idle, yet cubes unsettled: finished under a master whose
        // journal suffix died, or lost. Rebuild what has a path
        let cubes = &self.core.cubes;
        let lost: Vec<_> = (cubes.held())
            .filter_map(|(cube, _)| Some((self.path_frame(cubes.path(cube)?), Some(cube))))
            .collect();
        self.take_back_all(lost, ctx);
    }

    /// Tell the clients whose clause-sharing links a membership change
    /// moved what their links are now: the clients at `changed` slots of
    /// the share tree, each its parent and its children. Under the paper's
    /// protocol (no sharing rounds) there is no tree — every client floods
    /// every other — and every change tells everybody the whole list.
    fn relink(&mut self, changed: &[usize], ctx: &mut Ctx<GridMsg>) {
        let nodes = if self.config.share_round_s.is_none() {
            // built once, ascending by node id (roster order); the messages
            // share it by refcount
            let down: Arc<[NodeId]> = self.core.clients.keys().collect();
            for &id in down.iter() {
                let down = Arc::clone(&down);
                ctx.send(id, GridMsg::Peers { up: None, down });
            }
            down.len()
        } else {
            let mut slots: Vec<usize> = changed
                .iter()
                .copied()
                .filter(|&slot| slot < self.core.slots.len())
                .collect();
            slots.sort_unstable();
            slots.dedup();
            for &slot in &slots {
                let (up, down) = self.core.tree_links(slot);
                ctx.send(self.core.slots[slot], GridMsg::Peers { up, down });
            }
            slots.len()
        };
        self.obs.emit(ctx.now(), ctx.me().0, || Event::Relink {
            nodes: nodes as u64,
        });
    }

    /// `client` joined the share tree (or, re-registering, kept its slot):
    /// it and the node above it learn their links.
    fn link_in(&mut self, client: NodeId, ctx: &mut Ctx<GridMsg>) {
        let slot = self.core.slot_of(client).expect("just registered");
        let mut changed = vec![slot];
        changed.extend(tree_parent(slot));
        self.relink(&changed, ctx);
    }

    /// `client` is gone: take it off the roster and out of the share
    /// tree, where the last client moves into its slot — the nodes above
    /// and below that slot and the node that was above the mover (at most
    /// [`SHARE_TREE_FANOUT`](crate::config::SHARE_TREE_FANOUT) + 3 in all)
    /// learn their new links.
    fn deregister(&mut self, client: NodeId, ctx: &mut Ctx<GridMsg>) {
        let slot = self.core.slot_of(client);
        self.commit(ctx.now(), JournalRecord::Deregister { client });
        let Some(slot) = slot else { return };
        let mut changed = vec![slot];
        changed.extend(tree_parent(slot));
        changed.extend(tree_parent(self.core.slots.len()));
        changed.extend(tree_children(slot));
        self.relink(&changed, ctx);
    }

    /// The frames that take back what `node` holds: its recovery image's
    /// cube, and every other cube the ledger has it holding, rebuilt from
    /// base and path; `false` if some cube has neither.
    fn held_frames(&self, node: NodeId) -> (Frames, bool) {
        let mut frames = Vec::new();
        let info = self.core.clients.get(&node);
        let imaged = info.and_then(|i| Some((i.cube(), i.state().image()?)));
        if let Some((problem, image)) = imaged {
            if !problem.is_some_and(|p| self.core.cubes.settled(p)) {
                frames.push((image.frame(&self.formula), problem));
            }
        }
        let mut whole = true;
        for cube in self.core.cubes.held_by(node) {
            if imaged.is_some_and(|(p, _)| p == Some(cube)) {
                continue;
            }
            match self.core.cubes.path(cube) {
                Some(path) => frames.push((self.path_frame(path), Some(cube))),
                None => whole = false,
            }
        }
        (frames, whole)
    }

    /// The cube `path` cuts out of the base formula, as the frame that
    /// dispatches it.
    fn path_frame(&self, path: Vec<Lit>) -> SpecFrame {
        let level0 = path.into_iter().map(|l| (l, false)).collect();
        Checkpoint { level0 }.frame(&self.formula)
    }

    /// Queue `frames`, the cubes a lost holder had, for re-dispatch.
    fn take_back_all(&mut self, frames: Frames, ctx: &mut Ctx<GridMsg>) {
        for (frame, source) in frames {
            self.take_back(frame, source, |s| &mut s.recoveries, None, ctx);
        }
    }

    /// A receiver confirmed a transfer — Figure 3 message (4), or a
    /// thief's report on a steal — while off the roster: its lease
    /// expired mid-transfer and it was deregistered, yet the transfer
    /// landed and it is solving `source`'s cube untracked. Re-dispatch the
    /// cube from the bundled image: duplicated work, but UNSAT must never
    /// close over a search space the master has lost sight of. With no
    /// image (checkpointing off) the run is lost, and `false` says so.
    fn confirmed_untracked(
        &mut self,
        source: Option<ProblemId>,
        checkpoint: Option<Box<Checkpoint>>,
        ctx: &mut Ctx<GridMsg>,
    ) -> bool {
        let Some(cp) = checkpoint else {
            self.finish(GridOutcome::ClientLost, ctx);
            return false;
        };
        let frame = cp.frame(&self.formula);
        self.take_back(frame, source, |s| &mut s.recoveries, None, ctx);
        true
    }

    /// A client is gone (node down or lease expired): free its resources
    /// and take back what it held if possible.
    fn handle_client_loss(&mut self, node: NodeId, ctx: &mut Ctx<GridMsg>) {
        // a dead requester's split request will never be granted; drop
        // it from the latency window so it cannot close much later
        // against an unrelated requester incarnation
        self.pending_split_req.remove(&node);
        let Some(info) = self.core.clients.get(&node) else {
            return;
        };
        let idle = matches!(info.state(), ClientState::Idle);
        let receiving = matches!(info.state(), ClientState::Receiving(_));
        let (held, whole) = self.held_frames(node);
        // "When an idle client is killed ... the master becomes aware
        // of it and marks the resource as free."
        //
        // An idle client can still be the requester of an open grant:
        // it went idle after asking to split (its result beat the
        // grant), and the SplitDone that would have closed the
        // handshake died with it. The grant — and the Receiving
        // reservation it pinned on the peer — must not outlive the
        // client, or the all-idle UNSAT condition is blocked forever.
        //
        // A Receiving peer's transfer, if it never landed, comes back as
        // the requester's Requeue; a half message (5) named is rebuilt.
        // A busy client's cubes come back by checkpoint recovery; without
        // it, the paper's current implementation "will not tolerate a
        // machine crash". The client leaves the roster first: a take-back
        // releases the row naming the cube, and a released client still
        // on the roster would be handed its own cube back.
        if idle || (self.config.reliability && (receiving || whole)) {
            self.deregister(node, ctx);
            self.take_back_all(held, ctx);
            self.dispatch_recoveries(None, ctx);
            self.drain_backlog(ctx);
        } else {
            self.finish(GridOutcome::ClientLost, ctx);
        }
    }

    /// Expire clients whose lease (heartbeat_period x lease_misses) ran
    /// out: a partitioned or silently-dead client is treated exactly like
    /// a crashed one (reliability extension).
    fn expire_leases(&mut self, ctx: &mut Ctx<GridMsg>) {
        if !self.config.reliability {
            return;
        }
        let lease = HEARTBEAT_PERIOD_S * f64::from(LEASE_MISSES);
        let now = ctx.now();
        let expired: Vec<NodeId> = self
            .core
            .clients
            .iter()
            .filter(|(_, c)| now - c.last_seen > lease)
            .map(|(id, _)| id)
            .collect();
        for id in expired {
            self.stats.lease_expiries += 1;
            let node = self.me.0;
            self.obs
                .emit(now, node, || Event::LeaseExpire { client: id.0 });
            self.handle_client_loss(id, ctx);
            if self.outcome.is_some() {
                return;
            }
        }
    }

    /// A control message toward `to` exhausted its retry budget or its
    /// destination went down with the message unacked (reliability
    /// extension). Undo whatever the send was supposed to accomplish.
    pub fn on_undeliverable(&mut self, to: NodeId, msg: GridMsg, ctx: &mut Ctx<GridMsg>) {
        if self.outcome.is_some() {
            return;
        }
        match msg {
            GridMsg::Solve { spec, problem } => {
                // the assignment never arrived: take the subproblem back
                // and hand it to someone else. The returned frame is our
                // own stored clean copy, so it always verifies; a frame
                // that somehow does not carries no search space to recover.
                if spec.verify().is_err() {
                    return;
                }
                // taking it back releases the row that names it
                self.take_back(*spec, Some(problem), |s| &mut s.requeues, None, ctx);
            }
            GridMsg::SplitGrant { .. } | GridMsg::Migrate { .. } => {
                // the grant never reached the requester: forget it and
                // free the reserved peer
                if self.core.grants.contains_key(&to) {
                    self.commit(ctx.now(), JournalRecord::GrantClose { requester: to });
                }
                self.drain_backlog(ctx);
            }
            GridMsg::OfferSolicit { .. } => {
                // the sub-master is gone: so are its offers
                self.saturated.remove(&to);
                self.pulls.remove(&to);
            }
            GridMsg::JournalBatch { start, .. } => {
                // the standby missed a batch: rewind the ship cursor so
                // the next ship re-sends from the gap
                if let Some(link) = self.standby.as_mut() {
                    if link.node == to {
                        link.sent = link.sent.min(start);
                    }
                }
            }
            // a terminate to a dead client changes nothing
            _ => {}
        }
        self.ship_journal(ctx, false);
    }

    /// A delivery from `from` failed its payload checksum (integrity
    /// extension). Delivery recovery is the reliable layer's business;
    /// here we track the per-peer strike count and quarantine a peer
    /// whose path mangles so much traffic that it cannot be trusted:
    /// deregister it exactly like an expired lease, recovering its
    /// subproblem from the last checkpoint.
    pub fn on_corrupt(&mut self, from: NodeId, ctx: &mut Ctx<GridMsg>) {
        if self.outcome.is_some() {
            return;
        }
        let strikes = self.corrupt_strikes.entry(from).or_insert(0);
        *strikes += 1;
        let strikes = u64::from(*strikes);
        let quarantine = self.config.reliability && strikes >= u64::from(QUARANTINE_STRIKES);
        if !quarantine || !self.core.clients.contains_key(&from) {
            return;
        }
        self.corrupt_strikes.remove(&from);
        let now = ctx.now();
        let node = self.me.0;
        self.obs.emit(now, node, || Event::PeerQuarantine {
            client: from.0,
            strikes,
        });
        // same exit as a lease expiry: the client's work is recovered or
        // requeued
        self.handle_client_loss(from, ctx);
        self.ship_journal(ctx, false);
    }

    /// Hand queued recovered subproblems to idle clients, `exclude` aside.
    fn dispatch_recoveries(&mut self, exclude: Option<NodeId>, ctx: &mut Ctx<GridMsg>) {
        while !self.core.pending_recovery.is_empty() {
            let Some(target) = self.pick_idle(exclude.unwrap_or(NodeId(u32::MAX)), None) else {
                return;
            };
            self.assign(target, false, ctx);
        }
    }
}

impl Process for Master {
    type Msg = GridMsg;

    fn on_start(&mut self, ctx: &mut Ctx<GridMsg>) {
        if self.started {
            // restart: all that survived the crash is the on-disk journal
            // image. Recover it (truncating any torn or bit-rotted tail
            // at the first record that fails its checksum or sequence
            // stamp) and rebuild the scheduling state as the fold of the
            // verified prefix.
            let now = ctx.now();
            let (recovered, report) = MasterJournal::recover(self.journal.log_bytes());
            // a tear at an exact record boundary parses clean and leaves
            // no byte residue — only the pre-crash in-memory length
            // (which the simulation retains) tells it apart from "those
            // records were never written", so `dropped_bytes` is 0 there
            let damaged = !report.is_clean() || recovered.len() < self.journal.len();
            if damaged {
                let kept = recovered.len();
                let dropped_bytes = report.truncated_bytes as u64;
                let node = self.me.0;
                self.obs.emit(now, node, || Event::JournalTruncate {
                    kept,
                    dropped_bytes,
                });
            }
            let live = std::mem::take(&mut self.core);
            self.replay(recovered, now);
            // the brokers' soft state went with ours: pulls in flight are
            // lost, and a saturated site says so again on its own clock
            self.saturated.clear();
            self.pulls.clear();
            if !damaged {
                // with an undamaged log the fold must reproduce the
                // pre-crash live state exactly
                debug_assert_eq!(
                    self.core, live,
                    "journal replay must reproduce the live scheduling state"
                );
            }
            // anything shipped but unacked may have died with us — and a
            // truncated journal may now be shorter than what was acked
            let records = self.journal.len();
            if let Some(link) = self.standby.as_mut() {
                link.sent = link.acked.min(records);
                link.acked = link.acked.min(records);
            }
            if damaged {
                // the fold lost committed state: assignments, idles, or
                // whole registrations may be gone, and nobody will
                // resend them unprompted. Resync with every host, as a
                // promoted standby does, so the roster reconverges on
                // reality instead of wedging on a client the master no
                // longer remembers (or remembers wrong).
                let mut hosts: BTreeSet<NodeId> = self.host_info.keys().copied().collect();
                hosts.remove(&self.me);
                let grace = if self.config.failover {
                    PROMOTE_GRACE_S
                } else {
                    2.0
                };
                self.resync(hosts, grace, ctx);
            }
        }
        self.started = true;
        ctx.schedule_tick(self.config.master_period);
    }

    fn on_message(&mut self, from: NodeId, msg: GridMsg, ctx: &mut Ctx<GridMsg>) {
        if self.outcome.is_some() {
            return;
        }
        // control-plane telemetry: inbox pressure on every handled message
        self.telemetry.sample_queue(self.queue_depth());
        // any traffic renews the sender's lease, not just heartbeats
        if let Some(info) = self.core.clients.get_mut(&from) {
            info.last_seen = ctx.now();
        }
        match msg {
            GridMsg::Register {
                memory,
                availability,
            } => {
                let speed = self.host_info.get(&from).map(|(s, _)| *s).unwrap_or(1.0);
                // a client registering again has restarted: whatever the
                // ledger has it holding is lost
                let (held, _) = self.held_frames(from);
                self.commit(
                    ctx.now(),
                    JournalRecord::Launch {
                        client: from,
                        memory,
                        speed,
                        availability,
                        at: ctx.now(),
                    },
                );
                self.link_in(from, ctx);
                let node = self.me.0;
                self.obs
                    .emit(ctx.now(), node, || Event::ClientLaunch { client: from.0 });
                self.take_back_all(held, ctx);
                if !self.core.first_problem_sent {
                    // "The first client to register with the master is
                    // sent the entire problem to solve."
                    self.assign(from, true, ctx);
                } else {
                    // a fresh resource may unblock the backlog
                    self.drain_backlog(ctx);
                }
                self.note_activity();
            }
            GridMsg::SplitRequest { problem } => {
                self.handle_split_request(from, problem, ctx);
            }
            GridMsg::SplitEscalate { offers } => {
                // a sub-master hands up split offers its site cannot take:
                // unasked, the first one of a site that just saturated, or
                // the answer to a pull. A site stays saturated while it
                // answers in full. Each offer is brokered globally, exactly
                // as if its requester had asked the root directly
                let asked = self.pulls.remove(&from).unwrap_or(0);
                if offers.len() as u32 >= asked.max(1) {
                    self.saturated.insert(from);
                } else {
                    self.saturated.remove(&from);
                }
                self.stats.escalations += offers.len() as u64;
                for (requester, problem) in offers {
                    self.handle_split_request(requester, problem, ctx);
                }
            }
            GridMsg::StealNotice {
                parent,
                problem,
                pivot,
            } => {
                // a donor delegated a split inside its site; open the
                // steal in the ledger so all-idle termination waits for
                // the thief's report and standby promotion sees the cube.
                // A notice redelivered, or overtaken by the steal's end,
                // places the cube in the split tree and moves nothing
                if let (false, Some(pivot)) = (self.core.cubes.placed(problem), pivot) {
                    self.commit(
                        ctx.now(),
                        JournalRecord::StealOpen {
                            donor: from,
                            parent,
                            problem,
                            pivot,
                        },
                    );
                }
            }
            GridMsg::SplitDone {
                requester,
                peer,
                ok,
                problem,
                pivot,
                checkpoint,
                stolen,
            } => {
                if stolen {
                    self.handle_steal_done(from, requester, ok, problem, checkpoint, ctx);
                    return;
                }
                let grant = self.core.grants.get(&requester).copied();
                if from == requester {
                    // Figure 3 message (5): the requester's report
                    match (ok, grant) {
                        (false, Some((granted_peer, ..))) if granted_peer == peer => {
                            // transfer never happened; free the peer. A
                            // late report about an earlier grant's peer
                            // leaves the current grant alone
                            self.commit(ctx.now(), JournalRecord::GrantClose { requester });
                        }
                        (true, Some((_, GrantKind::Migrate, _))) => {
                            self.commit(ctx.now(), JournalRecord::MigrateSent { requester });
                        }
                        (true, grant) => {
                            // the requester keeps its half and names the
                            // one it handed away (the peer's confirmation
                            // may have closed the grant already)
                            if let (Some(child), Some(pivot)) = (problem, pivot) {
                                let at = ctx.now();
                                let rec = JournalRecord::SplitKept {
                                    requester,
                                    peer,
                                    child,
                                    pivot,
                                    at,
                                };
                                self.commit(at, rec);
                            }
                            if grant.is_some() {
                                self.stats.splits += 1;
                                let node = self.me.0;
                                self.obs.emit(ctx.now(), node, || Event::Split {
                                    requester: requester.0,
                                    peer: peer.0,
                                });
                            }
                            // the peer died before this report landed: the
                            // half went with it
                            if !self.core.clients.contains_key(&peer) {
                                let (held, _) = self.held_frames(peer);
                                self.take_back_all(held, ctx);
                            }
                        }
                        (false, _) => {}
                    }
                } else if from == peer {
                    // Figure 3 message (4): the receiving peer's report.
                    // If the peer's result overtook this confirmation the
                    // cube is settled already; marking the peer Busy now
                    // would wedge the run waiting for a result that was
                    // consumed long ago.
                    let already_done = problem.is_some_and(|p| self.core.cubes.refuted(p));
                    // only the grant that reserved this peer closes: a late
                    // confirmation from an earlier grant's peer leaves the
                    // requester's current grant and its Receiving peer alone
                    let grant_open = grant.is_some_and(|(p, ..)| p == from);
                    // the ledger sending the cube here: a source lost after
                    // its report (5) dropped the grant, and freed this peer
                    let sent = CubeState::InFlight {
                        to: from,
                        steal: false,
                    };
                    let sent_here = problem.is_some_and(|p| self.core.cubes.state(p) == Some(sent));
                    if ok && !already_done {
                        if self.core.clients.contains_key(&from) {
                            // a confirmation from a tracked peer that neither
                            // a grant nor the ledger expects is a replay of
                            // one we already processed (our dedup window
                            // died with a restart); the subproblem it
                            // confirms has long been handled
                            if let (true, Some(problem)) = (grant_open || sent_here, problem) {
                                // the confirmation bundles the peer's
                                // initial recovery image, so a client is
                                // never Busy without one — a crash at any
                                // point after this stays recoverable
                                let cp = checkpoint.filter(|_| self.config.reliability).map(|b| *b);
                                let saved = cp.is_some();
                                self.commit(
                                    ctx.now(),
                                    JournalRecord::TransferIn {
                                        peer: from,
                                        problem,
                                        checkpoint: cp,
                                        at: ctx.now(),
                                    },
                                );
                                if saved {
                                    let node = self.me.0;
                                    self.obs.emit(ctx.now(), node, || Event::CheckpointSaved {
                                        client: from.0,
                                    });
                                }
                            }
                        } else if !self.confirmed_untracked(problem, checkpoint, ctx) {
                            return;
                        }
                    }
                    // a peer the confirmation did not make Busy (a refused
                    // transfer, a cube settled already) goes back to Idle
                    if grant_open {
                        self.commit(ctx.now(), JournalRecord::GrantClose { requester });
                    }
                    if already_done {
                        // closing the grant may have been the last thing
                        // holding off an all-idle termination
                        self.check_termination(ctx);
                    }
                }
                self.note_activity();
                self.drain_backlog(ctx);
            }
            GridMsg::Result { result, problem } => {
                self.stats.results += 1;
                let sat = matches!(result, SubResult::Sat(_));
                let node = self.me.0;
                self.obs.emit(ctx.now(), node, || Event::ResultReport {
                    client: from.0,
                    sat,
                });
                // a duplicate of an old result (client-side delivery
                // retries) must not idle a client that has since been
                // handed different work; `Refuted` reads the same off
                // the core
                let idle = (self.core.clients.get(&from))
                    .is_some_and(|i| i.cube().is_none_or(|c| c == problem));
                // a result that overtook its steal's confirmation settles
                // the steal
                let stolen = self.core.cubes.state(problem);
                let stolen = matches!(stolen, Some(CubeState::InFlight { steal: true, .. }));
                self.stats.steals_settled += u64::from(stolen);
                if matches!(result, SubResult::Unsat) {
                    // a late confirmation, claim or notice finds it settled
                    let rec = JournalRecord::Refuted {
                        client: from,
                        problem,
                    };
                    self.commit(ctx.now(), rec);
                } else if idle {
                    self.commit(ctx.now(), JournalRecord::ClientIdle { client: from });
                }
                if idle {
                    // its subproblem is gone; an unanswered split request
                    // for it can never be granted
                    self.pending_split_req.remove(&from);
                }
                match result {
                    SubResult::Sat(lits) => {
                        // the paper's master verifies the assignment stack
                        let mut a = self.formula.empty_assignment();
                        for l in lits {
                            a.assign_lit(l);
                        }
                        // variables eliminated by clause reduction may be
                        // unassigned; any value satisfies (they occur only
                        // in already-satisfied clauses)
                        for v in 0..self.formula.num_vars() {
                            let var = gridsat_cnf::Var(v as u32);
                            if a.value(var) == gridsat_cnf::Value::Unassigned {
                                a.set(var, gridsat_cnf::Value::False);
                            }
                        }
                        if self.formula.is_satisfied_by(&a) {
                            self.finish(GridOutcome::Sat(a), ctx);
                        } else {
                            self.stats.verification_failures += 1;
                        }
                    }
                    SubResult::Unsat => {
                        self.dispatch_recoveries(None, ctx);
                        self.drain_backlog(ctx);
                        self.maybe_migrate(ctx);
                        self.check_termination(ctx);
                    }
                }
            }
            GridMsg::LoadReport { availability } => {
                self.core.report_load(from, availability);
            }
            // lease renewal; the blanket last_seen refresh above did the work
            GridMsg::Heartbeat => {}
            GridMsg::Requeue { spec, problem } => {
                // a client could not deliver a subproblem transfer; take
                // the search space back so it is not lost. The reliable
                // layer already discarded checksum-failing frames, so a
                // frame that does not verify here is a decoder-level
                // defect in the sender — strike it and wait for its retry.
                if spec.verify().is_err() {
                    self.on_corrupt(from, ctx);
                    return;
                }
                if self.core.grants.contains_key(&from) {
                    self.commit(ctx.now(), JournalRecord::GrantClose { requester: from });
                }
                // the donor handing back a stolen transfer closes that
                // steal; the thief's own hand-back follows its
                // SplitDone{ok:false}, which counted the abort already
                if let Some(CubeState::InFlight { to, steal: true }) =
                    problem.and_then(|p| self.core.cubes.state(p))
                {
                    self.stats.steals_aborted += u64::from(to == from);
                }
                // the sender may be handing back the very assignment we
                // gave it — a Solve that raced with an intra-site steal
                // making the client busy first. Taking the cube back
                // releases the roster entry, or all-idle termination would
                // wait forever on a cube the client is not working; and
                // the cube goes to someone else, or the busy sender would
                // only refuse it again
                self.take_back(*spec, problem, |s| &mut s.requeues, Some(from), ctx);
                self.drain_backlog(ctx);
            }
            GridMsg::CheckpointMsg {
                problem,
                checkpoint,
            } => {
                if self.config.reliability {
                    if let Some(info) = self.core.clients.get(&from) {
                        // Reordering guard: only keep a checkpoint for
                        // the subproblem the client is known to hold. A
                        // Receiving peer's adopt-time checkpoint usually
                        // beats the transfer confirmation here, so it
                        // also teaches us the subproblem id early.
                        let receiving = matches!(info.state(), ClientState::Receiving(_));
                        if info.cube() == Some(problem) || receiving {
                            self.commit(
                                ctx.now(),
                                JournalRecord::CheckpointAccept {
                                    client: from,
                                    problem,
                                    checkpoint: *checkpoint,
                                },
                            );
                            let node = self.me.0;
                            self.obs.emit(ctx.now(), node, || Event::CheckpointSaved {
                                client: from.0,
                            });
                        }
                    }
                }
            }
            GridMsg::JournalAck { next } => {
                if let Some(link) = self.standby.as_mut() {
                    if link.node == from {
                        if next > link.acked {
                            link.acked = next;
                        } else if next == link.acked && next < link.sent {
                            // duplicate ack with records outstanding: the
                            // standby rejected something past `next` (a
                            // corrupt record, or a gap) and is asking for
                            // the suffix again — rewind the ship cursor
                            link.sent = next;
                        }
                    }
                }
            }
            // a Takeover or JournalBatch reaching an alive master is the
            // split-brain race (the standby promoted while we were merely
            // slow); clients follow whoever spoke last, so staying silent
            // and continuing to ship our own journal is the safe move
            GridMsg::Takeover | GridMsg::JournalBatch { .. } => {}
            GridMsg::Adopt {
                memory,
                availability,
                problem,
                checkpoint,
            } => {
                // re-registration with in-progress state after a takeover
                let speed = self.host_info.get(&from).map(|(s, _)| *s).unwrap_or(1.0);
                // a claim overtaken by the result of the cube it names:
                // the client has been idle since
                let (problem, checkpoint) = match problem {
                    Some(p) if self.core.cubes.refuted(p) => (None, None),
                    _ => (problem, checkpoint.map(|b| *b)),
                };
                self.commit(
                    ctx.now(),
                    JournalRecord::AdoptClaim {
                        client: from,
                        memory,
                        speed,
                        availability,
                        problem,
                        checkpoint,
                        at: ctx.now(),
                    },
                );
                self.link_in(from, ctx);
                let node = self.me.0;
                self.obs
                    .emit(ctx.now(), node, || Event::ClientLaunch { client: from.0 });
                self.dispatch_recoveries(None, ctx);
                self.drain_backlog(ctx);
                self.note_activity();
            }
            // a subproblem transfer addressed to this node's retired
            // client role can still land after a promotion (the dead
            // master brokered the split): recover the cube instead of
            // dropping it
            GridMsg::Subproblem { spec, problem, .. } => {
                if spec.verify().is_err() {
                    self.on_corrupt(from, ctx);
                    return;
                }
                self.take_back(*spec, Some(problem), |s| &mut s.recoveries, None, ctx);
            }
            // clause-share gossip addressed to this host's retired client
            // can still be in flight when a standby promotes; sharing is
            // lossy best-effort traffic, so it is dropped, not an error
            GridMsg::Share { .. } => {}
            // client- or sub-master-bound messages
            GridMsg::Solve { .. }
            | GridMsg::SplitGrant { .. }
            | GridMsg::Migrate { .. }
            | GridMsg::Peers { .. }
            | GridMsg::StealRequest
            | GridMsg::StealTicket { .. }
            | GridMsg::Steal { .. }
            | GridMsg::StealRefused
            | GridMsg::OfferSolicit { .. }
            | GridMsg::Terminate => {
                debug_assert!(false, "master got client message from {from}");
            }
        }
        self.ship_journal(ctx, false);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<GridMsg>) {
        if self.outcome.is_some() {
            ctx.idle();
            return;
        }
        self.telemetry.sample_queue(self.queue_depth());
        self.expire_leases(ctx);
        if self.outcome.is_some() {
            return;
        }
        self.dispatch_recoveries(None, ctx);
        self.drain_backlog(ctx);
        self.pull_offers(ctx);
        self.maybe_migrate(ctx);
        self.check_termination(ctx);
        self.note_activity();
        // keepalive: an empty batch tells the standby we are alive even
        // when nothing was decided this period
        self.ship_journal(ctx, true);
        if self.outcome.is_none() {
            ctx.schedule_tick(self.config.master_period);
        }
    }

    fn on_node_down(&mut self, node: NodeId, ctx: &mut Ctx<GridMsg>) {
        if self.outcome.is_some() {
            return;
        }
        // a dead sub-master holds no offers and answers no pull
        self.saturated.remove(&node);
        self.pulls.remove(&node);
        self.handle_client_loss(node, ctx);
        self.ship_journal(ctx, false);
    }
}

#[cfg(test)]
mod tests; // see master/tests.rs

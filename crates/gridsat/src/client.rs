//! The GridSAT client: solves subproblems, monitors its own resources,
//! requests splits, shares clauses, and hands halves of its search space
//! to peers (paper Sections 3.1-3.3).

use crate::config::{
    GridConfig, ASSUMED_BW_BYTES_PER_S, CHECKPOINT_PERIOD_S, HEARTBEAT_PERIOD_S, MEM_FRACTION,
    MIN_MEMORY,
};
use crate::msg::{Checkpoint, GridMsg, ProblemId, SubResult};
use crate::wire::{EncodedBatch, SpecFrame};
use gridsat_cnf::Clause;
use gridsat_grid::{Ctx, NodeId, Process};
use gridsat_obs::{Event, Obs};
use gridsat_solver::{FpIds, FpWindow, Solver, SolverConfig, Step};
use std::sync::{Arc, Mutex};

/// Capacity of the per-client fingerprint window that deduplicates
/// share traffic in both directions (HordeSat-style recently-sent /
/// recently-received filter).
const SHARE_FP_WINDOW: usize = 1 << 16;

/// Literals one sharing round's batch may carry; what a client learned
/// beyond that since its last batch is dropped at the source, longest
/// clauses first. HordeSat's export buffer: 1,500 literals per round.
pub const SHARE_ROUND_LITS: usize = 1500;

/// Capacity of a solver's foreign-clause inbox under sharing in rounds,
/// in literals, not bytes ([`SolverConfig::inbox_lits`]; the inbox holds
/// a literal in a byte or a few). A few slices' worth: whatever is queued
/// beyond what the next visits to level 0 will merge is older than the
/// clauses still arriving, and the inbox evicts oldest first.
pub const INBOX_LITS: usize = 1024;

/// Client-side counters, aggregated into the experiment report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Subproblems this client received (initial problem counts too).
    pub subproblems: u64,
    /// Splits this client performed (as the requester).
    pub splits: u64,
    /// Split requests sent to the master.
    pub split_requests: u64,
    /// Clause batches this node put together and sent: one per sharing
    /// round with something to say, to its parent (from the root: down).
    pub share_batches_sent: u64,
    /// Clauses received from peers.
    pub clauses_received: u64,
    /// Received shared clauses dropped by the fingerprint window before
    /// any merge work was spent on them.
    pub dup_share_drops: u64,
    /// Messages that passed a batch from this node's parent on to its
    /// children in the share tree (down-forwards only: what a node sends
    /// up is a batch of its own, [`ClientStats::share_batches_sent`]).
    /// None under the paper's flood, which is one hop.
    pub shares_forwarded: u64,
    /// Sharing rounds closed: flushes of a non-empty export buffer under
    /// [`GridConfig::share_round_s`] (none under the paper presets).
    pub share_rounds: u64,
    /// Clauses a round's batch had no room for, dropped where the batch
    /// was put together ([`SHARE_ROUND_LITS`]). A real filter since a
    /// round carries the node's whole subtree (534 clauses at n = 100,
    /// 5,021 at n = 1000 in `BENCH_scale.json`); a client's own clauses
    /// alone never filled it.
    pub share_export_dropped: u64,
    /// Solver work executed.
    pub work: u64,
    /// Results reported (SAT or UNSAT subproblems).
    pub results: u64,
    /// Migrations performed (sent own problem away).
    pub migrations: u64,
    /// Load reports actually sent to the master.
    pub load_reports_sent: u64,
    /// Load reports suppressed by the delta/staleness coalescer.
    pub load_reports_suppressed: u64,
    /// Largest work one solver step charged to one tick. The quantum is
    /// a target, not a bound — see
    /// [`Stats::max_step_work`](gridsat_solver::Stats::max_step_work).
    pub max_step_work: u64,
    /// Largest work one foreign-clause merge charged: the client is
    /// "busy" but deaf to ticks for this long
    /// ([`Stats::max_merge_burst`](gridsat_solver::Stats::max_merge_burst)).
    pub max_merge_burst: u64,
    /// Foreign clauses the fixed-size inboxes evicted unmerged
    /// ([`Stats::merge_dropped`](gridsat_solver::Stats::merge_dropped)).
    pub merge_dropped: u64,
    /// Most literals one solver's inbox held
    /// ([`Stats::peak_inbox_lits`](gridsat_solver::Stats::peak_inbox_lits)).
    pub peak_inbox_lits: u64,
}

impl ClientStats {
    /// Merge another client's counters (experiment-report aggregation).
    /// Exhaustively destructured so forgetting a new field is a compile
    /// error.
    pub fn absorb(&mut self, other: &ClientStats) {
        let ClientStats {
            subproblems,
            splits,
            split_requests,
            share_batches_sent,
            clauses_received,
            dup_share_drops,
            shares_forwarded,
            share_rounds,
            share_export_dropped,
            work,
            results,
            migrations,
            load_reports_sent,
            load_reports_suppressed,
            max_step_work,
            max_merge_burst,
            merge_dropped,
            peak_inbox_lits,
        } = *other;
        self.subproblems += subproblems;
        self.splits += splits;
        self.split_requests += split_requests;
        self.share_batches_sent += share_batches_sent;
        self.clauses_received += clauses_received;
        self.dup_share_drops += dup_share_drops;
        self.shares_forwarded += shares_forwarded;
        self.share_rounds += share_rounds;
        self.share_export_dropped += share_export_dropped;
        self.work += work;
        self.results += results;
        self.migrations += migrations;
        self.load_reports_sent += load_reports_sent;
        self.load_reports_suppressed += load_reports_suppressed;
        self.max_step_work = self.max_step_work.max(max_step_work);
        self.max_merge_burst = self.max_merge_burst.max(max_merge_burst);
        self.merge_dropped += merge_dropped;
        self.peak_inbox_lits = self.peak_inbox_lits.max(peak_inbox_lits);
    }
}

/// How long a client routes split traffic back to the root after its
/// sub-master proved unreachable (hierarchy extension).
const BROKER_RETRY_COOLDOWN_S: f64 = 120.0;

/// Period at which an idle client (re-)announces itself to its
/// sub-master, seconds; also the cadence of its idle housekeeping tick
/// while stealing is possible (hierarchy extension).
const STEAL_PERIOD_S: f64 = 10.0;

/// Availability must move by this much before a fresh load report is
/// worth a message (load-report coalescing).
const LOAD_REPORT_DELTA: f64 = 0.05;

/// Even an unchanged availability is re-reported after this many
/// report periods, so the master's forecasters never starve.
const LOAD_REPORT_STALE_FACTOR: f64 = 4.0;

enum State {
    /// No problem assigned.
    Idle,
    /// Solving `problem`, the cube in hand.
    Solving {
        solver: Box<Solver>,
        problem: ProblemId,
    },
    /// Run over.
    Done,
}

/// The client process. One per Grid host.
pub struct Client {
    master: NodeId,
    config: GridConfig,
    state: State,
    /// Where this node's sharing round goes: its parent in the share
    /// tree, as the master last told it ([`GridMsg::Peers`]). `None` at
    /// the tree's root and, under the paper's all-pairs flood, at every
    /// node: the round then goes to `down`.
    up: Option<NodeId>,
    /// The nodes a batch travelling down goes on to: this node's children
    /// in the share tree; under the flood, every client (this one too).
    down: Arc<[NodeId]>,
    /// Fingerprints of clauses that recently crossed this node's wire,
    /// in either direction; duplicates are dropped on both paths.
    fp_window: FpWindow,
    /// Learned clauses (with fingerprints) waiting for the sharing round
    /// to close. The client's, not the solver's: what a subproblem left
    /// here goes out with the next round, whatever is being solved then.
    export_buf: Vec<(Clause, u64)>,
    /// When the export buffer was last flushed.
    last_share_flush: f64,
    /// When the current subproblem started (for the split time-out).
    problem_started: f64,
    /// Transfer time of the problem we received; the split time-out is
    /// twice this (floored at the configured minimum): "a client records
    /// the time it required to send or receive a problem. When twice this
    /// time period expires, the client requests more resource".
    transfer_time: f64,
    /// Pending split request (avoid flooding the master).
    split_requested_at: Option<f64>,
    /// Site sub-master brokering splits locally (hierarchy extension).
    broker: Option<NodeId>,
    /// When the broker was last found unreachable; split traffic falls
    /// back to the root until the cooldown expires.
    broker_down_at: Option<f64>,
    /// Last idle announcement to the broker (hierarchy extension).
    last_idle_announce: f64,
    last_load_report: f64,
    /// Availability value in the last load report actually sent; the
    /// coalescer suppresses reports that would repeat it.
    last_sent_availability: Option<f64>,
    /// When the last load report was actually sent (staleness refresh).
    last_load_report_sent: f64,
    last_checkpoint: f64,
    /// Last lease renewal sent to the master (reliability extension).
    last_heartbeat: f64,
    /// Counter for subproblem ids minted by this client's splits.
    minted: u32,
    pub stats: ClientStats,
    /// Event-tracing handle, installed into every solver this client runs.
    obs: Obs,
}

impl Client {
    /// A client whose fingerprint window has an id table of its own.
    pub fn new(master: NodeId, config: GridConfig) -> Client {
        Client::with_fp_ids(master, config, FpIds::shared())
    }

    /// A client whose fingerprint window indexes `ids`, the run's shared
    /// id table, so a fingerprint every client sees is stored once; the
    /// window still remembers only what crossed this node's wire.
    pub fn with_fp_ids(master: NodeId, config: GridConfig, ids: Arc<Mutex<FpIds>>) -> Client {
        Client {
            master,
            config,
            state: State::Idle,
            up: None,
            down: Arc::default(),
            fp_window: FpWindow::over(SHARE_FP_WINDOW, ids),
            export_buf: Vec::new(),
            last_share_flush: 0.0,
            problem_started: 0.0,
            transfer_time: 0.0,
            split_requested_at: None,
            broker: None,
            broker_down_at: None,
            last_idle_announce: f64::NEG_INFINITY,
            last_load_report: 0.0,
            last_sent_availability: None,
            last_load_report_sent: f64::NEG_INFINITY,
            last_checkpoint: 0.0,
            last_heartbeat: 0.0,
            minted: 0,
            stats: ClientStats::default(),
            obs: Obs::default(),
        }
    }

    /// Install an event-tracing handle; it is threaded into the solver of
    /// every subproblem this client adopts.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
        if let State::Solving { solver, .. } = &mut self.state {
            // node id is unknown outside a Ctx; adopt_problem refreshes it
            solver.set_obs(self.obs.clone(), 0);
        }
    }

    /// Point this client at its site sub-master; split requests and idle
    /// announcements go there instead of the root (hierarchy extension).
    pub fn set_broker(&mut self, broker: NodeId) {
        self.broker = Some(broker);
    }

    /// The broker to talk to right now, or `None` when hierarchy is off,
    /// no broker is wired, or the broker is inside its failure cooldown.
    fn broker_target(&mut self, now: f64) -> Option<NodeId> {
        if !self.config.hierarchy {
            return None;
        }
        let broker = self.broker?;
        if let Some(down) = self.broker_down_at {
            if now - down < BROKER_RETRY_COOLDOWN_S {
                return None;
            }
            self.broker_down_at = None;
        }
        Some(broker)
    }

    /// Tell the sub-master this client is idle and wants stolen work.
    fn announce_idle(&mut self, ctx: &mut Ctx<GridMsg>) {
        let Some(broker) = self.broker_target(ctx.now()) else {
            return;
        };
        self.last_idle_announce = ctx.now();
        ctx.send(broker, GridMsg::StealRequest);
    }

    /// Re-announce idleness when the steal period has elapsed; the
    /// announcement is best-effort soft state, so it is simply repeated.
    fn maybe_announce_idle(&mut self, ctx: &mut Ctx<GridMsg>) {
        if !self.config.hierarchy {
            return;
        }
        if ctx.now() - self.last_idle_announce >= STEAL_PERIOD_S {
            self.announce_idle(ctx);
        }
    }

    /// Transition to waiting-for-work. Without the hierarchy extension an
    /// idle client parks (reliability keeps it ticking for heartbeats);
    /// with it, the client announces itself to the sub-master and keeps
    /// ticking so the announcement refreshes.
    fn enter_idle(&mut self, ctx: &mut Ctx<GridMsg>) {
        if self.config.hierarchy {
            self.announce_idle(ctx);
            ctx.schedule_tick(STEAL_PERIOD_S);
        } else {
            ctx.idle();
        }
        // what the subproblem left in the export buffer still goes out
        // with its round
        if let Some(wait) = self.idle_flush_in(ctx.now()) {
            ctx.schedule_tick(wait);
        }
    }

    fn split_timeout(&self) -> f64 {
        (2.0 * self.transfer_time).max(self.config.min_split_timeout)
    }

    fn solver_config(&self, host_memory: usize) -> SolverConfig {
        let budget = (host_memory as f64 * MEM_FRACTION) as usize;
        let mut cfg = match self.config.share_len_limit {
            Some(limit) => SolverConfig::grid_client(limit, budget),
            None => SolverConfig::sequential_baseline(budget),
        };
        cfg.mem_budget = Some(budget);
        cfg.inbox_lits = self.config.share_round_s.map(|_| INBOX_LITS);
        cfg
    }

    /// The cube in hand, if any.
    fn problem(&self) -> Option<ProblemId> {
        match self.state {
            State::Solving { problem, .. } => Some(problem),
            State::Idle | State::Done => None,
        }
    }

    fn adopt_problem(&mut self, mut solver: Solver, problem: ProblemId, ctx: &mut Ctx<GridMsg>) {
        debug_assert!(
            (ctx.info.memory as f64 * MEM_FRACTION) as usize >= MIN_MEMORY,
            "master must not assign work to under-provisioned hosts"
        );
        solver.set_obs(self.obs.clone(), ctx.me().0);
        solver.set_obs_now(ctx.now());
        self.state = State::Solving {
            solver: Box::new(solver),
            problem,
        };
        // anchor this node's causal register on the adoption: solver
        // events emitted from later ticks chain back to the delivery
        // that brought the subproblem, not to unrelated traffic
        self.obs.anchor_current(ctx.me().0);
        self.problem_started = ctx.now();
        self.split_requested_at = None;
        self.stats.subproblems += 1;
        ctx.schedule_tick(0.0);
    }

    /// Renew the lease with the master when the period has elapsed
    /// (reliability extension; no-op when reliability is off).
    fn maybe_heartbeat(&mut self, ctx: &mut Ctx<GridMsg>) {
        if !self.config.reliability {
            return;
        }
        if ctx.now() - self.last_heartbeat >= HEARTBEAT_PERIOD_S {
            self.last_heartbeat = ctx.now();
            ctx.send(self.master, GridMsg::Heartbeat);
        }
    }

    /// A control message toward `to` exhausted its retry budget or its
    /// destination went down with the message unacked (reliability
    /// extension).
    pub fn on_undeliverable(&mut self, to: NodeId, msg: GridMsg, ctx: &mut Ctx<GridMsg>) {
        if matches!(self.state, State::Done) {
            return;
        }
        match msg {
            GridMsg::Subproblem { spec, problem, .. } => {
                // the peer died mid-transfer
                self.hand_back(spec, problem, ctx);
            }
            GridMsg::Register { .. }
            | GridMsg::SplitDone { .. }
            | GridMsg::Result { .. }
            | GridMsg::CheckpointMsg { .. }
            | GridMsg::Requeue { .. }
            | GridMsg::StealNotice { .. }
            | GridMsg::Adopt { .. } => {
                // soundness-critical reports to the master: keep trying
                // with a fresh retry budget, toward the *current* master —
                // a takeover may have retargeted us while the send was in
                // flight (the overall timeout bounds the retrying)
                debug_assert!(to == self.master || self.config.failover);
                ctx.send(self.master, msg);
            }
            // the request itself re-arises from the time-out heuristic;
            // but an unreachable sub-master means split traffic should
            // fall back to the root for a while
            GridMsg::SplitRequest { .. } if Some(to) == self.broker && to != self.master => {
                self.broker_down_at = Some(ctx.now());
            }
            // steal tickets/announcements are soft state (re-issued), and
            // the rest is best-effort
            _ => {}
        }
    }

    fn report_result(&mut self, result: SubResult, problem: ProblemId, ctx: &mut Ctx<GridMsg>) {
        ctx.send(self.master, GridMsg::Result { result, problem });
        self.stats.results += 1;
        self.state = State::Idle;
        self.split_requested_at = None;
        // the subproblem is over; later events must not chain to it
        self.obs.clear_anchor(ctx.me().0);
        self.enter_idle(ctx);
    }

    /// Move what the solver learned this quantum into the export buffer
    /// and, when the sharing round is over, send the buffer as one batch.
    /// Without rounds (the paper presets) every quantum is a round of its
    /// own and the batch is the quantum's clauses as learned; with them, a
    /// round ends `share_round_s` after the last flush or on the
    /// subproblem's final quantum, and its batch is the buffer's shortest
    /// clauses, [`SHARE_ROUND_LITS`] literals at most.
    fn drain_shares(&mut self, final_quantum: bool, ctx: &mut Ctx<GridMsg>) {
        if let State::Solving { solver, .. } = &mut self.state {
            let mut shares = solver.take_shared();
            // recently-sent filter: clauses that already crossed this node's
            // wire (in either direction) are not offered to the grid again
            let mut window = self.fp_window.lock();
            shares.retain(|&(_, fp)| window.insert(fp));
            self.export_buf.append(&mut shares);
        }
        let round_over = self
            .config
            .share_round_s
            .is_none_or(|round| final_quantum || ctx.now() - self.last_share_flush >= round);
        if !round_over || self.export_buf.is_empty() {
            return;
        }
        self.last_share_flush = ctx.now();
        let mut shares = std::mem::take(&mut self.export_buf);
        if self.config.share_round_s.is_some() {
            self.stats.share_rounds += 1;
            // stable: equally long clauses leave in the order learned
            shares.sort_by_key(|(clause, _)| clause.len());
            let mut lits = 0;
            let fits = shares
                .iter()
                .take_while(|(clause, _)| {
                    lits += clause.len();
                    lits <= SHARE_ROUND_LITS
                })
                .count();
            self.stats.share_export_dropped += (shares.len() - fits) as u64;
            shares.truncate(fits);
        }
        // encode once: the simulated wire carries the encoded length
        let batch = Arc::new(EncodedBatch::encode(&shares));
        // up to the parent; from a node that has none, down
        let sent = match self.up {
            Some(parent) => {
                ctx.send(parent, GridMsg::Share { batch, down: false });
                1
            }
            None => self.send_down(&batch, ctx),
        };
        self.stats.share_batches_sent += sent.min(1);
    }

    /// One encoded batch to every node below this one, each message
    /// sharing the bytes by refcount; how many went.
    fn send_down(&mut self, batch: &Arc<EncodedBatch>, ctx: &mut Ctx<GridMsg>) -> u64 {
        let me = ctx.me();
        let mut sent = 0;
        for &peer in Arc::clone(&self.down).iter().filter(|&&peer| peer != me) {
            ctx.send(
                peer,
                GridMsg::Share {
                    batch: Arc::clone(batch),
                    down: true,
                },
            );
            sent += 1;
        }
        sent
    }

    /// How long until the sharing round ends, when clauses are waiting in
    /// the export buffer for it: an idle node, with no quantum to close
    /// the round on, sleeps this long. A microsecond over, so the engine's
    /// clock (whole microseconds, rounded down) is past the round's end.
    fn idle_flush_in(&self, now: f64) -> Option<f64> {
        let round = self.config.share_round_s?;
        (!self.export_buf.is_empty()).then(|| (self.last_share_flush + round - now).max(0.0) + 1e-6)
    }

    fn maybe_request_split(&mut self, ctx: &mut Ctx<GridMsg>) {
        let now = ctx.now();
        let since_request = self
            .split_requested_at
            .map(|t| now - t)
            .unwrap_or(f64::INFINITY);
        // don't flood: at most one outstanding request per timeout window
        if since_request < self.split_timeout() {
            return;
        }
        let problem = match &self.state {
            State::Solving { solver, problem } if solver.can_split() => *problem,
            _ => return,
        };
        // under the hierarchy the site sub-master brokers the split
        // locally; only it escalates to the root when the site is busy
        let target = self.broker_target(now).unwrap_or(self.master);
        ctx.send(target, GridMsg::SplitRequest { problem });
        self.split_requested_at = Some(now);
        self.stats.split_requests += 1;
    }

    /// Build a recovery image of the current search space, or `None`
    /// when reliability is off or nothing is being solved.
    fn build_checkpoint(&self) -> Option<Box<Checkpoint>> {
        let State::Solving { solver, .. } = &self.state else {
            return None;
        };
        self.config.reliability.then(|| {
            Box::new(Checkpoint {
                level0: solver.level0_assignment(),
            })
        })
    }

    /// Upload a checkpoint immediately (if reliability is on). Called
    /// right after adopting or splitting a subproblem so the master's
    /// copy of the guiding path is never older than the client's current
    /// search space — a crash in the very first period is then
    /// recoverable too.
    fn checkpoint_now(&mut self, ctx: &mut Ctx<GridMsg>) {
        let Some(problem) = self.problem() else {
            return;
        };
        let Some(checkpoint) = self.build_checkpoint() else {
            return;
        };
        self.last_checkpoint = ctx.now();
        ctx.send(
            self.master,
            GridMsg::CheckpointMsg {
                problem,
                checkpoint,
            },
        );
    }

    /// Hand a transfer nobody here will solve back to the master, so its
    /// search space is not lost.
    fn hand_back(&self, spec: Box<SpecFrame>, problem: ProblemId, ctx: &mut Ctx<GridMsg>) {
        ctx.send(
            self.master,
            GridMsg::Requeue {
                spec,
                problem: Some(problem),
            },
        );
    }

    /// Split `problem`, the subproblem in hand, and send the other half to
    /// `to`: on a master's grant, or `stolen` by a ticketed sibling. The
    /// master hears of it — Figure 3 message (5), or a steal notice naming
    /// `problem`, on the same channel as anything this node later says
    /// about the problem — with the half's id and the pivot kept, and gets
    /// a fresh recovery image: the old one predates the split and would
    /// resurrect the half just handed away. `false`, with nothing sent,
    /// when `problem` is not in hand or the solver has no open decision;
    /// in the second case the id minted for the half is spent all the
    /// same.
    fn hand_off_half(
        &mut self,
        to: NodeId,
        problem: ProblemId,
        stolen: bool,
        ctx: &mut Ctx<GridMsg>,
    ) -> bool {
        let solver = match &mut self.state {
            State::Solving {
                solver,
                problem: held,
            } if *held == problem => solver,
            _ => return false,
        };
        self.minted += 1;
        let new_id = ProblemId::new(ctx.me(), self.minted);
        let Some((frame, assumptions)) = SpecFrame::split_off(solver) else {
            return false;
        };
        // the pivot we keep is the negation of the peer half's last
        // (deepest) assumption
        let keep_pivot = assumptions.last().map(|&(lit, _)| !lit);
        // "a client records the time it required to SEND or receive a
        // problem": estimate the send cost so the split time-out backs
        // off as the database grows
        let est = frame.wire_len() as f64 / ASSUMED_BW_BYTES_PER_S;
        self.transfer_time = self.transfer_time.max(est);
        ctx.send(
            to,
            GridMsg::Subproblem {
                spec: Box::new(frame),
                sent_at: ctx.now(),
                problem: new_id,
                stolen,
            },
        );
        if stolen {
            ctx.send(
                self.master,
                GridMsg::StealNotice {
                    parent: problem,
                    problem: new_id,
                    pivot: keep_pivot,
                },
            );
        } else {
            ctx.send(
                self.master,
                GridMsg::SplitDone {
                    requester: ctx.me(),
                    peer: to,
                    ok: true,
                    problem: Some(new_id),
                    pivot: keep_pivot,
                    checkpoint: None,
                    stolen: false,
                },
            );
            self.stats.splits += 1;
        }
        // the remaining half is a fresh, smaller problem
        self.problem_started = ctx.now();
        self.split_requested_at = None;
        self.checkpoint_now(ctx);
        true
    }

    /// Is this client currently solving? (test/driver introspection)
    pub fn is_solving(&self) -> bool {
        self.problem().is_some()
    }

    /// Has this client permanently retired?
    pub fn is_done(&self) -> bool {
        matches!(self.state, State::Done)
    }

    /// Surrender the in-progress subproblem, sealed, and retire; the
    /// standby promotion path queues the returned frame for re-dispatch
    /// so the new master's host doubles as scheduler only.
    pub(crate) fn hand_over(&mut self) -> Option<(SpecFrame, ProblemId)> {
        self.split_requested_at = None;
        match std::mem::replace(&mut self.state, State::Done) {
            State::Solving { solver, problem } => Some((SpecFrame::export(&solver), problem)),
            State::Idle | State::Done => None,
        }
    }
}

impl Process for Client {
    type Msg = GridMsg;

    fn on_start(&mut self, ctx: &mut Ctx<GridMsg>) {
        // the paper's clients terminate if the host is under-provisioned;
        // they register otherwise and wait for work
        let usable = (ctx.info.memory as f64 * MEM_FRACTION) as usize;
        if usable < MIN_MEMORY {
            self.state = State::Done;
            return;
        }
        // restart-safe: a client that crashed and came back drops any
        // pre-crash solving state (the master has already recovered or
        // requeued the subproblem) and registers as a fresh resource
        self.state = State::Idle;
        self.split_requested_at = None;
        self.export_buf.clear();
        self.up = None;
        self.down = Arc::default();
        self.last_heartbeat = ctx.now();
        ctx.send(
            self.master,
            GridMsg::Register {
                memory: ctx.info.memory,
                availability: ctx.info.availability,
            },
        );
        if self.config.reliability {
            // idle clients must keep ticking to renew their lease
            ctx.schedule_tick(HEARTBEAT_PERIOD_S);
        }
        if self.config.hierarchy {
            // announce idleness to the site sub-master (once the driver
            // has wired one) and keep ticking to refresh it
            self.announce_idle(ctx);
            ctx.schedule_tick(STEAL_PERIOD_S);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: GridMsg, ctx: &mut Ctx<GridMsg>) {
        if matches!(self.state, State::Done) {
            return;
        }
        match msg {
            GridMsg::Solve { spec, problem } => {
                if let Some(held) = self.problem() {
                    // the master's view went stale (reordered delivery);
                    // never discard the search space we already hold
                    if held != problem {
                        self.hand_back(spec, problem, ctx);
                    }
                    return;
                }
                // the reliable layer already dropped checksum-failing
                // frames; a frame that will not open is unrecoverable
                // here — hand it back rather than adopt garbage
                let Ok(solver) = spec.load(self.solver_config(ctx.info.memory)) else {
                    self.hand_back(spec, problem, ctx);
                    return;
                };
                self.transfer_time = 0.0; // master-local dispatch, no estimate yet
                self.adopt_problem(solver, problem, ctx);
                self.checkpoint_now(ctx);
            }
            GridMsg::Subproblem {
                spec,
                sent_at,
                problem,
                stolen,
            } => {
                // already working (e.g. the master falsely expired our
                // lease and re-dispatched): refuse rather than discard our
                // current search space. An unreadable transfer is refused
                // too, and either way the incoming half goes back so it is
                // not lost
                let solver = match self.state {
                    State::Solving { .. } => None,
                    State::Idle | State::Done => {
                        spec.load(self.solver_config(ctx.info.memory)).ok()
                    }
                };
                let Some(solver) = solver else {
                    ctx.send(
                        self.master,
                        GridMsg::SplitDone {
                            requester: from,
                            peer: ctx.me(),
                            ok: false,
                            problem: Some(problem),
                            pivot: None,
                            checkpoint: None,
                            stolen,
                        },
                    );
                    self.hand_back(spec, problem, ctx);
                    return;
                };
                self.transfer_time = (ctx.now() - sent_at).max(0.0);
                self.adopt_problem(solver, problem, ctx);
                // Figure 3 message (4): receiver confirms the transfer.
                // The initial recovery image rides along so the master
                // never marks us Busy without one — a separate upload
                // could still be in flight when we die.
                self.last_checkpoint = ctx.now();
                ctx.send(
                    self.master,
                    GridMsg::SplitDone {
                        requester: from,
                        peer: ctx.me(),
                        ok: true,
                        problem: Some(problem),
                        pivot: None,
                        checkpoint: self.build_checkpoint(),
                        stolen,
                    },
                );
            }
            GridMsg::SplitGrant { peer, problem } => {
                self.split_requested_at = None;
                // a stale grant, meant for a subproblem we no longer hold,
                // fails like one for a solver with no open decision
                if !self.hand_off_half(peer, problem, false, ctx) {
                    ctx.send(
                        self.master,
                        GridMsg::SplitDone {
                            requester: ctx.me(),
                            peer,
                            ok: false,
                            problem: None,
                            pivot: None,
                            checkpoint: None,
                            stolen: false,
                        },
                    );
                }
            }
            GridMsg::Migrate { peer, problem } => {
                let me = ctx.me();
                let done = |ok| GridMsg::SplitDone {
                    requester: me,
                    peer,
                    ok,
                    problem: None,
                    pivot: None,
                    checkpoint: None,
                    stolen: false,
                };
                let spec = match &self.state {
                    State::Solving {
                        solver,
                        problem: held,
                    } if *held == problem => SpecFrame::export(solver),
                    _ => {
                        // stale: this migration was meant for a previous problem
                        ctx.send(self.master, done(false));
                        return;
                    }
                };
                // the subproblem keeps its identity when it moves
                ctx.send(
                    peer,
                    GridMsg::Subproblem {
                        spec: Box::new(spec),
                        sent_at: ctx.now(),
                        problem,
                        stolen: false,
                    },
                );
                self.state = State::Idle;
                self.stats.migrations += 1;
                ctx.send(self.master, done(true));
                self.enter_idle(ctx);
            }
            GridMsg::Share { batch, down } => {
                // the verified decode belongs to the buffer, which the
                // whole fan-out shares: the first recipient pays for it,
                // the rest borrow it
                let decoded = match batch.decoded() {
                    Ok(d) => d,
                    Err(e) => {
                        debug_assert!(false, "undecodable share batch: {e}");
                        return;
                    }
                };
                let total = decoded.len() as u64;
                self.stats.clauses_received += total;
                let buffered = self.export_buf.len();
                let mut fresh = 0u64;
                let mut solver = match &mut self.state {
                    State::Solving { solver, .. } => Some(solver),
                    State::Idle | State::Done => None,
                };
                let evicted = |solver: &Option<&mut Box<Solver>>| {
                    solver.as_ref().map_or(0, |s| s.stats().merge_dropped)
                };
                let evicted_before = evicted(&solver);
                let mut window = self.fp_window.lock();
                // the first recipient interns the batch in the run's
                // table; the rest of the fan-out marks the ids it left
                let ids = window.batch_ids(decoded.iter().map(|(_, fp)| *fp), batch.fp_ids());
                for (k, (clause, fp)) in decoded.iter().enumerate() {
                    let fresh_here = match ids {
                        Some(ids) => window.insert_id(ids[k]),
                        None => window.insert(*fp),
                    };
                    if !fresh_here {
                        continue;
                    }
                    fresh += 1;
                    if let Some(solver) = &mut solver {
                        solver.queue_fresh(clause.lits());
                    }
                    if !down {
                        // a child's round: what is new here travels on
                        // with this node's own
                        self.export_buf.push((clause.clone(), *fp));
                    }
                }
                drop(window);
                self.stats.merge_dropped += evicted(&solver) - evicted_before;
                let dropped = total - fresh;
                if dropped > 0 {
                    self.stats.dup_share_drops += dropped;
                    self.obs
                        .emit(ctx.now(), ctx.me().0, || Event::ShareDedup { dropped });
                }
                if down {
                    // the same encoded batch goes on down the tree, always:
                    // this node may have seen every clause on its way up,
                    // its other children have not. Only from the parent —
                    // under the flood nobody has one, and nothing loops on
                    // links gone stale
                    if self.up == Some(from) {
                        self.stats.shares_forwarded += self.send_down(&batch, ctx);
                    }
                } else if buffered == 0 && matches!(self.state, State::Idle) {
                    // an idle node has no quantum to close the round on
                    if let Some(wait) = self.idle_flush_in(ctx.now()) {
                        ctx.schedule_tick(wait);
                    }
                }
            }
            GridMsg::Peers { up, down } => {
                // links come from the master this node answers to: one a
                // standby has since taken over from may still have some
                // in flight
                if from == self.master {
                    self.up = up;
                    self.down = down;
                }
            }
            GridMsg::Takeover => {
                // a promoted standby is the master now: retarget control
                // traffic and re-register with our in-progress state so
                // the new master's roster covers our search space
                self.master = from;
                self.split_requested_at = None;
                self.last_heartbeat = ctx.now();
                ctx.send(
                    self.master,
                    GridMsg::Adopt {
                        memory: ctx.info.memory,
                        availability: ctx.info.availability,
                        problem: self.problem(),
                        checkpoint: self.build_checkpoint(),
                    },
                );
            }
            GridMsg::StealTicket { donor, problem } => {
                // the sub-master paired us with a loaded sibling; only an
                // idle client takes stolen work (we may have grown busy
                // since announcing — the ticket is then simply dropped and
                // the donor's offer expires at the broker)
                if matches!(self.state, State::Idle) && donor != ctx.me() {
                    ctx.send(donor, GridMsg::Steal { problem });
                }
            }
            GridMsg::Steal { problem } => {
                // a ticketed sibling asks for half our guiding path. The
                // ticket is advisory: honor it only if we still hold that
                // subproblem and it is still splittable; a refusal sends
                // the thief straight back to its broker instead of
                // leaving it to wait out a full idle period.
                let can =
                    matches!(&self.state, State::Solving { solver, .. } if solver.can_split());
                if !can || !self.hand_off_half(from, problem, true, ctx) {
                    ctx.send(from, GridMsg::StealRefused);
                }
            }
            GridMsg::StealRefused => {
                // our ticket was stale; go straight back on the broker's
                // idle list so the next offer can pair with us
                if matches!(self.state, State::Idle) {
                    self.announce_idle(ctx);
                }
            }
            GridMsg::Terminate => {
                self.state = State::Done;
                self.obs.clear_anchor(ctx.me().0);
                ctx.idle();
            }
            // master- or standby-bound messages are not for us
            GridMsg::Register { .. }
            | GridMsg::SplitRequest { .. }
            | GridMsg::SplitDone { .. }
            | GridMsg::Result { .. }
            | GridMsg::LoadReport { .. }
            | GridMsg::Heartbeat
            | GridMsg::Requeue { .. }
            | GridMsg::CheckpointMsg { .. }
            | GridMsg::JournalBatch { .. }
            | GridMsg::JournalAck { .. }
            | GridMsg::StealRequest
            | GridMsg::StealNotice { .. }
            | GridMsg::SplitEscalate { .. }
            | GridMsg::OfferSolicit { .. }
            | GridMsg::Adopt { .. } => {
                debug_assert!(
                    false,
                    "client {:?} got master message from {from}",
                    ctx.me()
                );
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut Ctx<GridMsg>) {
        let State::Solving { solver, problem } = &mut self.state else {
            if matches!(self.state, State::Idle) {
                // nothing to solve, but periodic duties may remain: lease
                // renewal (reliability) and idle announcements (hierarchy)
                let mut next = f64::INFINITY;
                // the sharing round closes on idle nodes too
                self.drain_shares(false, ctx);
                if let Some(wait) = self.idle_flush_in(ctx.now()) {
                    next = next.min(wait);
                }
                if self.config.reliability {
                    self.maybe_heartbeat(ctx);
                    next = next.min(HEARTBEAT_PERIOD_S);
                }
                if self.config.hierarchy {
                    self.maybe_announce_idle(ctx);
                    next = next.min(STEAL_PERIOD_S);
                }
                if next.is_finite() {
                    ctx.schedule_tick(next);
                    return;
                }
            }
            ctx.idle();
            return;
        };
        let problem = *problem;
        let quantum = (ctx.info.speed * self.config.work_quantum_s).max(1.0) as u64;
        solver.set_obs_now(ctx.now());
        let before = solver.stats().work;
        let step = solver.step(quantum);
        let after = solver.stats();
        let done = after.work - before;
        self.stats.work += done;
        self.stats.max_step_work = self.stats.max_step_work.max(after.max_step_work);
        self.stats.max_merge_burst = self.stats.max_merge_burst.max(after.max_merge_burst);
        self.stats.peak_inbox_lits = self.stats.peak_inbox_lits.max(after.peak_inbox_lits);
        ctx.work(done);
        let answer = match step {
            Step::Sat => Some(SubResult::Sat(solver.assignment().to_lits())),
            Step::Unsat => Some(SubResult::Unsat),
            Step::MemoryPressure | Step::Running => None,
        };

        // share fresh clauses even on the final quantum
        self.drain_shares(answer.is_some(), ctx);
        if let Some(result) = answer {
            self.report_result(result, problem, ctx);
            return;
        }
        // the paper's way out of memory pressure is a split; a
        // long-running subproblem is probably hard: ask for help
        let overdue = ctx.now() - self.problem_started > self.split_timeout();
        if matches!(step, Step::MemoryPressure) || overdue {
            self.maybe_request_split(ctx);
        }

        // periodic NWS measurement for the master's forecasters — but
        // coalesced: a report goes out only when availability moved by a
        // meaningful delta or the master's copy has gone stale
        if ctx.now() - self.last_load_report >= self.config.load_report_period {
            self.last_load_report = ctx.now();
            let availability = ctx.info.availability;
            let moved = match self.last_sent_availability {
                None => true,
                Some(prev) => (availability - prev).abs() >= LOAD_REPORT_DELTA,
            };
            let stale = ctx.now() - self.last_load_report_sent
                >= LOAD_REPORT_STALE_FACTOR * self.config.load_report_period;
            if moved || stale {
                self.last_load_report_sent = ctx.now();
                self.last_sent_availability = Some(availability);
                self.stats.load_reports_sent += 1;
                ctx.send(self.master, GridMsg::LoadReport { availability });
            } else {
                self.stats.load_reports_suppressed += 1;
            }
        }
        if ctx.now() - self.last_checkpoint >= CHECKPOINT_PERIOD_S {
            self.checkpoint_now(ctx);
        }
        self.maybe_heartbeat(ctx);
        ctx.schedule_tick(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsat_grid::NodeInfo;
    use gridsat_solver::SplitSpec;

    impl Client {
        /// The solver of the cube in hand, if any.
        fn solver(&self) -> Option<&Solver> {
            match &self.state {
                State::Solving { solver, .. } => Some(solver),
                State::Idle | State::Done => None,
            }
        }
    }

    fn ctx_at(id: u32, now: f64) -> Ctx<GridMsg> {
        Ctx::new(NodeInfo {
            id: NodeId(id),
            speed: 1000.0,
            memory: 3 << 20,
            now,
            availability: 1.0,
        })
    }

    /// A context on node 1, where most of these tests put their client.
    fn ctx(now: f64) -> Ctx<GridMsg> {
        ctx_at(1, now)
    }

    fn whole_problem() -> SplitSpec {
        let f = gridsat_cnf::paper::fig1_formula();
        SplitSpec {
            num_vars: f.num_vars(),
            assumptions: vec![],
            clauses: f.clauses().map(Clause::from).collect(),
        }
    }

    /// Seal a spec the way the wire does.
    fn framed(spec: &SplitSpec) -> Box<SpecFrame> {
        Box::new(SpecFrame::seal(spec))
    }

    /// The links message the master (node 0 here) sends: the parent and
    /// the children in the share tree.
    fn links(up: Option<u32>, down: impl IntoIterator<Item = u32>) -> GridMsg {
        GridMsg::Peers {
            up: up.map(NodeId),
            down: down.into_iter().map(NodeId).collect(),
        }
    }

    /// Build a Share message the way a peer would: fingerprint each
    /// clause and encode the batch once.
    fn share_msg(down: bool, clauses: Vec<gridsat_cnf::Clause>) -> GridMsg {
        let shares: Vec<(gridsat_cnf::Clause, u64)> = clauses
            .into_iter()
            .map(|c| {
                let fp = c.fingerprint();
                (c, fp)
            })
            .collect();
        GridMsg::Share {
            batch: Arc::new(EncodedBatch::encode(&shares)),
            down,
        }
    }

    #[test]
    fn client_stats_absorb_is_lossless() {
        let full = ClientStats {
            subproblems: 1,
            splits: 2,
            split_requests: 3,
            share_batches_sent: 4,
            clauses_received: 5,
            dup_share_drops: 10,
            shares_forwarded: 11,
            work: 6,
            results: 7,
            migrations: 8,
            load_reports_sent: 14,
            load_reports_suppressed: 15,
            max_step_work: 16,
            max_merge_burst: 17,
            share_rounds: 18,
            share_export_dropped: 19,
            merge_dropped: 20,
            peak_inbox_lits: 21,
        };
        let mut acc = ClientStats::default();
        acc.absorb(&full);
        assert_eq!(acc, full);
        acc.absorb(&full);
        assert_eq!(
            acc,
            ClientStats {
                subproblems: 2,
                splits: 4,
                split_requests: 6,
                share_batches_sent: 8,
                clauses_received: 10,
                dup_share_drops: 20,
                shares_forwarded: 22,
                work: 12,
                results: 14,
                migrations: 16,
                load_reports_sent: 28,
                load_reports_suppressed: 30,
                max_step_work: 16,   // max, not sum
                max_merge_burst: 17, // max, not sum
                share_rounds: 36,
                share_export_dropped: 38,
                merge_dropped: 40,
                peak_inbox_lits: 21, // max, not sum
            }
        );
    }

    #[test]
    fn registers_on_start() {
        let mut c = Client::new(NodeId(0), GridConfig::default());
        let mut cx = ctx(0.0);
        c.on_start(&mut cx);
        let actions = cx.take_actions();
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            &actions[0],
            gridsat_grid::Action::Send {
                to: NodeId(0),
                msg: GridMsg::Register { .. }
            }
        ));
    }

    #[test]
    fn under_provisioned_host_refuses_to_register() {
        let mut c = Client::new(NodeId(0), GridConfig::default());
        let mut cx = Ctx::new(NodeInfo {
            id: NodeId(1),
            speed: 250.0,
            memory: 100 << 10, // 60% of this is below the 400 KB minimum
            now: 0.0,
            availability: 1.0,
        });
        c.on_start(&mut cx);
        assert!(cx.take_actions().is_empty());
        assert!(matches!(c.state, State::Done));
    }

    #[test]
    fn solves_the_whole_problem_and_reports_sat() {
        let mut c = Client::new(NodeId(0), GridConfig::default());
        let mut cx = ctx(0.0);
        c.on_message(
            NodeId(0),
            GridMsg::Solve {
                spec: framed(&whole_problem()),
                problem: ProblemId::new(NodeId(0), 1),
            },
            &mut cx,
        );
        assert!(c.is_solving());
        let _ = cx.take_actions();

        // tick until it reports
        for i in 0..100 {
            let mut cx = ctx(i as f64);
            c.on_tick(&mut cx);
            let actions = cx.take_actions();
            if let Some(gridsat_grid::Action::Send {
                msg:
                    GridMsg::Result {
                        result: SubResult::Sat(lits),
                        ..
                    },
                ..
            }) = actions.iter().find(|a| {
                matches!(
                    a,
                    gridsat_grid::Action::Send {
                        msg: GridMsg::Result { .. },
                        ..
                    }
                )
            }) {
                // model verifies against the original
                let f = gridsat_cnf::paper::fig1_formula();
                let mut a = f.empty_assignment();
                for &l in lits {
                    a.assign_lit(l);
                }
                assert!(f.is_satisfied_by(&a));
                assert!(!c.is_solving());
                return;
            }
        }
        panic!("client never reported a result");
    }

    #[test]
    fn split_timeout_uses_twice_transfer_time_with_floor() {
        let mut c = Client::new(NodeId(0), GridConfig::default());
        assert_eq!(c.split_timeout(), 100.0, "floor applies");
        c.transfer_time = 120.0;
        assert_eq!(c.split_timeout(), 240.0);
    }

    #[test]
    fn grant_produces_figure3_messages() {
        let mut c = Client::new(NodeId(0), GridConfig::default());
        let mut cx = ctx(0.0);
        // a hard-ish problem so decisions exist
        let f = gridsat_satgen::php::php(6, 5);
        let spec = SplitSpec {
            num_vars: f.num_vars(),
            assumptions: vec![],
            clauses: f.clauses().map(Clause::from).collect(),
        };
        c.on_message(
            NodeId(0),
            GridMsg::Solve {
                spec: framed(&spec),
                problem: ProblemId::new(NodeId(0), 1),
            },
            &mut cx,
        );
        let _ = cx.take_actions();
        // a little work so the solver has an open decision
        let mut cx = ctx(1.0);
        c.on_tick(&mut cx);
        let _ = cx.take_actions();

        let mut cx = ctx(2.0);
        c.on_message(
            NodeId(0),
            GridMsg::SplitGrant {
                peer: NodeId(5),
                problem: ProblemId::new(NodeId(0), 1),
            },
            &mut cx,
        );
        let actions = cx.take_actions();
        // message (3) to the peer, message (5) to the master
        assert!(actions.iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                to: NodeId(5),
                msg: GridMsg::Subproblem { .. }
            }
        )));
        assert!(actions.iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                to: NodeId(0),
                msg: GridMsg::SplitDone { ok: true, .. }
            }
        )));
        assert_eq!(c.stats.splits, 1);
    }

    #[test]
    fn grant_when_idle_reports_failure() {
        let mut c = Client::new(NodeId(0), GridConfig::default());
        let mut cx = ctx(0.0);
        c.on_message(
            NodeId(0),
            GridMsg::SplitGrant {
                peer: NodeId(5),
                problem: ProblemId::new(NodeId(0), 1),
            },
            &mut cx,
        );
        let actions = cx.take_actions();
        assert!(actions.iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                to: NodeId(0),
                msg: GridMsg::SplitDone { ok: false, .. }
            }
        )));
    }

    #[test]
    fn foreign_clauses_are_queued() {
        let mut c = Client::new(NodeId(0), GridConfig::default());
        let mut cx = ctx(0.0);
        c.on_message(
            NodeId(0),
            GridMsg::Solve {
                spec: framed(&whole_problem()),
                problem: ProblemId::new(NodeId(0), 1),
            },
            &mut cx,
        );
        let _ = cx.take_actions();
        let clause = gridsat_cnf::Clause::new([gridsat_cnf::Lit::pos(0)]);
        let mut cx = ctx(0.5);
        c.on_message(NodeId(2), share_msg(true, vec![clause.clone()]), &mut cx);
        assert_eq!(c.stats.clauses_received, 1);
        assert_eq!(c.stats.dup_share_drops, 0);
        assert_eq!(c.solver().unwrap().pending_foreign(), 1);

        // the same clause again: the fingerprint window drops it before
        // it reaches the solver
        let mut cx = ctx(0.6);
        c.on_message(NodeId(3), share_msg(true, vec![clause]), &mut cx);
        assert_eq!(c.stats.clauses_received, 2);
        assert_eq!(c.stats.dup_share_drops, 1);
        assert_eq!(c.solver().unwrap().pending_foreign(), 1);
    }

    /// A client in a fleet of eight, solving `f` whole. It is node 1: under
    /// rounds the root of the share tree, whose batches go down to its four
    /// children; under the paper's protocol they go to everyone.
    fn sharing_client(config: GridConfig, f: &gridsat_cnf::Formula) -> Client {
        let down = if config.share_round_s.is_some() {
            2..=5
        } else {
            1..=8
        };
        let mut c = Client::new(NodeId(0), config);
        let mut cx = ctx(0.0);
        c.on_message(NodeId(0), links(None, down), &mut cx);
        let spec = SplitSpec {
            num_vars: f.num_vars(),
            assumptions: vec![],
            clauses: f.clauses().map(Clause::from).collect(),
        };
        let solve = GridMsg::Solve {
            spec: framed(&spec),
            problem: ProblemId::new(NodeId(0), 1),
        };
        c.on_message(NodeId(0), solve, &mut cx);
        assert!(c.is_solving());
        c
    }

    /// The share batches among `actions`, one entry per batch (a batch
    /// goes to every child as the same buffer), and whether a result was
    /// reported.
    fn batches_sent(actions: Vec<gridsat_grid::Action<GridMsg>>) -> (Vec<Arc<EncodedBatch>>, bool) {
        let mut batches: Vec<Arc<EncodedBatch>> = Vec::new();
        let mut reported = false;
        for a in actions {
            match a {
                gridsat_grid::Action::Send {
                    msg: GridMsg::Share { batch, .. },
                    ..
                } if !batches.iter().any(|b| Arc::ptr_eq(b, &batch)) => batches.push(batch),
                gridsat_grid::Action::Send {
                    msg: GridMsg::Result { .. },
                    ..
                } => reported = true,
                _ => {}
            }
        }
        (batches, reported)
    }

    /// Tick `c` at `now`; the share batches it sent and whether it reported.
    fn tick_at(c: &mut Client, now: f64) -> (Vec<Arc<EncodedBatch>>, bool) {
        let mut cx = ctx(now);
        c.on_tick(&mut cx);
        batches_sent(cx.take_actions())
    }

    fn clauses_of(batch: &EncodedBatch) -> Vec<Clause> {
        let decoded = batch.decoded().expect("own batch decodes");
        decoded.iter().map(|(clause, _)| clause.clone()).collect()
    }

    /// Quanta of 50 work units: a pigeonhole refutation takes hundreds.
    fn small_quanta(base: GridConfig) -> GridConfig {
        GridConfig {
            work_quantum_s: 0.05,
            ..base
        }
    }

    #[test]
    fn a_round_is_one_batch_and_nothing_leaves_before_it_is_over() {
        let f = gridsat_satgen::php::php(7, 6);
        let mut c = sharing_client(small_quanta(GridConfig::default()), &f);
        let round = c.config.share_round_s.expect("rounds by default");
        let mut rounds = 0;
        let mut last_flush = 0.0;
        for k in 1..400 {
            let now = k as f64 * 0.25;
            let buffered = c.export_buf.len();
            let (batches, reported) = tick_at(&mut c, now);
            if reported {
                // the final quantum closes the round whenever it comes
                rounds += batches.len() as u64;
                break;
            }
            if batches.is_empty() {
                assert!(
                    now - last_flush < round || c.export_buf.is_empty(),
                    "t = {now}: the round was over and the buffer held clauses"
                );
                assert!(c.export_buf.len() >= buffered, "t = {now}: nothing leaks");
                continue;
            }
            assert!(now - last_flush >= round, "t = {now}: sent inside a round");
            assert_eq!(batches.len(), 1, "t = {now}: one batch per round");
            assert!(c.export_buf.is_empty());
            let sent = clauses_of(&batches[0]);
            assert!(sent.len() >= buffered, "the whole buffer went");
            assert!(sent.windows(2).all(|w| w[0].len() <= w[1].len()));
            rounds += 1;
            last_flush = now;
        }
        assert!(rounds >= 3, "{rounds} rounds");
        assert_eq!(c.stats.share_rounds, rounds);
        assert_eq!(c.stats.share_batches_sent, rounds);
        assert_eq!(c.stats.share_export_dropped, 0);
    }

    #[test]
    fn the_final_quantum_flushes_the_round_early() {
        let f = gridsat_satgen::php::php(5, 4);
        let mut c = sharing_client(small_quanta(GridConfig::default()), &f);
        for k in 1..400 {
            // the whole refutation fits inside the first round
            let now = k as f64 * 0.01;
            let (batches, reported) = tick_at(&mut c, now);
            if !reported {
                assert!(batches.is_empty(), "t = {now}: sent inside the round");
                continue;
            }
            assert!(now < c.config.share_round_s.unwrap());
            assert_eq!(batches.len(), 1, "what was learned leaves with the result");
            assert!(c.export_buf.is_empty());
            assert_eq!(c.stats.share_rounds, 1);
            return;
        }
        panic!("php(5, 4) never refuted");
    }

    /// A clause of `len` literals no other call returns.
    fn distinct_clause(serial: u32, len: usize) -> (Clause, u64) {
        let lits =
            (0..len as u32).map(|i| gridsat_cnf::Lit::new((serial * 16 + i).into(), i % 2 == 0));
        let clause = Clause::new(lits);
        let fp = clause.fingerprint();
        (clause, fp)
    }

    #[test]
    fn a_round_keeps_the_shortest_clauses_and_drops_the_rest_at_the_source() {
        // no share limit: the solver offers nothing, the buffer is ours
        let config = GridConfig {
            share_len_limit: None,
            ..small_quanta(GridConfig::default())
        };
        let mut c = sharing_client(config, &gridsat_satgen::php::php(7, 6));
        // lengths 10, 9, .., 1, 10, 9, ..: 2,200 literals in learn order
        let learned: Vec<(Clause, u64)> = (0..400)
            .map(|k| distinct_clause(k, 10 - k as usize % 10))
            .collect();
        c.export_buf = learned.clone();
        let (batches, _) = tick_at(&mut c, 5.0);
        assert_eq!(batches.len(), 1);
        let sent = clauses_of(&batches[0]);
        // shortest first, equally long ones in learn order
        let mut want: Vec<Clause> = learned.into_iter().map(|(clause, _)| clause).collect();
        want.sort_by_key(Clause::len);
        assert_eq!(sent[..], want[..sent.len()]);
        let lits: usize = sent.iter().map(Clause::len).sum();
        assert!(lits <= SHARE_ROUND_LITS && lits + want[sent.len()].len() > SHARE_ROUND_LITS);
        assert_eq!(
            c.stats.share_export_dropped as usize,
            want.len() - sent.len()
        );
        assert!(c.export_buf.is_empty(), "the overflow is dropped, not kept");
    }

    #[test]
    fn the_export_buffer_outlives_its_subproblem() {
        let config = GridConfig {
            share_len_limit: None,
            ..small_quanta(GridConfig::default())
        };
        let f = gridsat_satgen::php::php(7, 6);
        let mut c = sharing_client(config, &f);
        let (batches, _) = tick_at(&mut c, 1.0);
        assert!(batches.is_empty());
        c.export_buf = (0..3).map(|k| distinct_clause(k, 2)).collect();
        // the subproblem migrates away mid-round
        let mut cx = ctx(2.0);
        let migrate = GridMsg::Migrate {
            peer: NodeId(5),
            problem: ProblemId::new(NodeId(0), 1),
        };
        c.on_message(NodeId(0), migrate, &mut cx);
        assert!(!c.is_solving());
        let (batches, _) = batches_sent(cx.take_actions());
        assert!(batches.is_empty());
        assert_eq!(c.export_buf.len(), 3);
        // a new one arrives; its first round carries what the old one left
        let spec = SplitSpec {
            num_vars: f.num_vars(),
            assumptions: vec![],
            clauses: f.clauses().map(Clause::from).collect(),
        };
        let mut cx = ctx(3.0);
        let solve = GridMsg::Solve {
            spec: framed(&spec),
            problem: ProblemId::new(NodeId(0), 2),
        };
        c.on_message(NodeId(0), solve, &mut cx);
        assert!(tick_at(&mut c, 4.0).0.is_empty());
        let (batches, _) = tick_at(&mut c, 5.0);
        assert_eq!(batches.len(), 1);
        let want: Vec<Clause> = (0..3).map(|k| distinct_clause(k, 2).0).collect();
        assert_eq!(clauses_of(&batches[0]), want);

        // that one migrates away too, and nothing follows it: the idle
        // client wakes at the end of the round to send what it left
        c.export_buf = (3..6).map(|k| distinct_clause(k, 2)).collect();
        let mut cx = ctx(7.0);
        let migrate = GridMsg::Migrate {
            peer: NodeId(5),
            problem: ProblemId::new(NodeId(0), 2),
        };
        c.on_message(NodeId(0), migrate, &mut cx);
        assert!(!c.is_solving());
        let actions = cx.take_actions();
        let wake = actions.iter().rev().find_map(|a| match a {
            gridsat_grid::Action::ScheduleTick { delay_s } => Some(*delay_s),
            gridsat_grid::Action::Idle => Some(f64::INFINITY),
            _ => None,
        });
        let wake = wake.expect("the migration ends on a tick decision");
        assert!(
            (wake - 3.0).abs() < 1e-3,
            "the round ends at t = 10, not in {wake} s"
        );
        assert!(batches_sent(actions).0.is_empty());
        let (batches, _) = tick_at(&mut c, 7.0 + wake);
        assert_eq!(batches.len(), 1);
        let want: Vec<Clause> = (3..6).map(|k| distinct_clause(k, 2).0).collect();
        assert_eq!(clauses_of(&batches[0]), want);
        assert!(c.export_buf.is_empty());
    }

    #[test]
    fn without_rounds_every_quantum_sends_what_it_learned_in_learn_order() {
        let f = gridsat_satgen::php::php(7, 6);
        let mut c = sharing_client(small_quanta(GridConfig::experiment1()), &f);
        // a solver of the client's own making, stepped alongside
        let spec = SplitSpec {
            num_vars: f.num_vars(),
            assumptions: vec![],
            clauses: f.clauses().map(Clause::from).collect(),
        };
        let mut twin = Solver::from_split(&spec, c.solver_config(3 << 20));
        let mut seen = std::collections::HashSet::new();
        let mut batches_seen = 0;
        for k in 1..400 {
            let (batches, reported) = tick_at(&mut c, k as f64 * 0.05);
            let _ = twin.step(50);
            // by fingerprint: the codec ships a clause's literals sorted
            let learned: Vec<u64> = twin
                .take_shared()
                .into_iter()
                .map(|(_, fp)| fp)
                .filter(|&fp| seen.insert(fp))
                .collect();
            let sent: Vec<u64> = batches
                .iter()
                .flat_map(|b| b.decoded().expect("own batch decodes"))
                .map(|&(_, fp)| fp)
                .collect();
            assert!(batches.len() <= 1);
            assert_eq!(sent, learned, "quantum {k}");
            assert!(c.export_buf.is_empty());
            batches_seen += batches.len();
            if reported {
                break;
            }
        }
        assert!(batches_seen > 20, "{batches_seen} batches");
        assert_eq!(c.stats.share_rounds, 0);
        assert_eq!(c.stats.share_export_dropped, 0);
    }

    /// Two clients of one fleet (node 2 idle, node 3 solving) each take
    /// delivery of batches 0 and 1 from their parent in the share tree,
    /// node 1; `handle(i)` is the `Arc` a delivery of batch `i` carries. Returns what the share path left
    /// behind per client: the stats, the solver's inbox depth and where it
    /// forwarded to.
    fn deliver_to_two(
        handle: impl Fn(usize) -> Arc<EncodedBatch>,
    ) -> Vec<(ClientStats, Option<usize>, Vec<NodeId>)> {
        let mut out = Vec::new();
        for id in [2u32, 3] {
            let mut c = Client::new(NodeId(0), GridConfig::default());
            let mut cx = ctx_at(id, 0.0);
            // slots 1 and 2 of a tree over nodes 1..=8
            let below = if id == 2 { vec![6, 7, 8] } else { vec![] };
            c.on_message(NodeId(0), links(Some(1), below), &mut cx);
            if id == 3 {
                c.on_message(
                    NodeId(0),
                    GridMsg::Solve {
                        spec: framed(&whole_problem()),
                        problem: ProblemId::new(NodeId(0), 1),
                    },
                    &mut cx,
                );
            }
            let mut forwards = Vec::new();
            for i in 0..2 {
                let batch = handle(i);
                let mut cx = ctx_at(id, 0.5 + i as f64);
                c.on_message(
                    NodeId(1),
                    GridMsg::Share {
                        batch: Arc::clone(&batch),
                        down: true,
                    },
                    &mut cx,
                );
                for a in cx.take_actions() {
                    if let gridsat_grid::Action::Send {
                        to,
                        msg: GridMsg::Share { batch: fwd, .. },
                    } = a
                    {
                        assert!(Arc::ptr_eq(&fwd, &batch), "forwards share the buffer");
                        forwards.push(to);
                    }
                }
            }
            let inbox = c.solver().map(Solver::pending_foreign);
            out.push((c.stats, inbox, forwards));
        }
        out
    }

    #[test]
    fn one_shared_decode_serves_every_recipient_like_a_decode_each() {
        use gridsat_cnf::{Clause, Lit};
        let encode = |clauses: &[Clause]| {
            let shares: Vec<(Clause, u64)> = clauses
                .iter()
                .map(|c| (c.clone(), c.fingerprint()))
                .collect();
            EncodedBatch::encode(&shares)
        };
        // the second batch overlaps the first: one duplicate, one fresh
        let batches = [
            encode(&[
                Clause::new([Lit::pos(0), Lit::neg(3)]),
                Clause::new([Lit::neg(1)]),
                Clause::new([Lit::pos(2), Lit::pos(4), Lit::neg(5)]),
            ]),
            encode(&[
                Clause::new([Lit::neg(3), Lit::pos(0)]),
                Clause::new([Lit::pos(6), Lit::neg(2)]),
            ]),
        ];
        // the decode-once path: both recipients hold the same buffer
        let shared = batches.clone().map(Arc::new);
        let once = deliver_to_two(|i| Arc::clone(&shared[i]));
        assert!(shared.iter().all(|b| b.intact()));
        // the per-recipient path: every delivery verifies a copy of its own
        let each = deliver_to_two(|i| Arc::new(batches[i].clone()));
        assert_eq!(once, each);

        let (idle, solving) = (&once[0], &once[1]);
        for (stats, _, forwards) in [idle, solving] {
            assert_eq!(stats.clauses_received, 5);
            assert_eq!(stats.dup_share_drops, 1);
            assert_eq!(stats.shares_forwarded, forwards.len() as u64);
        }
        assert_eq!(idle.1, None, "no solver, nothing queued or cloned");
        assert_eq!(solving.1, Some(4), "each fresh clause queued once");
        // node 2 sits at slot 1 of the tree: an inner node, which passes
        // both batches on to its three children
        assert_eq!(idle.2.len(), 6);
        assert!(solving.2.is_empty(), "slot 2 of eight is a leaf");
    }

    /// A fleet of idle clients, nodes `1..=n`, slot `i` of the share tree
    /// being node `i + 1`, run to quiescence: messages take 10 ms, ticks
    /// fire when asked for. Starts by ticking `first` at `t0`.
    fn run_fleet(fleet: &mut [Client], first: NodeId, t0: f64) {
        use gridsat_grid::Action;
        enum Due {
            Tick,
            Msg(NodeId, GridMsg),
        }
        let mut queue = vec![(t0, first, Due::Tick)];
        while !queue.is_empty() {
            let next = (0..queue.len())
                .min_by(|&a, &b| queue[a].0.total_cmp(&queue[b].0))
                .expect("non-empty");
            let (now, node, due) = queue.remove(next);
            let mut cx = ctx_at(node.0, now);
            let client = &mut fleet[node.0 as usize - 1];
            match due {
                Due::Tick => client.on_tick(&mut cx),
                Due::Msg(from, msg) => client.on_message(from, msg, &mut cx),
            }
            for action in cx.take_actions() {
                match action {
                    Action::Send { to, msg } => queue.push((now + 0.01, to, Due::Msg(node, msg))),
                    Action::ScheduleTick { delay_s } => {
                        queue.push((now + delay_s, node, Due::Tick))
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn a_clause_from_the_deepest_leaf_reaches_every_other_client_exactly_once() {
        // 23 clients: slot 0; 1..=4; 5..=20; 21 and 22 under slot 5
        let n = 23u32;
        let mut fleet: Vec<Client> = (1..=n)
            .map(|id| {
                let mut c = Client::new(NodeId(0), GridConfig::default());
                let mut cx = ctx_at(id, 0.0);
                // slot i is node i + 1; below it, slots 4i + 1 ..= 4i + 4
                let up = (id > 1).then(|| (id - 2) / 4 + 1);
                let down = (4 * id - 2..=4 * id + 1).filter(|&kid| kid <= n);
                c.on_message(NodeId(0), links(up, down), &mut cx);
                c
            })
            .collect();
        // the leaf learned a clause; its round is over at t = 5
        let leaf = NodeId(n);
        let (clause, fp) = distinct_clause(1, 3);
        assert!(fleet[n as usize - 1].fp_window.insert(fp));
        fleet[n as usize - 1].export_buf.push((clause, fp));
        run_fleet(&mut fleet, leaf, 5.0);

        // slots 5 and 1 — nodes 6 and 2 — carried it up to the root
        let ancestors = [NodeId(6), NodeId(2)];
        for (c, id) in fleet.iter().zip(1..) {
            let imported = c.stats.clauses_received - c.stats.dup_share_drops;
            let want = u64::from(NodeId(id) != leaf);
            assert_eq!(imported, want, "node {id} imported it {imported} times");
            // on the way down it is a duplicate to the subtree it came from
            let seen_twice = NodeId(id) == leaf || ancestors.contains(&NodeId(id));
            assert_eq!(c.stats.dup_share_drops, u64::from(seen_twice), "node {id}");
            assert!(c.export_buf.is_empty(), "node {id} still holds it");
        }
        // one message per level up, one per non-root node down
        let sent: u64 = fleet.iter().map(|c| c.stats.share_batches_sent).sum();
        let forwarded: u64 = fleet.iter().map(|c| c.stats.shares_forwarded).sum();
        assert_eq!((sent, forwarded), (4, u64::from(n) - 1 - 4));
    }

    #[test]
    fn stale_peer_rosters_are_ignored() {
        let mut c = Client::new(NodeId(0), GridConfig::failover_hardened());
        let mut cx = ctx(0.0);
        c.on_message(NodeId(0), links(Some(7), [3, 4]), &mut cx);
        assert_eq!(
            (c.up, &c.down[..]),
            (Some(NodeId(7)), &[NodeId(3), NodeId(4)][..])
        );
        // the standby on node 9 takes over and links the fleet its way
        c.on_message(NodeId(9), GridMsg::Takeover, &mut cx);
        let GridMsg::Peers { up, down } = links(Some(2), [5]) else {
            unreachable!();
        };
        let held = Arc::clone(&down);
        c.on_message(NodeId(9), GridMsg::Peers { up, down }, &mut cx);
        // links the dead master still had in flight must not win
        c.on_message(NodeId(0), links(None, [3, 4, 6]), &mut cx);
        assert_eq!(c.up, Some(NodeId(2)));
        assert!(
            Arc::ptr_eq(&c.down, &held),
            "the delivered allocation is the one held"
        );
    }

    #[test]
    fn idle_client_heartbeats_under_reliability() {
        let mut c = Client::new(NodeId(0), GridConfig::chaos_hardened());
        let mut cx = ctx(0.0);
        c.on_start(&mut cx);
        let actions = cx.take_actions();
        // registers AND keeps ticking so the lease stays renewable
        assert!(actions.iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                msg: GridMsg::Register { .. },
                ..
            }
        )));
        assert!(actions
            .iter()
            .any(|a| matches!(a, gridsat_grid::Action::ScheduleTick { .. })));
        let mut cx = ctx(10.0);
        c.on_tick(&mut cx);
        let actions = cx.take_actions();
        assert!(actions.iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                to: NodeId(0),
                msg: GridMsg::Heartbeat
            }
        )));
        // paper-mode clients stay silent and simply go idle
        let mut quiet = Client::new(NodeId(0), GridConfig::default());
        let mut cx = ctx(0.0);
        quiet.on_start(&mut cx);
        let actions = cx.take_actions();
        assert_eq!(actions.len(), 1); // just the Register
    }

    #[test]
    fn restart_drops_stale_solving_state_and_reregisters() {
        let mut c = Client::new(NodeId(0), GridConfig::chaos_hardened());
        let mut cx = ctx(0.0);
        c.on_start(&mut cx);
        let _ = cx.take_actions();
        let mut cx = ctx(1.0);
        c.on_message(
            NodeId(0),
            GridMsg::Solve {
                spec: framed(&whole_problem()),
                problem: ProblemId::new(NodeId(0), 1),
            },
            &mut cx,
        );
        c.on_message(NodeId(0), links(None, 2..=4), &mut cx);
        let _ = cx.take_actions();
        assert!(c.is_solving());
        assert_eq!(c.down.len(), 3);
        // crash + restart: on_start fires again
        let mut cx = ctx(50.0);
        c.on_start(&mut cx);
        assert!(!c.is_solving());
        // the pre-crash links go too: the master deregistered us, and
        // re-links us once we re-register
        assert!(c.up.is_none() && c.down.is_empty());
        assert!(cx.take_actions().iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                msg: GridMsg::Register { .. },
                ..
            }
        )));
    }

    #[test]
    fn busy_client_refuses_a_transfer_and_requeues_it() {
        let mut c = Client::new(NodeId(0), GridConfig::chaos_hardened());
        let mut cx = ctx(0.0);
        c.on_message(
            NodeId(0),
            GridMsg::Solve {
                spec: framed(&whole_problem()),
                problem: ProblemId::new(NodeId(0), 1),
            },
            &mut cx,
        );
        let _ = cx.take_actions();
        let mut cx = ctx(1.0);
        c.on_message(
            NodeId(3),
            GridMsg::Subproblem {
                spec: framed(&whole_problem()),
                sent_at: 0.5,
                problem: ProblemId::new(NodeId(3), 1),
                stolen: false,
            },
            &mut cx,
        );
        let actions = cx.take_actions();
        assert!(actions.iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                to: NodeId(0),
                msg: GridMsg::SplitDone { ok: false, .. }
            }
        )));
        assert!(actions.iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                to: NodeId(0),
                msg: GridMsg::Requeue { .. }
            }
        )));
        // still on the original problem
        assert_eq!(c.problem(), Some(ProblemId::new(NodeId(0), 1)));
    }

    #[test]
    fn undeliverable_transfer_is_handed_back_to_the_master() {
        let mut c = Client::new(NodeId(0), GridConfig::chaos_hardened());
        let mut cx = ctx(0.0);
        c.on_undeliverable(
            NodeId(7),
            GridMsg::Subproblem {
                spec: framed(&whole_problem()),
                sent_at: 0.0,
                problem: ProblemId::new(NodeId(1), 1),
                stolen: false,
            },
            &mut cx,
        );
        assert!(cx.take_actions().iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                to: NodeId(0),
                msg: GridMsg::Requeue { .. }
            }
        )));
        // a result toward a blinking master is retried, not dropped
        let mut cx = ctx(1.0);
        c.on_undeliverable(
            NodeId(0),
            GridMsg::Result {
                result: SubResult::Unsat,
                problem: ProblemId::new(NodeId(0), 1),
            },
            &mut cx,
        );
        assert!(cx.take_actions().iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                to: NodeId(0),
                msg: GridMsg::Result { .. }
            }
        )));
    }

    #[test]
    fn terminate_stops_everything() {
        let mut c = Client::new(NodeId(0), GridConfig::default());
        let mut cx = ctx(0.0);
        c.on_message(
            NodeId(0),
            GridMsg::Solve {
                spec: framed(&whole_problem()),
                problem: ProblemId::new(NodeId(0), 1),
            },
            &mut cx,
        );
        let _ = cx.take_actions();
        let mut cx = ctx(1.0);
        c.on_message(NodeId(0), GridMsg::Terminate, &mut cx);
        assert!(matches!(c.state, State::Done));
        // ticks are inert afterwards
        let mut cx = ctx(2.0);
        c.on_tick(&mut cx);
        let actions = cx.take_actions();
        assert_eq!(actions.len(), 1); // just the Idle
    }

    #[test]
    fn hierarchical_client_announces_idle_to_its_broker() {
        let mut c = Client::new(NodeId(0), GridConfig::default().hierarchical());
        c.set_broker(NodeId(9));
        let mut cx = ctx(0.0);
        c.on_start(&mut cx);
        let actions = cx.take_actions();
        assert!(actions.iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                to: NodeId(9),
                msg: GridMsg::StealRequest
            }
        )));
        assert!(actions
            .iter()
            .any(|a| matches!(a, gridsat_grid::Action::ScheduleTick { .. })));
        // idle ticks re-announce once the steal period has elapsed
        let mut cx = ctx(STEAL_PERIOD_S + 1.0);
        c.on_tick(&mut cx);
        assert!(cx.take_actions().iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                to: NodeId(9),
                msg: GridMsg::StealRequest
            }
        )));
        // hierarchy mode without a wired broker keeps ticking but sends
        // no announcements
        let mut lone = Client::new(NodeId(0), GridConfig::default().hierarchical());
        let mut cx = ctx(0.0);
        lone.on_start(&mut cx);
        assert!(!cx.take_actions().iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                msg: GridMsg::StealRequest,
                ..
            }
        )));
    }

    #[test]
    fn steal_ticket_is_only_honored_while_idle() {
        let pid = ProblemId::new(NodeId(2), 1);
        let mut c = Client::new(NodeId(0), GridConfig::default().hierarchical());
        let mut cx = ctx(0.0);
        c.on_message(
            NodeId(9),
            GridMsg::StealTicket {
                donor: NodeId(5),
                problem: pid,
            },
            &mut cx,
        );
        assert!(cx.take_actions().iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                to: NodeId(5),
                msg: GridMsg::Steal { .. }
            }
        )));
        // never steal from ourselves (we are NodeId(1))
        let mut cx = ctx(0.1);
        c.on_message(
            NodeId(9),
            GridMsg::StealTicket {
                donor: NodeId(1),
                problem: pid,
            },
            &mut cx,
        );
        assert!(cx.take_actions().is_empty());
        // a client that grew busy since announcing drops the ticket
        let mut cx = ctx(0.5);
        c.on_message(
            NodeId(0),
            GridMsg::Solve {
                spec: framed(&whole_problem()),
                problem: ProblemId::new(NodeId(0), 1),
            },
            &mut cx,
        );
        let _ = cx.take_actions();
        let mut cx = ctx(1.0);
        c.on_message(
            NodeId(9),
            GridMsg::StealTicket {
                donor: NodeId(5),
                problem: pid,
            },
            &mut cx,
        );
        assert!(cx.take_actions().is_empty());
    }

    #[test]
    fn steal_splits_the_donor_and_notifies_the_root() {
        let mut c = Client::new(NodeId(0), GridConfig::default().hierarchical());
        let f = gridsat_satgen::php::php(6, 5);
        let spec = SplitSpec {
            num_vars: f.num_vars(),
            assumptions: vec![],
            clauses: f.clauses().map(Clause::from).collect(),
        };
        let pid = ProblemId::new(NodeId(0), 1);
        let mut cx = ctx(0.0);
        c.on_message(
            NodeId(0),
            GridMsg::Solve {
                spec: framed(&spec),
                problem: pid,
            },
            &mut cx,
        );
        let _ = cx.take_actions();
        // a little work so the solver has an open decision to split at
        let mut cx = ctx(1.0);
        c.on_tick(&mut cx);
        let _ = cx.take_actions();

        // a stale steal (wrong problem id) is refused so the thief can
        // re-announce itself instead of waiting out a full steal period
        let stale = ProblemId::new(NodeId(0), 9);
        let mut cx = ctx(2.0);
        c.on_message(NodeId(7), GridMsg::Steal { problem: stale }, &mut cx);
        let actions = cx.take_actions();
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            gridsat_grid::Action::Send {
                to: NodeId(7),
                msg: GridMsg::StealRefused
            }
        ));

        // the real one ships half the guiding path straight to the thief
        // and tells the root master about the delegated split
        let mut cx = ctx(3.0);
        c.on_message(NodeId(7), GridMsg::Steal { problem: pid }, &mut cx);
        let actions = cx.take_actions();
        assert!(actions.iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                to: NodeId(7),
                msg: GridMsg::Subproblem { stolen: true, .. }
            }
        )));
        assert!(actions.iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                to: NodeId(0),
                msg: GridMsg::StealNotice { parent, .. }
            } if *parent == pid
        )));
        assert!(c.is_solving(), "the donor keeps its own half");
    }

    /// The two ways a cube moves are one hand-off: from the same solver
    /// state a granted split and a ticketed steal send the peer the same
    /// frame under the same id at the same time, `stolen` aside, and leave
    /// the donor with the same recovery image, timers and next id.
    #[test]
    fn a_grant_and_a_steal_hand_off_the_same_half() {
        let f = gridsat_satgen::php::php(6, 5);
        let spec = SplitSpec {
            num_vars: f.num_vars(),
            assumptions: vec![],
            clauses: f.clauses().map(Clause::from).collect(),
        };
        let pid = ProblemId::new(NodeId(0), 1);
        let hand_off = |ask: GridMsg| {
            // checkpoints on: the hand-off ends in a recovery image
            let config = GridConfig::chaos_hardened().hierarchical();
            let mut c = Client::new(NodeId(0), config);
            let mut cx = ctx(0.0);
            let solve = GridMsg::Solve {
                spec: framed(&spec),
                problem: pid,
            };
            c.on_message(NodeId(0), solve, &mut cx);
            // a little work so the solver has an open decision to split at
            let mut cx = ctx(1.0);
            c.on_tick(&mut cx);
            let mut cx = ctx(2.0);
            c.on_message(NodeId(7), ask, &mut cx);
            let mut sends = cx.take_actions().into_iter().map(|a| match a {
                gridsat_grid::Action::Send { to, msg } => (to, msg),
                other => panic!("a hand-off only sends: {other:?}"),
            });
            let Some((
                NodeId(7),
                GridMsg::Subproblem {
                    spec,
                    sent_at,
                    problem,
                    stolen,
                },
            )) = sends.next()
            else {
                panic!("the half goes out first, to the peer");
            };
            let (_, report) = sends.next().expect("then the master hears of it");
            let Some((
                NodeId(0),
                GridMsg::CheckpointMsg {
                    problem: kept,
                    checkpoint,
                },
            )) = sends.next()
            else {
                panic!("then a fresh recovery image of the half kept");
            };
            assert!(sends.next().is_none());
            assert_eq!(kept, pid);
            let donor = (
                c.transfer_time.to_bits(),
                c.problem_started.to_bits(),
                c.split_requested_at,
                c.minted,
            );
            let half = (spec, sent_at.to_bits(), problem, checkpoint, donor);
            (half, stolen, report)
        };
        let (granted, stolen, report) = hand_off(GridMsg::SplitGrant {
            peer: NodeId(7),
            problem: pid,
        });
        assert!(!stolen);
        // message (5) names the half handed away and the pivot kept: the
        // complement of the half's deepest assumption
        let GridMsg::SplitDone {
            requester: NodeId(1),
            peer: NodeId(7),
            ok: true,
            problem: Some(half),
            pivot: Some(pivot),
            checkpoint: None,
            stolen: false,
        } = report
        else {
            panic!("message (5) names the half and its pivot: {report:?}");
        };
        assert_eq!(half, granted.2);
        let sent = granted.0.open().expect("the half's frame opens");
        assert_eq!(sent.assumptions.last().map(|&(l, _)| !l), Some(pivot));
        let (taken, stolen, report) = hand_off(GridMsg::Steal { problem: pid });
        assert!(stolen);
        assert!(matches!(
            report,
            GridMsg::StealNotice { parent, problem, pivot: kept }
                if parent == pid && problem == taken.2 && kept == Some(pivot)
        ));
        assert_eq!(granted, taken);
    }

    #[test]
    fn split_requests_go_to_the_broker_then_fall_back_on_failure() {
        let mut c = Client::new(NodeId(0), GridConfig::default().hierarchical());
        c.set_broker(NodeId(9));
        let f = gridsat_satgen::php::php(6, 5);
        let spec = SplitSpec {
            num_vars: f.num_vars(),
            assumptions: vec![],
            clauses: f.clauses().map(Clause::from).collect(),
        };
        let pid = ProblemId::new(NodeId(0), 1);
        let mut cx = ctx(0.0);
        c.on_message(
            NodeId(0),
            GridMsg::Solve {
                spec: framed(&spec),
                problem: pid,
            },
            &mut cx,
        );
        let _ = cx.take_actions();
        let mut cx = ctx(1.0);
        c.on_tick(&mut cx);
        let _ = cx.take_actions();

        let mut cx = ctx(200.0);
        c.maybe_request_split(&mut cx);
        assert!(cx.take_actions().iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                to: NodeId(9),
                msg: GridMsg::SplitRequest { .. }
            }
        )));

        // the broker proves unreachable: split traffic falls back to the
        // root for the cooldown window
        let mut cx = ctx(210.0);
        c.on_undeliverable(NodeId(9), GridMsg::SplitRequest { problem: pid }, &mut cx);
        assert!(cx.take_actions().is_empty());
        c.split_requested_at = None;
        let mut cx = ctx(220.0);
        c.maybe_request_split(&mut cx);
        assert!(cx.take_actions().iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                to: NodeId(0),
                msg: GridMsg::SplitRequest { .. }
            }
        )));

        // cooldown expiry restores the broker route
        c.split_requested_at = None;
        let mut cx = ctx(210.0 + BROKER_RETRY_COOLDOWN_S + 1.0);
        c.maybe_request_split(&mut cx);
        assert!(cx.take_actions().iter().any(|a| matches!(
            a,
            gridsat_grid::Action::Send {
                to: NodeId(9),
                msg: GridMsg::SplitRequest { .. }
            }
        )));
    }

    #[test]
    fn load_reports_are_coalesced_by_delta_and_staleness() {
        fn cx_with(now: f64, availability: f64) -> Ctx<GridMsg> {
            Ctx::new(NodeInfo {
                id: NodeId(1),
                speed: 1000.0,
                memory: 3 << 20,
                now,
                availability,
            })
        }
        let report_sent = |actions: &[gridsat_grid::Action<GridMsg>]| {
            actions.iter().any(|a| {
                matches!(
                    a,
                    gridsat_grid::Action::Send {
                        msg: GridMsg::LoadReport { .. },
                        ..
                    }
                )
            })
        };
        let mut c = Client::new(
            NodeId(0),
            GridConfig {
                load_report_period: 1.0,
                ..GridConfig::default()
            },
        );
        // a problem big enough that six bounded quanta never finish it
        let f = gridsat_satgen::php::php(9, 8);
        let spec = SplitSpec {
            num_vars: f.num_vars(),
            assumptions: vec![],
            clauses: f.clauses().map(Clause::from).collect(),
        };
        let mut cx = cx_with(0.0, 1.0);
        c.on_message(
            NodeId(0),
            GridMsg::Solve {
                spec: framed(&spec),
                problem: ProblemId::new(NodeId(0), 1),
            },
            &mut cx,
        );
        let _ = cx.take_actions();

        // the first report always goes out
        let mut cx = cx_with(1.0, 1.0);
        c.on_tick(&mut cx);
        assert!(report_sent(&cx.take_actions()));
        // unchanged availability is suppressed...
        for t in [2.0, 3.0, 4.0] {
            let mut cx = cx_with(t, 1.0);
            c.on_tick(&mut cx);
            assert!(!report_sent(&cx.take_actions()), "t={t} should coalesce");
        }
        // ...until the staleness refresh kicks in after four periods
        let mut cx = cx_with(5.0, 1.0);
        c.on_tick(&mut cx);
        assert!(report_sent(&cx.take_actions()));
        // and a genuine availability move is reported immediately
        let mut cx = cx_with(6.0, 0.5);
        c.on_tick(&mut cx);
        assert!(report_sent(&cx.take_actions()));
        assert_eq!(c.stats.load_reports_sent, 3);
        assert_eq!(c.stats.load_reports_suppressed, 3);
    }
}

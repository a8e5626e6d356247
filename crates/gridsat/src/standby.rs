//! Journal-tailing standby master (robustness extension).
//!
//! The designated standby node runs an ordinary [`Client`] — it
//! registers, solves, splits — while also tailing the master's
//! write-ahead journal: every [`GridMsg::JournalBatch`] piggybacked on
//! the control plane that continues what it holds is appended to a
//! [`MasterJournal`] of its own, and every batch is cumulatively
//! acknowledged. The tailed log is the master's, byte for byte, as far as
//! it verified; a repeated ack makes the master re-ship the rest. The
//! master sends an *empty* batch every housekeeping period as a
//! keepalive, so a quiet feed and a dead master are distinguishable:
//! when the feed has been silent for longer than [`PROMOTE_GRACE_S`] the
//! standby hands its journal to [`Master::promoted`], which folds it,
//! retires this node's client (its own subproblem is queued for
//! re-dispatch), and announces the takeover so the survivors re-register
//! with their in-progress state.

use crate::client::Client;
use crate::config::{GridConfig, PROMOTE_GRACE_S};
use crate::journal::{MasterJournal, SealedRecord};
use crate::master::Master;
use crate::msg::GridMsg;
use gridsat_cnf::Formula;
use gridsat_grid::{Ctx, NodeId, Process, Site};
use gridsat_obs::{Event, Obs};
use std::collections::BTreeMap;

/// A client that doubles as the journal-tailing standby master.
pub struct StandbyNode {
    client: Client,
    formula: Formula,
    config: GridConfig,
    host_info: BTreeMap<NodeId, (f64, Site)>,
    /// The master's journal as far as it verified here: every record
    /// appended only once its checksum, payload and stamp checked out.
    journal: MasterJournal,
    /// Sealed records rejected for a bad checksum or sequence stamp.
    rejected: u64,
    /// Simulated second of the last journal batch (keepalives count).
    last_feed: f64,
    /// Set once this standby has taken over; every callback delegates
    /// here from then on.
    promoted: Option<Box<Master>>,
    obs: Obs,
}

impl StandbyNode {
    pub fn new(
        client: Client,
        formula: Formula,
        config: GridConfig,
        host_info: BTreeMap<NodeId, (f64, Site)>,
        obs: Obs,
    ) -> StandbyNode {
        StandbyNode {
            client,
            formula,
            config,
            host_info,
            journal: MasterJournal::new(),
            rejected: 0,
            last_feed: 0.0,
            promoted: None,
            obs,
        }
    }

    /// The master this standby became, if it took over.
    pub fn promoted_master(&self) -> Option<&Master> {
        self.promoted.as_deref()
    }

    /// The inner client (its counters stay valid after a promotion).
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// The journal tailed so far (test introspection).
    pub fn tailed(&self) -> &MasterJournal {
        &self.journal
    }

    /// Sealed journal records rejected for failing verification (test
    /// introspection).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Append the records of a batch starting at `start` that the journal
    /// does not hold yet. A batch starting past them is dropped (an
    /// earlier one was lost), and so is a record that fails verification,
    /// with the rest of its batch: it must never enter the replayed
    /// history. Either way the ack this batch draws repeats the last one,
    /// which tells the master to re-ship from the gap.
    fn absorb_batch(
        &mut self,
        from: NodeId,
        start: u64,
        batch: &[SealedRecord],
        now: f64,
        me: u32,
    ) {
        let Some(held) = self.journal.len().checked_sub(start) else {
            return;
        };
        for sealed in batch.iter().skip(held as usize) {
            if self.journal.append_sealed(sealed).is_err() {
                self.rejected += 1;
                self.obs.emit(now, me, || Event::CorruptDrop {
                    from: from.0,
                    label: "journal-record".into(),
                });
                return;
            }
        }
    }

    /// The feed went quiet past the grace period: take over as master
    /// from the tailed journal, handing this node's own subproblem back
    /// to the scheduling queue.
    fn promote(&mut self, ctx: &mut Ctx<GridMsg>) {
        let own = self.client.hand_over();
        // this node stops being a client: drop the causal anchor on its
        // abandoned subproblem so master events don't chain to it
        self.obs.clear_anchor(ctx.me().0);
        let master = Master::promoted(
            self.formula.clone(),
            self.config.clone(),
            self.host_info.clone(),
            std::mem::take(&mut self.journal),
            own,
            self.obs.clone(),
            ctx,
        );
        self.promoted = Some(Box::new(master));
    }

    /// Reliability-layer callback, routed here by the experiment driver.
    pub fn on_undeliverable(&mut self, to: NodeId, msg: GridMsg, ctx: &mut Ctx<GridMsg>) {
        match &mut self.promoted {
            Some(m) => m.on_undeliverable(to, msg, ctx),
            None => self.client.on_undeliverable(to, msg, ctx),
        }
    }
}

impl Process for StandbyNode {
    type Msg = GridMsg;

    fn on_start(&mut self, ctx: &mut Ctx<GridMsg>) {
        // a (re)starting standby gives the master a full grace period
        // before it can conclude the feed is dead
        self.last_feed = ctx.now();
        match &mut self.promoted {
            Some(m) => m.on_start(ctx),
            None => self.client.on_start(ctx),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: GridMsg, ctx: &mut Ctx<GridMsg>) {
        if let Some(m) = &mut self.promoted {
            m.on_message(from, msg, ctx);
            return;
        }
        match msg {
            GridMsg::JournalBatch { start, records } => {
                self.last_feed = ctx.now();
                self.absorb_batch(from, start, &records, ctx.now(), ctx.me().0);
                // acked on every batch, even a rejected or gapped one:
                // repeating the last ack is the re-request signal
                ctx.send(
                    from,
                    GridMsg::JournalAck {
                        next: self.journal.len(),
                    },
                );
            }
            other => self.client.on_message(from, other, ctx),
        }
    }

    fn on_tick(&mut self, ctx: &mut Ctx<GridMsg>) {
        if let Some(m) = &mut self.promoted {
            m.on_tick(ctx);
            return;
        }
        if !self.client.is_done() && ctx.now() - self.last_feed >= PROMOTE_GRACE_S {
            self.promote(ctx);
            return;
        }
        self.client.on_tick(ctx);
    }

    fn on_node_down(&mut self, node: NodeId, ctx: &mut Ctx<GridMsg>) {
        match &mut self.promoted {
            Some(m) => m.on_node_down(node, ctx),
            None => self.client.on_node_down(node, ctx),
        }
    }
}

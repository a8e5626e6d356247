//! Acked, at-least-once delivery for control-plane messages.
//!
//! The paper's messaging layer rides on TCP streams, so GridSAT's control
//! protocol (splits, results, checkpoints) never silently loses a
//! message; our engine, by contrast, drops on capacity, downed links,
//! dead peers and injected chaos. [`Reliable`] closes that gap as a
//! wrapper [`Process`]: messages the inner protocol classifies as
//! *control* travel in a [`Wire::Data`] envelope with a per-destination
//! sequence number, are acknowledged by the receiving wrapper, and are
//! retransmitted on a timer with exponential backoff and seeded jitter
//! until acked or the retry budget runs out. Receivers keep a dedup
//! window per sender so retransmissions never reach the inner handler
//! twice. Everything else (clause shares, load reports) stays
//! fire-and-forget by design — losing them costs efficiency, not
//! soundness.

use crate::process::{Action, Ctx, MessageSize, NodeInfo, Process};
use crate::topology::NodeId;
use gridsat_obs::{Event as ObsEvent, Obs};
use std::collections::{BTreeMap, BTreeSet};

/// Base retransmit time-out for a zero-byte message, seconds.
const RTO_S: f64 = 5.0;
/// Assumed worst-case bandwidth used to scale the time-out with message
/// size, so a multi-megabyte subproblem transfer over a WAN link is not
/// retransmitted while still in flight.
const RTO_BYTES_PER_S: f64 = 4_000.0;
/// Ceiling on the exponential backoff (the size-scaled base may exceed
/// it for very large transfers).
const BACKOFF_CAP_S: f64 = 60.0;
/// Retransmissions after the original send before the message is
/// declared undeliverable.
const MAX_RETRIES: u32 = 5;
/// Jitter fraction: each time-out is stretched by up to this much, drawn
/// from the seeded RNG (avoids synchronized retry storms).
const JITTER_FRAC: f64 = 0.1;
/// Seed for the jitter RNG (mixed with the node id per wrapper).
const JITTER_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The wire envelope around the inner protocol's messages.
#[derive(Clone, Debug)]
pub enum Wire<M> {
    /// Fire-and-forget traffic, passed through untouched.
    Plain(M),
    /// A tracked control message. `epoch` distinguishes sender
    /// incarnations so a restarted node's fresh sequence space is never
    /// confused with its previous life's.
    Data { seq: u64, epoch: u32, msg: M },
    /// Receiver-side acknowledgement of `Data { seq, epoch }`.
    Ack { seq: u64, epoch: u32 },
}

impl<M: MessageSize> MessageSize for Wire<M> {
    fn size_bytes(&self) -> usize {
        match self {
            // Plain adds zero overhead: with reliability off the wire is
            // bit-identical to the unwrapped protocol.
            Wire::Plain(m) => m.size_bytes(),
            Wire::Data { msg, .. } => msg.size_bytes() + 12,
            Wire::Ack { .. } => 24,
        }
    }

    fn label(&self) -> String {
        match self {
            Wire::Plain(m) | Wire::Data { msg: m, .. } => m.label(),
            Wire::Ack { .. } => "ack".into(),
        }
    }

    fn corrupt(&mut self, seed: u64) -> bool {
        match self {
            // the envelope adds no byte payload of its own; flipping
            // bits of an ack is modeled as losing it (retransmit covers)
            Wire::Plain(m) | Wire::Data { msg: m, .. } => m.corrupt(seed),
            Wire::Ack { .. } => false,
        }
    }

    fn payload_intact(&self) -> bool {
        match self {
            Wire::Plain(m) | Wire::Data { msg: m, .. } => m.payload_intact(),
            Wire::Ack { .. } => true,
        }
    }
}

/// Counters of one wrapper (aggregated across nodes in reports).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Tracked control messages sent (originals, not retransmissions).
    pub data_sent: u64,
    /// Retransmissions (zero in a fault-free run).
    pub retransmits: u64,
    /// Acks that closed an outstanding message.
    pub acks_received: u64,
    /// Duplicate deliveries suppressed by the dedup window.
    pub dup_drops: u64,
    /// Deliveries discarded because the payload failed its checksum.
    /// Tracked data is not acked (the sender retransmits the clean
    /// original); fire-and-forget traffic is simply lost.
    pub corrupt_drops: u64,
    /// Messages that exhausted their retry budget (or whose destination
    /// was torn down) and were handed to `on_undeliverable`.
    pub expired: u64,
}

impl ReliableStats {
    /// Merge another wrapper's counters. Exhaustively destructured so a
    /// new field that isn't merged is a compile error.
    pub fn absorb(&mut self, other: &ReliableStats) {
        let ReliableStats {
            data_sent,
            retransmits,
            acks_received,
            dup_drops,
            corrupt_drops,
            expired,
        } = *other;
        self.data_sent += data_sent;
        self.retransmits += retransmits;
        self.acks_received += acks_received;
        self.dup_drops += dup_drops;
        self.corrupt_drops += corrupt_drops;
        self.expired += expired;
    }
}

/// What the inner protocol must tell the wrapper.
pub trait ReliableProcess: Process {
    /// Control messages get tracked, acked delivery; everything else
    /// stays lossy.
    fn is_control(msg: &Self::Msg) -> bool;

    /// A tracked message exhausted its retry budget, or its destination
    /// was torn down with the message still outstanding. The inner
    /// protocol decides whether to re-route, requeue, or drop.
    fn on_undeliverable(&mut self, to: NodeId, msg: Self::Msg, ctx: &mut Ctx<Self::Msg>) {
        let _ = (to, msg, ctx);
    }

    /// A delivery from `from` failed its payload checksum and was
    /// discarded by the wrapper (before any ack). The inner protocol can
    /// track per-peer misbehavior; delivery recovery is the wrapper's
    /// job (retransmit for tracked data, nothing for fire-and-forget).
    fn on_corrupt(&mut self, from: NodeId, label: &str, ctx: &mut Ctx<Self::Msg>) {
        let _ = (from, label, ctx);
    }
}

struct Pending<M> {
    msg: M,
    bytes: usize,
    /// Retransmissions so far (0 = only the original send).
    attempt: u32,
    next_at: f64,
    /// Causal stamp of the most recent `retransmit` event for this
    /// message (0 = none yet), so successive retransmissions chain into
    /// one backoff run in the trace.
    last_rtx_seq: u64,
}

/// Receiver-side dedup state for one sender.
#[derive(Default)]
struct RecvWindow {
    epoch: u32,
    /// Every seq `<= floor` has been seen (seqs start at 1).
    floor: u64,
    /// Seen seqs above the floor (gaps from in-flight retransmissions).
    seen: BTreeSet<u64>,
}

/// The reliability wrapper. With `tracked: false` it is a pure
/// passthrough: every send travels as [`Wire::Plain`], no timers run,
/// and the simulation is bit-identical to the unwrapped protocol.
pub struct Reliable<P: ReliableProcess> {
    inner: P,
    /// Control messages travel as acked, retransmitted `Data`.
    tracked: bool,
    epoch: u32,
    started: bool,
    next_seq: BTreeMap<NodeId, u64>,
    outstanding: BTreeMap<(NodeId, u64), Pending<P::Msg>>,
    recv: BTreeMap<NodeId, RecvWindow>,
    rng: u64,
    pub stats: ReliableStats,
    obs: Obs,
    /// The action vector every inner callback collects into, handed from
    /// one inner [`Ctx`] to the next so the steady state allocates none.
    inner_buf: Vec<Action<P::Msg>>,
}

impl<P: ReliableProcess> Reliable<P> {
    pub fn new(inner: P, tracked: bool) -> Reliable<P> {
        Reliable {
            inner,
            tracked,
            epoch: 0,
            started: false,
            next_seq: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            recv: BTreeMap::new(),
            rng: JITTER_SEED | 1,
            stats: ReliableStats::default(),
            obs: Obs::default(),
            inner_buf: Vec::new(),
        }
    }

    /// Mix a per-node salt into the jitter RNG so wrappers sharing
    /// [`JITTER_SEED`] do not jitter in lockstep.
    pub fn with_rng_salt(mut self, salt: u64) -> Reliable<P> {
        self.rng = (self.rng ^ salt.wrapping_mul(0x2545_F491_4F6C_DD1D)) | 1;
        self
    }

    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    pub fn inner(&self) -> &P {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    fn jitter(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Retransmit time-out for a message of `bytes` after `attempt`
    /// retransmissions: size-scaled base, doubled per attempt, capped,
    /// stretched by seeded jitter.
    fn rto(&mut self, bytes: usize, attempt: u32) -> f64 {
        debug_assert!(self.tracked, "rto only used with reliability on");
        let base = RTO_S + bytes as f64 / RTO_BYTES_PER_S;
        let backed_off = base * f64::from(1u32 << attempt.min(16));
        let capped = backed_off.min(BACKOFF_CAP_S.max(base));
        capped * (1.0 + JITTER_FRAC * self.jitter())
    }

    fn next_deadline(&self) -> Option<f64> {
        self.outstanding
            .values()
            .map(|p| p.next_at)
            .min_by(f64::total_cmp)
    }

    /// A context for one inner-protocol callback, collecting into the
    /// recycled action buffer ([`Reliable::translate`] hands it back).
    fn inner_ctx(&mut self, info: NodeInfo) -> Ctx<P::Msg> {
        Ctx::with_buffer(info, std::mem::take(&mut self.inner_buf))
    }

    /// Translate the inner protocol's actions onto the wire: control
    /// sends become tracked `Data`, everything else passes through, and
    /// `Idle` is withheld while retransmit timers are pending (an idle
    /// engine node receives no ticks, which would silence the timers).
    fn translate(&mut self, ictx: &mut Ctx<P::Msg>, ctx: &mut Ctx<Wire<P::Msg>>) {
        let now = ctx.now();
        let mut actions = ictx.take_actions();
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    if self.tracked && P::is_control(&msg) {
                        let counter = self.next_seq.entry(to).or_insert(1);
                        let seq = *counter;
                        *counter += 1;
                        let bytes = msg.size_bytes();
                        let next_at = now + self.rto(bytes, 0);
                        self.outstanding.insert(
                            (to, seq),
                            Pending {
                                msg: msg.clone(),
                                bytes,
                                attempt: 0,
                                next_at,
                                last_rtx_seq: 0,
                            },
                        );
                        self.stats.data_sent += 1;
                        ctx.send(
                            to,
                            Wire::Data {
                                seq,
                                epoch: self.epoch,
                                msg,
                            },
                        );
                    } else {
                        ctx.send(to, Wire::Plain(msg));
                    }
                }
                Action::ScheduleTick { delay_s } => ctx.schedule_tick(delay_s),
                Action::Work { units } => ctx.work(units),
                Action::Shutdown => ctx.shutdown(),
                Action::Idle => {
                    if self.outstanding.is_empty() {
                        ctx.idle();
                    }
                }
            }
        }
        self.inner_buf = actions;
        if let Some(deadline) = self.next_deadline() {
            ctx.schedule_tick((deadline - now).max(0.0));
        }
    }

    /// Retransmit due messages; expired ones are removed and returned
    /// for the inner protocol's `on_undeliverable`.
    fn poll(&mut self, ctx: &mut Ctx<Wire<P::Msg>>) -> Vec<(NodeId, P::Msg)> {
        if !self.tracked {
            return Vec::new();
        }
        let now = ctx.now();
        // tolerance of one engine tick (1 µs): a deadline landing between
        // microsecond grid points must count as due, or the wrapper would
        // spin on zero-delay ticks that never reach it
        let due: Vec<(NodeId, u64)> = self
            .outstanding
            .iter()
            .filter(|(_, p)| p.next_at <= now + 2e-6)
            .map(|(k, _)| *k)
            .collect();
        let mut expired = Vec::new();
        for (to, seq) in due {
            let p = self.outstanding.get(&(to, seq)).expect("due entry");
            if p.attempt >= MAX_RETRIES {
                let p = self.outstanding.remove(&(to, seq)).expect("due entry");
                self.stats.expired += 1;
                expired.push((to, p.msg));
                continue;
            }
            let (bytes, attempt, msg, prev_rtx) = {
                let p = self.outstanding.get_mut(&(to, seq)).expect("due entry");
                p.attempt += 1;
                (p.bytes, p.attempt, p.msg.clone(), p.last_rtx_seq)
            };
            let next_at = now + self.rto(bytes, attempt);
            self.stats.retransmits += 1;
            let label = msg.label();
            let me = ctx.me().0;
            // chain each retransmission of the same message onto the
            // previous one so a backoff run reads as one causal run
            let mk = || ObsEvent::Retransmit {
                to: to.0,
                label,
                attempt: u64::from(attempt),
            };
            let rtx_seq = if prev_rtx == 0 {
                self.obs.emit_seq(now, me, mk)
            } else {
                self.obs.emit_caused(now, me, prev_rtx, mk)
            };
            // the engine-level msg_send of the re-send hangs off it too
            self.obs.set_cause(me, rtx_seq);
            {
                let p = self.outstanding.get_mut(&(to, seq)).expect("due");
                p.next_at = next_at;
                p.last_rtx_seq = rtx_seq;
            }
            ctx.send(
                to,
                Wire::Data {
                    seq,
                    epoch: self.epoch,
                    msg,
                },
            );
        }
        expired
    }

    fn deliver_expired(
        &mut self,
        expired: Vec<(NodeId, P::Msg)>,
        info: NodeInfo,
        ctx: &mut Ctx<Wire<P::Msg>>,
    ) {
        if expired.is_empty() {
            return;
        }
        let mut ictx = self.inner_ctx(info);
        for (to, msg) in expired {
            self.inner.on_undeliverable(to, msg, &mut ictx);
        }
        self.translate(&mut ictx, ctx);
    }

    /// Should a `Data { seq, epoch }` from `from` reach the inner
    /// handler, or is it a duplicate/stale delivery?
    fn accept(&mut self, from: NodeId, seq: u64, epoch: u32) -> bool {
        let rec = self.recv.entry(from).or_default();
        if epoch < rec.epoch {
            return false; // previous incarnation of the sender
        }
        if epoch > rec.epoch {
            // the sender restarted: its sequence space starts over, and
            // per-pair FIFO delivery makes the first message of the new
            // epoch the lowest original seq we will see
            rec.epoch = epoch;
            rec.floor = seq.saturating_sub(1);
            rec.seen.clear();
        }
        if seq <= rec.floor || rec.seen.contains(&seq) {
            return false;
        }
        rec.seen.insert(seq);
        while rec.seen.remove(&(rec.floor + 1)) {
            rec.floor += 1;
        }
        true
    }

    /// Count and report a delivery whose payload failed its checksum,
    /// then let the inner protocol note the misbehaving peer.
    fn discard_corrupt(&mut self, from: NodeId, msg: &P::Msg, ctx: &mut Ctx<Wire<P::Msg>>) {
        self.stats.corrupt_drops += 1;
        let label = msg.label();
        let me = ctx.me().0;
        self.obs.emit(ctx.now(), me, || ObsEvent::CorruptDrop {
            from: from.0,
            label: label.clone(),
        });
        let mut ictx = self.inner_ctx(ctx.info);
        self.inner.on_corrupt(from, &label, &mut ictx);
        self.translate(&mut ictx, ctx);
    }
}

impl<P: ReliableProcess> Process for Reliable<P> {
    type Msg = Wire<P::Msg>;

    fn on_start(&mut self, ctx: &mut Ctx<Self::Msg>) {
        let mut lost = Vec::new();
        if self.started {
            // restart: this incarnation's connections are fresh; sends of
            // the previous life died with their TCP streams. Peers that
            // watched us crash already recovered via `on_node_down`.
            self.epoch += 1;
            lost = std::mem::take(&mut self.outstanding)
                .into_iter()
                .map(|((to, _), p)| (to, p.msg))
                .collect();
        }
        self.started = true;
        let mut ictx = self.inner_ctx(ctx.info);
        self.inner.on_start(&mut ictx);
        // the previous life's outbox died with it; let the protocol
        // decide what each lost message means (requeue, refree, resend)
        for (to, msg) in lost {
            self.stats.expired += 1;
            self.inner.on_undeliverable(to, msg, &mut ictx);
        }
        self.translate(&mut ictx, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<Self::Msg>) {
        match msg {
            Wire::Plain(m) => {
                if !m.payload_intact() {
                    // fire-and-forget traffic is lossy by design: a
                    // mangled payload is discarded like a lost message
                    self.discard_corrupt(from, &m, ctx);
                    return;
                }
                let mut ictx = self.inner_ctx(ctx.info);
                self.inner.on_message(from, m, &mut ictx);
                self.translate(&mut ictx, ctx);
            }
            Wire::Data { seq, epoch, msg } => {
                if !msg.payload_intact() {
                    // treat as a drop: no ack, no dedup-window advance, so
                    // the sender's retransmission of the clean stored
                    // original recovers the transfer
                    self.discard_corrupt(from, &msg, ctx);
                    return;
                }
                // ack unconditionally: dups mean our previous ack was lost
                ctx.send(from, Wire::Ack { seq, epoch });
                if !self.accept(from, seq, epoch) {
                    self.stats.dup_drops += 1;
                    let label = msg.label();
                    let me = ctx.me().0;
                    self.obs.emit(ctx.now(), me, || ObsEvent::DupDrop {
                        from: from.0,
                        label,
                    });
                    return;
                }
                let mut ictx = self.inner_ctx(ctx.info);
                self.inner.on_message(from, msg, &mut ictx);
                self.translate(&mut ictx, ctx);
            }
            Wire::Ack { seq, epoch } => {
                if epoch != self.epoch {
                    return; // ack for a previous incarnation's send
                }
                if self.outstanding.remove(&(from, seq)).is_some() {
                    self.stats.acks_received += 1;
                    let me = ctx.me().0;
                    self.obs
                        .emit(ctx.now(), me, || ObsEvent::Acked { peer: from.0 });
                }
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut Ctx<Self::Msg>) {
        let expired = self.poll(ctx);
        let mut ictx = self.inner_ctx(ctx.info);
        for (to, msg) in expired {
            self.inner.on_undeliverable(to, msg, &mut ictx);
        }
        self.inner.on_tick(&mut ictx);
        self.translate(&mut ictx, ctx);
    }

    fn on_node_down(&mut self, node: NodeId, ctx: &mut Ctx<Self::Msg>) {
        // connection teardown: outstanding messages toward the dead peer
        // are undeliverable now — when (if) it returns it will have been
        // reset, so blind retransmission would be wrong
        let dead: Vec<(NodeId, u64)> = self
            .outstanding
            .keys()
            .filter(|(to, _)| *to == node)
            .copied()
            .collect();
        let mut expired = Vec::new();
        for key in dead {
            let p = self.outstanding.remove(&key).expect("listed");
            self.stats.expired += 1;
            expired.push((node, p.msg));
        }
        let info = ctx.info;
        self.deliver_expired(expired, info, ctx);
        let mut ictx = self.inner_ctx(ctx.info);
        self.inner.on_node_down(node, &mut ictx);
        self.translate(&mut ictx, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sim;
    use crate::topology::{HostSpec, Site, Testbed};

    #[derive(Clone, Debug, PartialEq)]
    enum ToyMsg {
        Ctl(u32),
        Lossy(u32),
        /// Carries a checksummed payload: `intact` is what its
        /// receiver-side verification will report.
        Blob {
            v: u32,
            intact: bool,
        },
    }
    impl MessageSize for ToyMsg {
        fn size_bytes(&self) -> usize {
            64
        }
        fn label(&self) -> String {
            match self {
                ToyMsg::Ctl(_) => "ctl".into(),
                ToyMsg::Lossy(_) => "lossy".into(),
                ToyMsg::Blob { .. } => "blob".into(),
            }
        }
        fn corrupt(&mut self, _seed: u64) -> bool {
            match self {
                ToyMsg::Blob { intact, .. } => {
                    *intact = false;
                    true
                }
                _ => false,
            }
        }
        fn payload_intact(&self) -> bool {
            match self {
                ToyMsg::Blob { intact, .. } => *intact,
                _ => true,
            }
        }
    }

    /// Node 0 sends a burst at start-up; node 1 records deliveries.
    struct Toy {
        send_ctl: u32,
        send_lossy: u32,
        received: Vec<ToyMsg>,
        undeliverable: Vec<(NodeId, ToyMsg)>,
        corrupt_from: Vec<(NodeId, String)>,
    }

    impl Toy {
        fn sender(ctl: u32, lossy: u32) -> Toy {
            Toy {
                send_ctl: ctl,
                send_lossy: lossy,
                received: Vec::new(),
                undeliverable: Vec::new(),
                corrupt_from: Vec::new(),
            }
        }
        fn receiver() -> Toy {
            Toy::sender(0, 0)
        }
    }

    impl Process for Toy {
        type Msg = ToyMsg;
        fn on_start(&mut self, ctx: &mut Ctx<ToyMsg>) {
            for i in 0..self.send_ctl {
                ctx.send(NodeId(1), ToyMsg::Ctl(i));
            }
            for i in 0..self.send_lossy {
                ctx.send(NodeId(1), ToyMsg::Lossy(i));
            }
        }
        fn on_message(&mut self, _f: NodeId, m: ToyMsg, _ctx: &mut Ctx<ToyMsg>) {
            self.received.push(m);
        }
        fn on_tick(&mut self, _ctx: &mut Ctx<ToyMsg>) {}
    }

    impl ReliableProcess for Toy {
        fn is_control(msg: &ToyMsg) -> bool {
            matches!(msg, ToyMsg::Ctl(_))
        }
        fn on_undeliverable(&mut self, to: NodeId, msg: ToyMsg, _ctx: &mut Ctx<ToyMsg>) {
            self.undeliverable.push((to, msg));
        }
        fn on_corrupt(&mut self, from: NodeId, label: &str, _ctx: &mut Ctx<ToyMsg>) {
            self.corrupt_from.push((from, label.into()));
        }
    }

    fn tiny_testbed() -> Testbed {
        Testbed {
            hosts: vec![
                HostSpec::new("a", Site::Ucsd, 1000.0, 1 << 20).dedicated(),
                HostSpec::new("b", Site::Ucsd, 1000.0, 1 << 20).dedicated(),
            ],
            net: Default::default(),
            load_seed: 1,
        }
    }

    fn build(tracked: bool, ctl: u32, lossy: u32) -> Sim<Reliable<Toy>> {
        Sim::new(tiny_testbed(), move |id| {
            let toy = if id == NodeId(0) {
                Toy::sender(ctl, lossy)
            } else {
                Toy::receiver()
            };
            Reliable::new(toy, tracked).with_rng_salt(u64::from(id.0))
        })
    }

    #[test]
    fn fault_free_run_has_zero_retransmits() {
        let mut sim = build(true, 5, 2);
        sim.run_until(60.0);
        let rx = sim.process(NodeId(1));
        assert_eq!(rx.inner().received.len(), 7);
        let tx = sim.process(NodeId(0));
        assert_eq!(tx.stats.data_sent, 5);
        assert_eq!(tx.stats.retransmits, 0);
        assert_eq!(tx.stats.expired, 0);
        assert_eq!(tx.stats.acks_received, 5);
        assert_eq!(rx.stats.dup_drops, 0);
    }

    #[test]
    fn control_messages_survive_a_downed_link() {
        let mut sim = build(true, 3, 3);
        sim.set_link_down(NodeId(0), NodeId(1));
        sim.schedule_link_up(NodeId(0), NodeId(1), 2.5);
        sim.run_until(60.0);
        let rx = sim.process(NodeId(1));
        let ctl: Vec<&ToyMsg> = rx
            .inner()
            .received
            .iter()
            .filter(|m| matches!(m, ToyMsg::Ctl(_)))
            .collect();
        assert_eq!(ctl.len(), 3, "every control message eventually arrives");
        assert!(
            rx.inner()
                .received
                .iter()
                .filter(|m| matches!(m, ToyMsg::Lossy(_)))
                .count()
                == 0,
            "lossy traffic sent into the downed link stays lost"
        );
        let tx = sim.process(NodeId(0));
        assert!(tx.stats.retransmits >= 3);
        assert_eq!(tx.stats.expired, 0);
        assert_eq!(rx.stats.dup_drops, 0, "nothing was delivered twice");
    }

    #[test]
    fn retry_budget_exhaustion_reports_undeliverable() {
        let mut sim = build(true, 2, 0);
        sim.set_link_down(NodeId(0), NodeId(1)); // never comes back
        sim.run_until(300.0);
        let tx = sim.process(NodeId(0));
        assert_eq!(tx.stats.expired, 2);
        assert_eq!(tx.inner().undeliverable.len(), 2);
        assert!(tx
            .inner()
            .undeliverable
            .iter()
            .all(|(to, m)| *to == NodeId(1) && matches!(m, ToyMsg::Ctl(_))));
    }

    #[test]
    fn duplicate_deliveries_are_suppressed() {
        let info = |id: u32, now: f64| NodeInfo {
            id: NodeId(id),
            speed: 1000.0,
            memory: 1 << 20,
            now,
            availability: 1.0,
        };
        let mut rx = Reliable::new(Toy::receiver(), true);
        let data = Wire::Data {
            seq: 1,
            epoch: 0,
            msg: ToyMsg::Ctl(7),
        };
        let mut ctx = Ctx::new(info(1, 0.0));
        rx.on_message(NodeId(0), data.clone(), &mut ctx);
        let mut ctx2 = Ctx::new(info(1, 0.5));
        rx.on_message(NodeId(0), data, &mut ctx2);
        assert_eq!(rx.inner().received, vec![ToyMsg::Ctl(7)]);
        assert_eq!(rx.stats.dup_drops, 1);
        // both deliveries were acked (the dup means our first ack was lost)
        for c in [&mut ctx, &mut ctx2] {
            assert!(c.take_actions().iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: Wire::Ack { seq: 1, .. },
                    ..
                }
            )));
        }
    }

    #[test]
    fn corrupt_tracked_data_is_not_acked_so_retransmission_recovers_it() {
        let info = |now: f64| NodeInfo {
            id: NodeId(1),
            speed: 1000.0,
            memory: 1 << 20,
            now,
            availability: 1.0,
        };
        let mut rx = Reliable::new(Toy::receiver(), true);
        let mut mangled = ToyMsg::Blob { v: 7, intact: true };
        assert!(mangled.corrupt(1));
        let mut ctx = Ctx::new(info(0.0));
        rx.on_message(
            NodeId(0),
            Wire::Data {
                seq: 1,
                epoch: 0,
                msg: mangled,
            },
            &mut ctx,
        );
        assert!(rx.inner().received.is_empty(), "mangled payload delivered");
        assert_eq!(rx.stats.corrupt_drops, 1);
        assert_eq!(rx.inner().corrupt_from, vec![(NodeId(0), "blob".into())]);
        assert!(
            !ctx.take_actions()
                .iter()
                .any(|a| matches!(a, Action::Send { .. })),
            "a corrupt delivery must not be acked"
        );
        // the sender's retransmission of the clean stored original lands
        let mut ctx2 = Ctx::new(info(1.5));
        rx.on_message(
            NodeId(0),
            Wire::Data {
                seq: 1,
                epoch: 0,
                msg: ToyMsg::Blob { v: 7, intact: true },
            },
            &mut ctx2,
        );
        assert_eq!(
            rx.inner().received,
            vec![ToyMsg::Blob { v: 7, intact: true }]
        );
        assert_eq!(rx.stats.dup_drops, 0, "corrupt drop must not advance dedup");
        assert!(ctx2.take_actions().iter().any(|a| matches!(
            a,
            Action::Send {
                msg: Wire::Ack { seq: 1, .. },
                ..
            }
        )));
    }

    #[test]
    fn corrupt_fire_and_forget_traffic_is_discarded_and_counted() {
        let info = NodeInfo {
            id: NodeId(1),
            speed: 1000.0,
            memory: 1 << 20,
            now: 0.0,
            availability: 1.0,
        };
        let mut rx = Reliable::new(Toy::receiver(), true);
        let mut mangled = ToyMsg::Blob { v: 3, intact: true };
        assert!(mangled.corrupt(2));
        let mut ctx = Ctx::new(info);
        rx.on_message(NodeId(0), Wire::Plain(mangled), &mut ctx);
        assert!(rx.inner().received.is_empty());
        assert_eq!(rx.stats.corrupt_drops, 1);
        assert_eq!(rx.inner().corrupt_from.len(), 1);
        // no ack, no recovery: lossy traffic is lossy
        assert!(!ctx
            .take_actions()
            .iter()
            .any(|a| matches!(a, Action::Send { .. })));
    }

    #[test]
    fn stale_epoch_data_is_dropped_and_new_epoch_resets_the_window() {
        let info = NodeInfo {
            id: NodeId(1),
            speed: 1000.0,
            memory: 1 << 20,
            now: 0.0,
            availability: 1.0,
        };
        let mut rx = Reliable::new(Toy::receiver(), true);
        let send = |rx: &mut Reliable<Toy>, seq, epoch, v| {
            let mut ctx = Ctx::new(info);
            rx.on_message(
                NodeId(0),
                Wire::Data {
                    seq,
                    epoch,
                    msg: ToyMsg::Ctl(v),
                },
                &mut ctx,
            );
        };
        send(&mut rx, 1, 1, 10); // sender already in epoch 1
        send(&mut rx, 5, 0, 99); // stale incarnation: dropped
        send(&mut rx, 1, 2, 20); // restarted again: seq space restarts
        assert_eq!(rx.inner().received, vec![ToyMsg::Ctl(10), ToyMsg::Ctl(20)]);
        assert_eq!(rx.stats.dup_drops, 1);
    }

    #[test]
    fn passthrough_mode_adds_nothing_to_the_wire() {
        let mut sim = build(false, 4, 4);
        sim.run_until(60.0);
        let tx = sim.process(NodeId(0));
        assert_eq!(tx.stats, ReliableStats::default());
        let rx = sim.process(NodeId(1));
        assert_eq!(rx.inner().received.len(), 8);
        assert_eq!(rx.stats, ReliableStats::default());
        // exactly the 8 payload messages crossed the network: no acks
        assert_eq!(sim.stats.messages_delivered, 8);
        assert_eq!(sim.stats.bytes_delivered, 8 * 64);
    }
}

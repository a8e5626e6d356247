//! Deterministic discrete-event Grid engine.
//!
//! Nodes run [`Process`] state machines; the engine delivers messages with
//! link latency + bandwidth delays, charges solver work against per-host
//! speed and background-load traces, and brings batch nodes up and down on
//! their windows. Event ties are broken by sequence number, and all
//! stochastic inputs come from seeded traces, so whole runs are
//! reproducible bit-for-bit.

use crate::process::{Action, Ctx, MessageSize, NodeInfo, Process};
use crate::topology::{NodeId, Testbed};
use gridsat_nws::LoadTrace;
use gridsat_obs::{DropReason, Event as ObsEvent, Obs};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// One network event recorded when tracing is on (used to reproduce the
/// paper's Figure 3 message diagram).
#[derive(Clone, Debug)]
pub struct TraceEvent {
    pub time_s: f64,
    pub from: NodeId,
    pub to: NodeId,
    pub label: String,
    pub bytes: usize,
}

/// Aggregate statistics of a simulation run. Drops are counted by
/// reason; [`SimStats::messages_dropped`] gives the total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    pub messages_delivered: u64,
    pub bytes_delivered: u64,
    /// Dropped because the destination was over its in-flight cap.
    pub dropped_capacity: u64,
    /// Dropped because the link was administratively down.
    pub dropped_link_down: u64,
    /// Dropped because the destination node had left the Grid.
    pub dropped_dead_peer: u64,
    /// Dropped by injected chaos ([`Sim::set_net_chaos`] loss).
    pub dropped_chaos: u64,
    /// Scalar-only messages dropped by injected corruption (modeled
    /// header damage: nothing to deliver mangled).
    pub dropped_corrupt: u64,
    /// Messages whose byte payload was bit-flipped in flight and
    /// delivered mangled (the receiver's checksum must catch them).
    pub corrupted_payloads: u64,
    /// Messages hit by an injected delay spike (delivered late, not lost).
    pub delay_spikes: u64,
    pub ticks: u64,
    pub events: u64,
}

impl SimStats {
    /// Total messages dropped, across all reasons.
    pub fn messages_dropped(&self) -> u64 {
        self.dropped_capacity
            + self.dropped_link_down
            + self.dropped_dead_peer
            + self.dropped_chaos
            + self.dropped_corrupt
    }
}

/// How a [`Sim::run_until`] call ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunEnd {
    /// A process requested shutdown (normal termination).
    Shutdown,
    /// The deadline was reached with events still queued; a later
    /// `run_until` can resume.
    Deadline,
    /// The event queue drained with no shutdown: nothing will ever
    /// happen again. If the protocol still had open work, the run
    /// wedged — callers should surface that explicitly.
    Exhausted,
}

/// Seeded random network faults applied to every send.
#[derive(Clone, Copy, Debug)]
pub struct NetChaos {
    /// Probability that a send is silently lost.
    pub loss_prob: f64,
    /// Probability that a delivery is hit by a delay spike.
    pub delay_prob: f64,
    /// Extra delivery delay of a spike, seconds.
    pub delay_extra_s: f64,
    /// Probability that a send has payload bits flipped in flight
    /// ([`MessageSize::corrupt`]). Messages without a byte payload are
    /// dropped instead (modeled header corruption).
    pub corrupt_prob: f64,
    /// RNG seed; same seed + same run = same faults.
    pub seed: u64,
}

impl Default for NetChaos {
    fn default() -> NetChaos {
        NetChaos {
            loss_prob: 0.0,
            delay_prob: 0.0,
            delay_extra_s: 5.0,
            corrupt_prob: 0.0,
            seed: 1,
        }
    }
}

enum EventKind<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
        /// `msg.size_bytes()` as charged at send time; the delivery books
        /// the same number instead of walking the payload again.
        bytes: u64,
        /// Causal stamp of the matching `msg_send` event on `from`
        /// (0 when tracing is off or unclocked), so the delivery can be
        /// recorded as caused-by the send across nodes.
        send_seq: u64,
    },
    Tick {
        node: NodeId,
    },
    NodeUp {
        node: NodeId,
    },
    NodeDown {
        node: NodeId,
    },
    /// Scheduled administrative link change (fault injection).
    LinkSet {
        a: NodeId,
        b: NodeId,
        up: bool,
    },
}

struct Event<M> {
    time_us: u64,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time_us == other.time_us && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time_us, self.seq).cmp(&(other.time_us, other.seq))
    }
}

struct Node<P: Process> {
    proc: P,
    up: bool,
    /// Earliest requested tick; stale tick events are skipped.
    next_tick_us: Option<u64>,
    load: Option<LoadTrace>,
    last_availability: f64,
}

/// The simulator. Construct with a [`Testbed`] and one process per host.
pub struct Sim<P: Process> {
    testbed: Testbed,
    nodes: Vec<Node<P>>,
    events: BinaryHeap<Reverse<Event<P::Msg>>>,
    seq: u64,
    now_us: u64,
    shutdown: bool,
    pub stats: SimStats,
    trace: Option<Vec<TraceEvent>>,
    /// Last delivery time of each link that has carried a message, keyed
    /// by [`link_key`]: messages between a pair are FIFO, as on the TCP
    /// streams of the paper's messaging layer. A link not in the map has
    /// carried nothing and reads 0, so the map grows with the links a run
    /// uses, not with n².
    last_delivery: HashMap<u64, u64, BuildHasherDefault<LinkHasher>>,
    /// Event-tracing handle (disabled by default).
    obs: Obs,
    /// Messages currently in flight toward each destination node.
    inflight: Vec<u64>,
    /// Per-destination in-flight cap; sends over it are dropped.
    inflight_cap: Option<u64>,
    /// Administratively-downed links, as normalized (low, high) pairs.
    links_down: BTreeSet<(NodeId, NodeId)>,
    /// Random loss/delay injection (off by default).
    chaos: Option<NetChaos>,
    chaos_rng: u64,
    /// How the most recent `run_until` call ended.
    last_run_end: Option<RunEnd>,
    /// The action vector every activation collects into, handed from one
    /// [`Ctx`] to the next so the steady state allocates none.
    action_buf: Vec<Action<P::Msg>>,
}

fn norm_pair(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

/// The key of the directed link `from -> to` in [`Sim`]'s FIFO clocks.
fn link_key(from: NodeId, to: NodeId) -> u64 {
    u64::from(from.0) << 32 | u64::from(to.0)
}

/// Hashes a [`link_key`]: one 64 × 64 → 128-bit multiply folded to 64
/// bits, so both node ids reach the low bits the table indexes by. The
/// keys are ids the engine assigns, never outside input, so SipHash's
/// flood resistance would buy nothing for its cost.
#[derive(Default)]
struct LinkHasher(u64);

impl Hasher for LinkHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("link keys hash as one u64")
    }
    fn write_u64(&mut self, key: u64) {
        let p = u128::from(key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = p as u64 ^ (p >> 64) as u64;
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

const US: f64 = 1_000_000.0;

impl<P: Process> Sim<P> {
    /// Build a simulation: `make` constructs the process for each node.
    pub fn new(testbed: Testbed, mut make: impl FnMut(NodeId) -> P) -> Sim<P> {
        let num_nodes = testbed.num_hosts();
        let mut nodes = Vec::with_capacity(num_nodes);
        let mut events = BinaryHeap::new();
        let mut seq = 0u64;
        for (i, host) in testbed.hosts.iter().enumerate() {
            let id = NodeId(i as u32);
            nodes.push(Node {
                proc: make(id),
                up: false,
                next_tick_us: None,
                load: host
                    .load
                    .map(|cfg| LoadTrace::new(cfg, testbed.load_seed.wrapping_add(i as u64))),
                last_availability: host.load.map(|cfg| cfg.mean_availability).unwrap_or(1.0),
            });
            events.push(Reverse(Event {
                time_us: (host.up_at * US) as u64,
                seq,
                kind: EventKind::NodeUp { node: id },
            }));
            seq += 1;
            if host.down_at.is_finite() {
                events.push(Reverse(Event {
                    time_us: (host.down_at * US) as u64,
                    seq,
                    kind: EventKind::NodeDown { node: id },
                }));
                seq += 1;
            }
        }
        Sim {
            testbed,
            nodes,
            events,
            seq,
            now_us: 0,
            shutdown: false,
            stats: SimStats::default(),
            trace: None,
            last_delivery: HashMap::default(),
            obs: Obs::default(),
            inflight: vec![0; num_nodes],
            inflight_cap: None,
            links_down: BTreeSet::new(),
            chaos: None,
            chaos_rng: 1,
            last_run_end: None,
            action_buf: Vec::new(),
        }
    }

    /// Record every message delivery (for the Figure 3 reproduction).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Install an event-tracing handle: the engine emits message
    /// send/deliver/drop and node up/down events into it.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Cap how many messages may be in flight toward any one destination;
    /// sends over the cap are dropped (and counted as capacity drops).
    pub fn set_inflight_cap(&mut self, cap: u64) {
        self.inflight_cap = Some(cap);
    }

    /// Administratively take the link between `a` and `b` down: sends on
    /// it are dropped until [`Sim::set_link_up`]. Messages already in
    /// flight still arrive, like packets on the wire when a route dies.
    pub fn set_link_down(&mut self, a: NodeId, b: NodeId) {
        self.links_down.insert(norm_pair(a, b));
    }

    /// Restore a link taken down with [`Sim::set_link_down`].
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId) {
        self.links_down.remove(&norm_pair(a, b));
    }

    /// Enable seeded random loss/delay injection on every send.
    pub fn set_net_chaos(&mut self, chaos: NetChaos) {
        self.chaos_rng = chaos.seed | 1;
        self.chaos = Some(chaos);
    }

    fn push_event(&mut self, at_s: f64, kind: EventKind<P::Msg>) {
        self.events.push(Reverse(Event {
            time_us: (at_s * US) as u64,
            seq: self.seq,
            kind,
        }));
        self.seq += 1;
    }

    /// Schedule a node crash at `at_s` (fault injection). A no-op at
    /// dispatch time if the node is already down.
    pub fn schedule_node_down(&mut self, node: NodeId, at_s: f64) {
        self.push_event(at_s, EventKind::NodeDown { node });
    }

    /// Schedule a node (re)start at `at_s`. A no-op at dispatch time if
    /// the node is already up, so it composes with the start-up events.
    pub fn schedule_node_up(&mut self, node: NodeId, at_s: f64) {
        self.push_event(at_s, EventKind::NodeUp { node });
    }

    /// Schedule a link cut at `at_s` (fault injection).
    pub fn schedule_link_down(&mut self, a: NodeId, b: NodeId, at_s: f64) {
        self.push_event(at_s, EventKind::LinkSet { a, b, up: false });
    }

    /// Schedule a link heal at `at_s`.
    pub fn schedule_link_up(&mut self, a: NodeId, b: NodeId, at_s: f64) {
        self.push_event(at_s, EventKind::LinkSet { a, b, up: true });
    }

    /// The recorded message trace.
    pub fn trace_events(&self) -> &[TraceEvent] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.now_us as f64 / US
    }

    /// Did a process request shutdown?
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// Immutable access to a node's process (for result extraction).
    pub fn process(&self, id: NodeId) -> &P {
        &self.nodes[id.0 as usize].proc
    }

    /// Mutable access to a node's process (for post-run stat draining).
    pub fn process_mut(&mut self, id: NodeId) -> &mut P {
        &mut self.nodes[id.0 as usize].proc
    }

    /// Number of nodes in the testbed.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Run until shutdown, event exhaustion, or `max_time_s`; says which.
    pub fn run_until(&mut self, max_time_s: f64) -> RunEnd {
        let deadline_us = (max_time_s * US) as u64;
        let end = loop {
            if self.shutdown {
                break RunEnd::Shutdown;
            }
            let Some(Reverse(ev)) = self.events.pop() else {
                break RunEnd::Exhausted;
            };
            if ev.time_us > deadline_us {
                // push back so a later run_until() can resume
                self.events.push(Reverse(ev));
                self.now_us = deadline_us;
                break RunEnd::Deadline;
            }
            self.now_us = ev.time_us;
            self.stats.events += 1;
            self.dispatch(ev);
        };
        self.last_run_end = Some(end);
        end
    }

    /// How the most recent [`Sim::run_until`] call ended.
    pub fn last_run_end(&self) -> Option<RunEnd> {
        self.last_run_end
    }

    fn info(&self, id: NodeId) -> NodeInfo {
        let host = &self.testbed.hosts[id.0 as usize];
        NodeInfo {
            id,
            speed: host.speed,
            memory: host.memory,
            now: self.now_us as f64 / US,
            availability: self.nodes[id.0 as usize].last_availability,
        }
    }

    /// A callback context for `id`, collecting into the recycled action
    /// buffer ([`Sim::apply_actions`] hands it back).
    fn ctx(&mut self, id: NodeId) -> Ctx<P::Msg> {
        Ctx::with_buffer(self.info(id), std::mem::take(&mut self.action_buf))
    }

    fn dispatch(&mut self, ev: Event<P::Msg>) {
        match ev.kind {
            EventKind::NodeUp { node } => {
                if self.nodes[node.0 as usize].up {
                    return; // scheduled restart raced a live node
                }
                self.nodes[node.0 as usize].up = true;
                let up_seq = self.obs.emit_seq(self.now(), node.0, || ObsEvent::NodeUp);
                // startup actions are caused by coming up
                self.obs.set_cause(node.0, up_seq);
                let mut ctx = self.ctx(node);
                self.nodes[node.0 as usize].proc.on_start(&mut ctx);
                self.apply_actions(node, &mut ctx);
                self.obs.restore_anchor(node.0);
            }
            EventKind::NodeDown { node } => {
                if !self.nodes[node.0 as usize].up {
                    return;
                }
                self.nodes[node.0 as usize].up = false;
                self.nodes[node.0 as usize].next_tick_us = None;
                self.obs.emit(self.now(), node.0, || ObsEvent::NodeDown);
                // peers learn about the loss (EveryWare connection teardown)
                for i in 0..self.nodes.len() {
                    if i == node.0 as usize || !self.nodes[i].up {
                        continue;
                    }
                    let id = NodeId(i as u32);
                    let mut ctx = self.ctx(id);
                    self.nodes[i].proc.on_node_down(node, &mut ctx);
                    self.apply_actions(id, &mut ctx);
                    self.obs.restore_anchor(id.0);
                }
            }
            EventKind::Deliver {
                from,
                to,
                msg,
                bytes,
                send_seq,
            } => {
                // the message leaves the network either way
                self.inflight[to.0 as usize] -= 1;
                if !self.nodes[to.0 as usize].up {
                    self.stats.dropped_dead_peer += 1;
                    self.obs.emit(self.now(), to.0, || ObsEvent::MsgDrop {
                        from: from.0,
                        to: to.0,
                        label: msg.label(),
                        bytes,
                        reason: DropReason::DeadPeer,
                    });
                    return;
                }
                self.stats.messages_delivered += 1;
                self.stats.bytes_delivered += bytes;
                // Lamport merge before stamping: the delivery's seq must
                // order after the send's on the receiver clock, and its
                // cause points back at the send event on `from`.
                self.obs.recv_merge(to.0, send_seq);
                let deliver_seq =
                    self.obs
                        .emit_caused(self.now(), to.0, send_seq, || ObsEvent::MsgDeliver {
                            from: from.0,
                            to: to.0,
                            label: msg.label(),
                            bytes,
                        });
                // events the handler emits hang off the delivery
                self.obs.set_cause(to.0, deliver_seq);
                let mut ctx = self.ctx(to);
                self.nodes[to.0 as usize]
                    .proc
                    .on_message(from, msg, &mut ctx);
                self.apply_actions(to, &mut ctx);
                self.obs.restore_anchor(to.0);
            }
            EventKind::LinkSet { a, b, up } => {
                if up {
                    self.links_down.remove(&norm_pair(a, b));
                } else {
                    self.links_down.insert(norm_pair(a, b));
                }
                let verb = if up { "link_up" } else { "link_down" };
                self.obs.emit(self.now(), a.0, || ObsEvent::FaultInject {
                    what: format!("{verb} {}-{}", a.0, b.0),
                });
            }
            EventKind::Tick { node } => {
                let n = &mut self.nodes[node.0 as usize];
                if !n.up || n.next_tick_us != Some(ev.time_us) {
                    return; // stale or dead tick
                }
                n.next_tick_us = None;
                self.stats.ticks += 1;
                let mut ctx = self.ctx(node);
                self.nodes[node.0 as usize].proc.on_tick(&mut ctx);
                self.apply_actions(node, &mut ctx);
                self.obs.restore_anchor(node.0);
            }
        }
    }

    fn chaos_u01(&mut self) -> f64 {
        let mut x = self.chaos_rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.chaos_rng = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    fn apply_actions(&mut self, node: NodeId, ctx: &mut Ctx<P::Msg>) {
        let mut actions = ctx.take_actions();
        // first pass: total work charged in this activation
        let mut work_units = 0u64;
        for a in &actions {
            if let Action::Work { units } = a {
                work_units += units;
            }
        }
        let elapsed_us = if work_units > 0 {
            let host = &self.testbed.hosts[node.0 as usize];
            let availability = self.nodes[node.0 as usize]
                .load
                .as_mut()
                .map(|t| t.next_sample())
                .unwrap_or(1.0);
            self.nodes[node.0 as usize].last_availability = availability;
            let dt_s = work_units as f64 / (host.speed * availability);
            (dt_s * US).max(1.0) as u64
        } else {
            0
        };
        let end_us = self.now_us + elapsed_us;

        for a in actions.drain(..) {
            match a {
                Action::Work { .. } => {}
                Action::Idle => {
                    self.nodes[node.0 as usize].next_tick_us = None;
                }
                Action::Shutdown => self.shutdown = true,
                Action::ScheduleTick { delay_s } => {
                    let t = end_us + (delay_s * US) as u64;
                    let n = &mut self.nodes[node.0 as usize];
                    let t = match n.next_tick_us {
                        Some(existing) if existing <= t => existing,
                        _ => t,
                    };
                    n.next_tick_us = Some(t);
                    self.events.push(Reverse(Event {
                        time_us: t,
                        seq: self.seq,
                        kind: EventKind::Tick { node },
                    }));
                    self.seq += 1;
                }
                Action::Send { to, mut msg } => {
                    let bytes = msg.size_bytes();
                    if self.links_down.contains(&norm_pair(node, to)) {
                        self.stats.dropped_link_down += 1;
                        self.obs.emit(self.now(), node.0, || ObsEvent::MsgDrop {
                            from: node.0,
                            to: to.0,
                            label: msg.label(),
                            bytes: bytes as u64,
                            reason: DropReason::LinkDown,
                        });
                        continue;
                    }
                    if let Some(ch) = self.chaos {
                        if ch.loss_prob > 0.0 && self.chaos_u01() < ch.loss_prob {
                            self.stats.dropped_chaos += 1;
                            self.obs.emit(self.now(), node.0, || ObsEvent::MsgDrop {
                                from: node.0,
                                to: to.0,
                                label: msg.label(),
                                bytes: bytes as u64,
                                reason: DropReason::Chaos,
                            });
                            continue;
                        }
                        if ch.corrupt_prob > 0.0 && self.chaos_u01() < ch.corrupt_prob {
                            let seed = self.chaos_rng;
                            if msg.corrupt(seed) {
                                // real byte payload mangled: deliver it and
                                // let the receiver's checksum do its job
                                self.stats.corrupted_payloads += 1;
                                self.obs.emit(self.now(), node.0, || ObsEvent::FaultInject {
                                    what: format!("bit_flip {}-{}", node.0, to.0),
                                });
                            } else {
                                // scalar-only message: model header
                                // corruption as a loss
                                self.stats.dropped_corrupt += 1;
                                self.obs.emit(self.now(), node.0, || ObsEvent::MsgDrop {
                                    from: node.0,
                                    to: to.0,
                                    label: msg.label(),
                                    bytes: bytes as u64,
                                    reason: DropReason::Corrupt,
                                });
                                continue;
                            }
                        }
                    }
                    let inflight = &mut self.inflight[to.0 as usize];
                    if self.inflight_cap.is_some_and(|cap| *inflight >= cap) {
                        self.stats.dropped_capacity += 1;
                        self.obs.emit(self.now(), node.0, || ObsEvent::MsgDrop {
                            from: node.0,
                            to: to.0,
                            label: msg.label(),
                            bytes: bytes as u64,
                            reason: DropReason::Capacity,
                        });
                        continue;
                    }
                    *inflight += 1;
                    let from_site = self.testbed.hosts[node.0 as usize].site;
                    let to_site = self.testbed.hosts[to.0 as usize].site;
                    let link = self.testbed.net.link(from_site, to_site);
                    let mut arrival = end_us + (link.transfer_time(bytes) * US) as u64;
                    if let Some(ch) = self.chaos {
                        if ch.delay_prob > 0.0 && self.chaos_u01() < ch.delay_prob {
                            self.stats.delay_spikes += 1;
                            arrival += (ch.delay_extra_s * US) as u64;
                            self.obs.emit(self.now(), node.0, || ObsEvent::FaultInject {
                                what: format!("delay_spike {}-{}", node.0, to.0),
                            });
                        }
                    }
                    // FIFO per link: never overtake an earlier message
                    let last = self.last_delivery.entry(link_key(node, to)).or_insert(0);
                    arrival = arrival.max(*last + 1);
                    *last = arrival;
                    if let Some(trace) = &mut self.trace {
                        trace.push(TraceEvent {
                            time_s: self.now_us as f64 / US,
                            from: node,
                            to,
                            label: msg.label(),
                            bytes,
                        });
                    }
                    let send_seq = self.obs.emit_seq(self.now(), node.0, || ObsEvent::MsgSend {
                        from: node.0,
                        to: to.0,
                        label: msg.label(),
                        bytes: bytes as u64,
                    });
                    self.events.push(Reverse(Event {
                        time_us: arrival,
                        seq: self.seq,
                        kind: EventKind::Deliver {
                            from: node,
                            to,
                            msg,
                            bytes: bytes as u64,
                            send_seq,
                        },
                    }));
                    self.seq += 1;
                }
            }
        }
        self.action_buf = actions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::HostSpec;

    #[derive(Clone, Debug)]
    enum Msg {
        Ping(u64),
        Pong(u64),
    }
    impl MessageSize for Msg {
        fn size_bytes(&self) -> usize {
            64
        }
        fn label(&self) -> String {
            match self {
                Msg::Ping(_) => "ping".into(),
                Msg::Pong(_) => "pong".into(),
            }
        }
    }

    /// Node 0 pings node 1 `rounds` times, charging work per round.
    struct PingPong {
        rounds: u64,
        received: Vec<(f64, u64)>,
        is_master: bool,
    }

    impl Process for PingPong {
        type Msg = Msg;
        fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
            if self.is_master {
                ctx.send(NodeId(1), Msg::Ping(0));
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: Msg, ctx: &mut Ctx<Msg>) {
            match msg {
                Msg::Ping(i) => {
                    ctx.work(1000);
                    ctx.send(NodeId(0), Msg::Pong(i));
                }
                Msg::Pong(i) => {
                    self.received.push((ctx.now(), i));
                    if i + 1 < self.rounds {
                        ctx.send(NodeId(1), Msg::Ping(i + 1));
                    } else {
                        ctx.shutdown();
                    }
                }
            }
        }
        fn on_tick(&mut self, _ctx: &mut Ctx<Msg>) {}
    }

    fn tiny_testbed() -> Testbed {
        Testbed {
            hosts: vec![
                HostSpec::new("m", crate::topology::Site::Ucsd, 1000.0, 1 << 20).dedicated(),
                HostSpec::new("w", crate::topology::Site::Utk, 1000.0, 1 << 20).dedicated(),
            ],
            net: Default::default(),
            load_seed: 1,
        }
    }

    #[test]
    fn ping_pong_timing_and_shutdown() {
        let mut sim = Sim::new(tiny_testbed(), |id| PingPong {
            rounds: 3,
            received: Vec::new(),
            is_master: id == NodeId(0),
        });
        sim.enable_trace();
        sim.run_until(1e9);
        assert!(sim.is_shutdown());
        let master = sim.process(NodeId(0));
        assert_eq!(master.received.len(), 3);
        // each round: WAN latency 0.07 + 64/4000 bytes each way, plus 1 s
        // of work (1000 units at 1000 u/s) on the worker
        let per_round = 2.0 * (0.070 + 64.0 / 4000.0) + 1.0;
        let t0 = master.received[0].0;
        assert!((t0 - per_round).abs() < 0.01, "t0 = {t0}");
        let t2 = master.received[2].0;
        assert!((t2 - 3.0 * per_round).abs() < 0.03, "t2 = {t2}");
        // trace captured all six messages in order
        let labels: Vec<&str> = sim
            .trace_events()
            .iter()
            .map(|e| e.label.as_str())
            .collect();
        assert_eq!(labels, ["ping", "pong", "ping", "pong", "ping", "pong"]);
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut sim = Sim::new(tiny_testbed(), |id| PingPong {
                rounds: 5,
                received: Vec::new(),
                is_master: id == NodeId(0),
            });
            sim.run_until(1e9);
            sim.process(NodeId(0)).received.clone()
        };
        assert_eq!(run(), run());
    }

    /// A process that ticks forever, counting ticks.
    struct Ticker {
        ticks: u64,
        quantum_work: u64,
    }
    impl Process for Ticker {
        type Msg = Msg;
        fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
            ctx.schedule_tick(0.0);
        }
        fn on_message(&mut self, _f: NodeId, _m: Msg, _ctx: &mut Ctx<Msg>) {}
        fn on_tick(&mut self, ctx: &mut Ctx<Msg>) {
            self.ticks += 1;
            ctx.work(self.quantum_work);
            ctx.schedule_tick(0.0);
        }
    }

    #[test]
    fn work_charging_controls_tick_rate() {
        // 1000 units/tick at 1000 u/s (dedicated) => 1 tick per second
        let mut sim = Sim::new(tiny_testbed(), |_| Ticker {
            ticks: 0,
            quantum_work: 1000,
        });
        sim.run_until(10.0);
        let t = sim.process(NodeId(1)).ticks;
        assert!((9..=11).contains(&t), "{t} ticks in 10 s");
    }

    #[test]
    fn shared_host_runs_slower_than_dedicated() {
        let mut tb = tiny_testbed();
        tb.hosts[1].load = Some(gridsat_nws::TraceConfig {
            mean_availability: 0.5,
            ..Default::default()
        });
        let mut sim = Sim::new(tb, |_| Ticker {
            ticks: 0,
            quantum_work: 1000,
        });
        sim.run_until(100.0);
        let dedicated = sim.process(NodeId(0)).ticks;
        let shared = sim.process(NodeId(1)).ticks;
        assert!(
            (shared as f64) < dedicated as f64 * 0.75,
            "shared {shared} vs dedicated {dedicated}"
        );
    }

    #[test]
    fn late_node_up_and_down_window() {
        let mut tb = tiny_testbed();
        tb.hosts[1] = tb.hosts[1].clone().with_window(5.0, 8.0);
        let mut sim = Sim::new(tb, |_| Ticker {
            ticks: 0,
            quantum_work: 1000,
        });
        sim.run_until(20.0);
        let t = sim.process(NodeId(1)).ticks;
        // only alive from t=5 to t=8
        assert!((2..=4).contains(&t), "{t}");
    }

    #[test]
    fn messages_to_down_nodes_are_dropped() {
        struct Spammer;
        impl Process for Spammer {
            type Msg = Msg;
            fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
                if ctx.me() == NodeId(0) {
                    for i in 0..5 {
                        ctx.send(NodeId(1), Msg::Ping(i));
                    }
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: Msg, _c: &mut Ctx<Msg>) {}
            fn on_tick(&mut self, _c: &mut Ctx<Msg>) {}
        }
        let mut tb = tiny_testbed();
        tb.hosts[1] = tb.hosts[1].clone().with_window(100.0, 200.0); // not up yet
        let mut sim = Sim::new(tb, |_| Spammer);
        sim.run_until(10.0);
        assert_eq!(sim.stats.messages_dropped(), 5);
        assert_eq!(sim.stats.dropped_dead_peer, 5);
        assert_eq!(sim.stats.messages_delivered, 0);
    }

    /// Sends five pings from node 0 at startup (reused by the drop tests).
    struct Spam5;
    impl Process for Spam5 {
        type Msg = Msg;
        fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
            if ctx.me() == NodeId(0) {
                for i in 0..5 {
                    ctx.send(NodeId(1), Msg::Ping(i));
                }
            }
        }
        fn on_message(&mut self, _f: NodeId, _m: Msg, _c: &mut Ctx<Msg>) {}
        fn on_tick(&mut self, _c: &mut Ctx<Msg>) {}
    }

    #[test]
    fn inflight_cap_drops_count_as_capacity() {
        let mut sim = Sim::new(tiny_testbed(), |_| Spam5);
        sim.set_inflight_cap(2);
        sim.run_until(10.0);
        assert_eq!(sim.stats.dropped_capacity, 3);
        assert_eq!(sim.stats.dropped_link_down, 0);
        assert_eq!(sim.stats.dropped_dead_peer, 0);
        assert_eq!(sim.stats.messages_delivered, 2);
        assert_eq!(sim.stats.messages_dropped(), 3);
    }

    #[test]
    fn downed_link_drops_count_as_link_down() {
        let mut sim = Sim::new(tiny_testbed(), |_| Spam5);
        sim.set_link_down(NodeId(1), NodeId(0)); // either order works
        sim.run_until(10.0);
        assert_eq!(sim.stats.dropped_link_down, 5);
        assert_eq!(sim.stats.messages_delivered, 0);
        // restoring the link lets a fresh sim (same spec) deliver again
        let mut sim2 = Sim::new(tiny_testbed(), |_| Spam5);
        sim2.set_link_down(NodeId(0), NodeId(1));
        sim2.set_link_up(NodeId(1), NodeId(0));
        sim2.run_until(10.0);
        assert_eq!(sim2.stats.dropped_link_down, 0);
        assert_eq!(sim2.stats.messages_delivered, 5);
    }

    #[test]
    fn drop_reasons_surface_in_sim_stats() {
        let mut sim = Sim::new(tiny_testbed(), |_| Spam5);
        sim.set_inflight_cap(1);
        sim.run_until(10.0);
        assert_eq!(sim.stats.dropped_capacity, 4);
        assert_eq!(sim.stats.dropped_link_down, 0);
        assert_eq!(sim.stats.dropped_dead_peer, 0);
        assert_eq!(sim.stats.messages_dropped(), 4);
        assert_eq!(sim.stats.messages_delivered, 1);
    }

    #[test]
    fn obs_captures_sends_deliveries_and_node_lifecycle() {
        let (obs, ring) = Obs::ring(1024);
        let mut sim = Sim::new(tiny_testbed(), |id| PingPong {
            rounds: 2,
            received: Vec::new(),
            is_master: id == NodeId(0),
        });
        sim.set_obs(obs);
        sim.run_until(1e9);
        let events = ring.lock().unwrap().events();
        let count = |k: &str| events.iter().filter(|e| e.event.kind() == k).count();
        assert_eq!(count("node_up"), 2);
        assert_eq!(count("msg_send"), 4);
        assert_eq!(count("msg_deliver"), 4);
        assert_eq!(count("msg_drop"), 0);
        // deliveries carry sim time and byte sizes
        let deliver = events
            .iter()
            .find(|e| e.event.kind() == "msg_deliver")
            .unwrap();
        assert!(deliver.t_s > 0.0);
        match &deliver.event {
            ObsEvent::MsgDeliver { bytes, .. } => assert_eq!(*bytes, 64),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_until_deadline_pauses_and_resumes() {
        let mut sim = Sim::new(tiny_testbed(), |_| Ticker {
            ticks: 0,
            quantum_work: 1000,
        });
        assert_eq!(sim.run_until(3.0), RunEnd::Deadline);
        let a = sim.process(NodeId(0)).ticks;
        assert_eq!(sim.run_until(6.0), RunEnd::Deadline);
        let b = sim.process(NodeId(0)).ticks;
        assert!(b > a);
        assert!((sim.now() - 6.0).abs() < 0.01);
    }

    #[test]
    fn run_until_distinguishes_shutdown_from_exhaustion() {
        let mut sim = Sim::new(tiny_testbed(), |id| PingPong {
            rounds: 2,
            received: Vec::new(),
            is_master: id == NodeId(0),
        });
        assert_eq!(sim.run_until(1e9), RunEnd::Shutdown);
        assert_eq!(sim.last_run_end(), Some(RunEnd::Shutdown));

        // Spam5 never ticks or replies: after the five deliveries the
        // queue drains with nobody having asked to stop.
        let mut sim = Sim::new(tiny_testbed(), |_| Spam5);
        assert_eq!(sim.run_until(1e9), RunEnd::Exhausted);
        assert_eq!(sim.last_run_end(), Some(RunEnd::Exhausted));
    }

    #[test]
    fn chaos_loss_drops_sends_and_counts_them() {
        let mut sim = Sim::new(tiny_testbed(), |_| Spam5);
        sim.set_net_chaos(NetChaos {
            loss_prob: 1.0,
            seed: 7,
            ..NetChaos::default()
        });
        sim.run_until(10.0);
        assert_eq!(sim.stats.dropped_chaos, 5);
        assert_eq!(sim.stats.messages_delivered, 0);
        assert_eq!(sim.stats.messages_dropped(), 5);
    }

    #[test]
    fn chaos_delay_spikes_postpone_but_deliver() {
        let run = |chaos: Option<NetChaos>| {
            let mut sim = Sim::new(tiny_testbed(), |_| Spam5);
            if let Some(c) = chaos {
                sim.set_net_chaos(c);
            }
            sim.run_until(1e9);
            (sim.stats, sim.now())
        };
        let (calm, t_calm) = run(None);
        let (spiky, t_spiky) = run(Some(NetChaos {
            delay_prob: 1.0,
            delay_extra_s: 5.0,
            seed: 7,
            ..NetChaos::default()
        }));
        assert_eq!(calm.messages_delivered, 5);
        assert_eq!(spiky.messages_delivered, 5, "spikes delay, never lose");
        assert_eq!(spiky.delay_spikes, 5);
        assert!(t_spiky >= t_calm + 5.0, "{t_spiky} vs {t_calm}");
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut sim = Sim::new(tiny_testbed(), |id| PingPong {
                rounds: 20,
                received: Vec::new(),
                is_master: id == NodeId(0),
            });
            sim.set_net_chaos(NetChaos {
                loss_prob: 0.3,
                seed,
                ..NetChaos::default()
            });
            sim.run_until(1e9);
            sim.stats
        };
        assert_eq!(run(42), run(42));
        // and a lossy ping-pong without retransmission eventually stalls
        assert!(run(42).dropped_chaos > 0);
    }

    /// A message of a chosen model size, tagged for its receiver.
    #[derive(Clone, Debug)]
    struct Blob {
        tag: u32,
        bytes: usize,
    }
    impl MessageSize for Blob {
        fn size_bytes(&self) -> usize {
            self.bytes
        }
        fn label(&self) -> String {
            format!("blob{}", self.tag)
        }
    }

    /// Node 0 sends `batches[0]` at start and `batches[k]` at its k-th
    /// tick, one tick a second; every node records each arrival as
    /// (time, tag), and with `echo` a worker answers every blob with a
    /// small one back to its sender.
    struct Courier {
        batches: Vec<Vec<(NodeId, Blob)>>,
        next: usize,
        echo: bool,
        got: Vec<(f64, u32)>,
    }
    impl Courier {
        fn send_batch(&mut self, ctx: &mut Ctx<Blob>) {
            for (to, blob) in self.batches[self.next].clone() {
                ctx.send(to, blob);
            }
            self.next += 1;
            if self.next < self.batches.len() {
                ctx.schedule_tick(1.0);
            }
        }
    }
    impl Process for Courier {
        type Msg = Blob;
        fn on_start(&mut self, ctx: &mut Ctx<Blob>) {
            if ctx.me() == NodeId(0) {
                self.send_batch(ctx);
            }
        }
        fn on_message(&mut self, from: NodeId, msg: Blob, ctx: &mut Ctx<Blob>) {
            self.got.push((ctx.now(), msg.tag));
            if self.echo && ctx.me() != NodeId(0) {
                ctx.send(
                    from,
                    Blob {
                        bytes: SMALL,
                        ..msg
                    },
                );
            }
        }
        fn on_tick(&mut self, ctx: &mut Ctx<Blob>) {
            self.send_batch(ctx);
        }
    }

    /// A master at one site and `workers` dedicated hosts at another:
    /// every send from node 0 crosses the same WAN link model.
    fn star_testbed(workers: usize) -> Testbed {
        let mut hosts =
            vec![HostSpec::new("m", crate::topology::Site::Ucsd, 1000.0, 1 << 20).dedicated()];
        for i in 0..workers {
            hosts.push(
                HostSpec::new(format!("w{i}"), crate::topology::Site::Utk, 1000.0, 1 << 20)
                    .dedicated(),
            );
        }
        Testbed {
            hosts,
            net: Default::default(),
            load_seed: 1,
        }
    }

    fn courier_sim(workers: usize, batches: Vec<Vec<(NodeId, Blob)>>, echo: bool) -> Sim<Courier> {
        Sim::new(star_testbed(workers), |_| Courier {
            batches: batches.clone(),
            next: 0,
            echo,
            got: Vec::new(),
        })
    }

    const BIG: usize = 40_000; // 10 s on the 4,000 B/s WAN
    const SMALL: usize = 64;

    #[test]
    fn a_small_message_waits_for_a_large_one_on_its_link() {
        let batch = vec![
            (NodeId(1), Blob { tag: 0, bytes: BIG }),
            (
                NodeId(1),
                Blob {
                    tag: 1,
                    bytes: SMALL,
                },
            ),
        ];
        let mut sim = courier_sim(1, vec![batch], false);
        sim.run_until(1e9);
        let got = &sim.process(NodeId(1)).got;
        let tags: Vec<u32> = got.iter().map(|g| g.1).collect();
        assert_eq!(tags, [0, 1], "arrivals in send order");
        // the small one alone would land after 0.086 s; held, it lands
        // one microsecond after the large one
        assert!(got[0].0 > 10.0, "{got:?}");
        assert!((got[1].0 - got[0].0 - 1e-6).abs() < 1e-9, "{got:?}");
    }

    #[test]
    fn a_delay_spike_on_a_link_holds_back_its_later_messages() {
        let batches = vec![
            vec![(
                NodeId(1),
                Blob {
                    tag: 0,
                    bytes: SMALL,
                },
            )],
            vec![(
                NodeId(1),
                Blob {
                    tag: 1,
                    bytes: SMALL,
                },
            )],
        ];
        let mut sim = courier_sim(1, batches, false);
        // the first send (at 0 s) is spiked by 5 s, the second (at 1 s)
        // goes out on a calm network
        sim.set_net_chaos(NetChaos {
            delay_prob: 1.0,
            delay_extra_s: 5.0,
            ..NetChaos::default()
        });
        sim.run_until(0.5);
        sim.set_net_chaos(NetChaos::default());
        sim.run_until(1e9);
        assert_eq!(sim.stats.delay_spikes, 1);
        let got = &sim.process(NodeId(1)).got;
        let tags: Vec<u32> = got.iter().map(|g| g.1).collect();
        assert_eq!(tags, [0, 1], "the spike does not let the second overtake");
        assert!(got[0].0 > 5.0 && got[1].0 > got[0].0, "{got:?}");
    }

    #[test]
    fn another_link_is_not_held_back() {
        let batch = vec![
            (NodeId(1), Blob { tag: 0, bytes: BIG }),
            (
                NodeId(2),
                Blob {
                    tag: 1,
                    bytes: SMALL,
                },
            ),
        ];
        let mut sim = courier_sim(2, vec![batch], false);
        sim.run_until(1e9);
        let (big, small) = (
            sim.process(NodeId(1)).got[0].0,
            sim.process(NodeId(2)).got[0].0,
        );
        assert!(big > 10.0, "{big}");
        assert!(
            (small - (0.070 + SMALL as f64 / 4000.0)).abs() < 1e-3,
            "{small}"
        );
    }

    #[test]
    fn fifo_clocks_exist_only_for_links_used() {
        // node 0 sends to every worker twice, each worker answers: 2 × 8
        // directed links carry traffic among 9 × 9 node pairs
        let workers = 8;
        let batch: Vec<(NodeId, Blob)> = (1..=workers as u32)
            .map(|w| {
                (
                    NodeId(w),
                    Blob {
                        tag: w,
                        bytes: SMALL,
                    },
                )
            })
            .collect();
        let mut sim = courier_sim(workers, vec![batch.clone(), batch], true);
        sim.run_until(1e9);
        assert_eq!(sim.stats.messages_delivered, 4 * workers as u64);
        assert_eq!(sim.last_delivery.len(), 2 * workers);
    }

    #[test]
    fn scheduled_link_flap_cuts_and_heals() {
        /// Sends one ping to node 1 every second.
        struct Beacon;
        impl Process for Beacon {
            type Msg = Msg;
            fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
                if ctx.me() == NodeId(0) {
                    ctx.schedule_tick(1.0);
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: Msg, _c: &mut Ctx<Msg>) {}
            fn on_tick(&mut self, ctx: &mut Ctx<Msg>) {
                ctx.send(NodeId(1), Msg::Ping(0));
                ctx.schedule_tick(1.0);
            }
        }
        let mut sim = Sim::new(tiny_testbed(), |_| Beacon);
        sim.schedule_link_down(NodeId(0), NodeId(1), 2.5);
        sim.schedule_link_up(NodeId(0), NodeId(1), 5.5);
        sim.run_until(10.0);
        // beacons at 1..=10 s; those at 3, 4, 5 s hit the cut link, and
        // the one sent at 10 s is still in flight at the deadline
        assert_eq!(sim.stats.dropped_link_down, 3);
        assert_eq!(sim.stats.messages_delivered, 6);
    }

    #[test]
    fn scheduled_node_restart_reenters_on_start() {
        /// Counts how many times it was started.
        struct Phoenix {
            starts: u64,
        }
        impl Process for Phoenix {
            type Msg = Msg;
            fn on_start(&mut self, _ctx: &mut Ctx<Msg>) {
                self.starts += 1;
            }
            fn on_message(&mut self, _f: NodeId, _m: Msg, _c: &mut Ctx<Msg>) {}
            fn on_tick(&mut self, _c: &mut Ctx<Msg>) {}
        }
        let mut sim = Sim::new(tiny_testbed(), |_| Phoenix { starts: 0 });
        sim.schedule_node_down(NodeId(1), 3.0);
        sim.schedule_node_up(NodeId(1), 6.0);
        // redundant admin events are no-ops, not double starts/stops
        sim.schedule_node_up(NodeId(1), 7.0);
        sim.schedule_node_down(NodeId(0), 4.0);
        sim.schedule_node_down(NodeId(0), 5.0);
        sim.run_until(20.0);
        assert_eq!(sim.process(NodeId(1)).starts, 2);
        assert_eq!(sim.process(NodeId(0)).starts, 1);
    }
}

//! The bounded [`RingBuffer`] recorder and the cloneable [`Obs`] handle
//! threaded through the solver, engine, master and client.
//!
//! The handle's disabled state is a bare `None`, so an instrumented hot
//! path pays one branch and never constructs the event (payload closures
//! run only when a ring is installed). This is what keeps the solver-core
//! benchmarks flat when tracing is off.

use crate::event::{Event, TimedEvent};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// A bounded ring buffer of events: when full, the oldest events are
/// evicted and counted, so a runaway trace can never exhaust memory.
#[derive(Debug)]
pub struct RingBuffer {
    cap: usize,
    buf: VecDeque<TimedEvent>,
    evicted: u64,
}

impl RingBuffer {
    pub fn new(cap: usize) -> RingBuffer {
        RingBuffer {
            cap: cap.max(1),
            buf: VecDeque::new(),
            evicted: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Oldest events evicted to respect the bound.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.buf.iter().cloned().collect()
    }

    /// Serialize the retained events as JSONL.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.buf {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
        out
    }

    fn record(&mut self, ev: TimedEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(ev);
    }
}

/// Per-node causal clock state. `clock` is the last Lamport sequence
/// number issued on the node; `cause` is the register holding the seq of
/// the event the node is currently reacting to (the in-flight message
/// delivery, a retransmit decision, ...); `anchor` is a sticky cause the
/// engine restores between dispatches so long-running local work (solver
/// ticks) stays chained to the assignment that started it.
#[derive(Clone, Copy, Debug, Default)]
struct NodeClock {
    clock: u64,
    cause: u64,
    anchor: u64,
}

/// Grow-on-demand table of per-node clocks, shared by every clone of a
/// causal [`Obs`] handle.
#[derive(Debug, Default)]
struct ClockTable {
    nodes: Vec<NodeClock>,
}

impl ClockTable {
    fn node(&mut self, node: u32) -> &mut NodeClock {
        let i = node as usize;
        if self.nodes.len() <= i {
            self.nodes.resize(i + 1, NodeClock::default());
        }
        &mut self.nodes[i]
    }
}

fn lock_clocks(clocks: &Arc<Mutex<ClockTable>>) -> std::sync::MutexGuard<'_, ClockTable> {
    match clocks.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Cloneable handle to an optional shared ring. `Obs::default()` is the
/// disabled no-op; every instrumented component holds one. A *causal*
/// handle additionally carries a shared `ClockTable` and stamps every
/// event with a per-node Lamport `seq` and a `cause` edge; unclocked
/// handles write `seq == cause == 0`.
#[derive(Clone, Default)]
pub struct Obs {
    ring: Option<Arc<Mutex<RingBuffer>>>,
    clocks: Option<Arc<Mutex<ClockTable>>>,
}

impl Obs {
    /// A handle backed by a fresh bounded ring buffer; the second return
    /// value keeps typed access for export after the run.
    pub fn ring(cap: usize) -> (Obs, Arc<Mutex<RingBuffer>>) {
        let ring = Arc::new(Mutex::new(RingBuffer::new(cap)));
        (
            Obs {
                ring: Some(ring.clone()),
                clocks: None,
            },
            ring,
        )
    }

    /// Like [`Obs::ring`], but with a causal clock table installed so
    /// every emitted event carries Lamport `seq`/`cause` stamps.
    pub fn causal_ring(cap: usize) -> (Obs, Arc<Mutex<RingBuffer>>) {
        let (obs, ring) = Obs::ring(cap);
        (obs.causal(), ring)
    }

    /// Attach a fresh causal clock table to this handle (no-op on a
    /// disabled handle). All clones taken *after* this call share the
    /// table; clones taken before keep stamping `seq == 0`.
    pub fn causal(mut self) -> Obs {
        if self.ring.is_some() {
            self.clocks = Some(Arc::new(Mutex::new(ClockTable::default())));
        }
        self
    }

    /// Is a ring installed? Callers with expensive pre-computation can
    /// guard on this; simple payloads should just use [`Obs::emit`].
    #[inline]
    pub fn enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Record an event. The payload closure is evaluated only when a
    /// ring is installed, so the disabled path costs a single branch.
    /// On a causal handle the event's `cause` is the node's current
    /// cause register (see [`Obs::set_cause`]).
    #[inline]
    pub fn emit(&self, t_s: f64, node: u32, event: impl FnOnce() -> Event) {
        self.emit_inner(t_s, node, None, event);
    }

    /// [`Obs::emit`], returning the assigned Lamport `seq` (0 when
    /// disabled or unclocked). Use at message-send sites so the matching
    /// deliver can carry the send's seq as its cause.
    #[inline]
    pub fn emit_seq(&self, t_s: f64, node: u32, event: impl FnOnce() -> Event) -> u64 {
        self.emit_inner(t_s, node, None, event)
    }

    /// Emit with an explicit `cause` (bypassing the register) and return
    /// the assigned seq. Used for `msg_deliver` (cause = the send's seq,
    /// resolved on the sending node) and retransmit chains.
    #[inline]
    pub fn emit_caused(
        &self,
        t_s: f64,
        node: u32,
        cause: u64,
        event: impl FnOnce() -> Event,
    ) -> u64 {
        self.emit_inner(t_s, node, Some(cause), event)
    }

    fn emit_inner(
        &self,
        t_s: f64,
        node: u32,
        cause: Option<u64>,
        event: impl FnOnce() -> Event,
    ) -> u64 {
        let Some(ring) = &self.ring else {
            return 0;
        };
        let (seq, cause) = match &self.clocks {
            Some(clocks) => {
                let mut table = lock_clocks(clocks);
                let nc = table.node(node);
                nc.clock += 1;
                (nc.clock, cause.unwrap_or(nc.cause))
            }
            None => (0, 0),
        };
        let ev = TimedEvent {
            t_s,
            node,
            seq,
            cause,
            event: event(),
        };
        // a panic while the ring's lock was held poisons it; keep
        // recording rather than silently disabling the trace
        match ring.lock() {
            Ok(mut guard) => guard.record(ev),
            Err(poisoned) => poisoned.into_inner().record(ev),
        }
        seq
    }

    /// Lamport receive rule: fold the sender's `send_seq` into `node`'s
    /// clock so the deliver event stamped next is ordered after the send.
    #[inline]
    pub fn recv_merge(&self, node: u32, send_seq: u64) {
        if let Some(clocks) = &self.clocks {
            let mut table = lock_clocks(clocks);
            let nc = table.node(node);
            nc.clock = nc.clock.max(send_seq);
        }
    }

    /// Set `node`'s cause register: subsequent [`Obs::emit`]s on the node
    /// record `seq` as their cause (until the register changes).
    #[inline]
    pub fn set_cause(&self, node: u32, seq: u64) {
        if let Some(clocks) = &self.clocks {
            lock_clocks(clocks).node(node).cause = seq;
        }
    }

    /// Read `node`'s current cause register (0 when unclocked).
    #[inline]
    pub fn cause_of(&self, node: u32) -> u64 {
        match &self.clocks {
            Some(clocks) => lock_clocks(clocks).node(node).cause,
            None => 0,
        }
    }

    /// Make the current cause register sticky: the engine restores it
    /// between dispatches (see [`Obs::restore_anchor`]), so local work
    /// spread over many ticks stays chained to one originating event
    /// (e.g. the delivery that assigned the subproblem).
    #[inline]
    pub fn anchor_current(&self, node: u32) {
        if let Some(clocks) = &self.clocks {
            let mut table = lock_clocks(clocks);
            let nc = table.node(node);
            nc.anchor = nc.cause;
        }
    }

    /// Drop `node`'s sticky anchor (the work it chained to is finished).
    #[inline]
    pub fn clear_anchor(&self, node: u32) {
        if let Some(clocks) = &self.clocks {
            lock_clocks(clocks).node(node).anchor = 0;
        }
    }

    /// Reset `node`'s cause register to its sticky anchor (0 when no
    /// anchor is set). The engine calls this after every handler
    /// dispatch so a deliver's seq doesn't leak into unrelated events.
    #[inline]
    pub fn restore_anchor(&self, node: u32) {
        if let Some(clocks) = &self.clocks {
            let mut table = lock_clocks(clocks);
            let nc = table.node(node);
            nc.cause = nc.anchor;
        }
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conflict(t_s: f64, level: u64) -> TimedEvent {
        TimedEvent {
            t_s,
            node: 1,
            seq: 0,
            cause: 0,
            event: Event::Conflict { level },
        }
    }

    #[test]
    fn disabled_handle_never_runs_the_payload() {
        let obs = Obs::default();
        let mut ran = false;
        obs.emit(0.0, 0, || {
            ran = true;
            Event::NodeUp
        });
        assert!(!ran);
        assert!(!obs.enabled());
    }

    #[test]
    fn ring_records_and_exports() {
        let (obs, ring) = Obs::ring(16);
        assert!(obs.enabled());
        obs.emit(1.0, 2, || Event::Conflict { level: 3 });
        obs.emit(2.0, 2, || Event::NodeDown);
        let ring = ring.lock().unwrap();
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.to_jsonl().lines().count(), 2);
        assert_eq!(ring.events()[0].t_s, 1.0);
    }

    #[test]
    fn ring_evicts_oldest_when_full() {
        let mut ring = RingBuffer::new(3);
        for i in 0..5 {
            ring.record(conflict(i as f64, i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.evicted(), 2);
        let kept: Vec<f64> = ring.events().iter().map(|e| e.t_s).collect();
        assert_eq!(kept, [2.0, 3.0, 4.0]);
    }

    #[test]
    fn clones_share_one_sink() {
        let (obs, ring) = Obs::ring(8);
        let a = obs.clone();
        let b = obs;
        a.emit(0.0, 1, || Event::NodeUp);
        b.emit(1.0, 2, || Event::NodeDown);
        assert_eq!(ring.lock().unwrap().len(), 2);
    }

    #[test]
    fn obs_handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Obs>();
    }

    #[test]
    fn unclocked_ring_stamps_zero() {
        let (obs, ring) = Obs::ring(8);
        obs.emit(0.0, 1, || Event::NodeUp);
        let ev = &ring.lock().unwrap().events()[0];
        assert_eq!((ev.seq, ev.cause), (0, 0));
    }

    #[test]
    fn causal_ring_ticks_per_node_clocks() {
        let (obs, ring) = Obs::causal_ring(16);
        assert_eq!(obs.emit_seq(0.0, 1, || Event::NodeUp), 1);
        assert_eq!(obs.emit_seq(0.1, 2, || Event::NodeUp), 1);
        assert_eq!(obs.emit_seq(0.2, 1, || Event::NodeDown), 2);
        let evs = ring.lock().unwrap().events();
        assert_eq!(
            evs.iter().map(|e| (e.node, e.seq)).collect::<Vec<_>>(),
            [(1, 1), (2, 1), (1, 2)]
        );
    }

    #[test]
    fn recv_merge_orders_deliver_after_send() {
        let (obs, ring) = Obs::causal_ring(16);
        // node 0 has already issued 9 local events
        for _ in 0..9 {
            obs.emit(0.0, 0, || Event::NodeUp);
        }
        let send = obs.emit_seq(1.0, 0, || Event::NodeUp);
        assert_eq!(send, 10);
        // receiver's clock is behind; the merge pulls it forward so the
        // deliver's seq exceeds the send's
        obs.recv_merge(1, send);
        let deliver = obs.emit_caused(2.0, 1, send, || Event::NodeDown);
        assert!(deliver > send);
        let last = ring.lock().unwrap().events().pop().unwrap();
        assert_eq!(last.cause, send);
    }

    #[test]
    fn cause_register_and_anchor() {
        let (obs, ring) = Obs::causal_ring(16);
        obs.set_cause(1, 7);
        assert_eq!(obs.cause_of(1), 7);
        obs.anchor_current(1);
        obs.emit(0.0, 1, || Event::NodeUp); // cause = register = 7
        obs.set_cause(1, 9);
        obs.emit(1.0, 1, || Event::NodeUp); // cause = 9
        obs.restore_anchor(1);
        obs.emit(2.0, 1, || Event::NodeUp); // back to the anchor, 7
        obs.clear_anchor(1);
        obs.restore_anchor(1);
        obs.emit(3.0, 1, || Event::NodeUp); // anchor cleared -> 0
        let causes: Vec<u64> = ring
            .lock()
            .unwrap()
            .events()
            .iter()
            .map(|e| e.cause)
            .collect();
        assert_eq!(causes, [7, 9, 7, 0]);
    }
}

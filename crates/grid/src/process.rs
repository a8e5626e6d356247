//! The process abstraction GridSAT components are written against.
//!
//! A [`Process`] is a reactive state machine: it receives messages and
//! compute ticks, and emits [`Action`]s. The same process code runs under
//! the deterministic discrete-event engine ([`crate::engine::Sim`]) and
//! the real-thread backend ([`crate::threads::ThreadGrid`]).

use crate::topology::NodeId;

/// Messages must report their (model) size so the network can charge
/// transfer time — the paper's split messages are "up to 100s of MBytes"
/// and dominate communication cost.
pub trait MessageSize {
    fn size_bytes(&self) -> usize;

    /// Short human-readable label for message traces (Figure 3).
    fn label(&self) -> String {
        "msg".into()
    }

    /// Fault injection: flip bits of this message's byte payload, chosen
    /// by `seed`. Returns `true` if the message carries real bytes that
    /// were damaged (deliver it mangled — the receiver's checksum must
    /// catch it), `false` if it is scalar-only (the engine then models
    /// header corruption by dropping the whole message). Default: no
    /// byte payload.
    fn corrupt(&mut self, seed: u64) -> bool {
        let _ = seed;
        false
    }

    /// Receiver-side integrity check of the byte payload, if any.
    /// Messages without a byte payload are vacuously intact. The
    /// reliability layer consults this before acknowledging.
    fn payload_intact(&self) -> bool {
        true
    }
}

/// What a process can ask its environment to do.
#[derive(Debug)]
pub enum Action<M> {
    /// Send a message to another node (point-to-point; the paper's
    /// client-to-client split transfers use exactly this).
    Send { to: NodeId, msg: M },
    /// Request the next compute tick `delay_s` seconds after the current
    /// event (plus any work charged in this tick).
    ScheduleTick { delay_s: f64 },
    /// Charge `units` of solver work to this tick; the engine converts
    /// to simulated time via the host's current effective speed.
    Work { units: u64 },
    /// Stop receiving ticks (the process keeps receiving messages).
    Idle,
    /// Terminate the whole run (only the master does this).
    Shutdown,
}

/// Immutable view of the executing node, passed to every callback.
#[derive(Clone, Copy, Debug)]
pub struct NodeInfo {
    pub id: NodeId,
    /// Peak speed in work units per second.
    pub speed: f64,
    /// Memory capacity in model bytes.
    pub memory: usize,
    /// Current simulated time in seconds.
    pub now: f64,
    /// Most recent CPU-availability sample for this host (1.0 = idle).
    pub availability: f64,
}

/// Context handed to process callbacks: collects actions.
pub struct Ctx<M> {
    pub info: NodeInfo,
    actions: Vec<Action<M>>,
}

impl<M> Ctx<M> {
    pub fn new(info: NodeInfo) -> Ctx<M> {
        Ctx::with_buffer(info, Vec::new())
    }

    /// Like [`Ctx::new`], but collecting into `buffer` (emptied first).
    /// A driver that activates processes in a loop passes the vector it
    /// got back from the previous [`take_actions`](Ctx::take_actions), so
    /// the steady state allocates nothing per activation.
    pub fn with_buffer(info: NodeInfo, mut buffer: Vec<Action<M>>) -> Ctx<M> {
        buffer.clear();
        Ctx {
            info,
            actions: buffer,
        }
    }

    /// Current simulated (or wall) time in seconds.
    pub fn now(&self) -> f64 {
        self.info.now
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.info.id
    }

    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    pub fn schedule_tick(&mut self, delay_s: f64) {
        self.actions.push(Action::ScheduleTick { delay_s });
    }

    pub fn work(&mut self, units: u64) {
        self.actions.push(Action::Work { units });
    }

    pub fn idle(&mut self) {
        self.actions.push(Action::Idle);
    }

    pub fn shutdown(&mut self) {
        self.actions.push(Action::Shutdown);
    }

    /// Drain the collected actions (engine-side).
    pub fn take_actions(&mut self) -> Vec<Action<M>> {
        std::mem::take(&mut self.actions)
    }
}

/// A node's behaviour. `M` is the protocol message type.
pub trait Process: Send {
    type Msg: MessageSize + Clone + Send;

    /// Called once when the node comes up.
    fn on_start(&mut self, ctx: &mut Ctx<Self::Msg>);

    /// Called when a message arrives. Keep reactions light: buffer and
    /// handle heavy work on the next tick.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<Self::Msg>);

    /// Called when a requested compute tick fires.
    fn on_tick(&mut self, ctx: &mut Ctx<Self::Msg>);

    /// Called when the environment learns that `node` went away
    /// (connection loss, batch window expiry). Default: ignore.
    fn on_node_down(&mut self, node: NodeId, ctx: &mut Ctx<Self::Msg>) {
        let _ = (node, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Ping;
    impl MessageSize for Ping {
        fn size_bytes(&self) -> usize {
            8
        }
    }

    #[test]
    fn ctx_collects_actions_in_order() {
        let mut ctx: Ctx<Ping> = Ctx::new(NodeInfo {
            id: NodeId(3),
            speed: 1000.0,
            memory: 1 << 20,
            now: 1.5,
            availability: 1.0,
        });
        assert_eq!(ctx.me(), NodeId(3));
        assert_eq!(ctx.now(), 1.5);
        ctx.work(500);
        ctx.send(NodeId(0), Ping);
        ctx.schedule_tick(0.1);
        let actions = ctx.take_actions();
        assert_eq!(actions.len(), 3);
        assert!(matches!(actions[0], Action::Work { units: 500 }));
        assert!(matches!(actions[1], Action::Send { to: NodeId(0), .. }));
        assert!(matches!(actions[2], Action::ScheduleTick { .. }));
        assert!(ctx.take_actions().is_empty());
    }

    #[test]
    fn a_recycled_buffer_starts_empty_and_keeps_its_allocation() {
        let info = NodeInfo {
            id: NodeId(0),
            speed: 1.0,
            memory: 0,
            now: 0.0,
            availability: 1.0,
        };
        let mut ctx: Ctx<Ping> = Ctx::new(info);
        for _ in 0..8 {
            ctx.send(NodeId(1), Ping);
        }
        let used = ctx.take_actions();
        let (ptr, cap) = (used.as_ptr(), used.capacity());
        // stale actions in a handed-back buffer never leak into the next
        // activation
        let mut ctx: Ctx<Ping> = Ctx::with_buffer(info, used);
        ctx.idle();
        let actions = ctx.take_actions();
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], Action::Idle));
        assert_eq!((actions.as_ptr(), actions.capacity()), (ptr, cap));
    }
}

//! Real-thread backend: runs the same [`Process`] state machines on OS
//! threads with `std::sync::mpsc` channels, for genuine parallel execution
//! on one machine (the paper's algorithm, minus the simulated WAN).
//!
//! Timing comes from the wall clock, work is real solver compute, and
//! message transfer is channel send — so this backend demonstrates real
//! speedups while the discrete-event engine provides the paper-scale,
//! reproducible experiments.

use crate::process::{Action, Ctx, NodeInfo, Process};
use crate::topology::NodeId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

enum Envelope<M> {
    Msg { from: NodeId, msg: M },
    Stop,
}

/// Runs one process per thread until some process calls
/// [`Ctx::shutdown`] or the wall-clock budget expires.
pub struct ThreadGrid<P: Process> {
    handles: Vec<std::thread::JoinHandle<P>>,
    senders: Vec<Sender<Envelope<P::Msg>>>,
    shutdown: Arc<AtomicBool>,
}

impl<P: Process + 'static> ThreadGrid<P> {
    /// Spawn `n` nodes; `make` builds each process. All nodes report the
    /// given `speed`/`memory` in their [`NodeInfo`] (real hardware is
    /// homogeneous here).
    pub fn spawn(n: usize, memory: usize, mut make: impl FnMut(NodeId) -> P) -> ThreadGrid<P> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut senders = Vec::with_capacity(n);
        let mut receivers: Vec<Receiver<Envelope<P::Msg>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        // the router lets any node send to any other
        let router: Arc<Vec<Sender<Envelope<P::Msg>>>> = Arc::new(senders.clone());
        let start = Instant::now();
        let mut handles = Vec::with_capacity(n);
        for (i, rx) in receivers.into_iter().enumerate() {
            let id = NodeId(i as u32);
            let mut proc = make(id);
            let router = Arc::clone(&router);
            let shutdown = Arc::clone(&shutdown);
            handles.push(std::thread::spawn(move || {
                let info = |now: f64| NodeInfo {
                    id,
                    speed: 1.0,
                    memory,
                    now,
                    availability: 1.0,
                };
                let mut ctx = Ctx::new(info(0.0));
                proc.on_start(&mut ctx);
                let mut pending_tick = apply(
                    &router, id, &mut ctx, &shutdown, /*tick_pending=*/ false,
                );
                loop {
                    if shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    // drain all pending messages
                    while let Ok(env) = rx.try_recv() {
                        match env {
                            Envelope::Stop => return proc,
                            Envelope::Msg { from, msg } => {
                                let mut ctx = Ctx::new(info(start.elapsed().as_secs_f64()));
                                proc.on_message(from, msg, &mut ctx);
                                pending_tick |=
                                    apply(&router, id, &mut ctx, &shutdown, pending_tick);
                            }
                        }
                    }
                    if pending_tick {
                        let mut ctx = Ctx::new(info(start.elapsed().as_secs_f64()));
                        proc.on_tick(&mut ctx);
                        pending_tick = apply(&router, id, &mut ctx, &shutdown, false);
                    } else {
                        // idle: block briefly for the next message
                        match rx.recv_timeout(std::time::Duration::from_millis(2)) {
                            Ok(Envelope::Stop) => return proc,
                            Ok(Envelope::Msg { from, msg }) => {
                                let mut ctx = Ctx::new(info(start.elapsed().as_secs_f64()));
                                proc.on_message(from, msg, &mut ctx);
                                pending_tick |=
                                    apply(&router, id, &mut ctx, &shutdown, pending_tick);
                            }
                            Err(_) => {}
                        }
                    }
                }
                proc
            }));
        }
        ThreadGrid {
            handles,
            senders,
            shutdown,
        }
    }

    /// Wait for shutdown (or the wall-clock timeout) and collect the
    /// final process states.
    pub fn join(self, timeout: std::time::Duration) -> Vec<P> {
        let deadline = Instant::now() + timeout;
        while !self.shutdown.load(Ordering::Relaxed) && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        self.shutdown.store(true, Ordering::Relaxed);
        for tx in &self.senders {
            let _ = tx.send(Envelope::Stop);
        }
        self.handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect()
    }
}

/// Apply actions in the thread backend. Returns whether a tick is wanted.
fn apply<M: Clone + Send>(
    router: &[Sender<Envelope<M>>],
    me: NodeId,
    ctx: &mut Ctx<M>,
    shutdown: &AtomicBool,
    mut tick_pending: bool,
) -> bool {
    for action in ctx.take_actions() {
        match action {
            Action::Send { to, msg } => {
                let _ = router[to.0 as usize].send(Envelope::Msg { from: me, msg });
            }
            Action::ScheduleTick { .. } => tick_pending = true,
            Action::Idle => tick_pending = false,
            Action::Work { .. } => {} // real time already elapsed
            Action::Shutdown => shutdown.store(true, Ordering::Relaxed),
        }
    }
    tick_pending
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::MessageSize;

    #[derive(Clone)]
    struct Num(u64);
    impl MessageSize for Num {
        fn size_bytes(&self) -> usize {
            8
        }
    }

    /// Worker computes a sum in chunks across ticks; master aggregates.
    struct SumWorker {
        target: u64,
        acc: u64,
        next: u64,
        is_master: bool,
        workers: u32,
        reports: u64,
    }

    impl Process for SumWorker {
        type Msg = Num;
        fn on_start(&mut self, ctx: &mut Ctx<Num>) {
            if !self.is_master {
                ctx.schedule_tick(0.0);
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: Num, ctx: &mut Ctx<Num>) {
            if self.is_master {
                self.acc += msg.0;
                self.reports += 1;
                if self.reports == u64::from(self.workers) {
                    ctx.shutdown();
                }
            }
        }
        fn on_tick(&mut self, ctx: &mut Ctx<Num>) {
            for _ in 0..1000 {
                if self.next <= self.target {
                    self.acc += self.next;
                    self.next += 1;
                }
            }
            ctx.work(1000);
            if self.next > self.target {
                ctx.send(NodeId(0), Num(self.acc));
                ctx.idle();
            } else {
                ctx.schedule_tick(0.0);
            }
        }
    }

    #[test]
    fn threaded_fanout_computes_and_shuts_down() {
        let workers = 3u32;
        let grid = ThreadGrid::spawn(1 + workers as usize, 1 << 20, |id| SumWorker {
            target: 10_000,
            acc: 0,
            next: 1,
            is_master: id == NodeId(0),
            workers,
            reports: 0,
        });
        let procs = grid.join(std::time::Duration::from_secs(10));
        let expected = 3 * (10_000u64 * 10_001 / 2);
        assert_eq!(procs[0].acc, expected);
        assert_eq!(procs.len(), 4);
    }
}

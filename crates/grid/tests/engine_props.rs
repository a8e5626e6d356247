//! Property tests for the discrete-event engine: delivery ordering,
//! determinism and timing invariants under randomized workloads.
//! Fixed-seed case loops; a failing assertion names its case seed.

use gridsat_cnf::rng::Rng;
use gridsat_grid::{Action, Ctx, HostSpec, MessageSize, NodeId, Process, Sim, Site, Testbed};

const CASES: u64 = 256;

/// `len` message sizes, each drawn from `bytes`.
fn arb_sizes(
    rng: &mut Rng,
    len: std::ops::Range<usize>,
    bytes: std::ops::Range<usize>,
) -> Vec<usize> {
    (0..rng.range_usize(len))
        .map(|_| rng.range_usize(bytes.clone()))
        .collect()
}

#[derive(Clone, Debug)]
struct Tagged {
    seq: u64,
    bytes: usize,
}
impl MessageSize for Tagged {
    fn size_bytes(&self) -> usize {
        self.bytes
    }
}

/// Node 0 sends a randomized burst of differently-sized messages to node
/// 1; node 1 records arrival order.
struct Sender {
    plan: Vec<usize>, // message sizes
    received: Vec<u64>,
}

impl Process for Sender {
    type Msg = Tagged;
    fn on_start(&mut self, ctx: &mut Ctx<Tagged>) {
        if ctx.me() == NodeId(0) {
            for (i, &bytes) in self.plan.iter().enumerate() {
                ctx.send(
                    NodeId(1),
                    Tagged {
                        seq: i as u64,
                        bytes,
                    },
                );
            }
        }
    }
    fn on_message(&mut self, _from: NodeId, msg: Tagged, _ctx: &mut Ctx<Tagged>) {
        self.received.push(msg.seq);
    }
    fn on_tick(&mut self, _ctx: &mut Ctx<Tagged>) {}
}

fn two_hosts() -> Testbed {
    Testbed {
        hosts: vec![
            HostSpec::new("a", Site::Ucsd, 1000.0, 1 << 20).dedicated(),
            HostSpec::new("b", Site::Utk, 1000.0, 1 << 20).dedicated(),
        ],
        net: Default::default(),
        load_seed: 3,
    }
}

/// Every node fires its share of a three-node plan at start-up, in plan
/// order; receivers record `(from, seq)` in arrival order.
struct Mesh {
    plan: Vec<(u32, u32, usize)>, // (from, to, bytes)
    received: Vec<(NodeId, u64)>,
}

impl Process for Mesh {
    type Msg = Tagged;
    fn on_start(&mut self, ctx: &mut Ctx<Tagged>) {
        for (i, &(from, to, bytes)) in self.plan.iter().enumerate() {
            if NodeId(from) == ctx.me() {
                ctx.send(
                    NodeId(to),
                    Tagged {
                        seq: i as u64,
                        bytes,
                    },
                );
            }
        }
    }
    fn on_message(&mut self, from: NodeId, msg: Tagged, _ctx: &mut Ctx<Tagged>) {
        self.received.push((from, msg.seq));
    }
    fn on_tick(&mut self, _ctx: &mut Ctx<Tagged>) {}
}

/// LAN between a and b, WAN to c: the two links out of one source differ
/// in both latency and bandwidth.
fn three_hosts() -> Testbed {
    Testbed {
        hosts: vec![
            HostSpec::new("a", Site::Ucsd, 1000.0, 1 << 20).dedicated(),
            HostSpec::new("b", Site::Ucsd, 1000.0, 1 << 20).dedicated(),
            HostSpec::new("c", Site::Utk, 1000.0, 1 << 20).dedicated(),
        ],
        net: Default::default(),
        load_seed: 3,
    }
}

/// FIFO holds per (source, destination) pair, not per source or per
/// destination: two sends A→B never overtake each other however
/// A→C and C→B traffic of other sizes is interleaved with them, and
/// nothing is lost or duplicated. This is the property the engine's
/// per-link last-delivery table exists for.
#[test]
fn fifo_holds_per_pair_under_interleaved_traffic() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let plan: Vec<(u32, u32, usize)> = (0..rng.range_usize(1..60))
            .map(|_| {
                let (from, to) = (rng.range_u32(0..3), rng.range_u32(0..3));
                (from, to, rng.range_usize(1..200_000))
            })
            .collect();
        let mut sim = Sim::new(three_hosts(), |_| Mesh {
            plan: plan.clone(),
            received: Vec::new(),
        });
        sim.run_until(1e7);
        let mut delivered = 0;
        for to in 0..3u32 {
            let received = &sim.process(NodeId(to)).received;
            delivered += received.len();
            for from in 0..3u32 {
                let got: Vec<u64> = received
                    .iter()
                    .filter(|(f, _)| *f == NodeId(from))
                    .map(|&(_, seq)| seq)
                    .collect();
                let sent: Vec<u64> = plan
                    .iter()
                    .enumerate()
                    .filter(|(_, &(f, t, _))| f == from && t == to)
                    .map(|(i, _)| i as u64)
                    .collect();
                assert_eq!(got, sent, "link {from}->{to}, case seed {seed}");
            }
        }
        assert_eq!(delivered, plan.len(), "case seed {seed}");
    }
}

/// Messages between one pair of nodes arrive in send order (FIFO),
/// regardless of their sizes — like the TCP streams of the paper's
/// messaging layer.
#[test]
fn per_link_delivery_is_fifo() {
    for seed in 0..CASES {
        let plan = arb_sizes(&mut Rng::seed_from_u64(seed), 1..40, 1..100_000);
        let n = plan.len();
        let mut sim = Sim::new(two_hosts(), |_| Sender {
            plan: plan.clone(),
            received: Vec::new(),
        });
        sim.run_until(1e7);
        let received = &sim.process(NodeId(1)).received;
        assert_eq!(received.len(), n, "case seed {seed}");
        assert!(
            received.windows(2).all(|w| w[0] < w[1]),
            "{received:?}, case seed {seed}"
        );
    }
}

/// Whole runs are deterministic functions of the inputs.
#[test]
fn runs_are_deterministic() {
    for seed in 0..CASES {
        let plan = arb_sizes(&mut Rng::seed_from_u64(seed), 1..20, 1..10_000);
        let run = || {
            let mut sim = Sim::new(two_hosts(), |_| Sender {
                plan: plan.clone(),
                received: Vec::new(),
            });
            sim.run_until(1e7);
            (
                sim.now(),
                sim.stats.messages_delivered,
                sim.stats.bytes_delivered,
            )
        };
        assert_eq!(run(), run(), "case seed {seed}");
    }
}

/// Bigger messages never arrive earlier than the link could carry
/// them: total delivery time respects latency + size/bandwidth.
#[test]
fn transfer_time_respects_bandwidth() {
    struct One {
        bytes: usize,
        arrived_at: Option<f64>,
    }
    impl Process for One {
        type Msg = Tagged;
        fn on_start(&mut self, ctx: &mut Ctx<Tagged>) {
            if ctx.me() == NodeId(0) {
                ctx.send(
                    NodeId(1),
                    Tagged {
                        seq: 0,
                        bytes: self.bytes,
                    },
                );
            }
        }
        fn on_message(&mut self, _f: NodeId, _m: Tagged, ctx: &mut Ctx<Tagged>) {
            self.arrived_at = Some(ctx.now());
        }
        fn on_tick(&mut self, _ctx: &mut Ctx<Tagged>) {}
    }
    for seed in 0..CASES {
        let bytes = Rng::seed_from_u64(seed).range_usize(1..1_000_000);
        let tb = two_hosts();
        let expected = tb.net.wan.transfer_time(bytes);
        let mut sim = Sim::new(tb, |_| One {
            bytes,
            arrived_at: None,
        });
        sim.run_until(1e9);
        let arrived = sim.process(NodeId(1)).arrived_at.expect("delivered");
        assert!(
            (arrived - expected).abs() < 1e-3,
            "{arrived} vs {expected}, case seed {seed}"
        );
    }
}

/// Action enum construction smoke check (not a property).
#[test]
fn actions_debug_format() {
    let a: Action<Tagged> = Action::ScheduleTick { delay_s: 1.0 };
    assert!(format!("{a:?}").contains("ScheduleTick"));
}

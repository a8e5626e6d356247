//! Bit-identity gate for simulator-only changes.
//!
//! A change to the engine, the roster plumbing or any other host-side
//! data structure must not move one simulated number. These seeded
//! runs — the flat and the hierarchical control plane on the same small
//! fleet, the flat one again under payload bit rot, and once more with
//! the master killed and the standby taking over — pin the verdict
//! time and the exact engine, master and client share-path counts.
//! The engine and master numbers were captured on the commit *before*
//! the roster/link-table rewrite (PR 12) was applied, the client counts
//! and the bit-rot run on the commit before the decode-once share path
//! (PR 13); a change that moves them on purpose (message sizes, protocol,
//! solver heuristics) re-captures them and says so, a change that claims
//! to be simulator-only may not.
//!
//! Every run is pinned twice. Under the paper's share protocol
//! (`share_round_s: None`, what `GridConfig::experiment1()` runs) the
//! constants are still the ones captured then, but for the hierarchical
//! run's counts, re-cut when a requeued cube stopped going straight back
//! to the client that refused it: sharing in rounds is a
//! parameterisation of the same code path and must not move them. Under
//! `GridConfig::default()` — rounds, fixed-size inbox, sliced merge — they
//! were cut on the commit that introduced rounds. The failover run is
//! pinned once, under rounds (what the chaos soak's `master-gone` plan
//! runs), on the commit before the heartbeat, lease and standby tunables
//! became constants (PR 21).
//!
//! The instance is a pigeonhole formula, not one of the seeded families:
//! its generator draws no random numbers, so the pins do not depend on
//! which `rand` implementation the workspace was built against.

use gridsat::chaos::FaultPlan;
use gridsat::{experiment, GridConfig, GridNode, GridOutcome, GridReport};
use gridsat_grid::{NetChaos, NodeId, Testbed};
use gridsat_satgen as satgen;

/// What a run is pinned to. `seconds_bits` is the verdict time's
/// `f64::to_bits`, so "identical" means identical, not "within 1e-9".
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    seconds_bits: u64,
    events: u64,
    messages_delivered: u64,
    bytes_delivered: u64,
    ticks: u64,
    splits: u64,
    // the share path, summed over every client
    clauses_received: u64,
    dup_share_drops: u64,
    shares_forwarded: u64,
    share_batches_sent: u64,
}

impl Pins {
    fn of(r: &GridReport) -> Pins {
        Pins {
            seconds_bits: r.seconds.to_bits(),
            events: r.sim.events,
            messages_delivered: r.sim.messages_delivered,
            bytes_delivered: r.sim.bytes_delivered,
            ticks: r.sim.ticks,
            splits: r.master.splits,
            clauses_received: r.clients.clauses_received,
            dup_share_drops: r.clients.dup_share_drops,
            shares_forwarded: r.clients.shares_forwarded,
            share_batches_sent: r.clients.share_batches_sent,
        }
    }
}

/// The `scaling_1k` regime in miniature: 24 slow clients on 2 sites,
/// small quanta so splits, relay-tree shares, roster broadcasts and
/// (hierarchical) ticketed steals all happen within a fraction of a
/// host second.
fn miniature(base: GridConfig) -> GridConfig {
    GridConfig {
        min_split_timeout: 0.5,
        work_quantum_s: 0.25,
        load_report_period: 5.0,
        ..base
    }
}

fn run(hierarchical: bool, base: GridConfig) -> Pins {
    let base = miniature(base);
    let config = if hierarchical {
        base.hierarchical()
    } else {
        base
    };
    let testbed = Testbed::scaling(24, 2, hierarchical).with_client_speed(400.0);
    let r = experiment::run(&satgen::php::php(8, 7), testbed, config);
    assert_eq!(r.outcome, GridOutcome::Unsat, "php(8, 7) is unsatisfiable");
    Pins::of(&r)
}

/// The flat fleet again with 6 % of sends bit-flipped in flight (the
/// `bit-rot` fault plan's rate),
/// under the reliability layer: corrupted share batches take the
/// copy-on-write path (`Arc::make_mut` on a buffer the rest of the relay
/// fan-out still holds) and are discarded at the receiver, corrupted
/// control traffic is retransmitted. Returns the share-path pins plus
/// how many payloads the engine mangled and how many the receivers
/// caught.
fn run_bit_rot(share_round_s: Option<f64>) -> (Pins, u64, u64) {
    let config = miniature(GridConfig {
        share_round_s,
        ..GridConfig::chaos_hardened()
    });
    let cap = config.overall_timeout;
    let testbed = Testbed::scaling(24, 2, false).with_client_speed(400.0);
    let mut sim = experiment::build_sim(&satgen::php::php(8, 7), testbed, config);
    sim.set_net_chaos(NetChaos {
        corrupt_prob: 0.06,
        seed: 7,
        ..NetChaos::default()
    });
    sim.run_until(cap + 60.0);
    let r = experiment::report(&sim, cap);
    assert_eq!(r.outcome, GridOutcome::Unsat, "bit rot must not change it");
    (
        Pins::of(&r),
        r.sim.corrupted_payloads,
        r.reliable.corrupt_drops,
    )
}

#[test]
fn flat_run_is_bit_identical_to_the_pinned_parent() {
    assert_eq!(
        run(false, GridConfig::experiment1()),
        Pins {
            seconds_bits: 72.676098f64.to_bits(),
            events: 7876,
            messages_delivered: 4062,
            bytes_delivered: 568_547,
            ticks: 3789,
            splits: 182,
            clauses_received: 1334,
            dup_share_drops: 24,
            shares_forwarded: 0,
            share_batches_sent: 58,
        }
    );
}

#[test]
fn hierarchical_run_is_bit_identical_to_the_pinned_parent() {
    assert_eq!(
        run(true, GridConfig::experiment1()),
        Pins {
            seconds_bits: 78.623115f64.to_bits(),
            events: 9538,
            messages_delivered: 5312,
            bytes_delivered: 821_530,
            ticks: 3993,
            splits: 11,
            clauses_received: 1587,
            dup_share_drops: 0,
            shares_forwarded: 0,
            share_batches_sent: 68,
        }
    );
}

#[test]
fn bit_rot_run_is_bit_identical_to_the_pinned_parent() {
    let (pins, corrupted_payloads, corrupt_drops) = run_bit_rot(None);
    assert_eq!(
        pins,
        Pins {
            seconds_bits: 117.733497f64.to_bits(),
            events: 15_888,
            messages_delivered: 6001,
            bytes_delivered: 635_594,
            ticks: 3761,
            splits: 129,
            clauses_received: 1187,
            dup_share_drops: 18,
            shares_forwarded: 0,
            share_batches_sent: 53,
        }
    );
    // every mangled payload was caught by a receiver's frame check
    assert_eq!((corrupted_payloads, corrupt_drops), (86, 86));
}

#[test]
fn flat_run_in_rounds_is_pinned() {
    assert_eq!(
        run(false, GridConfig::default()),
        Pins {
            seconds_bits: 74.100494f64.to_bits(),
            events: 6761,
            messages_delivered: 2935,
            bytes_delivered: 512_956,
            ticks: 3795,
            splits: 193,
            clauses_received: 1518,
            dup_share_drops: 116,
            shares_forwarded: 304,
            share_batches_sent: 115,
        }
    );
}

#[test]
fn hierarchical_run_in_rounds_is_pinned() {
    assert_eq!(
        run(true, GridConfig::default()),
        Pins {
            seconds_bits: 72.920985f64.to_bits(),
            events: 7937,
            messages_delivered: 3690,
            bytes_delivered: 538_462,
            ticks: 4049,
            splits: 8,
            clauses_received: 2091,
            dup_share_drops: 168,
            shares_forwarded: 285,
            share_batches_sent: 126,
        }
    );
}

#[test]
fn bit_rot_run_in_rounds_is_pinned() {
    let rounds = GridConfig::default().share_round_s;
    let (pins, corrupted_payloads, corrupt_drops) = run_bit_rot(rounds);
    assert_eq!(
        pins,
        Pins {
            seconds_bits: 83.523956f64.to_bits(),
            events: 14_293,
            messages_delivered: 5150,
            bytes_delivered: 620_795,
            ticks: 3727,
            splits: 146,
            clauses_received: 841,
            dup_share_drops: 73,
            shares_forwarded: 267,
            share_batches_sent: 94,
        }
    );
    // every mangled payload was caught by a receiver's frame check
    assert_eq!((corrupted_payloads, corrupt_drops), (44, 44));
}

/// The flat fleet under the `master-gone` fault plan (node 0 dies for
/// good at t = 8 s, 2 % of sends lost) and the failover profile: the
/// verdict time hangs on the heartbeat period, the lease, the standby's
/// promotion grace and which node the standby is — and on the bytes of
/// the journal records the standby tails, which the cube ledger's
/// records grew (re-cut then: 82.27 s before, 94.88 s after), and which
/// records the master writes (103.77 s once three fields the fold reads
/// off the core went, 105.48 s since `GrantClose` lost its flag and a
/// take-back releases the row, 101.11 s since the fold drops backlog
/// entries and closes a lost client's grants itself, 103.73 s since a
/// requeued cube is not dispatched back to the client that refused it,
/// 101.22 s since the promoted master rebuilds the cubes its all-idle
/// verdict finds lost from their images' level 0, 104.89 s since a record
/// keeps no field its fold can work out, 93.19 s since a client answers
/// the takeover with a registration whose claim takes back every other
/// cube the ledger had at it).
#[test]
fn master_gone_failover_run_is_pinned() {
    let config = miniature(GridConfig::failover_hardened());
    let cap = config.overall_timeout;
    let testbed = Testbed::scaling(24, 2, false).with_client_speed(400.0);
    let mut sim = experiment::build_sim(&satgen::php::php(8, 7), testbed, config);
    FaultPlan::master_gone(7).apply(&mut sim);
    sim.run_until(cap + 60.0);
    let r = experiment::report(&sim, cap);
    assert_eq!(r.outcome, GridOutcome::Unsat, "php(8, 7) is unsatisfiable");

    // node 0 never decided; the verdict is the promoted standby's
    let GridNode::Master(dead) = sim.process(NodeId(0)).inner() else {
        panic!("node 0 is the master");
    };
    assert!(dead.outcome().is_none());
    let GridNode::Standby(standby) = sim.process(NodeId(1)).inner() else {
        panic!("node 1 is the standby under failover_hardened");
    };
    let promoted = standby.promoted_master().expect("the standby took over");
    assert_eq!(promoted.outcome(), Some(&GridOutcome::Unsat));

    assert_eq!(
        Pins::of(&r),
        Pins {
            seconds_bits: 93.186935f64.to_bits(),
            events: 18_293,
            messages_delivered: 5449,
            bytes_delivered: 647_474,
            ticks: 4136,
            splits: 140,
            clauses_received: 1536,
            dup_share_drops: 116,
            shares_forwarded: 325,
            share_batches_sent: 112,
        }
    );
}

//! Bit-identity gate for simulator-only changes.
//!
//! A change to the engine, the roster plumbing or any other host-side
//! data structure must not move one simulated number. These two seeded
//! runs — the flat and the hierarchical control plane on the same small
//! fleet — pin the verdict time and the exact engine and master counts.
//! The numbers were captured on the commit *before* the roster/link-table
//! rewrite (PR 12) was applied; a change that moves them on purpose
//! (message sizes, protocol, solver heuristics) re-captures them and says
//! so, a change that claims to be simulator-only may not.
//!
//! The instance is a pigeonhole formula, not one of the seeded families:
//! its generator draws no random numbers, so the pins do not depend on
//! which `rand` implementation the workspace was built against.

use gridsat::{experiment, GridConfig, GridOutcome};
use gridsat_grid::Testbed;
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
}

/// The `scaling_1k` regime in miniature: 24 slow clients on 2 sites,
/// small quanta so splits, relay-tree shares, roster broadcasts and
/// (hierarchical) ticketed steals all happen within a fraction of a
/// host second.
fn run(hierarchical: bool) -> Pins {
    let base = GridConfig {
        min_split_timeout: 0.5,
        work_quantum_s: 0.25,
        load_report_period: 5.0,
        audit: true,
        ..GridConfig::default()
    };
    let config = if hierarchical {
        base.hierarchical()
    } else {
        base
    };
    let testbed = Testbed::scaling(24, 2, hierarchical).with_client_speed(400.0);
    let r = experiment::run(&satgen::php::php(8, 7), testbed, config);
    assert_eq!(r.outcome, GridOutcome::Unsat, "php(8, 7) is unsatisfiable");
    Pins {
        seconds_bits: r.seconds.to_bits(),
        events: r.sim.events,
        messages_delivered: r.sim.messages_delivered,
        bytes_delivered: r.sim.bytes_delivered,
        ticks: r.sim.ticks,
        splits: r.master.splits,
    }
}

#[test]
fn flat_run_is_bit_identical_to_the_pinned_parent() {
    assert_eq!(
        run(false),
        Pins {
            seconds_bits: 75.256425f64.to_bits(),
            events: 7690,
            messages_delivered: 3870,
            bytes_delivered: 552_263,
            ticks: 3795,
            splits: 182,
        }
    );
}

#[test]
fn hierarchical_run_is_bit_identical_to_the_pinned_parent() {
    assert_eq!(
        run(true),
        Pins {
            seconds_bits: 76.712527f64.to_bits(),
            events: 11_354,
            messages_delivered: 6872,
            bytes_delivered: 1_229_493,
            ticks: 4186,
            splits: 22,
        }
    );
}

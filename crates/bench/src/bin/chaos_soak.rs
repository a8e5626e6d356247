//! Chaos soak: sweep seeds x fault plans x instance families under the
//! chaos-hardened profile, checking every completed run against the
//! sequential solver as a SAT/UNSAT oracle (SAT models are re-verified
//! against the formula). Any wedge, timeout, lost client, or oracle
//! mismatch fails the sweep.
//!
//! Usage: cargo run --release -p gridsat-bench --bin chaos_soak \
//!            [--fast] [--seeds N] [--plan NAME] [--preset paper] [--repro]
//!
//! `--fast` is the CI profile (few seeds); the default sweeps 20 seeds
//! over all seven fault plans and three instance families. The
//! `master-gone` plan runs under the failover profile (standby and
//! journal), `submaster-loss` under the hierarchical profile on a
//! two-site testbed; the rest use the chaos-hardened profile on a flat
//! one (`FaultPlan::soak_sim`). Every run is checked by the master's cube
//! ledger, which is always on.
//!
//! `--preset paper` runs every plan under the paper's share protocol
//! (`GridConfig::experiment1()`'s `share_round_s: None`: the all-pairs
//! flood, as soon as learned) instead of rounds on the share tree.
//!
//! An argument the sweep does not know, a missing value, an unknown plan
//! or preset, or a seed count that is not a positive number is one line
//! on stderr and exit status 2: nothing runs.
//!
//! `--plan NAME` restricts the sweep to one fault plan. `--repro`
//! prints one machine-readable JSON line per failing run —
//! `{"plan":...,"seed":...,"instance":...}` — so a red sweep can be
//! replayed as `chaos_soak --plan <plan> --seeds <seed+1>` without
//! rerunning the whole matrix; a run that panics (e.g. a cube-ledger
//! check) is caught and reported the same way instead of killing the
//! sweep.

use gridsat::chaos::FaultPlan;
use gridsat::{experiment, GridConfig, GridOutcome};
use gridsat_satgen as satgen;
use gridsat_solver::SolveStatus;
use std::collections::BTreeMap;

struct Family {
    name: &'static str,
    gen: fn(u64) -> gridsat_cnf::Formula,
}

const FAMILIES: &[Family] = &[
    Family {
        name: "random-3sat",
        gen: |seed| satgen::random_ksat::random_ksat(30, 126, 3, seed),
    },
    Family {
        name: "planted-3sat",
        gen: |seed| satgen::random_ksat::planted_ksat(40, 168, 3, seed),
    },
    Family {
        // alternate two pigeonhole sizes; always UNSAT
        name: "php",
        gen: |seed| {
            let n = 5 + (seed % 2) as usize;
            satgen::php::php(n + 1, n)
        },
    },
];

/// A failure's family: its reason without the cube or model it names — a
/// ledger check without the record and path, an oracle mismatch without
/// the grid's model.
fn kind_of(reason: &str) -> &str {
    let reason = (reason.strip_prefix("panicked: search-space audit violation: "))
        .map_or(reason, |check| {
            check.split(": path ").next().unwrap_or(check)
        });
    reason.split('(').next().unwrap_or(reason).trim_end()
}

/// What the command line asks for.
#[derive(Debug, PartialEq)]
struct Options {
    seeds: u64,
    repro: bool,
    /// Every plan under the paper's share protocol (flood as soon as
    /// learned) instead of the default (rounds on the share tree).
    paper: bool,
    plan: Option<String>,
}

/// Parse the arguments after the program name. Anything the sweep does
/// not know is an error: a gate that ignored `--seed 1000` would run its
/// default and print the same green line.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let (mut fast, mut repro, mut paper) = (false, false, false);
    let (mut seeds, mut plan) = (None, None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--fast" => fast = true,
            "--repro" => repro = true,
            "--seeds" => match value()?.parse() {
                Ok(n) if n > 0 => seeds = Some(n),
                _ => return Err("--seeds takes a positive number".into()),
            },
            "--preset" => match value()?.as_str() {
                "paper" => paper = true,
                other => {
                    return Err(format!(
                        "unknown preset {other:?}; known presets: [\"paper\"]"
                    ))
                }
            },
            "--plan" => {
                let name = value()?;
                let roster = FaultPlan::roster(0);
                if !roster.iter().any(|p| p.name == *name) {
                    let known: Vec<&str> = roster.iter().map(|p| p.name.as_str()).collect();
                    return Err(format!("unknown plan {name:?}; known plans: {known:?}"));
                }
                plan = Some(name.clone());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Options {
        seeds: seeds.unwrap_or(if fast { 5 } else { 20 }),
        repro,
        paper,
        plan,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        seeds,
        repro,
        paper,
        plan: only_plan,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("chaos soak: {e}");
        std::process::exit(2);
    });
    let preset = if paper {
        GridConfig::experiment1()
    } else {
        GridConfig::default()
    };

    let mut runs = 0u64;
    let mut retransmits = 0u64;
    let mut recoveries = 0u64;
    let mut requeues = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut tally: BTreeMap<(String, String), u64> = BTreeMap::new();

    for family in FAMILIES {
        for seed in 0..seeds {
            let f = (family.gen)(seed);
            let want = gridsat_solver::driver::decide(&f);
            for plan in FaultPlan::roster(seed.wrapping_mul(31).wrapping_add(7)) {
                if only_plan.as_deref().is_some_and(|name| plan.name != name) {
                    continue;
                }
                runs += 1;
                let label = format!("{}/seed{}/{}", family.name, seed, plan.name);
                // a panicking run (cube-ledger check, decoder bug) must
                // not kill the sweep before the repro line
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let (mut sim, cap) = plan.soak_sim(&f, &preset);
                    sim.run_until(cap + 60.0);
                    experiment::report(&sim, cap)
                }));
                let reason = match run {
                    Err(panic) => {
                        let what = panic
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| panic.downcast_ref::<&str>().copied())
                            .unwrap_or("panic");
                        Some(format!("panicked: {what}"))
                    }
                    Ok(r) => {
                        retransmits += r.reliable.retransmits;
                        recoveries += r.master.recoveries;
                        requeues += r.master.requeues + r.reliable.expired;
                        match (want, &r.outcome) {
                            (SolveStatus::Sat, GridOutcome::Sat(model)) => (!f
                                .is_satisfied_by(model))
                            .then(|| "SAT model does not verify".to_string()),
                            (SolveStatus::Unsat, GridOutcome::Unsat) => None,
                            (want, got) => Some(format!("oracle {want:?}, grid {got:?}")),
                        }
                    }
                };
                let Some(reason) = reason else { continue };
                *tally
                    .entry((plan.name.clone(), kind_of(&reason).to_string()))
                    .or_default() += 1;
                failures.push(format!("{label}: {reason}"));
                if repro {
                    println!(
                        "{{\"plan\":\"{}\",\"seed\":{},\"instance\":\"{}\"}}",
                        plan.name, seed, family.name
                    );
                }
            }
        }
    }

    let plans = match &only_plan {
        Some(name) => format!("plan {name}"),
        None => format!("{} plans", FaultPlan::roster(0).len()),
    };
    println!(
        "chaos soak: {runs} runs ({} families x {seeds} seeds x {plans})",
        FAMILIES.len()
    );
    println!("  retransmits={retransmits} recoveries={recoveries} requeues={requeues}");
    if failures.is_empty() {
        println!("  all runs terminated with the oracle's answer");
    } else {
        for f in &failures {
            println!("  FAIL {f}");
        }
        println!("  failures by plan and reason:");
        for ((plan, kind), n) in &tally {
            println!("  {n:>5}  {plan}: {kind}");
        }
        eprintln!("chaos soak: {} of {runs} runs failed", failures.len());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn the_sweeps_the_gates_run_parse() {
        let default = Options {
            seeds: 20,
            repro: false,
            paper: false,
            plan: None,
        };
        assert_eq!(parse(""), Ok(default));
        assert_eq!(parse("--fast").unwrap().seeds, 5);
        // an explicit count wins over the profile, in either order
        assert_eq!(parse("--fast --seeds 7").unwrap().seeds, 7);
        assert_eq!(parse("--seeds 7 --fast").unwrap().seeds, 7);
        assert_eq!(
            parse("--plan submaster-loss --seeds 1000 --repro"),
            Ok(Options {
                seeds: 1000,
                repro: true,
                paper: false,
                plan: Some("submaster-loss".into()),
            })
        );
        assert!(parse("--preset paper --seeds 20").unwrap().paper);
    }

    #[test]
    fn failures_are_tallied_without_the_cube_or_model_they_name() {
        for (reason, kind) in [
            (
                "panicked: search-space audit violation: adopted spec contradicts the \
                 recorded path (TransferIn): path [-1 2 10 13 -30]",
                "adopted spec contradicts the recorded path",
            ),
            (
                "panicked: search-space audit violation: cube owned twice (AssignWhole): path []",
                "cube owned twice",
            ),
            ("oracle Sat, grid Unsat", "oracle Sat, grid Unsat"),
            (
                "oracle Unsat, grid Sat(Assignment { .. })",
                "oracle Unsat, grid Sat",
            ),
            ("SAT model does not verify", "SAT model does not verify"),
            ("panicked: decoder bug", "panicked: decoder bug"),
        ] {
            assert_eq!(kind_of(reason), kind);
        }
    }

    /// Each of these used to run some sweep — the default 420 runs, or
    /// none at all — and print the all-green line.
    #[test]
    fn a_sweep_that_was_not_asked_for_is_refused() {
        for line in [
            "--seed 1000",
            "--presets paper",
            "--plan=master-gone",
            "5",
            "--seeds 0",
            "--seeds abc",
            "--seeds -3",
            "--seeds",
            "--plan",
            "--preset",
            "--plan no-such-plan",
            "--preset rounds",
        ] {
            assert!(parse(line).is_err(), "{line:?} parsed");
        }
    }
}

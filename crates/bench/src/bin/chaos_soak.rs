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
//! `master-gone` plan runs under the failover profile (standby, journal,
//! conservation auditor), `submaster-loss` under the hierarchical
//! profile on a two-site testbed; the rest use the chaos-hardened
//! profile on a flat one (`FaultPlan::soak_sim`).
//!
//! `--preset paper` runs every plan under the paper's share protocol
//! (`GridConfig::experiment1()`'s `share_round_s: None`: the all-pairs
//! flood, as soon as learned) instead of rounds on the share tree.
//!
//! `--plan NAME` restricts the sweep to one fault plan. `--repro`
//! prints one machine-readable JSON line per failing run —
//! `{"plan":...,"seed":...,"instance":...}` — so a red sweep can be
//! replayed as `chaos_soak --plan <plan> --seeds <seed+1>` without
//! rerunning the whole matrix; a run that panics (e.g. a conservation
//! audit violation) is caught and reported the same way instead of
//! killing the sweep.

use gridsat::chaos::FaultPlan;
use gridsat::{experiment, GridConfig, GridOutcome};
use gridsat_satgen as satgen;
use gridsat_solver::SolveStatus;

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let repro = args.iter().any(|a| a == "--repro");
    let mut seeds: u64 = if fast { 5 } else { 20 };
    if let Some(i) = args.iter().position(|a| a == "--seeds") {
        seeds = args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .expect("--seeds N");
    }
    // which share protocol every plan runs under: the default (rounds on
    // the share tree) or the paper's (flood as soon as learned)
    let preset = match args.iter().position(|a| a == "--preset") {
        None => GridConfig::default(),
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("paper") => GridConfig::experiment1(),
            other => {
                eprintln!("chaos soak: unknown preset {other:?}; known presets: [\"paper\"]");
                std::process::exit(2);
            }
        },
    };
    let only_plan: Option<String> = args
        .iter()
        .position(|a| a == "--plan")
        .map(|i| args.get(i + 1).expect("--plan NAME").clone());
    if let Some(name) = &only_plan {
        let roster = FaultPlan::roster(0);
        if !roster.iter().any(|p| p.name == *name) {
            let known: Vec<&str> = roster.iter().map(|p| p.name.as_str()).collect();
            eprintln!("chaos soak: unknown plan {name:?}; known plans: {known:?}");
            std::process::exit(2);
        }
    }

    let mut runs = 0u64;
    let mut retransmits = 0u64;
    let mut recoveries = 0u64;
    let mut requeues = 0u64;
    let mut failures: Vec<String> = Vec::new();

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
                // a panicking run (conservation-audit violation, decoder
                // bug) must not kill the sweep before the repro line
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let (mut sim, cap) = plan.soak_sim(&f, &preset);
                    sim.run_until(cap + 60.0);
                    experiment::report(&sim, cap)
                }));
                let failed = match run {
                    Err(panic) => {
                        let what = panic
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| panic.downcast_ref::<&str>().copied())
                            .unwrap_or("panic");
                        failures.push(format!("{label}: panicked: {what}"));
                        true
                    }
                    Ok(r) => {
                        retransmits += r.reliable.retransmits;
                        recoveries += r.master.recoveries;
                        requeues += r.master.requeues + r.reliable.expired;
                        match (want, &r.outcome) {
                            (SolveStatus::Sat, GridOutcome::Sat(model)) => {
                                if f.is_satisfied_by(model) {
                                    false
                                } else {
                                    failures.push(format!("{label}: SAT model does not verify"));
                                    true
                                }
                            }
                            (SolveStatus::Unsat, GridOutcome::Unsat) => false,
                            (want, got) => {
                                failures.push(format!("{label}: oracle {want:?}, grid {got:?}"));
                                true
                            }
                        }
                    }
                };
                if failed && repro {
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
        eprintln!("chaos soak: {} of {runs} runs failed", failures.len());
        std::process::exit(1);
    }
}

//! The case list of each workload.
//!
//! Every workload is a list of *baked* cases — the calibrated, named
//! instances whose numbers later changes claim against — plus a few
//! *fresh* cases generated from `--seed`. The baked cases keep their
//! generator seeds: re-seeding a Table-1 stand-in moves its cost by an
//! order of magnitude and past the paper's time caps, which would turn
//! a timing benchmark into a lottery with failing operations. The fresh
//! cases come from the Urquhart family (unsatisfiable by construction,
//! cost nearly independent of the seed) so a new seed gives new inputs
//! without drowning the baked rows.

use crate::catalog::Workload;
use gridsat::GridConfig;
use gridsat_cnf::Formula;
use gridsat_grid::Testbed;
use gridsat_satgen::suite::{self, Section, Status};
use gridsat_satgen::{random_ksat, xor};

/// Full size (what `BENCHMARK.json` describes) or the seconds-long smoke
/// size the crate's test drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    Full,
    Smoke,
}

pub enum Plan {
    /// The sequential core to a verdict, under the Table-1 baseline
    /// configuration and its 18 M work cap.
    SeqSolve,
    /// The sequential core for a fixed work budget, default configuration:
    /// the steady state of a long solve (reductions and GC running).
    SeqBudget(u64),
    /// A whole grid run to the master's verdict.
    Grid {
        testbed: Testbed,
        config: Box<GridConfig>,
    },
}

pub struct Case {
    pub name: String,
    pub build: Box<dyn Fn() -> Formula>,
    /// Ground truth by construction; `Unknown` where no verdict is due.
    pub expect: Status,
    pub plan: Plan,
}

pub struct CaseList {
    pub cases: Vec<Case>,
    /// The case whose formula the solver and wire replays run on.
    pub probe: usize,
}

/// Fresh-case generator seeds start here, away from every baked seed.
const FRESH_BASE: u64 = 0x5eed_0000;

/// The `scaling_1k` bench's client speed and split pressure settings.
const CLIENT_SPEED: f64 = 400.0;

fn scaling_config(hierarchical: bool) -> GridConfig {
    let base = GridConfig {
        min_split_timeout: 0.5,
        work_quantum_s: 0.25,
        load_report_period: 5.0,
        ..GridConfig::default()
    };
    if hierarchical {
        base.hierarchical()
    } else {
        base
    }
}

pub fn scaling_case(
    clients: usize,
    sites: usize,
    rungs: usize,
    gen_seed: u64,
    hierarchical: bool,
) -> Case {
    Case {
        name: format!("n{clients}-urq-{rungs}-s{gen_seed}"),
        build: Box::new(move || xor::urquhart(rungs, gen_seed)),
        expect: Status::Unsat,
        plan: Plan::Grid {
            testbed: Testbed::scaling(clients, sites, hierarchical).with_client_speed(CLIENT_SPEED),
            config: Box::new(scaling_config(hierarchical)),
        },
    }
}

fn table1_row(paper_name: &str, plan: impl FnOnce(Section) -> Plan) -> Case {
    let spec = suite::table1_suite()
        .into_iter()
        .find(|s| s.paper_name == paper_name)
        .unwrap_or_else(|| panic!("{paper_name} is not a Table-1 row"));
    Case {
        name: paper_name.trim_end_matches(".cnf").to_string(),
        build: Box::new(spec.build),
        expect: spec.status,
        plan: plan(spec.section),
    }
}

fn grads_plan(section: Section) -> Plan {
    Plan::Grid {
        testbed: Testbed::grads(),
        config: Box::new(match section {
            Section::SolvedByBoth => GridConfig::experiment1(),
            _ => GridConfig::experiment1_challenge(),
        }),
    }
}

fn fresh_urquhart(rungs: usize, gen_seed: u64, plan: Plan) -> Case {
    Case {
        name: format!("fresh-urq-{rungs}-s{gen_seed}"),
        build: Box::new(move || xor::urquhart(rungs, gen_seed)),
        expect: Status::Unsat,
        plan,
    }
}

pub fn case_list(workload: Workload, seed: u64, profile: Profile) -> CaseList {
    let full = profile == Profile::Full;
    // the i-th fresh generator seed of a run that makes `per_run` of them
    let fresh =
        |per_run: u64, i: u64| FRESH_BASE.wrapping_add(seed.wrapping_mul(per_run).wrapping_add(i));
    match workload {
        Workload::SeqSuite => {
            let rows: Vec<&str> = if full {
                suite::table1_suite()
                    .iter()
                    .filter(|s| s.section == Section::SolvedByBoth)
                    .map(|s| s.paper_name)
                    .collect()
            } else {
                vec!["homer11.cnf", "Urquhart-s3-b1.cnf"]
            };
            let mut cases: Vec<Case> = rows
                .into_iter()
                .map(|name| table1_row(name, |_| Plan::SeqSolve))
                .collect();
            let probe = cases.len();
            // above the 3-SAT threshold (ratio 4.6), so no seed finds a
            // model inside the budget and every run burns all of it
            let (steady, budget) = if full {
                (3, 10_000_000)
            } else {
                (1, 1_000_000)
            };
            for i in 0..steady {
                let gen_seed = 7u64.wrapping_add(seed.wrapping_mul(steady)).wrapping_add(i);
                cases.push(Case {
                    name: format!("steady-3sat-300-s{gen_seed}"),
                    build: Box::new(move || random_ksat::random_ksat(300, 1380, 3, gen_seed)),
                    expect: Status::Unknown,
                    plan: Plan::SeqBudget(budget),
                });
            }
            let (n_fresh, rungs) = if full { (2, 13) } else { (1, 11) };
            for i in 0..n_fresh {
                cases.push(fresh_urquhart(rungs, fresh(n_fresh, i), Plan::SeqSolve));
            }
            CaseList { cases, probe }
        }
        Workload::GridTable1 => {
            let rows: &[&str] = if full {
                &[
                    "6pipe.cnf",
                    "rand_net50-60-5.cnf",
                    "ip38.cnf",
                    "dp10u09.cnf",
                    "f2clk_40.cnf",
                    "dp12s12.cnf",
                    "w08_14.cnf",
                    "hanoi5.cnf",
                    "7pipe_bug.cnf",
                ]
            } else {
                &["ip38.cnf", "hanoi5.cnf"]
            };
            let mut cases: Vec<Case> = rows
                .iter()
                .map(|name| table1_row(name, grads_plan))
                .collect();
            let (n_fresh, rungs) = if full { (3, 14) } else { (1, 12) };
            for i in 0..n_fresh {
                cases.push(fresh_urquhart(
                    rungs,
                    fresh(n_fresh, i),
                    grads_plan(Section::SolvedByBoth),
                ));
            }
            // rand_net50-60-5: random 3-SAT, the least structured row
            CaseList {
                cases,
                probe: if full { 1 } else { 0 },
            }
        }
        Workload::Scale400Flat | Workload::Scale400Hier => {
            let hierarchical = workload == Workload::Scale400Hier;
            let baked = if full {
                scaling_case(400, 8, 18, 38, hierarchical)
            } else {
                scaling_case(12, 2, 16, 38, hierarchical)
            };
            let (clients, sites) = if full { (100, 4) } else { (12, 2) };
            let mut fresh_case = scaling_case(clients, sites, 12, fresh(1, 0), hierarchical);
            fresh_case.name = format!("fresh-{}", fresh_case.name);
            CaseList {
                cases: vec![baked, fresh_case],
                probe: 0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::WORKLOADS;

    #[test]
    fn same_seed_same_inputs_and_another_seed_other_inputs() {
        for w in WORKLOADS {
            let formulas = |seed| -> Vec<Formula> {
                case_list(w, seed, Profile::Smoke)
                    .cases
                    .iter()
                    .map(|c| (c.build)())
                    .collect()
            };
            assert!(formulas(3) == formulas(3), "{}", w.name());
            assert!(formulas(3) != formulas(4), "{}", w.name());
        }
    }

    #[test]
    fn every_workload_has_baked_and_fresh_cases_and_a_probe() {
        for w in WORKLOADS {
            for profile in [Profile::Full, Profile::Smoke] {
                let list = case_list(w, 0, profile);
                assert!(list.probe < list.cases.len());
                assert!(list.cases.iter().any(|c| c.name.starts_with("fresh-")));
                assert!(list.cases.iter().any(|c| !c.name.starts_with("fresh-")));
            }
        }
        assert_eq!(
            case_list(Workload::SeqSuite, 0, Profile::Full).cases.len(),
            23 + 3 + 2
        );
    }
}

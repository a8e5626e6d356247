//! Running a workload's cases from outside the program: build, time the
//! calls into the public API, check every answer, and keep what the
//! public stats structs say.

use crate::layers::{CritPath, JournalReplay, WireGroups};
use crate::spans::Recorder;
use crate::workloads::{Case, CaseList, Plan};
use gridsat::{
    client::ClientStats, experiment, GridNode, GridOutcome, GridReport, MasterStats,
    MasterTelemetry, SubMasterStats,
};
use gridsat_bench::{work_to_seconds, ZCHAFF_MEM_BUDGET, ZCHAFF_WORK_CAP};
use gridsat_cnf::Formula;
use gridsat_grid::{NodeId, Testbed};
use gridsat_obs::Obs;
use gridsat_satgen::suite::Status;
use gridsat_solver::{driver, Outcome, SolveStatus, Solver, SolverConfig, Stats, Step};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What is switched on inside the program while a pass runs. End-to-end
/// numbers come from `Off` passes only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tracing {
    Off,
    /// The engine's message trace (`Sim::enable_trace`).
    Engine,
    /// An `Obs` ring: causal on grid cases, plain on sequential ones.
    Ring,
}

/// Events the causal ring may hold; the analysis needs the whole trace.
const RING_CAPACITY: usize = 1 << 21;

/// One case, run once.
pub struct CaseRun {
    pub name: String,
    /// Why the operation counts as failed, if it does.
    pub failure: Option<String>,
    pub sim_s: f64,
    pub setup_s: f64,
    pub run_s: f64,
}

/// Layer facts summed over the cases of one pass.
#[derive(Default)]
pub struct Acc {
    /// Sequential cases only: the solver driven directly.
    pub solver: Stats,
    pub master: MasterStats,
    pub telemetry: MasterTelemetry,
    pub clients: ClientStats,
    pub submasters: SubMasterStats,
    pub events: u64,
    pub messages: u64,
    pub bytes: u64,
    pub ticks: u64,
    pub dropped: u64,
    /// Work the client hosts could have done: Σ speed × simulated seconds.
    pub client_capacity: f64,
    /// `Tracing::Engine` passes only.
    pub wire: WireGroups,
    pub journal: JournalReplay,
    /// `Tracing::Ring` passes only.
    pub critpath: CritPath,
}

pub struct Pass {
    pub runs: Vec<CaseRun>,
    pub acc: Acc,
}

impl Pass {
    pub fn sim_s(&self) -> f64 {
        self.runs.iter().map(|r| r.sim_s).sum()
    }

    pub fn setup_s(&self) -> f64 {
        self.runs.iter().map(|r| r.setup_s).sum()
    }

    pub fn run_s(&self) -> f64 {
        self.runs.iter().map(|r| r.run_s).sum()
    }

    pub fn failed(&self) -> usize {
        self.runs.iter().filter(|r| r.failure.is_some()).count()
    }
}

pub fn run_pass(list: &CaseList, tracing: Tracing, rec: &mut Recorder) -> Pass {
    let mut acc = Acc::default();
    let runs = list
        .cases
        .iter()
        .map(|case| run_case(case, tracing, rec, &mut acc))
        .collect();
    Pass { runs, acc }
}

/// Numbers of one case before its verdict is judged.
struct Measured {
    sim_s: f64,
    setup_s: f64,
    run_s: f64,
    verdict: Result<(), String>,
}

fn run_case(case: &Case, tracing: Tracing, rec: &mut Recorder, acc: &mut Acc) -> CaseRun {
    let depth = rec.depth();
    // a panic anywhere in the program is one failed operation, not the
    // end of the benchmark
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        rec.scope("case", &case.name, |rec| {
            let (formula, generate) = rec.scope("setup.generate", &case.name, |_| (case.build)());
            let mut m = match &case.plan {
                Plan::SeqSolve | Plan::SeqBudget(_) => {
                    run_sequential(case, &formula, tracing, rec, acc)
                }
                Plan::Grid { testbed, config } => {
                    run_grid(case, &formula, testbed, config, tracing, rec, acc)
                }
            };
            m.setup_s += generate.as_secs_f64();
            m
        })
        .0
    }));
    match outcome {
        Ok(m) => CaseRun {
            name: case.name.clone(),
            failure: m.verdict.err(),
            sim_s: m.sim_s,
            setup_s: m.setup_s,
            run_s: m.run_s,
        },
        Err(panic) => {
            rec.unwind_to(depth);
            let what = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("panic");
            CaseRun {
                name: case.name.clone(),
                failure: Some(format!("panicked: {what}")),
                sim_s: 0.0,
                setup_s: 0.0,
                run_s: 0.0,
            }
        }
    }
}

fn check_model(
    formula: &Formula,
    model: &gridsat_cnf::Assignment,
    expect: Status,
) -> Result<(), String> {
    if expect == Status::Unsat {
        return Err("SAT reported on an instance that is UNSAT by construction".into());
    }
    if !formula.is_satisfied_by(model) {
        return Err("the reported model does not satisfy the formula".into());
    }
    Ok(())
}

fn check_unsat(formula: &Formula, expect: Status) -> Result<(), String> {
    match expect {
        Status::Unsat => Ok(()),
        Status::Sat => Err("UNSAT reported on an instance that is SAT by construction".into()),
        // no ground truth by construction: ask the sequential oracle
        Status::Unknown => match driver::decide(formula) {
            SolveStatus::Unsat => Ok(()),
            SolveStatus::Sat => Err("UNSAT reported, the sequential oracle finds a model".into()),
        },
    }
}

fn run_sequential(
    case: &Case,
    formula: &Formula,
    tracing: Tracing,
    rec: &mut Recorder,
    acc: &mut Acc,
) -> Measured {
    let id = case.name.as_str();
    let (mut solver, build) = rec.scope("setup.build", id, |_| {
        let config = match case.plan {
            Plan::SeqBudget(_) => SolverConfig::default(),
            _ => SolverConfig::sequential_baseline(ZCHAFF_MEM_BUDGET),
        };
        let mut solver = Solver::new(formula, config);
        if tracing == Tracing::Ring {
            solver.set_obs(Obs::ring(1 << 16).0, 0);
        }
        solver
    });
    let (outcome, run) = rec.scope("run.solve", id, |_| match case.plan {
        Plan::SeqBudget(budget) => match solver.step(budget) {
            Step::Running => None,
            Step::Sat => Some(Outcome::Sat(solver.model().expect("sat has model"))),
            Step::Unsat => Some(Outcome::Unsat),
            Step::MemoryPressure => Some(Outcome::MemOut),
        },
        _ => Some(driver::run(&mut solver, driver::Limits::with_max_work(ZCHAFF_WORK_CAP)).outcome),
    });
    let (verdict, _) = rec.scope("verify", id, |_| match &outcome {
        // a budgeted run that is still going is judged on its state
        None => {
            solver.check_invariants();
            Ok(())
        }
        Some(Outcome::Sat(model)) => check_model(formula, model, case.expect),
        Some(Outcome::Unsat) => check_unsat(formula, case.expect),
        Some(other) => Err(format!("no verdict: {}", other.table_cell())),
    });
    let stats = *solver.stats();
    acc.solver.absorb(&stats);
    Measured {
        sim_s: work_to_seconds(stats.work),
        setup_s: build.as_secs_f64(),
        run_s: run.as_secs_f64(),
        verdict,
    }
}

/// Nominal work units per second of the solver hosts (everything but the
/// master's host and the brokers).
fn client_speed(testbed: &Testbed) -> f64 {
    testbed
        .hosts
        .iter()
        .skip(1)
        .filter(|h| !h.broker)
        .map(|h| h.speed)
        .sum()
}

fn run_grid(
    case: &Case,
    formula: &Formula,
    testbed: &Testbed,
    config: &gridsat::GridConfig,
    tracing: Tracing,
    rec: &mut Recorder,
    acc: &mut Acc,
) -> Measured {
    let id = case.name.as_str();
    let cap = config.overall_timeout;
    let ((mut sim, ring), build) = rec.scope("setup.build", id, |_| match tracing {
        Tracing::Ring => {
            let (obs, ring) = Obs::causal_ring(RING_CAPACITY);
            let sim = experiment::build_sim_obs(formula, testbed.clone(), config.clone(), obs);
            (sim, Some(ring))
        }
        _ => {
            let mut sim = experiment::build_sim(formula, testbed.clone(), config.clone());
            if tracing == Tracing::Engine {
                sim.enable_trace();
            }
            (sim, None)
        }
    });
    // slack so the master's timeout tick can fire after the cap
    let (_, run_sim) = rec.scope("run.sim", id, |_| sim.run_until(cap + 60.0));
    let (report, run_report) = rec.scope("run.report", id, |_| experiment::report(&sim, cap));
    let (mut verdict, _) = rec.scope("verify", id, |_| verify_grid(formula, case.expect, &report));

    absorb_report(acc, &report, client_speed(testbed));
    if tracing == Tracing::Engine {
        let (folded, _) = rec.scope("trace.fold", id, |_| acc.wire.add(sim.trace_events()));
        verdict = verdict.and(folded);
        rec.scope("replay.journal", id, |_| {
            if let GridNode::Master(master) = sim.process_mut(NodeId(0)).inner_mut() {
                acc.journal.add(master.journal_mut());
            }
        });
    }
    if let Some(ring) = ring {
        let (analysed, _) = rec.scope("trace.critical_path", id, |_| {
            let ring = ring.lock().expect("no thread panicked holding the ring");
            acc.critpath.add(&ring, report.seconds)
        });
        verdict = verdict.and(analysed);
    }
    Measured {
        sim_s: report.seconds,
        setup_s: build.as_secs_f64(),
        run_s: (run_sim + run_report).as_secs_f64(),
        verdict,
    }
}

fn verify_grid(formula: &Formula, expect: Status, report: &GridReport) -> Result<(), String> {
    if report.master.verification_failures > 0 {
        return Err(format!(
            "{} SAT reports failed the master's verification",
            report.master.verification_failures
        ));
    }
    verify_outcome(formula, expect, Some(&report.outcome))
}

fn absorb_report(acc: &mut Acc, report: &GridReport, client_speed: f64) {
    acc.master.absorb(&report.master);
    acc.telemetry.absorb(&report.telemetry);
    acc.clients.absorb(&report.clients);
    acc.submasters.absorb(&report.submasters);
    acc.events += report.sim.events;
    acc.messages += report.sim.messages_delivered;
    acc.bytes += report.sim.bytes_delivered;
    acc.ticks += report.sim.ticks;
    acc.dropped += report.sim.messages_dropped();
    acc.client_capacity += client_speed * report.seconds;
}

/// Judge a master's verdict (the engine's, or the thread backend's).
pub fn verify_outcome(
    formula: &Formula,
    expect: Status,
    outcome: Option<&GridOutcome>,
) -> Result<(), String> {
    match outcome {
        Some(GridOutcome::Sat(model)) => check_model(formula, model, expect),
        Some(GridOutcome::Unsat) => check_unsat(formula, expect),
        Some(other) => Err(format!("no verdict: {}", other.table_cell())),
        None => Err("no verdict inside the wall-clock cap".into()),
    }
}

//! One benchmark for the whole grid. See `README.md` beside this crate
//! for the metric glossary and how to run each mode.
//!
//! ```text
//! gridsat-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! gridsat-benchmark all        [--seed N] [--seconds S] [--smoke]
//! gridsat-benchmark selfcheck  [--seed N] [--seconds S] [--smoke]
//! gridsat-benchmark continuity
//! gridsat-benchmark describe | glossary
//! ```

mod catalog;
mod json;
mod layers;
mod measure;
mod orchestrate;
mod run;
mod spans;
mod stats;
mod workloads;

use catalog::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use json::Json;
use measure::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Profile;

/// Options shared by every mode.
pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    pub profile: Profile,
}

struct Args {
    mode: Option<String>,
    workload: Option<String>,
    trace: bool,
    options: Options,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        mode: None,
        workload: None,
        trace: false,
        options: Options {
            seed: 0,
            seconds: RUN_SECONDS,
            profile: Profile::Full,
        },
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?.to_string()),
            "--seed" => {
                parsed.options.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.options.seconds = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.options.profile = Profile::Smoke,
            mode if !mode.starts_with('-') && parsed.mode.is_none() => {
                parsed.mode = Some(mode.to_string())
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Where result files go: `benchmark/` beside the build profile directory
/// the executable sits in, so it is inside the build directory whatever
/// `CARGO_TARGET_DIR` says.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    let target = exe
        .parent()
        .and_then(|profile| profile.parent())
        .expect("the executable sits in <target>/<profile>/");
    target.join("benchmark")
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The result line of the driver contract: exactly these four keys.
fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value)| {
            let entry = Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str(unit_of(name))),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_line()
}

/// Measure one workload in this process and print what was found; the
/// last line of standard output is the result object.
fn run_workload(workload: Workload, trace: bool, options: &Options) -> ExitCode {
    let outcome = if trace {
        measure::per_layer(workload, options.seed, options.profile)
    } else {
        measure::end_to_end(workload, options.seed, options.seconds, options.profile)
    };
    println!(
        "workload {} seed {} trace {}: ops_attempted {} ops_failed {}",
        workload.name(),
        options.seed,
        u8::from(trace),
        outcome.attempted,
        outcome.failed
    );
    for problem in &outcome.problems {
        println!("FAILED {problem}");
    }
    for &(name, value) in &outcome.metrics {
        println!("{name} {value} {}", unit_of(name));
    }
    for (name, s) in &outcome.timings {
        // read back by `all`, which files the spread beside the median
        println!("timing {name} n {} min {} max {}", s.n, s.min, s.max);
    }
    if trace {
        let dir = out_dir();
        let path = dir.join(format!("trace.{}.jsonl", workload.name()));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, &outcome.trace_jsonl));
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(&outcome));
    exit_code(outcome.correct())
}

pub fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("gridsat-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (parsed.mode.as_deref(), parsed.workload.as_deref()) {
        (None, Some(name)) => match Workload::from_name(name) {
            Some(workload) => run_workload(workload, parsed.trace, &parsed.options),
            None => {
                let known: Vec<_> = WORKLOADS.iter().map(|w| w.name()).collect();
                eprintln!("gridsat-benchmark: no workload {name}; there are {known:?}");
                ExitCode::from(2)
            }
        },
        (Some("all"), None) => orchestrate::all(&parsed.options),
        (Some("selfcheck"), None) => orchestrate::selfcheck(&parsed.options),
        (Some("continuity"), None) => orchestrate::continuity(),
        (Some("describe"), None) => {
            print!("{}", catalog::benchmark_json().to_pretty());
            ExitCode::SUCCESS
        }
        (Some("glossary"), None) => {
            print!("{}", catalog::glossary());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: gridsat-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]\n       gridsat-benchmark all|selfcheck [--seed N] [--seconds S] [--smoke]\n       gridsat-benchmark continuity|describe|glossary"
            );
            ExitCode::from(2)
        }
    }
}

//! The modes that run more than one workload: `all` (each workload in a
//! child process of its own, so peak memory is per workload), `selfcheck`
//! (`all` twice, compared) and `continuity` (this commit against the
//! repository's older snapshot files).

use crate::catalog::{Workload, END_TO_END, PER_LAYER, SETUP_S, WORKLOADS};
use crate::json::{self, Json};
use crate::run::{run_pass, Tracing};
use crate::spans::Recorder;
use crate::workloads::{case_list, scaling_case, CaseList, Profile};
use crate::{exit_code, out_dir, Options};
use std::process::{Command, ExitCode, Stdio};

/// What a child printed: its result line, and the spread of its timings.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// name -> {value, unit}, as the child's result line has them.
    metrics: Vec<(String, Json)>,
    /// (metric, n, min, max) of the `timing` lines.
    timings: Vec<(String, f64, f64, f64)>,
}

impl ChildResult {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, m)| m.get("value"))
            .and_then(Json::as_f64)
    }
}

fn run_child(workload: Workload, trace: bool, options: &Options) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if options.profile == Profile::Smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child, so none outlives this call
    let output = command
        .output()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{}: the child printed nothing", workload.name()))?;
    let mut timings = Vec::new();
    for line in lines {
        println!("{line}");
        let words: Vec<&str> = line.split_whitespace().collect();
        if let ["timing", name, "n", n, "min", min, "max", max] = words[..] {
            let num = |s: &str| s.parse::<f64>().map_err(|e| format!("{line:?}: {e}"));
            timings.push((name.to_string(), num(n)?, num(min)?, num(max)?));
        }
    }
    let result = json::parse(last).map_err(|e| format!("{}: result line: {e}", workload.name()))?;
    let field = |key: &str| {
        result
            .get(key)
            .ok_or_else(|| format!("{}: result line lacks {key:?}", workload.name()))
    };
    let child = ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics: field("metrics")?.as_object().to_vec(),
        timings,
    };
    if child.correct != output.status.success() {
        return Err(format!(
            "{}: exit status {} disagrees with correct={}",
            workload.name(),
            output.status,
            child.correct
        ));
    }
    Ok(child)
}

struct WorkloadResult {
    workload: Workload,
    end_to_end: ChildResult,
    per_layer: ChildResult,
}

impl WorkloadResult {
    fn correct(&self) -> bool {
        self.end_to_end.correct && self.per_layer.correct
    }
}

fn run_all(options: &Options) -> Result<Vec<WorkloadResult>, String> {
    WORKLOADS
        .into_iter()
        .map(|workload| {
            Ok(WorkloadResult {
                workload,
                end_to_end: run_child(workload, false, options)?,
                per_layer: run_child(workload, true, options)?,
            })
        })
        .collect()
}

/// A child's metrics as one JSON object, timings with their spread.
fn metrics_json(child: &ChildResult) -> Json {
    Json::Obj(
        child
            .metrics
            .iter()
            .map(|(name, metric)| {
                let mut fields = metric.as_object().to_vec();
                if let Some((_, n, min, max)) = child.timings.iter().find(|t| t.0 == *name) {
                    fields.push(("n".into(), Json::Num(*n)));
                    fields.push(("min".into(), Json::Num(*min)));
                    fields.push(("max".into(), Json::Num(*max)));
                }
                (name.clone(), Json::Obj(fields))
            })
            .collect(),
    )
}

fn results_json(options: &Options, results: &[WorkloadResult]) -> Json {
    let profile = match options.profile {
        Profile::Full => "full",
        Profile::Smoke => "smoke",
    };
    Json::obj([
        ("seed", Json::Num(options.seed as f64)),
        ("seconds", Json::Num(options.seconds as f64)),
        ("profile", Json::str(profile)),
        (
            "workloads",
            Json::Obj(
                results
                    .iter()
                    .map(|r| {
                        let entry = Json::obj([
                            ("correct", Json::Bool(r.correct())),
                            (
                                "ops_attempted",
                                Json::Num(r.end_to_end.attempted + r.per_layer.attempted),
                            ),
                            (
                                "ops_failed",
                                Json::Num(r.end_to_end.failed + r.per_layer.failed),
                            ),
                            ("end_to_end", metrics_json(&r.end_to_end)),
                            ("per_layer", metrics_json(&r.per_layer)),
                        ]);
                        (r.workload.name().to_string(), entry)
                    })
                    .collect(),
            ),
        ),
    ])
}

fn write_results(options: &Options, results: &[WorkloadResult]) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join("results.json"),
        results_json(options, results).to_pretty(),
    )?;
    // the traced children left one span file each
    let mut trace = String::new();
    for r in results {
        trace += &std::fs::read_to_string(dir.join(format!("trace.{}.jsonl", r.workload.name())))?;
    }
    std::fs::write(dir.join("trace.jsonl"), trace)?;
    println!(
        "wrote {} and {}",
        dir.join("results.json").display(),
        dir.join("trace.jsonl").display()
    );
    Ok(())
}

/// Every workload, untraced then traced, each in its own child process.
pub fn all(options: &Options) -> ExitCode {
    match run_all(options) {
        Ok(results) => {
            if let Err(e) = write_results(options, &results) {
                eprintln!("gridsat-benchmark: cannot write results: {e}");
                return ExitCode::FAILURE;
            }
            exit_code(results.iter().all(WorkloadResult::correct))
        }
        Err(e) => {
            eprintln!("gridsat-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `all` twice: every deterministic number must be identical and every
/// other end-to-end metric must agree within its bound.
pub fn selfcheck(options: &Options) -> ExitCode {
    let (first, second) = match (run_all(options), run_all(options)) {
        (Ok(first), Ok(second)) => (first, second),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("gridsat-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut offending = Vec::new();
    for (a, b) in first.iter().zip(&second) {
        let name = a.workload.name();
        if !(a.correct() && b.correct()) {
            offending.push(format!("{name}: a run reported failed operations"));
        }
        for m in &END_TO_END {
            let pair = (a.end_to_end.value(m.name), b.end_to_end.value(m.name));
            let (Some(x), Some(y)) = pair else {
                offending.push(format!("{name} {}: missing", m.name));
                continue;
            };
            // set-up is short, so small absolute differences are let through
            let slack = if m.name == SETUP_S { 0.2 } else { 0.0 };
            let agree = if m.exact {
                x.to_bits() == y.to_bits()
            } else {
                (x - y).abs() <= (m.bound * x.min(y)).max(slack)
            };
            if !agree {
                offending.push(format!(
                    "{name} {}: {x} vs {y} {} ({})",
                    m.name,
                    m.unit,
                    if m.exact {
                        "must be identical".to_string()
                    } else {
                        format!("bound {}", m.bound)
                    }
                ));
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let pair = (a.per_layer.value(m.name), b.per_layer.value(m.name));
            if pair.0.is_none() || pair.0.map(f64::to_bits) != pair.1.map(f64::to_bits) {
                offending.push(format!(
                    "{name} {}: {:?} vs {:?} {} (must be identical)",
                    m.name, pair.0, pair.1, m.unit
                ));
            }
        }
    }
    if offending.is_empty() {
        println!("selfcheck: two sets of runs agree");
    } else {
        println!("selfcheck: {} rows disagree", offending.len());
        for row in &offending {
            println!("  {row}");
        }
    }
    exit_code(offending.is_empty())
}

/// One line per compared number; `true` when they are the same.
fn compare(what: &str, ours: f64, theirs: f64, decimals: usize) -> bool {
    let same = format!("{ours:.decimals$}") == format!("{theirs:.decimals$}");
    println!(
        "{} {what}: this commit {ours:.decimals$}, snapshot {theirs:.decimals$}",
        if same { "same    " } else { "MISMATCH" }
    );
    same
}

/// This commit against `table1.csv` (sequential column) and
/// `BENCH_scale.json` (n = 1000 rows), read from the current directory.
/// A mismatch is a fact to record, not a failure of this command.
pub fn continuity() -> ExitCode {
    let mut rec = Recorder::new(false);
    let mut mismatches = 0;

    match std::fs::read_to_string("table1.csv") {
        Err(e) => println!("table1.csv: {e}; run from the repository root"),
        Ok(csv) => {
            let list = case_list(Workload::SeqSuite, 0, Profile::Full);
            let pass = run_pass(&list, Tracing::Off, &mut rec);
            let (mut ours_total, mut theirs_total) = (0.0, 0.0);
            for line in csv.lines().skip(1) {
                let cols: Vec<&str> = line.split(',').collect();
                let (Some(name), Some(seconds)) = (cols.first(), cols.get(4)) else {
                    continue;
                };
                let run = pass
                    .runs
                    .iter()
                    .find(|r| Some(r.name.as_str()) == name.strip_suffix(".cnf"));
                if let (Some(run), Ok(theirs)) = (run, seconds.parse::<f64>()) {
                    ours_total += run.sim_s;
                    theirs_total += theirs;
                    mismatches += usize::from(!compare(&run.name, run.sim_s, theirs, 0));
                }
            }
            let same = compare("seq_suite rows, summed", ours_total, theirs_total, 0);
            mismatches += usize::from(!same);
        }
    }

    match std::fs::read_to_string("BENCH_scale.json").map(|text| json::parse(&text)) {
        Err(e) => println!("BENCH_scale.json: {e}; run from the repository root"),
        Ok(Err(e)) => println!("BENCH_scale.json: {e}"),
        Ok(Ok(snapshot)) => {
            for (hierarchical, mode) in [(false, "flat"), (true, "hierarchical")] {
                let row = snapshot
                    .get("rows")
                    .map_or(&[][..], Json::as_array)
                    .iter()
                    .find(|r| {
                        r.get("n").and_then(Json::as_f64) == Some(1000.0)
                            && r.get("mode").and_then(Json::as_str) == Some(mode)
                    });
                let Some(row) = row else {
                    println!("BENCH_scale.json has no n=1000 {mode} row");
                    continue;
                };
                // the exact scaling_1k configuration
                let list = CaseList {
                    cases: vec![scaling_case(1000, 10, 20, 38, hierarchical)],
                    probe: 0,
                };
                let pass = run_pass(&list, Tracing::Off, &mut rec);
                if let Some(why) = &pass.runs[0].failure {
                    println!("MISMATCH n=1000 {mode}: {why}");
                    mismatches += 1;
                }
                let theirs = |key| row.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
                for (what, ours, key, decimals) in [
                    ("sim_s", pass.sim_s(), "sim_s", 1),
                    ("messages", pass.acc.messages as f64, "messages", 0),
                    ("wire_bytes", pass.acc.bytes as f64, "wire_bytes", 0),
                ] {
                    let what = format!("n=1000 {mode} {what}");
                    mismatches += usize::from(!compare(&what, ours, theirs(key), decimals));
                }
            }
        }
    }
    println!("continuity: {mismatches} mismatches");
    ExitCode::SUCCESS
}

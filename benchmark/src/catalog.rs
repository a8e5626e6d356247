//! What the benchmark measures, in one place: the four workloads, the
//! four end-to-end metrics with their bounds, and every per-layer metric
//! with the layer it belongs to and the end-to-end metric it should move.
//! `BENCHMARK.json` at the repository root is this file rendered by
//! `gridsat-benchmark describe`; a test keeps the two equal.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SeqSuite,
    GridTable1,
    Scale400Flat,
    Scale400Hier,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::SeqSuite,
    Workload::GridTable1,
    Workload::Scale400Flat,
    Workload::Scale400Hier,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SeqSuite => "seq_suite",
            Workload::GridTable1 => "grid_table1",
            Workload::Scale400Flat => "scale400_flat",
            Workload::Scale400Hier => "scale400_hier",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SeqSuite => {
                "sequential core alone, engine/wire/control plane idle: a solver gain shows undiluted, a control-plane change must not move it"
            }
            Workload::GridTable1 => {
                "paper headline: Table-1 rows on the 34-host GrADS testbed; solver-dominated with real splits, relay sharing and migration"
            }
            Workload::Scale400Flat => {
                "400 slow clients on one root master: the root queue saturates, so engine, codec and Master do the host work, the solver little"
            }
            Workload::Scale400Hier => {
                "same fleet and instance brokered by per-site sub-masters and direct steals: the other control-plane path, root queue near zero"
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Deterministic: must repeat exactly for one seed on one commit.
    pub exact: bool,
    pub meaning: &'static str,
}

pub const SIM_ANSWER_S: &str = "sim_answer_s";
pub const HOST_WALL_S: &str = "host_wall_s";
pub const SETUP_S: &str = "setup_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: SIM_ANSWER_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        exact: true,
        meaning: "simulated seconds to the verdict, summed over the workload's cases (sequential cases: work / 1000, the seconds of the fastest dedicated host)",
    },
    EndToEnd {
        name: HOST_WALL_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        meaning: "host wall-clock of the timed region of one pass over the cases (Solver::step, or run_until + report); median of the passes",
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        meaning: "host wall-clock of everything before the timed region of one pass (instance generation, Solver::new / build_sim); median of the passes",
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        exact: false,
        meaning: "VmHWM of the workload's process when the untraced passes are done",
    },
];

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Module the number belongs to.
    pub layer: &'static str,
    /// End-to-end metric (and workload) the number should move.
    pub moves: &'static str,
    /// Deterministic count: must repeat exactly for one seed on one commit.
    pub exact: bool,
}

const fn rate(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Higher,
        layer,
        moves,
        exact: false,
    }
}

const fn cost(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Lower,
        layer,
        moves,
        exact: false,
    }
}

/// A deterministic number of the simulation (a count, or a simulated
/// time): must repeat exactly for one seed on one commit.
const fn exact(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Lower,
        layer,
        moves,
        exact: true,
    }
}

const SOLVER: &str = "gridsat-solver";
const WIRE: &str = "gridsat::wire";
const ENGINE: &str = "gridsat-grid::engine";
const MASTER: &str = "gridsat::master";
const SUBMASTER: &str = "gridsat::submaster";
const CLIENT: &str = "gridsat::client";
const JOURNAL: &str = "gridsat::journal";
const OBS: &str = "gridsat-obs";
const THREADS: &str = "gridsat-grid::threads";

const HOST_ALL: &str = "host_wall_s on all four; never sim_answer_s (work is the sim clock)";
const SIM_SEQ: &str = "sim_answer_s@seq_suite";
const HOST_SPLITS: &str =
    "host_wall_s@scale400_* (thousands of splits and steals); no movement on seq_suite";
const HOST_WIRE: &str = "host_wall_s@scale400_* and @grid_table1";
const SIM_WIRE: &str =
    "sim_answer_s@scale400_* through transfer time, host_wall_s through encode/copy; 0 on seq_suite";
const HOST_ENGINE: &str = "host_wall_s@scale400_*; must leave every simulated count identical";
const SIM_MASTER: &str =
    "sim_answer_s@scale400_flat (waiting for a grant is idle client time) and @grid_table1; about 0 queue on scale400_hier";
const SIM_SUB: &str = "sim_answer_s@scale400_hier; 0 on the other three";
const SIM_GRID: &str = "sim_answer_s on the three grid workloads";
const HOST_JOURNAL: &str = "host_wall_s@scale400_* (one append per commit)";
const NONE_RECOVER: &str =
    "nothing end to end; recorded so a write-path gain that costs replay shows";
const ATTRIBUTE: &str = "attributes sim_answer_s@grid_table1";
const BUDGET: &str = "the observability budget (ROADMAP aim 4), not an end-to-end metric";
const INFO: &str = "informational, not gated";

pub const PER_LAYER: &[LayerMetric] = &[
    // solver: a replay solver on the workload's probe formula
    rate("solver.work_per_s", "1/s", SOLVER, HOST_ALL),
    rate("solver.props_per_s", "1/s", SOLVER, HOST_ALL),
    rate("solver.conflicts_per_s", "1/s", SOLVER, HOST_ALL),
    // solver: exact sums over the workload's sequential cases
    exact("solver.work_total", "count", SOLVER, SIM_SEQ),
    exact("solver.conflicts_total", "count", SOLVER, SIM_SEQ),
    exact("solver.learned_total", "count", SOLVER, SIM_SEQ),
    exact("solver.deleted_total", "count", SOLVER, SIM_SEQ),
    exact("solver.gc_runs", "count", SOLVER, SIM_SEQ),
    exact("solver.peak_db_bytes", "bytes", SOLVER, "peak_rss_mb"),
    cost("solver.new_us", "us", SOLVER, HOST_SPLITS),
    cost("solver.split_off_us", "us", SOLVER, HOST_SPLITS),
    cost("solver.from_split_us", "us", SOLVER, HOST_SPLITS),
    cost("solver.spec_clauses_median", "count", SOLVER, HOST_SPLITS),
    // wire: replay on the specs and share batches of the replay solver
    rate("wire.spec_seal_mb_s", "MB/s", WIRE, HOST_WIRE),
    rate("wire.spec_open_mb_s", "MB/s", WIRE, HOST_WIRE),
    cost("wire.spec_bytes_median", "bytes", WIRE, SIM_WIRE),
    rate("wire.batch_encode_mb_s", "MB/s", WIRE, HOST_WIRE),
    rate("wire.batch_decode_mb_s", "MB/s", WIRE, HOST_WIRE),
    cost("wire.batch_bytes_per_clause", "bytes", WIRE, SIM_WIRE),
    rate("wire.crc32_mb_s", "MB/s", WIRE, HOST_WIRE),
    // wire: the engine trace grouped by message kind
    exact("wire.bytes_total", "bytes", WIRE, SIM_WIRE),
    exact("wire.bytes_subproblem", "bytes", WIRE, SIM_WIRE),
    exact("wire.bytes_share", "bytes", WIRE, SIM_WIRE),
    exact("wire.bytes_checkpoint", "bytes", WIRE, SIM_WIRE),
    exact("wire.bytes_roster", "bytes", WIRE, SIM_WIRE),
    exact("wire.bytes_control", "bytes", WIRE, SIM_WIRE),
    exact("wire.msgs_total", "count", WIRE, SIM_WIRE),
    exact("wire.msgs_subproblem", "count", WIRE, SIM_WIRE),
    exact("wire.msgs_share", "count", WIRE, SIM_WIRE),
    exact("wire.msgs_checkpoint", "count", WIRE, SIM_WIRE),
    exact("wire.msgs_roster", "count", WIRE, SIM_WIRE),
    exact("wire.msgs_control", "count", WIRE, SIM_WIRE),
    // engine
    exact("engine.events", "count", ENGINE, HOST_ENGINE),
    exact("engine.messages", "count", ENGINE, HOST_ENGINE),
    exact("engine.ticks", "count", ENGINE, HOST_ENGINE),
    exact("engine.dropped", "count", ENGINE, HOST_ENGINE),
    cost("engine.host_us_per_event", "us", ENGINE, HOST_ENGINE),
    rate("engine.null_events_per_s", "1/s", ENGINE, HOST_ENGINE),
    cost("engine.trace_overhead_frac", "ratio", ENGINE, BUDGET),
    // master
    exact("master.queue_depth_max", "count", MASTER, SIM_MASTER),
    exact("master.queue_depth_mean", "count", MASTER, SIM_MASTER),
    exact("master.split_wait_p50_s", "s", MASTER, SIM_MASTER),
    exact("master.split_wait_p99_s", "s", MASTER, SIM_MASTER),
    exact("master.splits", "count", MASTER, SIM_MASTER),
    exact("master.backlogged", "count", MASTER, SIM_MASTER),
    exact("master.migrations", "count", MASTER, SIM_MASTER),
    exact("master.max_active_clients", "count", MASTER, SIM_MASTER),
    exact("master.results", "count", MASTER, SIM_MASTER),
    // sub-masters
    exact("submaster.tickets", "count", SUBMASTER, SIM_SUB),
    exact("submaster.steals_settled", "count", SUBMASTER, SIM_SUB),
    exact("submaster.steals_aborted", "count", SUBMASTER, SIM_SUB),
    exact("submaster.escalations", "count", SUBMASTER, SIM_SUB),
    LayerMetric {
        name: "submaster.steal_success_frac",
        unit: "ratio",
        better: Better::Higher,
        layer: SUBMASTER,
        moves: SIM_SUB,
        exact: true,
    },
    // clients
    exact("client.work_total", "count", CLIENT, SIM_GRID),
    exact(
        "client.work_vs_seq",
        "ratio",
        CLIENT,
        "sim_answer_s@grid_table1 (search overhead of splitting); 0 elsewhere",
    ),
    LayerMetric {
        name: "client.busy_frac",
        unit: "ratio",
        better: Better::Higher,
        layer: CLIENT,
        moves: "sim_answer_s on the grid workloads: the idle-time number behind hierarchical-slower-than-flat",
        exact: true,
    },
    exact("client.subproblems", "count", CLIENT, SIM_GRID),
    exact("client.split_requests", "count", CLIENT, SIM_GRID),
    exact("client.load_reports_sent", "count", CLIENT, SIM_GRID),
    exact("client.load_reports_suppressed", "count", CLIENT, SIM_GRID),
    exact("client.share_batches_sent", "count", CLIENT, SIM_GRID),
    exact("client.clauses_received", "count", CLIENT, SIM_GRID),
    exact("client.dup_share_drops", "count", CLIENT, SIM_GRID),
    exact("client.shares_forwarded", "count", CLIENT, SIM_GRID),
    // journal: replay of the root master's finished journal
    exact("journal.len", "count", JOURNAL, HOST_JOURNAL),
    exact("journal.log_bytes", "bytes", JOURNAL, HOST_JOURNAL),
    rate("journal.append_records_per_s", "1/s", JOURNAL, HOST_JOURNAL),
    rate("journal.recover_records_per_s", "1/s", JOURNAL, NONE_RECOVER),
    // obs
    exact("critpath.solve_s", "s", OBS, ATTRIBUTE),
    exact("critpath.wire_s", "s", OBS, ATTRIBUTE),
    exact("critpath.master_queue_s", "s", OBS, ATTRIBUTE),
    exact("critpath.retransmit_s", "s", OBS, ATTRIBUTE),
    exact(
        "critpath.uncovered_cases",
        "count",
        OBS,
        "nothing end to end: cases whose verdict has no causal chain, so their seconds are missing from critpath.*",
    ),
    cost("obs.ring_overhead_frac", "ratio", OBS, BUDGET),
    cost("obs.solver_ring_overhead_frac", "ratio", OBS, BUDGET),
    // thread backend
    LayerMetric {
        name: "threads.workers",
        unit: "count",
        better: Better::Higher,
        layer: THREADS,
        moves: INFO,
        exact: false,
    },
    cost("threads.wall_ratio_vs_seq", "ratio", THREADS, INFO),
];

/// Seconds one driver run measures; the workloads are sized for it.
pub const RUN_SECONDS: u64 = 12;

/// The repository's `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.into_iter().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .into_iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The metric glossary as the README prints it: what each number means,
/// which layer it belongs to and which end-to-end metric it should move.
pub fn glossary() -> String {
    let mut out = String::from(
        "| end-to-end | unit | better | may worsen by | meaning |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {} % | {}{} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.meaning,
            if m.exact { "; repeats exactly" } else { "" }
        );
    }
    out += "\n| per-layer | unit | better | layer | should move |\n|---|---|---|---|---|\n";
    for m in PER_LAYER {
        out += &format!(
            "| `{}`{} | {} | {} | `{}` | {} |\n",
            m.name,
            if m.exact { " (exact)" } else { "" },
            m.unit,
            m.better.as_str(),
            m.layer,
            m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalog_meets_the_schema_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name()), "{}", w.name());
            assert!(seen.insert(w.name()), "{} used twice", w.name());
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(!m.meaning.is_empty());
        }
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            // every per-layer metric names its layer and what it should move
            assert!(!m.layer.is_empty() && !m.moves.is_empty(), "{}", m.name);
        }
    }

    #[test]
    fn readme_tables_are_the_glossary() {
        let readme = include_str!("../README.md");
        for row in glossary().lines().filter(|l| l.starts_with("| `")) {
            assert!(
                readme.contains(row),
                "README.md lacks this row of `gridsat-benchmark glossary`:\n{row}"
            );
        }
    }

    #[test]
    fn checked_in_benchmark_json_is_this_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 << 10);
        let on_disk = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `gridsat-benchmark describe > BENCHMARK.json`"
        );
        let keys: Vec<&str> = on_disk
            .as_object()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for arg in on_disk.get("command").unwrap().as_array() {
            let arg = arg.as_str().unwrap();
            assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        }
    }
}

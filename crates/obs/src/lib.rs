//! `gridsat-obs`: the unified event-tracing layer.
//!
//! The paper's evaluation hinges on observing a distributed run — which
//! client was busy when, how many messages crossed the WAN, how the
//! clause database grew. This crate gives every component one small
//! vocabulary for that:
//!
//! - [`Event`] / [`TimedEvent`]: the lifecycle taxonomy (solver
//!   conflicts/restarts/learning, engine message send/deliver/drop,
//!   master scheduling decisions and outcomes), serialized one event per
//!   line as flat JSON ([`to_jsonl`] / [`from_jsonl`]).
//! - [`RingBuffer`] / [`Obs`]: a bounded recorder behind a cloneable
//!   handle whose disabled state costs a single branch, so
//!   instrumentation can stay in release builds.
//! - [`Histogram`]: fixed buckets with quantiles and a lossless merge,
//!   behind the master's latency telemetry.
//! - [`fold_utilization`] / [`UtilizationReport`]: folds a trace into
//!   per-client busy spans and the paper-style utilization summary
//!   rendered by the `trace_report` binary.
//! - [`critical_path`] / [`CriticalPath`] / [`analyze`]: walks the
//!   causal `seq`/`cause` stamps backward from the final answer and
//!   attributes every second of the run to solve / wire / master-queue
//!   / retransmit; [`detect_anomalies`] flags the failure signatures
//!   (lease churn, retransmit storms, wedged runs, share-tree re-link churn)
//!   rendered by the `grid_report` binary.
//!
//! A run's counters are not here: they live in the stats structs of the
//! crates that count them (`gridsat_solver::Stats`, `gridsat_grid::SimStats`,
//! `gridsat::MasterStats`, ...), each with an exhaustive `absorb`.
//!
//! No external dependencies: the crate is pure `std` so it can sit under
//! the solver's hot path and build offline.

pub mod critical;
pub mod event;
pub mod json;
pub mod metrics;
pub mod report;
pub mod sink;

pub use critical::{
    analyze, critical_path, detect_anomalies, Anomaly, CriticalPath, Segment, SegmentKind,
    TraceAnalysis,
};
pub use event::{from_jsonl, to_jsonl, DecodeError, DropReason, Event, TimedEvent};
pub use metrics::Histogram;
pub use report::{fold_utilization, ClientUsage, Span, UtilizationReport};
pub use sink::{Obs, RingBuffer};

//! # GridSAT — a Chaff-based distributed SAT solver for the Grid
//!
//! Reproduction of *Chrabakh & Wolski, "GridSAT: A Chaff-based
//! Distributed SAT Solver for the Grid", SC'03*.
//!
//! GridSAT couples a zChaff-style CDCL core ([`gridsat_solver`]) with a
//! master-client Grid runtime: the search space is split on demand along
//! guiding paths, learned clauses below a length limit are shared
//! globally, and an adaptive scheduler acquires resources only when a
//! client predicts memory exhaustion or has been running too long —
//! "the goal of the scheduler is to keep the execution as sequential as
//! possible and to use parallelism only when it is needed".
//!
//! ## Quick start
//!
//! ```
//! use gridsat::{experiment, GridConfig, GridOutcome};
//! use gridsat_grid::Testbed;
//!
//! let formula = gridsat_cnf::paper::fig1_formula();
//! let report = experiment::run(
//!     &formula,
//!     Testbed::uniform(4, 1000.0, 3 << 20),
//!     GridConfig::default(),
//! );
//! assert!(matches!(report.outcome, GridOutcome::Sat(_)));
//! ```
//!
//! ## Components
//!
//! * [`Master`] — resource manager, client manager, scheduler, work
//!   backlog, migration, SAT verification (paper Section 3.3-3.4);
//! * [`Client`] — solve loop, memory monitor, split time-out, clause
//!   sharing and merging (Sections 3.1-3.3);
//! * [`msg::GridMsg`] — the wire protocol, including Figure 3's five-way
//!   split handshake;
//! * [`wire`] — sealed, checksummed frames for subproblem specs and
//!   clause batches;
//! * [`experiment`] — deterministic end-to-end runs over
//!   [`gridsat_grid::Testbed`]s;
//! * [`config::GridConfig`] — what differs between runs (share limits
//!   10/3, 100 s split time-out, sharing rounds, the extension switches
//!   below), beside the constants that do not (60% memory fraction,
//!   128 MB floor, heartbeat and failover timings);
//! * [`journal`], [`StandbyNode`], [`SubMaster`], [`chaos`] — the
//!   extensions: the master's write-ahead journal and the cube ledger it
//!   folds to, the journal-tailing standby, per-site sub-masters and the
//!   seeded fault plans they are tested under.

pub mod chaos;
pub mod client;
pub mod config;
pub mod experiment;
mod idle;
pub mod journal;
pub mod master;
pub mod msg;
pub mod standby;
pub mod submaster;
pub mod wire;

pub use chaos::{CrashWindow, FaultPlan, LinkWindow};
pub use client::Client;
pub use config::{GridConfig, Reliability};
pub use experiment::{run, GridNode, GridReport, GridSim};
pub use journal::{ClientState, JournalRecord, MasterJournal, RecoverySpec};
pub use master::{GrantKind, GridOutcome, LatencySummary, Master, MasterStats, MasterTelemetry};
pub use msg::{GridMsg, SubResult};
pub use standby::StandbyNode;
pub use submaster::{SubMaster, SubMasterStats};
pub use wire::{EncodedBatch, WireError};

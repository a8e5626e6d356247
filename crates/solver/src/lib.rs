//! A zChaff-style CDCL SAT solver core for the GridSAT reproduction.
//!
//! This crate rebuilds the solver the paper uses as its sequential core
//! (Section 2): the DPLL search with two-watched-literal Boolean constraint
//! propagation, VSIDS decision heuristic, FirstUIP conflict-driven clause
//! learning and non-chronological backjumping — plus the hooks GridSAT
//! needs on top (Section 3): bounded *steppable* execution, a byte-budgeted
//! clause database with memory-pressure reporting, guiding-path splitting,
//! and clause-sharing outbox/inbox with the paper's four merge cases
//! ([`Solver::take_shared`] out, [`Solver::queue_fresh`] in).
//!
//! # Quick start
//!
//! ```
//! use gridsat_cnf::paper;
//! use gridsat_solver::{driver, SolveStatus};
//!
//! let formula = paper::fig1_formula();
//! assert_eq!(driver::decide(&formula), SolveStatus::Sat);
//! ```
//!
//! # Architecture
//!
//! * [`Solver`] — the CDCL engine; drive it with [`Solver::step`].
//! * [`driver`] — run-to-completion sequential driver with the paper's
//!   `TIME_OUT` / `MEM_OUT` semantics.
//! * [`SolverConfig`] — the six values a caller sets; the rest of the
//!   paper's zChaff configuration is fixed.
//! * [`SplitSpec`] — a serialized subproblem, produced by
//!   [`Solver::split_off`] and consumed by [`Solver::from_split`]. Both
//!   wrap the borrowing forms a sender that encodes as it goes uses:
//!   [`Solver::split_off_with`] hands each clause out of the arena, and
//!   [`Solver::from_split_parts`] loads literal slices;
//!   [`Solver::export_with`] hands out the whole subproblem the same way.
//! * [`proof`] — DRAT proof logging with a built-in independent RUP
//!   checker (extension).

mod clausedb;
mod config;
pub mod driver;
pub mod proof;
mod share;
mod solver;
mod stats;
mod vsids;
mod watch;

pub use clausedb::ClauseRef;
pub use config::{RestartConfig, SolverConfig};
pub use driver::{Limits, Outcome, Report};
pub use proof::{Proof, ProofError, ProofStep};
pub use share::{FpIds, FpWindow, LockedWindow};
pub use solver::{
    ConflictAnalysis, GraphNode, ResolutionStep, SolveStatus, Solver, SplitSpec, Step,
};
pub use stats::Stats;

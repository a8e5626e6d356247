//! CNF formula representation for the GridSAT reproduction.
//!
//! This crate provides the vocabulary types shared by every other crate in
//! the workspace: [`Var`], [`Lit`], [`Value`], [`Clause`], [`ClauseList`],
//! [`Formula`] and [`Assignment`], plus DIMACS CNF reading and writing in
//! [`dimacs`].
//!
//! Conventions follow the paper ("GridSAT: A Chaff-based Distributed SAT
//! Solver for the Grid", SC'03):
//!
//! * a *literal* is a variable or its complement;
//! * a *clause* is a disjunction (logical OR) of literals;
//! * a *formula* (CNF) is a conjunction (logical AND) of clauses;
//! * a formula is *satisfiable* iff some assignment makes every clause true.
//!
//! # Example
//!
//! ```
//! use gridsat_cnf::{Formula, Lit, Value};
//!
//! // (x1 OR ~x2) AND (x2)
//! let mut f = Formula::new(2);
//! f.add_clause([Lit::pos(0), Lit::neg(1)]);
//! f.add_clause([Lit::pos(1)]);
//!
//! let mut a = f.empty_assignment();
//! a.set(1.into(), Value::True);
//! a.set(0.into(), Value::True);
//! assert!(f.is_satisfied_by(&a));
//! ```

mod assignment;
mod clause;
mod clause_list;
pub mod dimacs;
mod formula;
mod lit;
pub mod paper;
pub mod rng;

pub use assignment::Assignment;
pub use clause::Clause;
pub use clause_list::{ClauseList, ClauseLits, Clauses};
pub use dimacs::{
    parse_dimacs, parse_dimacs_file, parse_dimacs_str, to_dimacs_string, write_dimacs, DimacsError,
};
pub use formula::Formula;
pub use lit::{Lit, Value, Var};

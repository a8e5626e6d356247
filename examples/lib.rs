//! Shared helpers for the GridSAT examples (see the sibling `*.rs`
//! binaries: `quickstart`, `solve_dimacs`, `threads_parallel`,
//! `fault_tolerance`).

//! Stand-in for `serde`: the two trait names (never implemented — the
//! stand-in derives expand to nothing) next to the derive macros of the
//! same names, which is all `use serde::{Deserialize, Serialize}` needs.

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
pub trait Deserialize<'de>: Sized {}

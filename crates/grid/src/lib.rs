//! Grid substrate for the GridSAT reproduction.
//!
//! The paper runs on a nationally distributed, shared, heterogeneous
//! Computational Grid (the GrADS testbed, UCSB/UCSD desktops and the IBM
//! Blue Horizon batch system). This crate rebuilds that environment as:
//!
//! * [`topology`] — host/site/link descriptions, including the paper's two
//!   experiment testbeds ([`Testbed::grads`], [`Testbed::set2`]) and the
//!   Blue Horizon batch window ([`Testbed::with_blue_horizon`]);
//! * [`process`] — the reactive [`Process`]/[`Ctx`] abstraction GridSAT's
//!   master and clients are written against;
//! * [`engine`] — a deterministic discrete-event simulator that delivers
//!   messages with latency + bandwidth cost, charges solver work against
//!   per-host speed and NWS-style background-load traces, and manages
//!   batch node windows;
//! * [`threads`] — a real-thread backend running the same processes with
//!   `std::sync::mpsc` channels for genuine parallelism;
//! * [`reliable`] — an acked at-least-once delivery wrapper for
//!   control-plane messages (the paper's protocol assumes TCP streams;
//!   the engine's drops and injected chaos need explicit recovery).
//!
//! Determinism: the engine breaks event ties by sequence number and draws
//! all randomness from seeded traces, so a full experiment re-runs
//! bit-for-bit — including injected faults ([`NetChaos`], scheduled
//! crash/partition events), which are driven by their own seeds.

pub mod engine;
pub mod process;
pub mod reliable;
pub mod threads;
pub mod topology;

pub use engine::{NetChaos, RunEnd, Sim, SimStats, TraceEvent};
pub use process::{Action, Ctx, MessageSize, NodeInfo, Process};
pub use reliable::{Reliable, ReliableProcess, ReliableStats, Wire};
pub use threads::ThreadGrid;
pub use topology::{HostSpec, Link, NetModel, NodeId, Site, Testbed};

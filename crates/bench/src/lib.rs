//! Shared constants and helpers for the table/figure regeneration
//! binaries.
//!
//! The scaling conventions (DESIGN.md Section 5): the reference host — a
//! dedicated node of the best UTK cluster, where the paper ran its
//! sequential zChaff baseline — executes 1000 solver work-units per
//! simulated second; the paper's 18000-second sequential cap and ~1 GB of
//! usable memory become an 18M work-unit cap and a 2.2 MB model-byte
//! budget.

/// Work units per simulated second on the reference (fastest) host.
pub const REFERENCE_SPEED: f64 = 1000.0;

/// The paper's 18000-second zChaff cap, in work units.
pub const ZCHAFF_WORK_CAP: u64 = 18_000_000;

/// The sequential baseline's memory budget in model bytes (~1 GB scaled).
pub const ZCHAFF_MEM_BUDGET: usize = (22 << 20) / 10;

/// What one foreign-clause merge may charge a client of `speed` work
/// units per second under `config`'s sharing rounds: a quantum plus the
/// longest shareable clause. `None` under the paper's share protocol,
/// where a merge drains the whole inbox whatever it costs.
pub fn merge_burst_bound(config: &gridsat::GridConfig, speed: f64) -> Option<u64> {
    config.share_round_s?;
    let quantum = (speed * config.work_quantum_s).max(1.0) as u64;
    Some(quantum + config.share_len_limit.unwrap_or(0) as u64)
}

/// Convert baseline work units to the paper's "seconds on the fastest
/// dedicated machine".
pub fn work_to_seconds(work: u64) -> f64 {
    work as f64 / REFERENCE_SPEED
}

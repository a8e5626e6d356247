//! The SAT2002-like evaluation suite: one stand-in per paper instance.
//!
//! The paper evaluates 42 SAT2002 instances (Table 1) plus the hard subset
//! re-run with batch resources (Table 2). The real files are not
//! redistributable and are far beyond laptop scale, so each paper instance
//! is mapped to a *generated* instance from the same family with parameters
//! scaled so that sequential solve times span the same qualitative regimes:
//! seconds-scale "small" instances (where the paper sees parallel
//! *slowdown* from communication overhead), minutes-scale instances (where
//! GridSAT wins), sequential-intractable instances (zChaff TIME_OUT /
//! MEM_OUT rows), and instances neither solver finishes.
//!
//! The ground-truth SAT/UNSAT status of every stand-in matches the paper's
//! reported status by construction.

use crate::{coloring, counter, factoring, hanoi, php, pipe, qg, random_ksat, xor};
use gridsat_cnf::Formula;

/// Ground-truth satisfiability status.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    Sat,
    Unsat,
    /// The paper marks the instance `*`: solution unknown at the time.
    Unknown,
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Status::Sat => write!(f, "SAT"),
            Status::Unsat => write!(f, "UNSAT"),
            Status::Unknown => write!(f, "*"),
        }
    }
}

/// Which section of the paper's Table 1 the instance appears in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Section {
    /// Solved by both zChaff and GridSAT.
    SolvedByBoth,
    /// Solved by GridSAT only (zChaff TIME_OUT or MEM_OUT).
    GridOnly,
    /// Solved by neither within the caps (Table 2 re-runs these).
    Unsolved,
}

/// One paper instance and its generated stand-in.
pub struct InstanceSpec {
    /// The SAT2002 file name as printed in the paper's tables.
    pub paper_name: &'static str,
    /// The paper's reported status (ours matches by construction).
    pub status: Status,
    /// Table 1 section.
    pub section: Section,
    /// Generator family of the stand-in.
    pub family: &'static str,
    /// Builds the stand-in formula.
    pub build: fn() -> Formula,
}

impl InstanceSpec {
    /// Generate the stand-in.
    pub fn formula(&self) -> Formula {
        (self.build)()
    }
}

macro_rules! spec {
    ($name:literal, $status:ident, $section:ident, $family:literal, $build:expr) => {
        InstanceSpec {
            paper_name: $name,
            status: Status::$status,
            section: Section::$section,
            family: $family,
            build: $build,
        }
    };
}

/// The full 42-instance Table 1 suite, in the paper's row order.
///
/// Parameters were calibrated (`gridsat-bench`'s `table1` binary prints
/// the sequential column) so that sequential solve costs, in work units at the reference host
/// speed of 1000 units/second, land in the paper's reported regimes:
/// the solved-by-both rows cost well under the 18M-unit zChaff cap, the
/// GridSAT-only rows exceed the cap or overflow the 3 MB baseline memory
/// budget, and the remaining rows are out of reach for both solvers.
pub fn table1_suite() -> Vec<InstanceSpec> {
    vec![
        // ---- Problems solved by both zChaff and GridSAT -----------------
        spec!("6pipe.cnf", Unsat, SolvedByBoth, "miter", || {
            pipe::mult_miter(6, false) // ~8.4M work
        }),
        spec!(
            "avg-checker-5-34.cnf",
            Unsat,
            SolvedByBoth,
            "parity",
            || {
                xor::parity(64, 56, 4, false, 534) // ~1.7M
            }
        ),
        spec!("bart15.cnf", Sat, SolvedByBoth, "parity", || {
            xor::parity(92, 82, 5, true, 16) // ~1.8M
        }),
        spec!("cache_05.cnf", Sat, SolvedByBoth, "parity", || {
            xor::parity(92, 82, 5, true, 17) // ~1.3M
        }),
        spec!("cnt09.cnf", Sat, SolvedByBoth, "counter", || {
            counter::counter(8, 150, 90) // ~5.2M
        }),
        spec!("dp12s12.cnf", Sat, SolvedByBoth, "parity", || {
            xor::parity(100, 88, 5, true, 904) // ~9.2M
        }),
        spec!("homer11.cnf", Unsat, SolvedByBoth, "php", || php::php(9, 8)), // ~0.9M
        spec!("homer12.cnf", Unsat, SolvedByBoth, "php", || {
            php::php(10, 9) // ~7.1M
        }),
        spec!("ip38.cnf", Unsat, SolvedByBoth, "urquhart", || {
            xor::urquhart(13, 38) // ~5.2M
        }),
        spec!(
            "rand_net50-60-5.cnf",
            Unsat,
            SolvedByBoth,
            "rand3sat",
            || {
                random_ksat::random_ksat(195, 896, 3, 1) // ~10.3M
            }
        ),
        spec!("vda_gr_rcs_w8.cnf", Sat, SolvedByBoth, "factoring", || {
            factoring::factoring(1_040_399, 11, 20) // 1019*1021 => SAT, ~1.2M
        }),
        spec!("w08_14.cnf", Sat, SolvedByBoth, "parity", || {
            xor::parity(100, 88, 5, true, 900) // ~10.7M
        }),
        spec!("w10_75.cnf", Sat, SolvedByBoth, "rand3sat", || {
            random_ksat::random_ksat(150, 615, 3, 1) // ~0.6M, SAT (verified)
        }),
        spec!(
            "Urquhart-s3-b1.cnf",
            Unsat,
            SolvedByBoth,
            "urquhart",
            || {
                xor::urquhart(11, 31) // ~0.53M
            }
        ),
        spec!("ezfact48_5.cnf", Unsat, SolvedByBoth, "factoring", || {
            factoring::factoring(4093, 7, 12) // prime => UNSAT, ~0.15M
        }),
        spec!(
            "glassy-sat-sel_N210_n.cnf",
            Sat,
            SolvedByBoth,
            "planted",
            || random_ksat::planted_ksat(120, 500, 3, 210) // ~1k: tiny
        ),
        spec!("grid_10_20.cnf", Unsat, SolvedByBoth, "coloring", || {
            coloring::coloring(
                &coloring::Graph::random(50, 0.30, 0),
                5,
                "grid_10_20-coloring", // ~0.5M
            )
        }),
        spec!("hanoi5.cnf", Sat, SolvedByBoth, "hanoi", || {
            hanoi::hanoi(4, 29) // ~1.5M
        }),
        spec!("hanoi6_fast.cnf", Sat, SolvedByBoth, "hanoi", || {
            hanoi::hanoi(4, 21) // ~0.6M
        }),
        spec!("lisa20_1_a.cnf", Sat, SolvedByBoth, "rand3sat", || {
            random_ksat::random_ksat(150, 615, 3, 3) // ~78k, SAT (verified)
        }),
        spec!("lisa21_3_a.cnf", Sat, SolvedByBoth, "rand3sat", || {
            random_ksat::random_ksat(160, 665, 3, 2130) // ~4.7M, SAT (verified)
        }),
        spec!(
            "pyhala-braun-sat-30-4-02.cnf",
            Sat,
            SolvedByBoth,
            "factoring",
            || factoring::factoring(1517, 6, 11) // 37*41 => SAT, ~36k
        ),
        spec!("qg2-8.cnf", Sat, SolvedByBoth, "qg", || qg::qg_sat(
            12, 20, 28
        )), // ~7k
        // ---- Problems solved by GridSAT only ----------------------------
        spec!("7pipe_bug.cnf", Sat, GridOnly, "parity", || {
            xor::parity(106, 94, 5, true, 815) // ~19M: past the zChaff cap
        }),
        spec!("dp10u09.cnf", Unsat, GridOnly, "rand3sat", || {
            random_ksat::random_ksat(215, 989, 3, 3) // ~56M
        }),
        spec!("rand_net40-60-10.cnf", Unsat, GridOnly, "rand3sat", || {
            random_ksat::random_ksat(225, 1035, 3, 4060) // ~80M
        }),
        spec!("f2clk_40.cnf", Unsat, GridOnly, "parity", || {
            xor::parity(55, 47, 5, false, 13) // ~28M
        }),
        spec!("Mat26.cnf", Unsat, GridOnly, "factoring", || {
            factoring::factoring(16_769_023, 13, 24) // prime; DB overflows
        }),
        spec!("7pipe.cnf", Unsat, GridOnly, "factoring", || {
            factoring::factoring(16_777_139, 13, 24) // prime; DB overflows
        }),
        spec!("comb2.cnf", Unsat, GridOnly, "parity", || {
            xor::parity(55, 47, 5, false, 15) // ~45M
        }),
        spec!(
            "pyhala-braun-unsat-40-4-01.cnf",
            Unsat,
            GridOnly,
            "factoring",
            || factoring::factoring(16_777_183, 13, 24) // prime; overflows
        ),
        spec!(
            "pyhala-braun-unsat-40-4-02.cnf",
            Unsat,
            GridOnly,
            "factoring",
            || factoring::factoring(16_769_017, 13, 24) // prime; overflows
        ),
        spec!("w08_15.cnf", Sat, GridOnly, "parity", || {
            xor::parity(108, 96, 5, true, 902) // >70M
        }),
        // ---- Remaining problems (solved by neither in Table 1) ----------
        spec!("comb1.cnf", Unknown, Unsolved, "parity", || {
            xor::parity(110, 96, 5, false, 11) // multi-G
        }),
        spec!("par32-1-c.cnf", Sat, Unsolved, "parity", || {
            xor::parity(140, 124, 5, true, 333) // Blue Horizon scale
        }),
        spec!("rand_net70-25-5.cnf", Unsat, Unsolved, "rand3sat", || {
            random_ksat::random_ksat(256, 1203, 3, 7025) // table-2 range
        }),
        spec!("sha1.cnf", Sat, Unsolved, "parity", || {
            xor::parity(220, 195, 5, true, 7) // huge
        }),
        spec!("3bitadd_31.cnf", Unsat, Unsolved, "parity", || {
            xor::parity(125, 110, 5, false, 31) // huge
        }),
        spec!("cnt10.cnf", Sat, Unsolved, "counter", || {
            counter::counter(9, 400, 200) // batch-resistant; memory-heavy
        }),
        spec!(
            "glassybp-v399-s499089820.cnf",
            Sat,
            Unsolved,
            "parity",
            || xor::parity(112, 99, 5, true, 705) // table-2 range
        ),
        spec!(
            "hgen3-v300-s1766565160.cnf",
            Unknown,
            Unsolved,
            "rand3sat",
            || random_ksat::random_3sat_phase_transition(300, 42)
        ),
        spec!("hanoi6.cnf", Sat, Unsolved, "hanoi", || hanoi::hanoi(5, 45)), // ~55M
    ]
}

/// The Table 2 suite: the paper's hard subset, in its row order.
/// (`hanoi.cnf` in Table 2 is the paper's `hanoi6.cnf`.)
pub fn table2_suite() -> Vec<InstanceSpec> {
    table1_suite()
        .into_iter()
        .filter(|s| s.section == Section::Unsolved)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_the_papers_shape() {
        let suite = table1_suite();
        assert_eq!(suite.len(), 42);
        let both = suite
            .iter()
            .filter(|s| s.section == Section::SolvedByBoth)
            .count();
        let grid = suite
            .iter()
            .filter(|s| s.section == Section::GridOnly)
            .count();
        let unsolved = suite
            .iter()
            .filter(|s| s.section == Section::Unsolved)
            .count();
        assert_eq!(both, 23);
        assert_eq!(grid, 10);
        assert_eq!(unsolved, 9);
        assert_eq!(table2_suite().len(), 9);
    }

    #[test]
    fn all_instances_generate() {
        for s in table1_suite() {
            let f = s.formula();
            assert!(f.num_vars() > 0, "{}", s.paper_name);
            assert!(f.num_clauses() > 0, "{}", s.paper_name);
            assert!(f.name().is_some(), "{}", s.paper_name);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = table1_suite().iter().map(|s| s.paper_name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 42);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = table1_suite();
        let b = table1_suite();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.formula().clauses(),
                y.formula().clauses(),
                "{}",
                x.paper_name
            );
        }
    }
}

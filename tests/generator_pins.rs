//! Every simulated number this repository records starts from a seeded
//! stand-in instance or a seeded host-load trace. These pins fingerprint
//! one of each randomised family, captured at the commit that moved the
//! workspace onto `gridsat_cnf::rng`, from the generator they had always
//! been drawn with. A mismatch means the generator — or a family's draw
//! order — moved, and `table1.csv`, `BENCH_*.json` and
//! `benchmark/BASELINE.json` no longer describe this code.

use gridsat_cnf::Formula;
use gridsat_nws::{LoadTrace, TraceConfig};
use gridsat_satgen::{coloring, qg, random_ksat, xor};

/// FNV-1a over the little-endian bytes of each word.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.into_iter().flat_map(u64::to_le_bytes) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Variable count, then each clause's length and literal codes, in order:
/// clause order and literal order are part of what is pinned.
fn formula_fp(f: &Formula) -> u64 {
    let clauses = f.clauses().iter().flat_map(|c| {
        std::iter::once(c.len() as u64).chain(c.lits().iter().map(|l| l.code() as u64))
    });
    fnv(std::iter::once(f.num_vars() as u64).chain(clauses))
}

fn trace_fp(config: TraceConfig, seed: u64) -> u64 {
    fnv(LoadTrace::new(config, seed)
        .take(2000)
        .into_iter()
        .map(f64::to_bits))
}

#[test]
fn xor_families_are_pinned() {
    assert_eq!(formula_fp(&xor::urquhart(20, 3)), 0x66d5_6c0a_b82a_bab9);
    assert_eq!(
        formula_fp(&xor::parity(24, 12, 4, true, 9)),
        0x60b5_3503_5612_d55d
    );
}

#[test]
fn random_ksat_families_are_pinned() {
    assert_eq!(
        formula_fp(&random_ksat::random_ksat(300, 1278, 3, 7)),
        0x8a60_1161_3f0c_380e
    );
    assert_eq!(
        formula_fp(&random_ksat::planted_ksat(60, 240, 3, 2)),
        0x8ca7_db64_e6b3_4fd0
    );
}

#[test]
fn qg_families_are_pinned() {
    assert_eq!(formula_fp(&qg::qg_sat(7, 20, 5)), 0x16a0_d674_de36_1b9d);
    assert_eq!(formula_fp(&qg::qg_unsat(6, 10, 5)), 0x61be_bcd3_b4b1_f148);
}

#[test]
fn coloring_families_are_pinned() {
    let g = coloring::Graph::random(30, 0.2, 11);
    assert_eq!(
        formula_fp(&coloring::coloring(&g, 3, "g")),
        0xea65_5a2d_1a7f_b0c7
    );
    let g = coloring::Graph::random_colorable(30, 0.3, 3, 11);
    assert_eq!(
        formula_fp(&coloring::coloring(&g, 3, "g")),
        0xe442_b0d4_67a2_ab77
    );
}

#[test]
fn load_traces_are_pinned() {
    assert_eq!(trace_fp(TraceConfig::default(), 42), 0x6092_0062_1ea3_5689);
    assert_eq!(
        trace_fp(TraceConfig::diurnal(0.7, 0.2), 5),
        0x21ed_e156_cd67_daa1
    );
}

//! Property tests for the CNF interchange types: fixed-seed case loops
//! on the in-tree generator. A failing assertion names its case seed;
//! `Rng::seed_from_u64(seed)` replays that case alone.

use gridsat_cnf::rng::Rng;
use gridsat_cnf::{parse_dimacs_str, to_dimacs_string, Assignment, Clause, Formula, Lit, Value};

const CASES: u64 = 256;

fn arb_lit(rng: &mut Rng, num_vars: u32) -> Lit {
    Lit::new(rng.range_u32(0..num_vars).into(), rng.next_bool())
}

/// An arbitrary clause of `len` literals over `num_vars` variables.
fn arb_clause(rng: &mut Rng, num_vars: u32, len: std::ops::Range<usize>) -> Clause {
    Clause::new((0..rng.range_usize(len)).map(|_| arb_lit(rng, num_vars)))
}

/// An arbitrary formula over up to `max_vars` variables.
fn arb_formula(rng: &mut Rng, max_vars: u32, max_clauses: usize, max_len: usize) -> Formula {
    let nv = rng.range_u32(1..max_vars + 1);
    let mut f = Formula::new(nv as usize);
    for _ in 0..rng.range_usize(0..max_clauses + 1) {
        f.push_clause(arb_clause(rng, nv, 0..max_len + 1));
    }
    f
}

/// A total assignment for `n` variables.
fn arb_total_assignment(rng: &mut Rng, n: usize) -> Assignment {
    let mut a = Assignment::new(n);
    for i in 0..n {
        a.set((i as u32).into(), Value::from_bool(rng.next_bool()));
    }
    a
}

/// Writing then parsing DIMACS is the identity on clauses and variables.
#[test]
fn dimacs_roundtrip() {
    for seed in 0..CASES {
        let f = arb_formula(&mut Rng::seed_from_u64(seed), 20, 30, 6);
        let s = to_dimacs_string(&f);
        let g = parse_dimacs_str(&s).unwrap();
        assert_eq!(f.num_vars(), g.num_vars(), "case seed {seed}");
        assert_eq!(f.clauses(), g.clauses(), "case seed {seed}");
    }
}

/// A total assignment always gives a definite (non-Unassigned) verdict.
#[test]
fn total_assignment_decides() {
    for seed in 0..CASES {
        let f = arb_formula(&mut Rng::seed_from_u64(seed), 10, 20, 4);
        let mut a = f.empty_assignment();
        for i in 0..f.num_vars() {
            a.set((i as u32).into(), Value::True);
        }
        assert_ne!(f.eval(&a), Value::Unassigned, "case seed {seed}");
    }
}

/// Clause evaluation agrees with the naive definition.
#[test]
fn clause_eval_matches_naive() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let c = arb_clause(&mut rng, 8, 0..6);
        let a = arb_total_assignment(&mut rng, 8);
        let naive = c.iter().any(|l| a.satisfies(l));
        assert_eq!(c.eval(&a) == Value::True, naive, "case seed {seed}");
    }
}

/// `reduce_under` never changes the truth value under any extension of
/// the reducing assignment.
#[test]
fn reduce_preserves_truth() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let f = arb_formula(&mut rng, 8, 15, 4);
        // A partial "level 0" assignment...
        let mut level0 = f.empty_assignment();
        for i in 0..f.num_vars() {
            if rng.next_bool() {
                level0.set((i as u32).into(), Value::from_bool(rng.next_bool()));
            }
        }
        // ...and a total extension of it.
        let mut total = level0.clone();
        for i in 0..f.num_vars() {
            let b = rng.next_bool();
            if total.value((i as u32).into()) == Value::Unassigned {
                total.set((i as u32).into(), Value::from_bool(b));
            }
        }

        let before = f.eval(&total);
        let mut g = f.clone();
        g.reduce_under(&level0);
        let after = g.eval(&total);
        assert_eq!(before, after, "case seed {seed}");
    }
}

/// Normalization preserves truth under every total assignment.
#[test]
fn normalize_preserves_truth() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let c = arb_clause(&mut rng, 6, 1..8);
        let a = arb_total_assignment(&mut rng, 6);
        match c.normalized() {
            // Tautologies are true under every total assignment.
            None => assert_eq!(c.eval(&a), Value::True, "case seed {seed}"),
            Some(n) => assert_eq!(n.eval(&a), c.eval(&a), "case seed {seed}"),
        }
    }
}

/// Up to `max_len` characters, each from `pick`.
fn arb_string(rng: &mut Rng, max_len: usize, pick: impl Fn(&mut Rng) -> char) -> String {
    (0..rng.range_usize(0..max_len + 1))
        .map(|_| pick(rng))
        .collect()
}

/// A printable character: half the time ASCII (where the parser's syntax
/// lives), otherwise any non-control Unicode scalar value.
fn printable(rng: &mut Rng) -> char {
    if rng.next_bool() {
        return char::from(rng.range_u32(0x20..0x7f) as u8);
    }
    loop {
        match char::from_u32(rng.range_u32(0..0x11_0000)) {
            Some(c) if !c.is_control() => return c,
            _ => {}
        }
    }
}

/// The parser never panics on arbitrary input — it returns a formula
/// or a structured error.
#[test]
fn parser_is_total_on_junk() {
    for seed in 0..CASES {
        let input = arb_string(&mut Rng::seed_from_u64(seed), 300, printable);
        let _ = parse_dimacs_str(&input);
    }
}

/// ...including junk that starts with a plausible header.
#[test]
fn parser_is_total_on_headed_junk() {
    const ALPHABET: &[u8] = b"-0123456789abcdefghijklmnopqrstuvwxyz %\n";
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let nv = rng.range_usize(0..50);
        let nc = rng.range_usize(0..50);
        let body = arb_string(&mut rng, 200, |rng| {
            char::from(ALPHABET[rng.range_usize(0..ALPHABET.len())])
        });
        let input = format!("p cnf {nv} {nc}\n{body}");
        let _ = parse_dimacs_str(&input);
    }
}

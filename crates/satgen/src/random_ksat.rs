//! Uniform random k-SAT and planted-solution instances.
//!
//! Stand-ins for the paper's random / hand-made categories:
//! `rand_net*`-like instances come from random 3-SAT near the
//! clause-to-variable phase transition (ratio ~4.26), and the
//! `glassy-sat-sel*` / `glassybp*` instances are modelled as random 3-SAT
//! with a *planted* satisfying assignment (guaranteed SAT, glassy energy
//! landscape).

use gridsat_cnf::rng::Rng;
use gridsat_cnf::{Formula, Lit};

/// Uniform random k-SAT: `m` clauses of `k` distinct variables over `n`
/// variables, signs fair coins. Deterministic in `seed`.
pub fn random_ksat(n: usize, m: usize, k: usize, seed: u64) -> Formula {
    assert!(k >= 1 && n >= k);
    let mut rng = Rng::seed_from_u64(seed);
    let mut f = Formula::new(n);
    f.set_name(format!("rand{k}sat-n{n}-m{m}-s{seed}"));
    let mut vars: Vec<u32> = (0..n as u32).collect();
    for _ in 0..m {
        let (chosen, _) = rng.partial_shuffle(&mut vars, k);
        let clause: Vec<Lit> = chosen
            .iter()
            .map(|&v| Lit::new(v.into(), rng.next_bool()))
            .collect();
        f.add_clause(clause);
    }
    f
}

/// Random 3-SAT at the phase-transition ratio (m = 4.26 n), the hardest
/// density for random instances.
pub fn random_3sat_phase_transition(n: usize, seed: u64) -> Formula {
    let m = (n as f64 * 4.26).round() as usize;
    let mut f = random_ksat(n, m, 3, seed);
    f.set_name(format!("rand3sat-pt-n{n}-s{seed}"));
    f
}

/// Random k-SAT with a planted satisfying assignment: every clause is
/// re-rolled until it is satisfied by the hidden assignment, so the instance
/// is SAT by construction ("glassy" landscape).
pub fn planted_ksat(n: usize, m: usize, k: usize, seed: u64) -> Formula {
    assert!(k >= 1 && n >= k);
    let mut rng = Rng::seed_from_u64(seed);
    let hidden: Vec<bool> = (0..n).map(|_| rng.next_bool()).collect();
    let mut f = Formula::new(n);
    f.set_name(format!("glassy-planted-n{n}-m{m}-s{seed}"));
    let mut vars: Vec<u32> = (0..n as u32).collect();
    for _ in 0..m {
        loop {
            let (chosen, _) = rng.partial_shuffle(&mut vars, k);
            let clause: Vec<Lit> = chosen
                .iter()
                .map(|&v| Lit::new(v.into(), rng.next_bool()))
                .collect();
            // keep only clauses the hidden assignment satisfies
            let satisfied = clause.iter().any(|&l| {
                let val = hidden[l.var().index()];
                if l.is_negated() {
                    !val
                } else {
                    val
                }
            });
            if satisfied {
                f.add_clause(clause);
                break;
            }
        }
    }
    f
}

/// The hidden assignment a planted instance was built around
/// (for tests: regenerate with the same seed).
pub fn planted_hidden_assignment(n: usize, seed: u64) -> Vec<bool> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.next_bool()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::brute_force_sat;
    use gridsat_cnf::Value;

    #[test]
    fn shapes_and_determinism() {
        let f = random_ksat(50, 100, 3, 7);
        assert_eq!(f.num_vars(), 50);
        assert_eq!(f.num_clauses(), 100);
        for c in f.iter() {
            assert_eq!(c.len(), 3);
            // distinct variables within a clause
            let mut vs: Vec<_> = c.iter().map(|l| l.var()).collect();
            vs.sort();
            vs.dedup();
            assert_eq!(vs.len(), 3);
        }
        let g = random_ksat(50, 100, 3, 7);
        assert_eq!(f.clauses(), g.clauses());
        let h = random_ksat(50, 100, 3, 8);
        assert_ne!(f.clauses(), h.clauses());
    }

    #[test]
    fn phase_transition_ratio() {
        let f = random_3sat_phase_transition(100, 1);
        assert_eq!(f.num_clauses(), 426);
    }

    #[test]
    fn planted_is_satisfied_by_hidden() {
        let n = 40;
        let f = planted_ksat(n, 180, 3, 99);
        let hidden = planted_hidden_assignment(n, 99);
        let mut a = f.empty_assignment();
        for (i, &b) in hidden.iter().enumerate() {
            a.set((i as u32).into(), Value::from_bool(b));
        }
        assert!(f.is_satisfied_by(&a));
    }

    #[test]
    fn small_planted_brute_force_sat() {
        let f = planted_ksat(10, 40, 3, 3);
        assert!(brute_force_sat(&f));
    }
}

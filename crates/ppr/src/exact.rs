//! Exact PPR via dense power iteration — ground truth for tests and for
//! accuracy experiments. Only suitable for small graphs.

use tsvd_graph::{Direction, DynGraph};

/// Exact PPR row `π_s(·)` with decay `alpha`, iterated until the residual
/// mass drops below `tol`.
///
/// Semantics match the push engine: a walk at a node with no neighbors in
/// `dir` terminates there (dangling absorption).
pub fn exact_ppr_row(g: &DynGraph, dir: Direction, source: u32, alpha: f64, tol: f64) -> Vec<f64> {
    let n = g.num_nodes();
    let mut pi = vec![0.0; n];
    // Residue formulation of power iteration: walk mass `w` still in flight.
    let mut w = vec![0.0; n];
    w[source as usize] = 1.0;
    let mut inflight = 1.0;
    while inflight > tol {
        let mut next = vec![0.0; n];
        for u in 0..n {
            let mass = w[u];
            if mass == 0.0 {
                continue;
            }
            let nbrs = g.neighbors(u as u32, dir);
            if nbrs.is_empty() {
                // Dangling: terminate here.
                pi[u] += mass;
                continue;
            }
            pi[u] += alpha * mass;
            let spread = (1.0 - alpha) * mass / nbrs.len() as f64;
            for &v in nbrs {
                next[v as usize] += spread;
            }
        }
        w = next;
        inflight = w.iter().sum();
    }
    // Distribute the tail proportionally nowhere — it is below tol and the
    // caller treats `pi` as accurate to `tol`.
    pi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_to_one() {
        let mut g = DynGraph::with_nodes(5);
        for u in 0..5u32 {
            g.insert_edge(u, (u + 2) % 5);
            g.insert_edge(u, (u + 1) % 5);
        }
        let pi = exact_ppr_row(&g, Direction::Out, 0, 0.2, 1e-12);
        let total: f64 = pi.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn isolated_source_keeps_all_mass() {
        let g = DynGraph::with_nodes(3);
        let pi = exact_ppr_row(&g, Direction::Out, 1, 0.2, 1e-12);
        assert_eq!(pi, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn two_node_chain_closed_form() {
        // 0 → 1 (1 dangling): π_0(0) = α, π_0(1) = 1 − α.
        let mut g = DynGraph::with_nodes(2);
        g.insert_edge(0, 1);
        let alpha = 0.37;
        let pi = exact_ppr_row(&g, Direction::Out, 0, alpha, 1e-13);
        assert!((pi[0] - alpha).abs() < 1e-10);
        assert!((pi[1] - (1.0 - alpha)).abs() < 1e-10);
    }

    #[test]
    fn symmetric_cycle_is_uniformish() {
        // On a directed cycle, π_s decays geometrically with distance.
        let mut g = DynGraph::with_nodes(4);
        for u in 0..4u32 {
            g.insert_edge(u, (u + 1) % 4);
        }
        let alpha = 0.5;
        let pi = exact_ppr_row(&g, Direction::Out, 0, alpha, 1e-13);
        // π(dist k) ∝ (1−α)^k within a cycle revolution sum.
        assert!(pi[0] > pi[1] && pi[1] > pi[2] && pi[2] > pi[3]);
        let ratio = pi[1] / pi[0];
        let ratio2 = pi[2] / pi[1];
        assert!((ratio - ratio2).abs() < 1e-9, "geometric decay");
    }
}

//! Property-based tests for the PPR engine: the push invariant, the
//! dynamic-update invariant, and threshold/termination guarantees on
//! arbitrary graphs and event sequences.

use tsvd_graph::{Direction, DynGraph, EdgeEvent};
use tsvd_ppr::dynamic::{adjust_for_event, batch_endpoints, dynamic_update, record_events};
use tsvd_ppr::exact::exact_ppr_row;
use tsvd_ppr::{forward_push, forward_push_fresh, PprState};
use tsvd_rt::check::{Checker, Gen};
use tsvd_rt::ensure;

const ALPHA: f64 = 0.2;

/// A small random directed graph as an edge list over `n` nodes.
fn random_graph(g: &mut Gen) -> (usize, Vec<(u32, u32)>) {
    let n = g.usize_in(3..15);
    let mut edges = Vec::new();
    let m = g.usize_in(1..40);
    while edges.len() < m {
        let u = g.u32_in(0..n as u32);
        let v = g.u32_in(0..n as u32);
        if u != v {
            edges.push((u, v));
        }
    }
    (n, edges)
}

/// Max invariant violation `|π_s(x) − (p_s(x) + Σ_v r_s(v)·π_v(x))|`.
fn invariant_error(g: &DynGraph, st: &PprState) -> f64 {
    let n = g.num_nodes();
    let pis: Vec<Vec<f64>> = (0..n as u32)
        .map(|v| exact_ppr_row(g, Direction::Out, v, ALPHA, 1e-13))
        .collect();
    let truth = &pis[st.source as usize];
    (0..n)
        .map(|x| {
            let mut rhs = st.estimate(x as u32);
            for (v, rv) in st.residues() {
                rhs += rv * pis[v as usize][x];
            }
            (rhs - truth[x]).abs()
        })
        .fold(0.0, f64::max)
}

#[test]
fn push_invariant_on_arbitrary_graphs() {
    Checker::new(48).run("push_invariant_on_arbitrary_graphs", |gen| {
        let (n, edges) = random_graph(gen);
        let source = gen.u32_in(0..3).min(n as u32 - 1);
        let r_max_exp = gen.u32_in(2..5);
        let g = DynGraph::from_edges(n, &edges);
        let r_max = 10f64.powi(-(r_max_exp as i32));
        let mut st = PprState::new(source);
        forward_push(&g, Direction::Out, ALPHA, r_max, &mut st);
        ensure!(invariant_error(&g, &st) < 1e-9);
        // Threshold respected everywhere.
        for (u, r) in st.residues() {
            let d = g.out_degree(u).max(1);
            ensure!(r.abs() / d as f64 <= r_max + 1e-15);
        }
        // Mass conservation: estimates + residues sum to 1.
        let total: f64 = st.estimate_mass() + st.residues().map(|(_, r)| r).sum::<f64>();
        ensure!((total - 1.0).abs() < 1e-9, "mass {total}");
        Ok(())
    });
}

#[test]
fn dense_fresh_push_invariant() {
    Checker::new(48).run("dense_fresh_push_invariant", |gen| {
        let (n, edges) = random_graph(gen);
        let source = gen.u32_in(0..3).min(n as u32 - 1);
        let g = DynGraph::from_edges(n, &edges);
        let st = forward_push_fresh(&g, Direction::Out, ALPHA, 1e-3, source);
        ensure!(invariant_error(&g, &st) < 1e-9);
        Ok(())
    });
}

#[test]
fn dynamic_adjustment_restores_invariant_exactly() {
    Checker::new(48).run("dynamic_adjustment_restores_invariant_exactly", |gen| {
        let (n, edges) = random_graph(gen);
        let extra: Vec<((u32, u32), bool)> =
            gen.vec(1..12, |g| ((g.u32_in(0..15), g.u32_in(0..15)), g.bool()));
        let source = gen.u32_in(0..3).min(n as u32 - 1);
        let mut g = DynGraph::from_edges(n, &edges);
        let mut st = PprState::new(source);
        forward_push(&g, Direction::Out, ALPHA, 1e-2, &mut st);
        // Arbitrary insert/delete sequence (bounded to the node range).
        let events: Vec<EdgeEvent> = extra
            .into_iter()
            .filter_map(|((u, v), ins)| {
                let (u, v) = (u % n as u32, v % n as u32);
                if u == v {
                    return None;
                }
                Some(if ins {
                    EdgeEvent::insert(u, v)
                } else {
                    EdgeEvent::delete(u, v)
                })
            })
            .collect();
        let (recorded, _) = record_events(&mut g, &events);
        for ev in &recorded {
            adjust_for_event(&mut st, ev, ALPHA);
        }
        // The invariant must hold *exactly* (to rounding) — no push needed.
        ensure!(invariant_error(&g, &st) < 1e-8);
        Ok(())
    });
}

#[test]
fn reverse_direction_is_ppr_of_transpose() {
    Checker::new(48).run("reverse_direction_is_ppr_of_transpose", |gen| {
        let (n, edges) = random_graph(gen);
        let source = gen.u32_in(0..3).min(n as u32 - 1);
        let g = DynGraph::from_edges(n, &edges);
        // PPR on (g, In) == PPR on (transpose(g), Out).
        let mut gt = DynGraph::with_nodes(g.num_nodes());
        for (u, v) in g.edges() {
            gt.insert_edge(v, u);
        }
        let a = exact_ppr_row(&g, Direction::In, source, ALPHA, 1e-13);
        let b = exact_ppr_row(&gt, Direction::Out, source, ALPHA, 1e-13);
        for (x, y) in a.iter().zip(&b) {
            ensure!((x - y).abs() < 1e-10);
        }
        Ok(())
    });
}

/// The two maps of a state (estimates, then residues) as sorted
/// `(node, bits)` lists.
fn state_bits(st: &PprState) -> [Vec<(u32, u64)>; 2] {
    let sorted = |it: &mut dyn Iterator<Item = (u32, f64)>| {
        let mut v: Vec<(u32, u64)> = it.map(|(k, x)| (k, x.to_bits())).collect();
        v.sort_unstable();
        v
    };
    [sorted(&mut st.estimates()), sorted(&mut st.residues())]
}

/// The endpoint-seeded re-push is the key-scanning one, bit for bit: over
/// streams of windows (1–64 events: inserts, deletes of edges that exist,
/// self-loops, no-ops, on graphs sparse enough that degrees pass through 0
/// and 1 all the time), in both directions, `dynamic_update` and "adjust,
/// then `forward_push`" leave equal `p` and `r` after every window.
#[test]
fn endpoint_seeded_update_equals_key_scanning_push_bitwise() {
    Checker::new(48).run(
        "endpoint_seeded_update_equals_key_scanning_push_bitwise",
        |gen| {
            let n = gen.usize_in(3..24);
            let edges: Vec<(u32, u32)> = gen.vec(0..40, |g| {
                (g.u32_in(0..n as u32), g.u32_in(0..n as u32)) // self-loops included
            });
            let source = gen.u32_in(0..n as u32);
            let r_max = 10f64.powi(-(gen.u32_in(2..6) as i32));
            let mut g = DynGraph::from_edges(n, &edges);
            let mut seeded = [Direction::Out, Direction::In].map(|dir| {
                let mut st = PprState::new(source);
                forward_push(&g, dir, ALPHA, r_max, &mut st);
                (dir, st)
            });
            let mut scanned = seeded.clone();
            for window in 0..gen.usize_in(1..12) {
                let live: Vec<(u32, u32)> = g.edges().collect();
                let events: Vec<EdgeEvent> = gen.vec(1..65, |g| {
                    if !live.is_empty() && g.prob(0.4) {
                        // Mostly real deletes; a repeat within the window
                        // is a no-op the recorder must drop.
                        let (u, v) = live[g.usize_in(0..live.len())];
                        EdgeEvent::delete(u, v)
                    } else if g.prob(0.1) {
                        EdgeEvent::delete(g.u32_in(0..n as u32), g.u32_in(0..n as u32))
                    } else {
                        EdgeEvent::insert(g.u32_in(0..n as u32), g.u32_in(0..n as u32))
                    }
                });
                let recorded = record_events(&mut g, &events);
                let endpoints = batch_endpoints(&recorded.0);
                ensure!(endpoints == batch_endpoints(&recorded.1));
                for (k, rec) in [&recorded.0, &recorded.1].into_iter().enumerate() {
                    let (dir, st) = &mut seeded[k];
                    dynamic_update(&g, *dir, ALPHA, r_max, st, rec, &endpoints);
                    let (dir, reference) = &mut scanned[k];
                    for ev in rec {
                        adjust_for_event(reference, ev, ALPHA);
                    }
                    forward_push(&g, *dir, ALPHA, r_max, reference);
                    ensure!(
                        state_bits(st) == state_bits(reference),
                        "window {window}, direction {k}: states diverged"
                    );
                }
            }
            Ok(())
        },
    );
}

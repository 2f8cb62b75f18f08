//! Forward-Push (Algorithm 1) with signed residues.
//!
//! The same push loop serves the static build (fresh one-hot residue) and the
//! re-push phase of the dynamic update (arbitrary signed residues left by the
//! per-event adjustments — Algorithm 2 lines 8–11 push both signs). The two
//! differ only in how the initial frontier is found: [`forward_push`] scans
//! every residue key, the dynamic update hands over the batch's endpoints.

use crate::state::PprState;
use std::collections::VecDeque;
use tsvd_graph::{Direction, DynGraph};

/// Run local push on `state` until no node `u` has
/// `|r_s(u)| / deg(u) > r_max` (both residue signs, per Algorithm 2).
///
/// Dangling nodes (degree 0 in `dir`) absorb their whole residue into the
/// estimate — the α-decay walk terminates where it stands — whenever
/// `|r_s(u)| > r_max`.
///
/// This is the *key-scanning* seeder: it makes no assumption about where
/// the residue sits, so the initial frontier is found by walking every
/// residue key in ascending order. It serves fresh sparse pushes (the
/// DynPPE build) and arbitrary hand-made residue profiles; the dynamic
/// update, which knows where residue moved, seeds through
/// `push_from_candidates` instead. Both run the same push loop.
///
/// Cost: `O(|r| log |r| + total pushed mass / (α·r_max))`; for a fresh
/// one-hot residue this is the classic `O(1/(α·r_max))`.
pub fn forward_push(g: &DynGraph, dir: Direction, alpha: f64, r_max: f64, state: &mut PprState) {
    // Take the state's seed buffer for the duration of the push; capacity
    // persists across pushes.
    let mut seeds = std::mem::take(&mut state.scratch.seeds);
    debug_assert!(seeds.is_empty(), "scratch not clean");
    seeds.extend(state.r.keys().copied());
    seeds.sort_unstable(); // deterministic order regardless of hash state
    push_loop(g, dir, alpha, r_max, state, &seeds);
    seeds.clear();
    state.scratch.seeds = seeds;
}

/// [`forward_push`] for a state whose push-worthy nodes are all known to
/// lie in `candidates` (ascending, no duplicates) — the *endpoint* seeder
/// of the dynamic update.
///
/// # Why the result is bitwise that of `forward_push`
///
/// `forward_push`'s initial frontier is "every residue key, ascending,
/// kept if it exceeds the threshold". A node can only exceed the threshold
/// if it holds residue, so when every exceeding node is a candidate,
/// "every candidate, ascending, kept if it exceeds" is the same sequence of
/// nodes; from an equal frontier the shared loop performs the same pushes
/// in the same order. The precondition is the caller's to establish (see
/// [`crate::dynamic::dynamic_update`]); debug builds verify it with the
/// full scan this function exists to avoid.
pub(crate) fn push_from_candidates(
    g: &DynGraph,
    dir: Direction,
    alpha: f64,
    r_max: f64,
    state: &mut PprState,
    candidates: &[u32],
) {
    debug_assert!(
        candidates.windows(2).all(|w| w[0] < w[1]),
        "candidates not strictly ascending"
    );
    debug_assert!(
        state
            .residues()
            .all(|(u, r)| !exceeds(g, dir, r_max, u, r) || candidates.binary_search(&u).is_ok()),
        "source {}: a push-worthy node lies outside the candidates — the state \
         was not converged before the batch",
        state.source
    );
    push_loop(g, dir, alpha, r_max, state, candidates);
}

/// The one push loop: seed the frontier with the `seeds` that exceed the
/// threshold, in the order given, then push until it drains.
fn push_loop(
    g: &DynGraph,
    dir: Direction,
    alpha: f64,
    r_max: f64,
    state: &mut PprState,
    seeds: &[u32],
) {
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
    assert!(r_max > 0.0, "r_max must be positive");
    // The frontier lives on the state: the dynamic path re-pushes every
    // source in every window on a handful of nodes, where a fresh VecDeque
    // per call is pure allocator traffic.
    let mut queue = std::mem::take(&mut state.scratch.queue);
    debug_assert!(queue.is_empty(), "scratch not clean");
    for &u in seeds {
        if exceeds(g, dir, r_max, u, state.residue(u)) {
            queue.push_back(u);
        }
    }
    while let Some(u) = queue.pop_front() {
        let r_u = state.residue(u);
        if !exceeds(g, dir, r_max, u, r_u) {
            continue; // stale queue entry
        }
        push_node(g, dir, alpha, state, u);
        for &v in g.neighbors(u, dir) {
            if exceeds(g, dir, r_max, v, state.residue(v)) {
                queue.push_back(v);
            }
        }
        // A dangling absorb leaves no residue anywhere new; a self-loop may
        // leave residue at u itself.
        if exceeds(g, dir, r_max, u, state.residue(u)) {
            queue.push_back(u);
        }
    }
    state.scratch.queue = queue;
}

/// Reusable dense working buffers for fresh pushes.
///
/// A fresh push touches only `O(1/r_max)` nodes, so allocating and zeroing
/// three `n`-sized buffers per source would dominate when `n` is large and
/// `r_max` coarse (Global-STRAP pushes from *every* node). The workspace is
/// allocated once per worker thread and selectively cleared via touched
/// lists after each source.
#[derive(Debug)]
pub struct FreshPushWorkspace {
    p: Vec<f64>,
    r: Vec<f64>,
    in_queue: Vec<bool>,
    touched: Vec<u32>,
    queue: VecDeque<u32>,
}

impl FreshPushWorkspace {
    /// A workspace for graphs with up to `n` nodes.
    pub fn new(n: usize) -> Self {
        FreshPushWorkspace {
            p: vec![0.0; n],
            r: vec![0.0; n],
            in_queue: vec![false; n],
            touched: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    /// Run one fresh push (identical semantics to [`forward_push`] on a
    /// brand-new state) and leave the workspace clean for the next source.
    pub fn run(
        &mut self,
        g: &DynGraph,
        dir: Direction,
        alpha: f64,
        r_max: f64,
        source: u32,
    ) -> PprState {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        assert!(r_max > 0.0, "r_max must be positive");
        debug_assert!(self.p.len() >= g.num_nodes());
        debug_assert!(self.p.iter().all(|&x| x == 0.0), "workspace not clean");
        let (p, r, in_queue, touched, queue) = (
            &mut self.p,
            &mut self.r,
            &mut self.in_queue,
            &mut self.touched,
            &mut self.queue,
        );
        // `touched` records every node whose residue transitioned away from
        // zero; duplicates are possible (a residue can be drained back to
        // exactly zero and refilled) and are harmless — cleanup zeroes the
        // entry on first visit, so later visits are no-ops.
        r[source as usize] = 1.0;
        touched.push(source);
        queue.push_back(source);
        in_queue[source as usize] = true;
        while let Some(u) = queue.pop_front() {
            in_queue[u as usize] = false;
            let r_u = r[u as usize];
            let neighbors = g.neighbors(u, dir);
            let d = neighbors.len();
            // Fresh pushes only ever see non-negative residue.
            if d == 0 {
                if r_u > r_max {
                    p[u as usize] += r_u;
                    r[u as usize] = 0.0;
                }
                continue;
            }
            if r_u <= r_max * d as f64 {
                continue; // stale entry
            }
            r[u as usize] = 0.0;
            p[u as usize] += alpha * r_u;
            let spread = (1.0 - alpha) * r_u / d as f64;
            for &v in neighbors {
                let rv = &mut r[v as usize];
                if *rv == 0.0 {
                    touched.push(v);
                }
                *rv += spread;
                let dv = g.degree(v, dir);
                let pushable = if dv == 0 {
                    *rv > r_max
                } else {
                    *rv > r_max * dv as f64
                };
                if pushable && !in_queue[v as usize] {
                    in_queue[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
        // Harvest into the sparse state and clear only what we touched.
        let mut state = PprState::new(source);
        state.take_r(source); // clear the one-hot residue before refilling
        for &u in touched.iter() {
            let (pu, ru) = (p[u as usize], r[u as usize]);
            if pu != 0.0 {
                state.add_p(u, pu);
                p[u as usize] = 0.0;
            }
            if ru != 0.0 {
                state.add_r(u, ru);
                r[u as usize] = 0.0;
            }
        }
        touched.clear();
        queue.clear();
        state
    }
}

/// Fresh forward push with dense working buffers — convenience wrapper that
/// allocates a one-shot [`FreshPushWorkspace`]. Batch callers (see
/// [`crate::SubsetPpr::build`]) keep a workspace per worker instead.
pub fn forward_push_fresh(
    g: &DynGraph,
    dir: Direction,
    alpha: f64,
    r_max: f64,
    source: u32,
) -> PprState {
    FreshPushWorkspace::new(g.num_nodes()).run(g, dir, alpha, r_max, source)
}

/// One push operation at `u` (Algorithm 1 lines 5–8): spread
/// `(1−α)·r_u/deg(u)` to each neighbor, bank `α·r_u` into the estimate,
/// zero the residue. Degree-0 nodes absorb everything.
#[inline]
fn push_node(g: &DynGraph, dir: Direction, alpha: f64, state: &mut PprState, u: u32) {
    let r_u = state.take_r(u);
    if r_u == 0.0 {
        return;
    }
    let neighbors = g.neighbors(u, dir);
    let d = neighbors.len();
    if d == 0 {
        // Terminal node: the walk stops here with probability 1.
        state.add_p(u, r_u);
        return;
    }
    let spread = (1.0 - alpha) * r_u / d as f64;
    for &v in neighbors {
        state.add_r(v, spread);
    }
    state.add_p(u, alpha * r_u);
}

/// Push-worthiness test: `|r|/deg > r_max`, with degree-0 nodes compared
/// against `r_max` directly.
#[inline]
fn exceeds(g: &DynGraph, dir: Direction, r_max: f64, u: u32, r: f64) -> bool {
    if r == 0.0 {
        return false;
    }
    let d = g.degree(u, dir);
    if d == 0 {
        r.abs() > r_max
    } else {
        r.abs() / d as f64 > r_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_ppr_row;
    use tsvd_graph::DynGraph;

    fn cycle(n: u32) -> DynGraph {
        let mut g = DynGraph::with_nodes(n as usize);
        for u in 0..n {
            g.insert_edge(u, (u + 1) % n);
        }
        g
    }

    #[test]
    fn estimates_below_truth_on_fresh_push() {
        // With a non-negative residue, p never overshoots π.
        let g = cycle(10);
        let (alpha, r_max) = (0.2, 1e-4);
        let mut st = PprState::new(0);
        forward_push(&g, Direction::Out, alpha, r_max, &mut st);
        let exact = exact_ppr_row(&g, Direction::Out, 0, alpha, 1e-12);
        for u in 0..10u32 {
            let e = st.estimate(u);
            assert!(e <= exact[u as usize] + 1e-12, "overshoot at {u}");
            assert!(exact[u as usize] - e <= 1e-3, "undershoot too large at {u}");
        }
    }

    #[test]
    fn push_invariant_holds() {
        // π_s(x) == p_s(x) + Σ_v r_s(v)·π_v(x) for all x, at any push depth.
        let mut g = cycle(8);
        g.insert_edge(0, 4);
        g.insert_edge(3, 1);
        let (alpha, r_max) = (0.15, 0.01);
        let mut st = PprState::new(2);
        forward_push(&g, Direction::Out, alpha, r_max, &mut st);
        let n = g.num_nodes();
        // Exact PPR rows for every node.
        let pis: Vec<Vec<f64>> = (0..n as u32)
            .map(|v| exact_ppr_row(&g, Direction::Out, v, alpha, 1e-13))
            .collect();
        let truth = &pis[2];
        for x in 0..n {
            let mut rhs = st.estimate(x as u32);
            for (v, rv) in st.residues() {
                rhs += rv * pis[v as usize][x];
            }
            assert!(
                (rhs - truth[x]).abs() < 1e-9,
                "invariant violated at x={x}: {rhs} vs {}",
                truth[x]
            );
        }
    }

    #[test]
    fn residue_threshold_respected() {
        let g = cycle(20);
        let r_max = 1e-3;
        let mut st = PprState::new(0);
        forward_push(&g, Direction::Out, 0.2, r_max, &mut st);
        for (u, r) in st.residues() {
            let d = g.out_degree(u).max(1);
            assert!(
                r.abs() / d as f64 <= r_max + 1e-15,
                "node {u} still pushable"
            );
        }
    }

    #[test]
    fn dangling_node_absorbs() {
        // 0 → 1, node 1 has no out-edges: everything that reaches 1 stops.
        let mut g = DynGraph::with_nodes(2);
        g.insert_edge(0, 1);
        let alpha = 0.3;
        let mut st = PprState::new(0);
        forward_push(&g, Direction::Out, alpha, 1e-9, &mut st);
        // Walk stops at 0 w.p. α, otherwise moves to 1 and stops there.
        assert!((st.estimate(0) - alpha).abs() < 1e-6);
        assert!((st.estimate(1) - (1.0 - alpha)).abs() < 1e-6);
        assert!((st.estimate_mass() - 1.0).abs() < 1e-6, "mass conserved");
    }

    #[test]
    fn reverse_direction_uses_in_edges() {
        let mut g = DynGraph::with_nodes(3);
        g.insert_edge(0, 2);
        g.insert_edge(1, 2);
        // On the reverse graph, source 2 reaches 0 and 1.
        let mut st = PprState::new(2);
        forward_push(&g, Direction::In, 0.2, 1e-9, &mut st);
        assert!(st.estimate(0) > 0.0);
        assert!(st.estimate(1) > 0.0);
        // Forward from 2 goes nowhere.
        let mut st2 = PprState::new(2);
        forward_push(&g, Direction::Out, 0.2, 1e-9, &mut st2);
        assert!((st2.estimate(2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn self_loop_converges() {
        let mut g = DynGraph::with_nodes(1);
        g.insert_edge(0, 0);
        let mut st = PprState::new(0);
        forward_push(&g, Direction::Out, 0.5, 1e-10, &mut st);
        assert!((st.estimate(0) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn dense_fresh_push_matches_sparse_path() {
        let mut g = cycle(12);
        g.insert_edge(0, 6);
        g.insert_edge(3, 9);
        g.insert_edge(5, 5); // self loop
        let (alpha, r_max) = (0.2, 1e-4);
        for s in [0u32, 3, 7] {
            let mut sparse = PprState::new(s);
            forward_push(&g, Direction::Out, alpha, r_max, &mut sparse);
            let dense = forward_push_fresh(&g, Direction::Out, alpha, r_max, s);
            // Push order is unspecified, so terminal states legitimately
            // differ — but both satisfy the invariant, so estimates differ
            // by at most the total leftover residue mass of either run.
            let bound = sparse.residue_mass() + dense.residue_mass() + 1e-12;
            for u in 0..12u32 {
                assert!(
                    (sparse.estimate(u) - dense.estimate(u)).abs() <= bound,
                    "p mismatch at {u} beyond residue bound {bound}"
                );
            }
            // Both runs drained residues below the push threshold.
            for (u, r) in dense.residues() {
                let d = g.out_degree(u).max(1);
                assert!(r.abs() / d as f64 <= r_max + 1e-15, "node {u} pushable");
            }
            // And the dense run's estimates obey the exact invariant.
            let pis: Vec<Vec<f64>> = (0..12u32)
                .map(|v| exact_ppr_row(&g, Direction::Out, v, alpha, 1e-13))
                .collect();
            for (x, &truth) in pis[s as usize].iter().enumerate() {
                let mut rhs = dense.estimate(x as u32);
                for (v, rv) in dense.residues() {
                    rhs += rv * pis[v as usize][x];
                }
                assert!((rhs - truth).abs() < 1e-9, "invariant at {x}");
            }
        }
    }

    #[test]
    fn dense_fresh_push_isolated_source() {
        let g = DynGraph::with_nodes(4);
        let st = forward_push_fresh(&g, Direction::Out, 0.2, 1e-6, 2);
        assert!((st.estimate(2) - 1.0).abs() < 1e-12);
        assert_eq!(st.residue(2), 0.0);
    }

    #[test]
    fn scratch_buffers_are_reused_across_pushes() {
        let g = cycle(30);
        let mut st = PprState::new(0);
        forward_push(&g, Direction::Out, 0.2, 1e-4, &mut st);
        // Scratch is left clean but keeps its capacity for the next push.
        assert!(st.scratch.seeds.is_empty());
        assert!(st.scratch.queue.is_empty());
        let seed_cap = st.scratch.seeds.capacity();
        let queue_cap = st.scratch.queue.capacity();
        assert!(seed_cap > 0, "first push grew the seed scratch");
        assert!(queue_cap > 0, "first push grew the frontier scratch");
        // A re-push on leftover residues (the dynamic-update shape) must
        // not reallocate: same backing capacity before and after.
        st.add_r(7, 0.5);
        st.add_r(21, -0.3);
        forward_push(&g, Direction::Out, 0.2, 1e-4, &mut st);
        assert!(st.scratch.seeds.capacity() >= seed_cap);
        assert!(st.scratch.queue.capacity() >= queue_cap);
        assert!(st.scratch.seeds.is_empty() && st.scratch.queue.is_empty());
    }

    #[test]
    fn signed_residue_push_clears_negative_mass() {
        let g = cycle(6);
        let mut st = PprState::new(0);
        // Simulate a post-update residue profile with mixed signs.
        st.add_r(2, -0.4);
        st.add_r(4, 0.3);
        forward_push(&g, Direction::Out, 0.2, 1e-4, &mut st);
        for (u, r) in st.residues() {
            let d = g.out_degree(u).max(1);
            assert!(r.abs() / d as f64 <= 1e-4 + 1e-15, "node {u}");
        }
    }
}

//! Dynamic Forward-Push (Algorithm 2, after Zhang et al. 2016).
//!
//! Each edge event triggers an O(1) local adjustment of the estimate/residue
//! pair that *exactly* restores the push invariant
//! `π_s = p_s + Σ_v r_s(v)·π_v` with respect to the post-event graph; a
//! single re-push at the end of the batch then drives residues back under
//! `r_max` (both signs). Total cost `O(|Δ| + 1/r_max)` per source — and for
//! a source the batch does not reach, `O(|Δ|)` hash probes and nothing else:
//! the re-push looks for work at the batch's endpoints only (see
//! [`dynamic_update`]), never across the state's whole residue vector.
//!
//! The paper's pseudocode assumes the updated endpoint has non-zero degree
//! on both sides of the event. Degree transitions through zero interact with
//! dangling absorption (a walk at an out-degree-0 node stops with
//! probability 1 instead of α), and this module handles them exactly:
//!
//! * insert onto a previously dangling `u`: the whole estimate `p(u)` was
//!   absorbed mass, of which only `α` now stops — `p'(u) = α·p(u)`,
//!   `r(v) += (1−α)·p(u)`;
//! * delete leaving `u` dangling: all arriving mass `p(u)/α` now stops —
//!   `p'(u) = p(u)/α`, `r(v) −= (1−α)·p(u)/α`.
//!
//! Both are verified against exact PPR in the property tests below.

use crate::push::push_from_candidates;
use crate::state::PprState;
use tsvd_graph::{Direction, DynGraph, EdgeEvent, EventKind};

/// An edge event annotated with the updated endpoint's degree *after* the
/// event, in the push direction it will be applied to.
///
/// Recording degrees at apply time lets per-source adjustments replay a whole
/// batch without consulting (or locking) the evolving graph — the graph is
/// mutated once, then sources are adjusted in parallel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordedEvent {
    /// Updated endpoint (whose out-distribution changed in this direction).
    pub u: u32,
    /// The other endpoint.
    pub v: u32,
    /// Insert or delete.
    pub kind: EventKind,
    /// `deg(u)` in the push direction, after the event.
    pub deg_after: usize,
}

tsvd_rt::impl_json_struct!(RecordedEvent {
    u,
    v,
    kind,
    deg_after
});

/// Apply `events` to `g`, producing per-direction recorded event lists:
/// `.0` replays on forward-direction states, `.1` on reverse-direction
/// states. Events that do not change the graph (duplicate inserts, missing
/// deletes) are dropped.
pub fn record_events(
    g: &mut DynGraph,
    events: &[EdgeEvent],
) -> (Vec<RecordedEvent>, Vec<RecordedEvent>) {
    let mut fwd = Vec::with_capacity(events.len());
    let mut bwd = Vec::with_capacity(events.len());
    for e in events {
        if !g.apply_event(e) {
            continue;
        }
        fwd.push(RecordedEvent {
            u: e.u,
            v: e.v,
            kind: e.kind,
            deg_after: g.out_degree(e.u),
        });
        // On the reverse graph the edge is (v, u) and the updated endpoint
        // is v, whose reverse-direction degree is its in-degree.
        bwd.push(RecordedEvent {
            u: e.v,
            v: e.u,
            kind: e.kind,
            deg_after: g.in_degree(e.v),
        });
    }
    (fwd, bwd)
}

/// The O(1) invariant-restoring adjustment for one event (Algorithm 2
/// lines 1–7, extended with the exact zero-degree cases).
pub fn adjust_for_event(state: &mut PprState, ev: &RecordedEvent, alpha: f64) {
    let p_u = state.estimate(ev.u);
    if p_u == 0.0 {
        // Every correction term is proportional to p_s(u).
        return;
    }
    match ev.kind {
        EventKind::Insert => {
            let d_new = ev.deg_after;
            debug_assert!(d_new >= 1);
            if d_new == 1 {
                // u was dangling: absorbed mass p(u) now stops w.p. α only.
                state.scale_p(ev.u, alpha);
                state.add_r(ev.v, (1.0 - alpha) * p_u);
            } else {
                let d_old = (d_new - 1) as f64;
                state.scale_p(ev.u, d_new as f64 / d_old);
                let p = state.estimate(ev.u);
                state.add_r(ev.u, -p / (d_new as f64 * alpha));
                state.add_r(ev.v, (1.0 - alpha) * p / (d_new as f64 * alpha));
            }
        }
        EventKind::Delete => {
            let d_new = ev.deg_after;
            if d_new == 0 {
                // u became dangling: arriving mass p(u)/α now stops w.p. 1.
                state.scale_p(ev.u, 1.0 / alpha);
                state.add_r(ev.v, -(1.0 - alpha) * p_u / alpha);
            } else {
                state.scale_p(ev.u, d_new as f64 / (d_new + 1) as f64);
                let p = state.estimate(ev.u);
                state.add_r(ev.u, p / (d_new as f64 * alpha));
                state.add_r(ev.v, -(1.0 - alpha) * p / (d_new as f64 * alpha));
            }
        }
    }
}

/// The nodes a recorded batch can have made push-worthy: every event's two
/// endpoints, ascending, without duplicates. Both directions of one batch
/// share the set (the reverse recording swaps `u` and `v`).
pub fn batch_endpoints(recorded: &[RecordedEvent]) -> Vec<u32> {
    let mut endpoints: Vec<u32> = recorded.iter().flat_map(|ev| [ev.u, ev.v]).collect();
    endpoints.sort_unstable();
    endpoints.dedup();
    endpoints
}

/// Full dynamic update of one source state: replay the recorded batch, then
/// re-push on the updated graph (Algorithm 2 lines 8–11).
///
/// `endpoints` is [`batch_endpoints`] of `recorded` (or any ascending,
/// duplicate-free superset), computed once per batch and shared by every
/// source.
///
/// # The convergence precondition
///
/// `state` must have been converged before the batch: no node push-worthy
/// (`|r(w)|/deg(w) > r_max`, the test every push in this crate ends on)
/// with respect to the graph as it was before `recorded` was applied. Every
/// state this crate hands out satisfies it — a fresh push, and every
/// earlier `dynamic_update`, ends on exactly that condition — provided the
/// state has seen every batch the graph has. (The dense fresh push tests
/// `r > r_max·deg` where everything else tests `r/deg > r_max`; the two
/// can disagree only for a residue within one rounding of the threshold,
/// which the debug check below would report.)
///
/// Under it, a node `w` can be push-worthy after the adjustments only if
/// the batch changed `r(w)` or `deg(w)`. [`adjust_for_event`] writes
/// residue at `ev.u` and `ev.v` only, and an event changes the
/// push-direction degree of `ev.u` only, so every push-worthy node is an
/// endpoint. That is what lets the re-push seed its frontier from
/// `endpoints` instead of sorting the state's whole residue vector, at no
/// change to a single bit of the result (the argument is completed at
/// `push::push_from_candidates`, and debug builds check the conclusion
/// against a full scan on every call).
pub fn dynamic_update(
    g_after: &DynGraph,
    dir: Direction,
    alpha: f64,
    r_max: f64,
    state: &mut PprState,
    recorded: &[RecordedEvent],
    endpoints: &[u32],
) {
    for ev in recorded {
        adjust_for_event(state, ev, alpha);
    }
    push_from_candidates(g_after, dir, alpha, r_max, state, endpoints);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_ppr_row;
    use crate::push::forward_push;
    use tsvd_rt::rng::SliceRandom;
    use tsvd_rt::rng::StdRng;
    use tsvd_rt::rng::{Rng, SeedableRng};

    const ALPHA: f64 = 0.2;

    /// Check the push invariant of `state` against exact PPR on `g`.
    fn invariant_error(g: &DynGraph, dir: Direction, state: &PprState) -> f64 {
        let n = g.num_nodes();
        let pis: Vec<Vec<f64>> = (0..n as u32)
            .map(|v| exact_ppr_row(g, dir, v, ALPHA, 1e-13))
            .collect();
        let truth = &pis[state.source as usize];
        let mut worst = 0.0_f64;
        for x in 0..n {
            let mut rhs = state.estimate(x as u32);
            for (v, rv) in state.residues() {
                rhs += rv * pis[v as usize][x];
            }
            worst = worst.max((rhs - truth[x]).abs());
        }
        worst
    }

    fn random_graph(rng: &mut StdRng, n: usize, m: usize) -> DynGraph {
        let mut g = DynGraph::with_nodes(n);
        let mut tries = 0;
        while g.num_edges() < m && tries < 20 * m {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            g.insert_edge(u, v);
            tries += 1;
        }
        g
    }

    #[test]
    fn insert_restores_invariant_exactly() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..20 {
            let mut g = random_graph(&mut rng, 12, 24);
            let s = rng.gen_range(0..12) as u32;
            let mut st = PprState::new(s);
            forward_push(&g, Direction::Out, ALPHA, 1e-3, &mut st);
            // Random insert (possibly onto a dangling node).
            let e = loop {
                let u = rng.gen_range(0..12) as u32;
                let v = rng.gen_range(0..12) as u32;
                if !g.has_edge(u, v) {
                    break EdgeEvent::insert(u, v);
                }
            };
            let (fwd, _) = record_events(&mut g, &[e]);
            for ev in &fwd {
                adjust_for_event(&mut st, ev, ALPHA);
            }
            let err = invariant_error(&g, Direction::Out, &st);
            assert!(
                err < 1e-9,
                "trial {trial}: invariant error {err} after insert"
            );
        }
    }

    #[test]
    fn delete_restores_invariant_exactly() {
        let mut rng = StdRng::seed_from_u64(13);
        for trial in 0..20 {
            let mut g = random_graph(&mut rng, 10, 25);
            let s = rng.gen_range(0..10) as u32;
            let mut st = PprState::new(s);
            forward_push(&g, Direction::Out, ALPHA, 1e-3, &mut st);
            let edges: Vec<_> = g.edges().collect();
            let &(u, v) = edges.choose(&mut rng).unwrap();
            let (fwd, _) = record_events(&mut g, &[EdgeEvent::delete(u, v)]);
            for ev in &fwd {
                adjust_for_event(&mut st, ev, ALPHA);
            }
            let err = invariant_error(&g, Direction::Out, &st);
            assert!(
                err < 1e-9,
                "trial {trial}: invariant error {err} after delete"
            );
        }
    }

    #[test]
    fn batch_update_matches_fresh_push_accuracy() {
        let mut rng = StdRng::seed_from_u64(17);
        let r_max = 1e-5;
        let mut g = random_graph(&mut rng, 30, 90);
        let s = 3u32;
        let mut st = PprState::new(s);
        forward_push(&g, Direction::Out, ALPHA, r_max, &mut st);
        // A mixed batch of 15 events.
        let mut events = Vec::new();
        for _ in 0..15 {
            if rng.gen_bool(0.7) {
                let u = rng.gen_range(0..30) as u32;
                let v = rng.gen_range(0..30) as u32;
                events.push(EdgeEvent::insert(u, v));
            } else if g.num_edges() > 0 {
                let edges: Vec<_> = g.edges().collect();
                let &(u, v) = edges.choose(&mut rng).unwrap();
                events.push(EdgeEvent::delete(u, v));
            }
        }
        let (fwd, _) = record_events(&mut g, &events);
        dynamic_update(
            &g,
            Direction::Out,
            ALPHA,
            r_max,
            &mut st,
            &fwd,
            &batch_endpoints(&fwd),
        );
        // Compare the dynamic estimate to exact PPR on the final graph:
        // error per node is bounded by total-residue × max-π ≤ residue mass.
        let truth = exact_ppr_row(&g, Direction::Out, s, ALPHA, 1e-13);
        let worst = (0..30u32)
            .map(|x| (st.estimate(x) - truth[x as usize]).abs())
            .fold(0.0_f64, f64::max);
        assert!(
            worst <= st.residue_mass() + 1e-9,
            "estimate error {worst} exceeds residue bound {}",
            st.residue_mass()
        );
        // And the invariant itself holds exactly.
        let err = invariant_error(&g, Direction::Out, &st);
        assert!(err < 1e-8, "invariant error {err}");
    }

    #[test]
    fn reverse_direction_recording() {
        let mut g = DynGraph::with_nodes(4);
        g.insert_edge(0, 1);
        let mut st = PprState::new(1);
        forward_push(&g, Direction::In, ALPHA, 1e-4, &mut st);
        // Insert 2→1: on the reverse graph this is 1→2, updated endpoint 1.
        let (_, bwd) = record_events(&mut g, &[EdgeEvent::insert(2, 1)]);
        assert_eq!(bwd.len(), 1);
        assert_eq!(bwd[0].u, 1);
        assert_eq!(bwd[0].v, 2);
        assert_eq!(bwd[0].deg_after, 2, "in-degree of node 1 after insert");
        for ev in &bwd {
            adjust_for_event(&mut st, ev, ALPHA);
        }
        let err = invariant_error(&g, Direction::In, &st);
        assert!(err < 1e-9, "reverse invariant error {err}");
    }

    #[test]
    fn noop_events_are_dropped() {
        let mut g = DynGraph::with_nodes(3);
        g.insert_edge(0, 1);
        let (fwd, bwd) = record_events(&mut g, &[EdgeEvent::insert(0, 1), EdgeEvent::delete(1, 2)]);
        assert!(fwd.is_empty());
        assert!(bwd.is_empty());
    }

    #[test]
    fn dangling_transitions_exact() {
        // Purpose-built to hit both zero-degree branches with p(u) > 0.
        let mut g = DynGraph::with_nodes(3);
        g.insert_edge(0, 1); // 1 dangling, accumulates absorbed mass
        let mut st = PprState::new(0);
        forward_push(&g, Direction::Out, ALPHA, 1e-9, &mut st);
        assert!(st.estimate(1) > 0.5, "node 1 absorbed the bulk of the walk");
        // Insert 1→2 (dangling → degree 1).
        let (fwd, _) = record_events(&mut g, &[EdgeEvent::insert(1, 2)]);
        for ev in &fwd {
            adjust_for_event(&mut st, ev, ALPHA);
        }
        assert!(invariant_error(&g, Direction::Out, &st) < 1e-9);
        // Delete it again (degree 1 → dangling).
        let (fwd, _) = record_events(&mut g, &[EdgeEvent::delete(1, 2)]);
        for ev in &fwd {
            adjust_for_event(&mut st, ev, ALPHA);
        }
        assert!(invariant_error(&g, Direction::Out, &st) < 1e-9);
    }
}

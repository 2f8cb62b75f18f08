//! Property-based tests for the dynamic-graph substrate: adjacency-list
//! consistency under arbitrary event sequences, snapshot determinism, and
//! CSR export invariants.

use std::collections::HashSet;
use tsvd_graph::{Direction, DynGraph, EdgeEvent, SnapshotStream, TimedEvent};
use tsvd_rt::check::{Checker, Gen};
use tsvd_rt::{assume, ensure, ensure_eq};

fn event_sequence(g: &mut Gen) -> (usize, Vec<(u32, u32, bool)>) {
    let n = g.usize_in(2..20);
    let evs = g.vec(0..60, |g| {
        (g.u32_in(0..n as u32), g.u32_in(0..n as u32), g.bool())
    });
    (n, evs)
}

#[test]
fn adjacency_matches_reference_set() {
    Checker::new(64).run("adjacency_matches_reference_set", |gen| {
        let (n, evs) = event_sequence(gen);
        let mut g = DynGraph::with_nodes(n);
        let mut reference: HashSet<(u32, u32)> = HashSet::new();
        for (u, v, ins) in evs {
            if ins {
                let changed = g.apply_event(&EdgeEvent::insert(u, v));
                ensure_eq!(changed, reference.insert((u, v)));
            } else {
                let changed = g.apply_event(&EdgeEvent::delete(u, v));
                ensure_eq!(changed, reference.remove(&(u, v)));
            }
        }
        ensure_eq!(g.num_edges(), reference.len());
        // Out-lists, in-lists, has_edge, and the iterator all agree.
        let mut from_iter: Vec<(u32, u32)> = g.edges().collect();
        from_iter.sort_unstable();
        let mut from_ref: Vec<(u32, u32)> = reference.iter().copied().collect();
        from_ref.sort_unstable();
        ensure_eq!(&from_iter, &from_ref);
        for &(u, v) in &reference {
            ensure!(g.has_edge(u, v));
            ensure!(g.out_neighbors(u).contains(&v));
            ensure!(g.neighbors(v, Direction::In).contains(&u));
        }
        // Degree sums both equal the edge count.
        let out_sum: usize = (0..g.num_nodes() as u32).map(|u| g.out_degree(u)).sum();
        let in_sum: usize = (0..g.num_nodes() as u32).map(|u| g.in_degree(u)).sum();
        ensure_eq!(out_sum, reference.len());
        ensure_eq!(in_sum, reference.len());
        Ok(())
    });
}

#[test]
fn snapshot_replay_is_deterministic_and_incremental() {
    Checker::new(64).run("snapshot_replay_is_deterministic_and_incremental", |gen| {
        let (n, evs) = event_sequence(gen);
        assume!(!evs.is_empty());
        let log: Vec<TimedEvent> = evs
            .iter()
            .enumerate()
            .map(|(t, &(u, v, ins))| TimedEvent {
                time: t as u64,
                event: if ins {
                    EdgeEvent::insert(u, v)
                } else {
                    EdgeEvent::delete(u, v)
                },
            })
            .collect();
        let tau = 3.min(log.len());
        let stream = SnapshotStream::from_log(n, &log, tau);
        // Incremental application equals from-scratch materialisation.
        let mut g = stream.snapshot(0);
        for (t, batch) in stream.iter_batches() {
            for e in batch {
                g.apply_event(e);
            }
            let fresh = stream.snapshot(t);
            let mut a: Vec<_> = g.edges().collect();
            let mut b: Vec<_> = fresh.edges().collect();
            a.sort_unstable();
            b.sort_unstable();
            ensure_eq!(a, b, "snapshot {}", t);
        }
        Ok(())
    });
}

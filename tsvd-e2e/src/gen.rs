//! Seeded input generators. Everything the SUT receives — edge events,
//! arrival times, read requests — is derived here from the `--seed`
//! argument; the SUT never sees the seed itself.

use std::collections::{HashSet, VecDeque};

use tsvd_graph::{DynGraph, EdgeEvent};
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};
use tsvd_serve::net::Request;
use tsvd_serve::Metric;

/// Share of events that delete an edge known to exist.
const DELETE_SHARE: f64 = 0.2;

/// No `(u, v)` pair repeats within this many events. A flush window holds
/// at most `flush_max_events` (512) events, so outside the hot set two
/// events of one window never share a pair and last-write-wins coalescing
/// has nothing to drop — which makes the event → epoch mapping of the
/// open-loop workloads exact (raw window size = applied window size).
const NO_REPEAT_HORIZON: usize = 1024;

/// Size of the hot edge set `firehose` draws a share of its events from.
const HOT_EDGES: usize = 64;

/// Share of a `firehose` window drawn from the hot set.
const HOT_SHARE: f64 = 0.2;

/// Generates a valid edge-event stream against a mirror of the graph: 80 %
/// inserts of absent edges, 20 % deletes of present ones, endpoints
/// uniform, so no event is a no-op and none fails.
pub struct EventGen {
    rng: StdRng,
    num_nodes: u32,
    /// Above this many edges every event is a delete, so a long stream
    /// cannot fill a small graph until no absent pair is left to insert.
    max_edges: usize,
    /// Edges currently present (outside the hot set), for uniform deletes.
    alive: Vec<(u32, u32)>,
    present: HashSet<(u32, u32)>,
    recent: VecDeque<(u32, u32)>,
    recent_set: HashSet<(u32, u32)>,
    /// Hot pairs and whether each is currently present in the graph.
    hot: Vec<((u32, u32), bool)>,
}

impl EventGen {
    /// A generator over the initial graph `g0`.
    pub fn new(g0: &DynGraph, seed: u64) -> Self {
        let mut alive: Vec<(u32, u32)> = g0.edges().collect();
        // `DynGraph::edges` walks adjacency lists; sort so the stream does
        // not depend on their internal order.
        alive.sort_unstable();
        let present = alive.iter().copied().collect();
        let n = g0.num_nodes();
        let mut gen = EventGen {
            rng: StdRng::seed_from_u64(seed),
            num_nodes: n as u32,
            max_edges: (4 * alive.len()).min(n * (n - 1) / 4),
            alive,
            present,
            recent: VecDeque::new(),
            recent_set: HashSet::new(),
            hot: Vec::new(),
        };
        // The hot set: absent pairs, reserved so the uniform stream never
        // touches them.
        while gen.hot.len() < HOT_EDGES {
            let pair = gen.fresh_pair();
            gen.present.insert(pair);
            gen.hot.push((pair, false));
        }
        gen
    }

    /// A uniform absent pair that did not occur within the horizon.
    fn fresh_pair(&mut self) -> (u32, u32) {
        loop {
            let u = self.rng.gen_range(0..self.num_nodes);
            let v = self.rng.gen_range(0..self.num_nodes);
            if u != v && !self.present.contains(&(u, v)) && !self.recent_set.contains(&(u, v)) {
                return (u, v);
            }
        }
    }

    fn remember(&mut self, pair: (u32, u32)) {
        self.recent.push_back(pair);
        self.recent_set.insert(pair);
        if self.recent.len() > NO_REPEAT_HORIZON {
            let old = self.recent.pop_front().expect("non-empty ring");
            self.recent_set.remove(&old);
        }
    }

    /// The next uniform event (never from the hot set).
    pub fn next_event(&mut self) -> EdgeEvent {
        if self.rng.gen_bool(DELETE_SHARE) || self.alive.len() >= self.max_edges {
            // A few draws find an edge outside the horizon: the graph
            // holds more edges than the horizon (if not, insert instead).
            for _ in 0..64 {
                let k = self.rng.gen_range(0..self.alive.len());
                let pair = self.alive[k];
                if !self.recent_set.contains(&pair) {
                    self.alive.swap_remove(k);
                    self.present.remove(&pair);
                    self.remember(pair);
                    return EdgeEvent::delete(pair.0, pair.1);
                }
            }
        }
        let pair = self.fresh_pair();
        self.alive.push(pair);
        self.present.insert(pair);
        self.remember(pair);
        EdgeEvent::insert(pair.0, pair.1)
    }

    /// One `firehose` window of `len` events: a share toggles hot edges
    /// (so pairs repeat inside the window and coalescing has work to do),
    /// the rest is the uniform stream.
    pub fn next_hot_window(&mut self, len: usize) -> Vec<EdgeEvent> {
        (0..len)
            .map(|_| {
                if self.rng.gen_bool(HOT_SHARE) {
                    let k = self.rng.gen_range(0..self.hot.len());
                    let ((u, v), on) = self.hot[k];
                    self.hot[k].1 = !on;
                    if on {
                        EdgeEvent::delete(u, v)
                    } else {
                        EdgeEvent::insert(u, v)
                    }
                } else {
                    self.next_event()
                }
            })
            .collect()
    }
}

/// `n` arrival offsets in `[0, seconds)`, ascending: a Poisson process of
/// rate `n / seconds` conditioned on its count, so every seed offers the
/// same number of events.
pub fn arrival_offsets(n: usize, seconds: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * seconds).collect();
    at.sort_by(|a, b| a.partial_cmp(b).expect("finite offsets"));
    at
}

/// Requests per pipelined read burst.
pub const BURST: usize = 16;
/// Rows per `GetRows` request.
pub const ROWS_PER_GET: usize = 8;
/// Neighbours per `TopK` request.
pub const TOP_K: u32 = 10;
/// Share of bursts that are `TopK` bursts.
const TOP_K_SHARE: f64 = 0.2;

/// Which request type a burst is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstKind {
    GetRows,
    TopK,
}

/// Generates read bursts over the subset with zipfian row popularity:
/// rank = ⌊|S|·u³⌋ for uniform `u`, so a few rows take most reads.
pub struct ReadGen {
    rng: StdRng,
    subset: Vec<u32>,
}

impl ReadGen {
    pub fn new(subset: &[u32], seed: u64) -> Self {
        ReadGen {
            rng: StdRng::seed_from_u64(seed),
            subset: subset.to_vec(),
        }
    }

    /// A subset node drawn by popularity.
    pub fn popular_node(&mut self) -> u32 {
        let u: f64 = self.rng.gen();
        let rank = (self.subset.len() as f64 * u * u * u) as usize;
        self.subset[rank.min(self.subset.len() - 1)]
    }

    /// The next burst: `BURST` requests of one kind.
    pub fn next_burst(&mut self) -> (BurstKind, Vec<Request>) {
        if self.rng.gen_bool(TOP_K_SHARE) {
            let reqs = (0..BURST)
                .map(|_| Request::TopK {
                    node: self.popular_node(),
                    k: TOP_K,
                    metric: Metric::Cosine,
                    query: None,
                })
                .collect();
            (BurstKind::TopK, reqs)
        } else {
            let reqs = (0..BURST)
                .map(|_| Request::GetRows((0..ROWS_PER_GET).map(|_| self.popular_node()).collect()))
                .collect();
            (BurstKind::GetRows, reqs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_graph::{coalesce, EventKind};

    fn ring(n: u32) -> DynGraph {
        let mut g = DynGraph::with_nodes(n as usize);
        for u in 0..n {
            g.insert_edge(u, (u + 1) % n);
            g.insert_edge(u, (u + 7) % n);
        }
        g
    }

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let g = ring(300);
        let stream = |seed| {
            let mut gen = EventGen::new(&g, seed);
            let mut ev: Vec<EdgeEvent> = (0..500).map(|_| gen.next_event()).collect();
            ev.extend(gen.next_hot_window(512));
            ev
        };
        assert_eq!(stream(5), stream(5));
        assert_ne!(stream(5), stream(6));
        assert_eq!(arrival_offsets(100, 2.0, 9), arrival_offsets(100, 2.0, 9));
        assert_ne!(arrival_offsets(100, 2.0, 9), arrival_offsets(100, 2.0, 10));
        let subset: Vec<u32> = (0..50).collect();
        let bursts = |seed| {
            let mut r = ReadGen::new(&subset, seed);
            (0..20).map(|_| r.next_burst()).collect::<Vec<_>>()
        };
        assert_eq!(bursts(1), bursts(1));
        assert_ne!(bursts(1), bursts(2));
    }

    /// Every uniform event changes the graph, and no window of 512
    /// consecutive events repeats a pair (nothing for coalescing to drop).
    #[test]
    fn uniform_stream_is_valid_and_never_coalesces() {
        let mut g = ring(300);
        let mut gen = EventGen::new(&g, 3);
        let events: Vec<EdgeEvent> = (0..3000).map(|_| gen.next_event()).collect();
        let mut deletes = 0;
        for e in &events {
            assert!(g.apply_event(e), "event {e:?} was a no-op");
            deletes += usize::from(e.kind == EventKind::Delete);
        }
        assert!((450..750).contains(&deletes), "{deletes} deletes of 3000");
        for w in events.windows(512).step_by(97) {
            assert_eq!(coalesce(w).len(), 512);
        }
    }

    #[test]
    fn hot_windows_give_coalescing_work_and_stay_consistent() {
        let mut g = ring(300);
        let mut gen = EventGen::new(&g, 4);
        let mut dropped = 0;
        for _ in 0..6 {
            let w = gen.next_hot_window(512);
            assert_eq!(w.len(), 512);
            let kept = coalesce(&w);
            dropped += w.len() - kept.len();
            // Applying the coalesced window keeps the generator's mirror
            // of the graph exact: the next window's deletes still hit.
            for e in &kept {
                g.apply_event(e);
            }
        }
        assert!(dropped > 100, "only {dropped} events coalesced");
        for ((u, v), on) in &gen.hot {
            assert_eq!(g.has_edge(*u, *v), *on);
        }
    }

    #[test]
    fn arrivals_are_sorted_and_reads_are_skewed() {
        let at = arrival_offsets(1000, 10.0, 1);
        assert!(at.windows(2).all(|w| w[0] <= w[1]));
        assert!(at[0] >= 0.0 && at[999] < 10.0);
        let subset: Vec<u32> = (0..1000).collect();
        let mut r = ReadGen::new(&subset, 2);
        let low = (0..10_000).filter(|_| r.popular_node() < 125).count();
        // P(rank < |S|/8) = P(u < 1/2) = 1/2.
        assert!((4500..5500).contains(&low), "{low}");
    }
}

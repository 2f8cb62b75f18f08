//! Directed dynamic graph with O(deg) edge insert/delete.

use crate::events::{EdgeEvent, EventKind};

/// Which adjacency direction a traversal follows.
///
/// Tree-SVD computes personalized PageRank both on the input graph (walks
/// follow out-edges, [`Direction::Out`]) and on its reverse (walks follow
/// in-edges, [`Direction::In`]), so [`DynGraph`] maintains both adjacency
/// lists and every traversal API is parameterised by a direction instead of
/// materialising a second reversed graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follow edges u → v (the forward graph).
    Out,
    /// Follow edges v → u (the reverse/transpose graph).
    In,
}

tsvd_rt::impl_json_enum!(Direction { Out, In });

impl Direction {
    /// The opposite direction.
    #[inline]
    pub fn reversed(self) -> Direction {
        match self {
            Direction::Out => Direction::In,
            Direction::In => Direction::Out,
        }
    }
}

/// A directed graph over dense node ids `0..n` with dynamic edge updates.
///
/// Both out- and in-adjacency lists are maintained so that reverse-graph
/// personalized PageRank (needed for the STRAP-style proximity matrix) costs
/// nothing extra. Parallel edges are rejected; self-loops are allowed (some
/// synthetic streams produce them and the push algorithms handle them).
///
/// # Examples
///
/// ```
/// use tsvd_graph::{Direction, DynGraph, EdgeEvent};
///
/// let mut g = DynGraph::with_nodes(3);
/// g.insert_edge(0, 1);
/// g.apply_event(&EdgeEvent::insert(1, 2));
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.neighbors(1, Direction::In), &[0]);
/// g.delete_edge(0, 1);
/// assert!(!g.has_edge(0, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DynGraph {
    out: Vec<Vec<u32>>,
    inn: Vec<Vec<u32>>,
    num_edges: usize,
}

tsvd_rt::impl_json_struct!(DynGraph {
    out,
    inn,
    num_edges
});

impl DynGraph {
    /// An empty graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        DynGraph {
            out: vec![Vec::new(); n],
            inn: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Build a graph from an edge list, growing the node set as needed.
    /// Duplicate edges in the list are silently ignored.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut g = DynGraph::with_nodes(n);
        for &(u, v) in edges {
            g.ensure_node(u.max(v));
            g.insert_edge(u, v);
        }
        g
    }

    /// Number of nodes (including isolated ones).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.out.len()
    }

    /// Number of directed edges currently present.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Grow the node set so that `v` is a valid node id.
    pub fn ensure_node(&mut self, v: u32) {
        let need = v as usize + 1;
        if need > self.out.len() {
            self.out.resize_with(need, Vec::new);
            self.inn.resize_with(need, Vec::new);
        }
    }

    /// Insert edge `u → v`. Returns `false` (and changes nothing) if the edge
    /// already exists. Panics if either endpoint is out of range; callers
    /// that consume raw streams should [`DynGraph::ensure_node`] first.
    pub fn insert_edge(&mut self, u: u32, v: u32) -> bool {
        assert!(
            (u as usize) < self.out.len() && (v as usize) < self.out.len(),
            "edge ({u},{v}) out of range (n={})",
            self.out.len()
        );
        if self.out[u as usize].contains(&v) {
            return false;
        }
        self.out[u as usize].push(v);
        self.inn[v as usize].push(u);
        self.num_edges += 1;
        true
    }

    /// Delete edge `u → v`. Returns `false` if the edge was not present.
    pub fn delete_edge(&mut self, u: u32, v: u32) -> bool {
        let Some(pos) = self
            .out
            .get(u as usize)
            .and_then(|l| l.iter().position(|&x| x == v))
        else {
            return false;
        };
        self.out[u as usize].swap_remove(pos);
        let ipos = self.inn[v as usize]
            .iter()
            .position(|&x| x == u)
            .expect("in-list out of sync with out-list");
        self.inn[v as usize].swap_remove(ipos);
        self.num_edges -= 1;
        true
    }

    /// `true` if edge `u → v` is present.
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.out.get(u as usize).is_some_and(|l| l.contains(&v))
    }

    /// Apply a single edge event (growing the node set for inserts).
    /// Returns `true` if the graph actually changed.
    pub fn apply_event(&mut self, e: &EdgeEvent) -> bool {
        match e.kind {
            EventKind::Insert => {
                self.ensure_node(e.u.max(e.v));
                self.insert_edge(e.u, e.v)
            }
            EventKind::Delete => self.delete_edge(e.u, e.v),
        }
    }

    /// Neighbors of `u` following `dir`.
    #[inline]
    pub fn neighbors(&self, u: u32, dir: Direction) -> &[u32] {
        match dir {
            Direction::Out => &self.out[u as usize],
            Direction::In => &self.inn[u as usize],
        }
    }

    /// Degree of `u` in direction `dir`.
    #[inline]
    pub fn degree(&self, u: u32, dir: Direction) -> usize {
        self.neighbors(u, dir).len()
    }

    /// Out-neighbors of `u`.
    #[inline]
    pub fn out_neighbors(&self, u: u32) -> &[u32] {
        &self.out[u as usize]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: u32) -> usize {
        self.out[u as usize].len()
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: u32) -> usize {
        self.inn[u as usize].len()
    }

    /// All edges as `(u, v)` pairs, in adjacency order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(u, l)| l.iter().map(move |&v| (u as u32, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = DynGraph::with_nodes(4);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn insert_and_query() {
        let mut g = DynGraph::with_nodes(3);
        assert!(g.insert_edge(0, 1));
        assert!(g.insert_edge(0, 2));
        assert!(!g.insert_edge(0, 1), "duplicate insert must be rejected");
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(1), 1);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn delete_keeps_lists_in_sync() {
        let mut g = DynGraph::with_nodes(4);
        for v in 1..4 {
            g.insert_edge(0, v);
            g.insert_edge(v, 0);
        }
        assert!(g.delete_edge(0, 2));
        assert!(!g.delete_edge(0, 2), "double delete must fail");
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(2), 0);
        assert_eq!(g.num_edges(), 5);
        // remaining out-neighbors of 0 are exactly {1,3}
        let mut ns = g.out_neighbors(0).to_vec();
        ns.sort_unstable();
        assert_eq!(ns, vec![1, 3]);
    }

    #[test]
    fn directions_are_transposes() {
        let mut g = DynGraph::with_nodes(3);
        g.insert_edge(0, 1);
        g.insert_edge(2, 1);
        assert_eq!(g.neighbors(1, Direction::In), &[0, 2]);
        assert_eq!(g.neighbors(1, Direction::Out), &[] as &[u32]);
        assert_eq!(g.degree(1, Direction::In), 2);
        assert_eq!(Direction::Out.reversed(), Direction::In);
    }

    #[test]
    fn apply_event_grows_node_set() {
        let mut g = DynGraph::with_nodes(1);
        let changed = g.apply_event(&EdgeEvent::insert(5, 2));
        assert!(changed);
        assert_eq!(g.num_nodes(), 6);
        assert!(g.has_edge(5, 2));
        assert!(!g.apply_event(&EdgeEvent::delete(9, 9)));
    }

    #[test]
    fn self_loop_allowed() {
        let mut g = DynGraph::with_nodes(2);
        assert!(g.insert_edge(1, 1));
        assert_eq!(g.out_degree(1), 1);
        assert_eq!(g.in_degree(1), 1);
    }

    #[test]
    fn edges_iterator_round_trips() {
        let edges = vec![(0u32, 1u32), (1, 2), (2, 0), (0, 2)];
        let g = DynGraph::from_edges(3, &edges);
        let mut got: Vec<_> = g.edges().collect();
        got.sort_unstable();
        let mut want = edges.clone();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

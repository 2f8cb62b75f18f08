//! Subset PPR maintenance: forward + reverse push states for every source
//! in `S`, kept current across snapshots.

use std::fmt;
use std::ops::Range;

use crate::dynamic::{batch_endpoints, dynamic_update, record_events, RecordedEvent};
use crate::proximity::{proximity_entry, proximity_row};
use crate::push::FreshPushWorkspace;
use crate::state::{PprState, Touched};
use tsvd_graph::{Direction, DynGraph, EdgeEvent};
use tsvd_rt::bin::Encode;
use tsvd_rt::pool::{par_for_each_mut, par_map, par_map_init};

/// A batch of edge events already applied to the graph, recorded for replay
/// on per-source PPR states — the graph-mutation half of
/// [`SubsetPpr::update`], split out so *several* `SubsetPpr` instances
/// (e.g. the tenants of one serving host) can share one graph mutation and
/// then apply the identical recorded batch each.
#[derive(Debug, Clone)]
pub struct RecordedBatch {
    fwd: Vec<RecordedEvent>,
    bwd: Vec<RecordedEvent>,
    /// [`batch_endpoints`] of either list: where a converged state can have
    /// become push-worthy. Built once here, shared by every source of every
    /// `SubsetPpr` the batch is replayed into.
    endpoints: Vec<u32>,
}

/// How one dirty proximity row changed since the dirty flags were last
/// cleared — what [`SubsetPpr::drain_row_updates`] hands the matrix layer.
#[derive(Debug, Clone, PartialEq)]
pub enum RowUpdate {
    /// The whole row, as [`SubsetPpr::proximity_row`] builds it.
    Whole(Vec<(u32, f64)>),
    /// Only the columns that can differ, ascending, each with its new
    /// value (`None`: the column is not stored). Every other column of the
    /// row is what it was at the previous drain.
    Patch(Vec<(u32, Option<f64>)>),
}

impl RecordedBatch {
    /// Apply `events` to `g` and record the per-direction replay lists.
    /// Events that do not change the graph (duplicate inserts, deletes of
    /// absent edges) are dropped.
    pub fn record(g: &mut DynGraph, events: &[EdgeEvent]) -> Self {
        let (fwd, bwd) = record_events(g, events);
        let endpoints = batch_endpoints(&fwd);
        RecordedBatch {
            fwd,
            bwd,
            endpoints,
        }
    }

    /// `true` when no event changed the graph (replay is a no-op).
    pub fn is_empty(&self) -> bool {
        self.fwd.is_empty()
    }

    /// Number of events that actually changed the graph.
    pub fn num_effective(&self) -> usize {
        self.fwd.len()
    }
}

/// PPR parameters (Table 2): decay factor `α` and push threshold `r_max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PprConfig {
    /// Stop probability of the α-decay walk. The literature default is 0.15–0.2.
    pub alpha: f64,
    /// Push threshold; smaller is more accurate and more expensive
    /// (`O(1/r_max)` per source).
    pub r_max: f64,
}

tsvd_rt::impl_json_struct!(PprConfig { alpha, r_max });

impl Default for PprConfig {
    fn default() -> Self {
        PprConfig {
            alpha: 0.2,
            r_max: 1e-4,
        }
    }
}

/// Why [`SubsetPpr::concat`] refused its parts (the message says which).
#[derive(Debug, Clone, PartialEq)]
pub struct ConcatError(pub String);

impl fmt::Display for ConcatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConcatError {}

/// Maintains approximate PPR for a fixed subset `S` of sources, in both
/// graph directions, across graph updates.
///
/// This is the substrate under every proximity-matrix method in the paper:
/// `build` is the static Forward-Push pass (used by Tree-SVD-S,
/// Subset-STRAP, DynPPE, FREDE), `update` is the incremental Algorithm-2
/// pass (used by dynamic Tree-SVD and DynPPE).
///
/// # Examples
///
/// ```
/// use tsvd_graph::{DynGraph, EdgeEvent};
/// use tsvd_ppr::{PprConfig, SubsetPpr};
///
/// let mut g = DynGraph::with_nodes(4);
/// g.insert_edge(0, 1);
/// g.insert_edge(1, 2);
/// let mut ppr = SubsetPpr::build(&g, &[0], PprConfig { alpha: 0.2, r_max: 1e-6 });
/// let before = ppr.forward_state(0).estimate(2);
/// ppr.update(&mut g, &[EdgeEvent::insert(0, 3)]);
/// // Node 0 now splits its walk mass: node 2 becomes less likely.
/// assert!(ppr.forward_state(0).estimate(2) < before);
/// ```
#[derive(Debug, Clone)]
pub struct SubsetPpr {
    cfg: PprConfig,
    sources: Vec<u32>,
    fwd: Vec<PprState>,
    bwd: Vec<PprState>,
}

tsvd_rt::impl_json_struct!(SubsetPpr {
    cfg,
    sources,
    fwd,
    bwd
});

impl SubsetPpr {
    /// Run a fresh Forward-Push (both directions) for every source on `g`.
    /// Pushes are parallelised over sources through the shared worker pool,
    /// one reusable dense workspace per participating thread.
    pub fn build(g: &DynGraph, sources: &[u32], cfg: PprConfig) -> Self {
        let total = sources.len() * 2;
        let n = g.num_nodes();
        let mut states: Vec<PprState> = par_map_init(
            total,
            || FreshPushWorkspace::new(n),
            |ws, i| {
                let (src, dir) = if i < sources.len() {
                    (sources[i], Direction::Out)
                } else {
                    (sources[i - sources.len()], Direction::In)
                };
                ws.run(g, dir, cfg.alpha, cfg.r_max, src)
            },
        );
        let bwd = states.split_off(sources.len());
        SubsetPpr {
            cfg,
            sources: sources.to_vec(),
            fwd: states,
            bwd,
        }
    }

    /// The PPR configuration.
    #[inline]
    pub fn config(&self) -> PprConfig {
        self.cfg
    }

    /// The subset `S`, in row order.
    #[inline]
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// Number of sources `|S|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// `true` if the subset is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Forward-direction state of row `idx`.
    pub fn forward_state(&self, idx: usize) -> &PprState {
        &self.fwd[idx]
    }

    /// Apply an event batch: mutates `g` (the shared graph), replays the
    /// per-event adjustments on every source state, and re-pushes.
    /// Sources are processed in parallel; cost per source is
    /// `O(|Δ| + 1/r_max)` (Algorithm 2).
    pub fn update(&mut self, g: &mut DynGraph, events: &[EdgeEvent]) {
        let rec = RecordedBatch::record(g, events);
        self.apply_recorded(g, &rec);
    }

    /// Replay an already-recorded batch (see [`RecordedBatch::record`]) on
    /// every source state. `g` must be the graph the batch was recorded
    /// against, *after* the recording mutated it. Per-source work is
    /// independent and bitwise-deterministic, so the same recording can be
    /// replayed into any number of `SubsetPpr` instances.
    ///
    /// Every state must have seen every batch applied to `g` since it was
    /// built (the convergence precondition of
    /// [`dynamic_update`](crate::dynamic::dynamic_update)): a source the
    /// batch does not reach then costs `2·|Δ|` hash probes per direction.
    pub fn apply_recorded(&mut self, g: &DynGraph, rec: &RecordedBatch) {
        if rec.is_empty() {
            return;
        }
        let cfg = self.cfg;
        // Both directions in one pool region: per-state results are
        // independent, and a state the batch misses is ~1 µs of work, so a
        // second dispatch + barrier would cost more than what it runs.
        let fwd = self.fwd.iter_mut().map(|st| (st, Direction::Out, &rec.fwd));
        let bwd = self.bwd.iter_mut().map(|st| (st, Direction::In, &rec.bwd));
        let mut work: Vec<_> = fwd.chain(bwd).collect();
        par_for_each_mut(&mut work, |(st, dir, recorded)| {
            dynamic_update(g, *dir, cfg.alpha, cfg.r_max, st, recorded, &rec.endpoints);
        });
    }

    /// What changed in every row whose proximity row may have changed since
    /// the flags were last cleared, as `(row, update)` in ascending row
    /// order. Clears the flags, like [`SubsetPpr::take_dirty_rows`] — which
    /// reports the same rows and stays the way to rebuild them whole.
    ///
    /// A row is patched when the two states wrote fewer estimates since the
    /// last drain than a rebuild would have to walk; otherwise (a burst
    /// that rewrote most of the row, or a state no consumer has seen yet)
    /// it comes back whole. Either way, applying the update to a matrix row
    /// that held the previous drain's content yields exactly
    /// `proximity_row(row)`. The dirty rows are worked out on the pool,
    /// one row per task, and come back placed by index, so the result is
    /// the same at any thread count.
    pub fn drain_row_updates(&mut self) -> Vec<(usize, RowUpdate)> {
        let dirty: Vec<usize> = (0..self.len())
            .filter(|&i| self.fwd[i].dirty || self.bwd[i].dirty)
            .collect();
        let (fwd, bwd, r_max) = (&self.fwd, &self.bwd, self.cfg.r_max);
        let updates = par_map(dirty.len(), |k| {
            let i = dirty[k];
            (i, row_update(&fwd[i], &bwd[i], r_max))
        });
        for &i in &dirty {
            self.fwd[i].clear_dirty();
            self.bwd[i].clear_dirty();
        }
        updates
    }

    /// Row indices whose proximity row may have changed since the flags were
    /// last cleared. Clears the flags.
    pub fn take_dirty_rows(&mut self) -> Vec<usize> {
        let mut dirty = Vec::new();
        for i in 0..self.sources.len() {
            let f = self.fwd[i].clear_dirty();
            let b = self.bwd[i].clear_dirty();
            if f || b {
                dirty.push(i);
            }
        }
        dirty
    }

    /// The log-scaled proximity row of source `idx`
    /// (`M_S(s,·)`, sorted sparse entries).
    pub fn proximity_row(&self, idx: usize) -> Vec<(u32, f64)> {
        proximity_row(&self.fwd[idx], &self.bwd[idx], self.cfg.r_max)
    }

    /// All proximity rows (parallel). Row order matches `sources()`.
    pub fn proximity_rows(&self) -> Vec<Vec<(u32, f64)>> {
        par_map(self.sources.len(), |i| self.proximity_row(i))
    }

    /// Append the encoding of rows `rows` as a `SubsetPpr` of their own
    /// (the same bytes as encoding a subset built from just those
    /// sources) — how a checkpoint cuts a large subset into bounded
    /// sections that [`SubsetPpr::concat`] joins back.
    pub fn encode_rows(&self, rows: Range<usize>, out: &mut Vec<u8>) {
        self.cfg.encode(out);
        self.sources[rows.clone()].encode(out);
        self.fwd[rows.clone()].encode(out);
        self.bwd[rows].encode(out);
    }

    /// Join `(start row, part)` pairs cut from one subset back into it:
    /// each part's sources and states follow the previous part's, so the
    /// result is the subset the parts were cut from, state for state. The
    /// parts must tile the rows from 0 in order and share one
    /// [`PprConfig`]; anything else is a [`ConcatError`], never a panic
    /// (the parts may come from a file).
    pub fn concat(parts: Vec<(usize, SubsetPpr)>) -> Result<SubsetPpr, ConcatError> {
        let mut whole: Option<SubsetPpr> = None;
        for (k, (start, part)) in parts.into_iter().enumerate() {
            let rows = whole.as_ref().map_or(0, SubsetPpr::len);
            if start != rows {
                return Err(ConcatError(format!(
                    "PPR part {k} starts at row {start}, not at row {rows}"
                )));
            }
            match &mut whole {
                None => whole = Some(part),
                Some(w) if w.cfg != part.cfg => {
                    return Err(ConcatError(format!(
                        "PPR part {k} has a different PprConfig than part 0"
                    )))
                }
                Some(w) => {
                    w.sources.extend(part.sources);
                    w.fwd.extend(part.fwd);
                    w.bwd.extend(part.bwd);
                }
            }
        }
        whole.ok_or_else(|| ConcatError("no PPR parts to concatenate".into()))
    }
}

/// What changed in one dirty row since its last drain (see
/// [`SubsetPpr::drain_row_updates`]).
fn row_update(fwd: &PprState, bwd: &PprState, r_max: f64) -> RowUpdate {
    match (&fwd.touched, &bwd.touched) {
        (Touched::Cols(f), Touched::Cols(b))
            if f.len() + b.len() < fwd.estimate_nnz() + bwd.estimate_nnz() =>
        {
            let mut cols: Vec<u32> = f.iter().chain(b).copied().collect();
            cols.sort_unstable();
            cols.dedup();
            RowUpdate::Patch(
                cols.into_iter()
                    .map(|v| (v, proximity_entry(fwd, bwd, r_max, v)))
                    .collect(),
            )
        }
        _ => RowUpdate::Whole(proximity_row(fwd, bwd, r_max)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_rt::rng::StdRng;
    use tsvd_rt::rng::{Rng, SeedableRng};

    fn random_graph(rng: &mut StdRng, n: usize, m: usize) -> DynGraph {
        let mut g = DynGraph::with_nodes(n);
        while g.num_edges() < m {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            if u != v {
                g.insert_edge(u, v);
            }
        }
        g
    }

    #[test]
    fn build_populates_both_directions() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = random_graph(&mut rng, 50, 200);
        let cfg = PprConfig {
            alpha: 0.2,
            r_max: 1e-4,
        };
        let ppr = SubsetPpr::build(&g, &[0, 7, 13], cfg);
        assert_eq!(ppr.len(), 3);
        for i in 0..3 {
            assert!(ppr.forward_state(i).estimate_mass() > 0.5);
            assert!(ppr.bwd[i].estimate_mass() > 0.0);
            assert_eq!(ppr.forward_state(i).source, ppr.sources()[i]);
        }
    }

    #[test]
    fn dynamic_update_matches_fresh_build() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = random_graph(&mut rng, 40, 120);
        let cfg = PprConfig {
            alpha: 0.2,
            r_max: 1e-5,
        };
        let sources = vec![1u32, 5, 9];
        let mut ppr = SubsetPpr::build(&g, &sources, cfg);
        // Apply a batch of events.
        let mut events = Vec::new();
        for _ in 0..20 {
            let u = rng.gen_range(0..40) as u32;
            let v = rng.gen_range(0..40) as u32;
            if u != v {
                events.push(if rng.gen_bool(0.8) {
                    EdgeEvent::insert(u, v)
                } else {
                    EdgeEvent::delete(u, v)
                });
            }
        }
        ppr.update(&mut g, &events);
        // A from-scratch build on the final graph must agree closely:
        // both carry ≤ residue-mass error against the same exact PPR.
        let fresh = SubsetPpr::build(&g, &sources, cfg);
        for i in 0..sources.len() {
            let dyn_st = ppr.forward_state(i);
            let fresh_st = fresh.forward_state(i);
            let bound = dyn_st.residue_mass() + fresh_st.residue_mass() + 1e-9;
            let keys: Vec<u32> = dyn_st
                .estimates()
                .map(|e| e.0)
                .chain(fresh_st.estimates().map(|e| e.0))
                .collect();
            for k in keys {
                let d = (dyn_st.estimate(k) - fresh_st.estimate(k)).abs();
                assert!(d <= bound, "source {i} node {k}: diff {d} > bound {bound}");
            }
        }
    }

    #[test]
    fn dirty_rows_reported_once() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = random_graph(&mut rng, 30, 90);
        let cfg = PprConfig::default();
        let mut ppr = SubsetPpr::build(&g, &[2, 4], cfg);
        let first = ppr.take_dirty_rows();
        assert_eq!(first, vec![0, 1], "fresh build dirties everything");
        assert!(ppr.take_dirty_rows().is_empty());
        ppr.update(&mut g, &[EdgeEvent::insert(2, 29)]);
        let dirty = ppr.take_dirty_rows();
        assert!(dirty.contains(&0), "source 2's own row must change");
    }

    /// Apply drained updates to plain sorted rows (what the matrix layer
    /// does cell by cell).
    fn apply(row: &mut Vec<(u32, f64)>, update: RowUpdate) {
        match update {
            RowUpdate::Whole(entries) => *row = entries,
            RowUpdate::Patch(patch) => {
                for (c, v) in patch {
                    row.retain(|e| e.0 != c);
                    row.extend(v.map(|v| (c, v)));
                }
                row.sort_unstable_by_key(|e| e.0);
            }
        }
    }

    #[test]
    fn drained_updates_reproduce_proximity_rows_bitwise() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut g = random_graph(&mut rng, 80, 400);
        let cfg = PprConfig {
            alpha: 0.2,
            r_max: 1e-4,
        };
        let sources: Vec<u32> = (0..16).collect();
        let mut ppr = SubsetPpr::build(&g, &sources, cfg);
        // Nothing has seen the fresh states: every row comes back whole.
        let first = ppr.drain_row_updates();
        assert_eq!(first.len(), sources.len());
        assert!(first.iter().all(|(_, u)| matches!(u, RowUpdate::Whole(_))));
        let mut rows: Vec<Vec<(u32, f64)>> = first
            .into_iter()
            .map(|(_, u)| match u {
                RowUpdate::Whole(r) => r,
                RowUpdate::Patch(_) => unreachable!(),
            })
            .collect();
        assert!(ppr.drain_row_updates().is_empty(), "flags cleared");
        let (mut patches, mut wholes) = (0usize, 0usize);
        for window in 0..60 {
            // Small windows patch; every tenth is a burst that rewrites
            // most of every row and must fall back to whole rows.
            let len = if window % 10 == 9 {
                150
            } else {
                1 + window % 3
            };
            let events: Vec<EdgeEvent> = (0..len)
                .map(|_| {
                    let u = rng.gen_range(0..80) as u32;
                    let v = rng.gen_range(0..80) as u32;
                    if rng.gen_bool(0.7) {
                        EdgeEvent::insert(u, v)
                    } else {
                        EdgeEvent::delete(u, v)
                    }
                })
                .collect();
            ppr.update(&mut g, &events);
            for (i, update) in ppr.drain_row_updates() {
                match &update {
                    RowUpdate::Patch(p) => {
                        patches += 1;
                        assert!(p.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
                    }
                    RowUpdate::Whole(_) => wholes += 1,
                }
                apply(&mut rows[i], update);
            }
            for (i, row) in rows.iter().enumerate() {
                let want = ppr.proximity_row(i);
                let bits = |r: &[(u32, f64)]| -> Vec<(u32, u64)> {
                    r.iter().map(|e| (e.0, e.1.to_bits())).collect()
                };
                assert_eq!(bits(row), bits(&want), "window {window} row {i}");
            }
        }
        assert!(
            patches > 50 && wholes > 10,
            "{patches} patches, {wholes} whole"
        );
    }

    #[test]
    fn take_dirty_rows_and_the_drain_report_the_same_rows() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut g = random_graph(&mut rng, 40, 160);
        let mut a = SubsetPpr::build(&g, &[0, 3, 9, 27], PprConfig::default());
        a.take_dirty_rows();
        let mut b = a.clone();
        let rec = RecordedBatch::record(&mut g, &[EdgeEvent::insert(3, 38)]);
        a.apply_recorded(&g, &rec);
        b.apply_recorded(&g, &rec);
        let drained: Vec<usize> = a.drain_row_updates().into_iter().map(|u| u.0).collect();
        assert_eq!(drained, b.take_dirty_rows());
        assert!(
            b.drain_row_updates().is_empty(),
            "take_dirty_rows clears both"
        );
    }

    #[test]
    fn empty_event_batch_is_noop() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut g = random_graph(&mut rng, 20, 40);
        let mut ppr = SubsetPpr::build(&g, &[0], PprConfig::default());
        ppr.take_dirty_rows();
        ppr.update(&mut g, &[]);
        assert!(ppr.take_dirty_rows().is_empty());
    }

    #[test]
    fn parts_replayed_apart_concatenate_into_the_whole_update() {
        let mut rng = StdRng::seed_from_u64(21);
        let g0 = random_graph(&mut rng, 70, 280);
        let cfg = PprConfig {
            alpha: 0.2,
            r_max: 1e-4,
        };
        let sources: Vec<u32> = (0..12).collect();
        let events: Vec<EdgeEvent> = (0..25)
            .map(|_| {
                let u = rng.gen_range(0..70) as u32;
                let v = rng.gen_range(0..70) as u32;
                if rng.gen_bool(0.8) {
                    EdgeEvent::insert(u, v)
                } else {
                    EdgeEvent::delete(u, v)
                }
            })
            .filter(|e| e.u != e.v)
            .collect();

        // Reference: one SubsetPpr over the full subset.
        let mut g = g0.clone();
        let mut whole = SubsetPpr::build(&g, &sources, cfg);
        whole.update(&mut g, &events);

        // Three row-range parts sharing one graph mutation.
        let mut g2 = g0.clone();
        let mut shards: Vec<SubsetPpr> = sources
            .chunks(5)
            .map(|chunk| SubsetPpr::build(&g2, chunk, cfg))
            .collect();
        let rec = RecordedBatch::record(&mut g2, &events);
        assert!(!rec.is_empty());
        assert!(rec.num_effective() <= events.len());
        for sh in &mut shards {
            sh.apply_recorded(&g2, &rec);
        }

        // Concatenated, the parts are the whole subset, byte for byte; and
        // the whole subset's rows encode as the parts do.
        let bytes = |p: &SubsetPpr| {
            let mut out = Vec::new();
            p.encode(&mut out);
            out
        };
        let starts = [0usize, 5, 10];
        let parts = || starts.into_iter().zip(shards.iter().cloned()).collect();
        let joined = SubsetPpr::concat(parts()).unwrap();
        assert_eq!(bytes(&joined), bytes(&whole));
        for (&start, part) in starts.iter().zip(&shards) {
            let mut cut = Vec::new();
            whole.encode_rows(start..start + part.len(), &mut cut);
            assert_eq!(cut, bytes(part), "rows from {start}");
        }

        // Parts that do not tile the rows are refused with a typed error
        // (more cases: `tsvd-store`'s `sharded_checkpoints`).
        let mut gap: Vec<(usize, SubsetPpr)> = parts();
        gap[2].0 = 11;
        let why = SubsetPpr::concat(gap).err().unwrap().to_string();
        assert_eq!(why, "PPR part 2 starts at row 11, not at row 10");
        assert!(SubsetPpr::concat(Vec::new()).is_err());
    }

    #[test]
    fn proximity_rows_sorted_and_positive() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_graph(&mut rng, 60, 240);
        let ppr = SubsetPpr::build(
            &g,
            &[0, 1, 2, 3],
            PprConfig {
                alpha: 0.2,
                r_max: 1e-3,
            },
        );
        for row in ppr.proximity_rows() {
            assert!(row.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(row.iter().all(|e| e.1 > 0.0));
        }
    }
}

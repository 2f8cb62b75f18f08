//! Per-epoch top-k query state: cached row norms plus an incrementally
//! maintained cluster index over the live embedding.
//!
//! Every published [`EpochSnapshot`](crate::EpochSnapshot) carries an
//! immutable [`QueryState`] built (or incrementally refreshed) at publish
//! time, **not** per query:
//!
//! * **row norms** — the L2 norm and inverse norm of every embedding row,
//!   so cosine queries are a scaled dot product with zero per-query norm
//!   work. Norm buffers are recycled across epochs through a [`BufPool`]:
//!   once an old epoch's snapshot leaves the publish cell, its norm
//!   buffers drop to a single reference and the next refresh reclaims the
//!   allocation instead of re-allocating.
//! * **cluster index** (tier 2) — a k-means-lite partition of the rows
//!   (`C = ⌊√n⌋` clusters, deterministic seeding, two Lloyd rounds).
//!   Queries upper-bound every cluster by the standard centroid bound and
//!   scan only clusters that can still beat the current k-th hit, falling
//!   back to the exact gather scan inside survivors — so results are
//!   *identical* to the exact scan (recall@k = 1.0), just cheaper when the
//!   bound prunes.
//!
//! **Pruning bound.** For dot similarity, `q·x = q·c + q·(x−c) ≤ q·c +
//! ‖q‖·r_c` where `c` is the cluster centroid and `r_c = max_{x∈c}‖x−c‖`
//! its radius (Cauchy–Schwarz). For cosine, the same bound in the
//! normalised space (`x̂ = x/‖x‖`, unit `q̂`): `q̂·x̂ ≤ q̂·ĉ + r̂_c`. Both
//! bounds are inflated by a relative epsilon slack (~1e-9) so floating-
//! point rounding can never prune a true top-k member: member scores and
//! bounds are computed to ~1e-13 relative error, orders of magnitude
//! inside the slack. A cluster is skipped only when its slacked bound is
//! **strictly** below the current k-th score — a tie must be scanned,
//! because a tying row with a lower index wins under the canonical order.
//!
//! **Incremental maintenance.** The refresh runs on the publish path,
//! right after a tenant's Tree-SVD refresh returns (`Publisher::publish`,
//! leader and follower alike). Dirty rows are found by bitwise comparison
//! against the previous epoch's matrix — exact, and free of false
//! positives under the lazy Tree-SVD policy where most epochs change few
//! rows (an unchanged epoch reuses the whole index by `Arc` clone). Dirty
//! rows are reassigned to their nearest *previous* centroid and only the
//! touched clusters (old ∪ new homes) get their centroid, radius, and
//! member list recomputed; untouched clusters are copied verbatim.
//! Because pruning is exact, an incrementally maintained index and a
//! fresh full build return bitwise-identical query results even when
//! their internal cluster shapes differ.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use tsvd_core::TaggedEmbedding;
use tsvd_linalg::topk::{scan_rows_into, topk_scan, Hit, ScanScratch, TopK};
use tsvd_rt::pool;

/// Similarity metric of a top-k query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Plain dot product `q · x`.
    Dot,
    /// Cosine similarity `q · x / (‖q‖·‖x‖)`; zero-norm rows score 0.
    Cosine,
}

impl Metric {
    /// Wire encoding.
    pub fn as_u8(self) -> u8 {
        match self {
            Metric::Dot => 0,
            Metric::Cosine => 1,
        }
    }

    /// Wire decoding; `None` for unknown bytes.
    pub fn from_u8(b: u8) -> Option<Metric> {
        match b {
            0 => Some(Metric::Dot),
            1 => Some(Metric::Cosine),
            _ => None,
        }
    }
}

/// The canonical inverse-norm: `1/‖v‖` with the sum of squares reduced
/// sequentially, `0.0` for the zero vector. Every caller (norm cache
/// build, ad-hoc query vectors, remote shards scoring a router-provided
/// vector) must use this exact function so cosine scores agree bitwise
/// across read paths.
pub(crate) fn inv_norm_of(v: &[f64]) -> f64 {
    let n = norm_of(v);
    if n == 0.0 {
        0.0
    } else {
        1.0 / n
    }
}

/// Sequential-sum L2 norm.
fn norm_of(v: &[f64]) -> f64 {
    let mut s = 0.0f64;
    for &x in v {
        s += x * x;
    }
    s.sqrt()
}

/// Don't bother clustering tiny subsets: a blocked scan over < 64 rows is
/// already a handful of panels.
const MIN_CLUSTER_ROWS: usize = 64;

/// Clusters scanned per parallel batch in the pruned query path.
const CLUSTER_BATCH: usize = 8;

/// Relative slack added to every cluster bound so float rounding can
/// never prune a true member (module docs).
const BOUND_SLACK: f64 = 1e-9;

/// Recycling pool for per-epoch norm buffers. The publisher holds it
/// across epochs; a stashed buffer is reclaimed once every snapshot that
/// references it has been dropped or swapped out of the epoch cell
/// (typically two epochs later).
pub(crate) struct BufPool {
    slots: VecDeque<Arc<Vec<f64>>>,
}

/// Keep at most this many stashed buffers (norms + inverse norms for ~2
/// generations).
const BUF_POOL_CAP: usize = 4;

impl BufPool {
    pub(crate) fn new() -> Self {
        BufPool {
            slots: VecDeque::new(),
        }
    }

    /// A zeroed buffer of `len`, reclaimed from a retired stash slot when
    /// one has dropped to a single reference, freshly allocated otherwise.
    fn grab(&mut self, len: usize) -> Vec<f64> {
        for i in 0..self.slots.len() {
            if Arc::strong_count(&self.slots[i]) == 1 {
                let arc = self.slots.remove(i).expect("index in bounds");
                let mut v = Arc::try_unwrap(arc).expect("sole owner");
                v.clear();
                v.resize(len, 0.0);
                return v;
            }
        }
        vec![0.0; len]
    }

    /// Register a freshly published buffer for future reclamation.
    fn stash(&mut self, arc: Arc<Vec<f64>>) {
        self.slots.push_back(arc);
        while self.slots.len() > BUF_POOL_CAP {
            self.slots.pop_front();
        }
    }
}

/// Immutable per-epoch query state (module docs): cached norms plus the
/// optional cluster index. Shared by `Arc` between the publish cell's
/// snapshot and the publisher's refresh chain.
pub(crate) struct QueryState {
    norms: Arc<Vec<f64>>,
    inv_norms: Arc<Vec<f64>>,
    clusters: Option<Arc<ClusterIndex>>,
}

impl QueryState {
    /// Full build from scratch (initial epoch, re-seeded follower).
    pub(crate) fn build(tagged: &TaggedEmbedding) -> Arc<QueryState> {
        let mut bufs = BufPool::new();
        Self::build_with(tagged, &mut bufs)
    }

    fn build_with(tagged: &TaggedEmbedding, bufs: &mut BufPool) -> Arc<QueryState> {
        let rows = tagged.num_rows();
        let mut norms = bufs.grab(rows);
        let mut inv = bufs.grab(rows);
        for r in 0..rows {
            let n = norm_of(tagged.row(r));
            norms[r] = n;
            inv[r] = if n == 0.0 { 0.0 } else { 1.0 / n };
        }
        let norms = Arc::new(norms);
        let inv_norms = Arc::new(inv);
        bufs.stash(norms.clone());
        bufs.stash(inv_norms.clone());
        let clusters = if rows >= MIN_CLUSTER_ROWS {
            Some(Arc::new(ClusterIndex::build(tagged, &inv_norms)))
        } else {
            None
        };
        Arc::new(QueryState {
            norms,
            inv_norms,
            clusters,
        })
    }

    /// Incremental refresh from the previous epoch's state (module docs).
    /// `prev_tagged` must be the matrix `prev` was built over; a
    /// rows/dim change falls back to a full rebuild.
    pub(crate) fn refresh(
        prev: &Arc<QueryState>,
        prev_tagged: &TaggedEmbedding,
        next: &TaggedEmbedding,
        bufs: &mut BufPool,
    ) -> Arc<QueryState> {
        let rows = next.num_rows();
        let dim = next.dim();
        if prev_tagged.num_rows() != rows || prev_tagged.dim() != dim {
            return Self::build_with(next, bufs);
        }
        // Dirty rows by exact bitwise comparison: under the lazy update
        // policy most epochs touch few rows, and an untouched epoch costs
        // one memcmp sweep plus two Arc clones.
        let a = prev_tagged.left().as_slice();
        let b = next.left().as_slice();
        let mut dirty: Vec<u32> = Vec::new();
        for r in 0..rows {
            if a[r * dim..(r + 1) * dim] != b[r * dim..(r + 1) * dim] {
                dirty.push(r as u32);
            }
        }
        if dirty.is_empty() {
            return Arc::new(QueryState {
                norms: prev.norms.clone(),
                inv_norms: prev.inv_norms.clone(),
                clusters: prev.clusters.clone(),
            });
        }
        let mut norms = bufs.grab(rows);
        let mut inv = bufs.grab(rows);
        norms.copy_from_slice(&prev.norms);
        inv.copy_from_slice(&prev.inv_norms);
        for &r in &dirty {
            let n = norm_of(next.row(r as usize));
            norms[r as usize] = n;
            inv[r as usize] = if n == 0.0 { 0.0 } else { 1.0 / n };
        }
        let norms = Arc::new(norms);
        let inv_norms = Arc::new(inv);
        bufs.stash(norms.clone());
        bufs.stash(inv_norms.clone());
        let clusters = prev
            .clusters
            .as_ref()
            .map(|ci| Arc::new(ci.refresh(&dirty, next, &inv_norms)));
        Arc::new(QueryState {
            norms,
            inv_norms,
            clusters,
        })
    }

    /// Cached L2 norm of every row.
    pub(crate) fn norms(&self) -> &[f64] {
        &self.norms
    }

    /// Whether this epoch carries a tier-2 cluster index.
    pub(crate) fn has_clusters(&self) -> bool {
        self.clusters.is_some()
    }

    /// Answer a top-k query over `tagged` (the matrix this state was
    /// published with). `exclude` is a row to skip (the query node
    /// itself). `force_scan` bypasses the cluster index — results are
    /// identical either way; only the work differs.
    pub(crate) fn top_k_rows(
        &self,
        tagged: &TaggedEmbedding,
        q: &[f64],
        k: usize,
        metric: Metric,
        exclude: Option<u32>,
        force_scan: bool,
    ) -> Vec<Hit> {
        let rows = tagged.num_rows();
        let dim = tagged.dim();
        assert_eq!(q.len(), dim, "query dimension mismatch");
        if k == 0 || rows == 0 {
            return Vec::new();
        }
        let data = tagged.left().as_slice();
        let (q_scale, row_scale) = match metric {
            Metric::Dot => (1.0, None),
            Metric::Cosine => (inv_norm_of(q), Some(self.inv_norms.as_slice())),
        };
        match (&self.clusters, force_scan) {
            (Some(ci), false) => {
                let mut tk = ci.query(
                    data,
                    dim,
                    q,
                    k,
                    metric,
                    exclude,
                    q_scale,
                    row_scale,
                    &self.norms,
                );
                let mut out = Vec::with_capacity(tk.len());
                tk.drain_sorted_into(&mut out);
                out
            }
            _ => {
                let mut out = Vec::new();
                QSCRATCH.with(|s| {
                    let scratch = &mut *s.borrow_mut();
                    topk_scan(
                        data, rows, dim, q, k, exclude, q_scale, row_scale, scratch, &mut out,
                    );
                });
                out
            }
        }
    }
}

thread_local! {
    /// Per-thread scan workspace so snapshot-level queries allocate
    /// nothing in the kernel at steady state.
    static QSCRATCH: std::cell::RefCell<ScanScratch> = std::cell::RefCell::new(ScanScratch::new());
}

/// Tier-2 cluster index (module docs). Immutable once built; refreshes
/// produce a new index sharing nothing mutable.
pub(crate) struct ClusterIndex {
    dim: usize,
    /// Row → cluster.
    assign: Vec<u32>,
    /// Cluster → member rows, ascending.
    members: Vec<Vec<u32>>,
    /// `C × dim` centroids in raw space.
    centroids: Vec<f64>,
    /// Max Euclidean distance member → centroid, per cluster (raw space).
    radius: Vec<f64>,
    /// `C × dim` centroids of the normalised rows.
    centroids_hat: Vec<f64>,
    /// Max distance in normalised space.
    radius_hat: Vec<f64>,
}

impl ClusterIndex {
    /// Number of clusters for `rows`: `⌊√rows⌋`, at least 1.
    fn num_clusters(rows: usize) -> usize {
        ((rows as f64).sqrt() as usize).max(1)
    }

    /// Deterministic k-means-lite build: contiguous seeding, two Lloyd
    /// rounds (ties to the lowest cluster id), then exact per-cluster
    /// centroid/radius in both raw and normalised space.
    fn build(tagged: &TaggedEmbedding, inv_norms: &[f64]) -> ClusterIndex {
        let rows = tagged.num_rows();
        let dim = tagged.dim();
        let c = Self::num_clusters(rows);
        let data = tagged.left().as_slice();
        // Seed: row r starts in cluster ⌊r·C/rows⌋ (contiguous, balanced).
        let mut assign: Vec<u32> = (0..rows).map(|r| (r * c / rows) as u32).collect();
        let mut centroids = vec![0.0f64; c * dim];
        for _round in 0..2 {
            Self::centroids_of(data, rows, dim, c, &assign, &mut centroids);
            let next: Vec<u32> = pool::par_map(rows, |r| {
                Self::nearest(&data[r * dim..(r + 1) * dim], &centroids, c)
            });
            assign = next;
        }
        Self::finish(rows, dim, c, data, assign, inv_norms)
    }

    /// Incremental refresh: reassign only `dirty` rows (against the
    /// *previous* centroids), then recompute exactly the touched clusters.
    fn refresh(&self, dirty: &[u32], next: &TaggedEmbedding, inv_norms: &[f64]) -> ClusterIndex {
        let rows = next.num_rows();
        let dim = next.dim();
        let c = self.members.len();
        debug_assert_eq!(dim, self.dim);
        let data = next.left().as_slice();
        let mut assign = self.assign.clone();
        let mut touched: BTreeSet<u32> = BTreeSet::new();
        for &r in dirty {
            let old = assign[r as usize];
            let new = Self::nearest(
                &data[r as usize * dim..(r as usize + 1) * dim],
                &self.centroids,
                c,
            );
            assign[r as usize] = new;
            touched.insert(old);
            touched.insert(new);
        }
        // Member lists are rebuilt with one O(rows) sweep (ascending by
        // construction); per-cluster stats only for touched clusters —
        // untouched clusters kept the same members over identical rows.
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); c];
        for (r, &a) in assign.iter().enumerate() {
            members[a as usize].push(r as u32);
        }
        let mut out = ClusterIndex {
            dim,
            assign,
            members,
            centroids: self.centroids.clone(),
            radius: self.radius.clone(),
            centroids_hat: self.centroids_hat.clone(),
            radius_hat: self.radius_hat.clone(),
        };
        let _ = rows;
        for &t in &touched {
            out.recompute_cluster(t as usize, data, inv_norms);
        }
        out
    }

    /// Full per-cluster finish: members, centroids, radii, hat versions.
    fn finish(
        rows: usize,
        dim: usize,
        c: usize,
        data: &[f64],
        assign: Vec<u32>,
        inv_norms: &[f64],
    ) -> ClusterIndex {
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); c];
        for (r, &a) in assign.iter().enumerate() {
            members[a as usize].push(r as u32);
        }
        let _ = rows;
        let mut out = ClusterIndex {
            dim,
            assign,
            members,
            centroids: vec![0.0; c * dim],
            radius: vec![0.0; c],
            centroids_hat: vec![0.0; c * dim],
            radius_hat: vec![0.0; c],
        };
        for k in 0..c {
            out.recompute_cluster(k, data, inv_norms);
        }
        out
    }

    /// Recompute one cluster's centroid/radius in raw and normalised
    /// space from its current member list (ascending, so sums are
    /// deterministic).
    fn recompute_cluster(&mut self, k: usize, data: &[f64], inv_norms: &[f64]) {
        let dim = self.dim;
        let cen = &mut self.centroids[k * dim..(k + 1) * dim];
        let cen_hat = &mut self.centroids_hat[k * dim..(k + 1) * dim];
        cen.fill(0.0);
        cen_hat.fill(0.0);
        let m = &self.members[k];
        if m.is_empty() {
            self.radius[k] = 0.0;
            self.radius_hat[k] = 0.0;
            return;
        }
        for &r in m {
            let row = &data[r as usize * dim..(r as usize + 1) * dim];
            let s = inv_norms[r as usize];
            for j in 0..dim {
                cen[j] += row[j];
                cen_hat[j] += row[j] * s;
            }
        }
        let count = m.len() as f64;
        for j in 0..dim {
            cen[j] /= count;
            cen_hat[j] /= count;
        }
        let mut rad = 0.0f64;
        let mut rad_hat = 0.0f64;
        for &r in m {
            let row = &data[r as usize * dim..(r as usize + 1) * dim];
            let s = inv_norms[r as usize];
            let mut d2 = 0.0f64;
            let mut d2h = 0.0f64;
            for j in 0..dim {
                let d = row[j] - cen[j];
                d2 += d * d;
                let dh = row[j] * s - cen_hat[j];
                d2h += dh * dh;
            }
            rad = rad.max(d2.sqrt());
            rad_hat = rad_hat.max(d2h.sqrt());
        }
        self.radius[k] = rad;
        self.radius_hat[k] = rad_hat;
    }

    /// Mean of each cluster's members (ascending-row sums; empty clusters
    /// keep a zero centroid).
    fn centroids_of(
        data: &[f64],
        rows: usize,
        dim: usize,
        c: usize,
        assign: &[u32],
        centroids: &mut [f64],
    ) {
        centroids.fill(0.0);
        let mut counts = vec![0usize; c];
        for r in 0..rows {
            let k = assign[r] as usize;
            counts[k] += 1;
            let row = &data[r * dim..(r + 1) * dim];
            let cen = &mut centroids[k * dim..(k + 1) * dim];
            for j in 0..dim {
                cen[j] += row[j];
            }
        }
        for k in 0..c {
            if counts[k] > 0 {
                let inv = 1.0 / counts[k] as f64;
                for v in &mut centroids[k * dim..(k + 1) * dim] {
                    *v *= inv;
                }
            }
        }
    }

    /// Nearest centroid by squared Euclidean distance, ties to the lowest
    /// cluster id.
    fn nearest(row: &[f64], centroids: &[f64], c: usize) -> u32 {
        let dim = row.len();
        let mut best = 0u32;
        let mut best_d = f64::INFINITY;
        for k in 0..c {
            let cen = &centroids[k * dim..(k + 1) * dim];
            let mut d2 = 0.0f64;
            for j in 0..dim {
                let d = row[j] - cen[j];
                d2 += d * d;
            }
            if d2 < best_d {
                best_d = d2;
                best = k as u32;
            }
        }
        best
    }

    /// Pruned exact query (module docs): bound every cluster, visit them
    /// best-bound first in parallel batches, stop as soon as no remaining
    /// bound can beat the current k-th hit.
    #[allow(clippy::too_many_arguments)]
    fn query(
        &self,
        data: &[f64],
        dim: usize,
        q: &[f64],
        k: usize,
        metric: Metric,
        exclude: Option<u32>,
        q_scale: f64,
        row_scale: Option<&[f64]>,
        _norms: &[f64],
    ) -> TopK {
        debug_assert_eq!(dim, self.dim);
        let c = self.members.len();
        let q_norm = norm_of(q);
        // Slacked upper bound per cluster (module docs).
        let mut order: Vec<(u32, f64)> = (0..c as u32)
            .map(|kc| {
                let kc_us = kc as usize;
                let ub = match metric {
                    Metric::Dot => {
                        let cen = &self.centroids[kc_us * dim..(kc_us + 1) * dim];
                        let mut dot = 0.0f64;
                        for j in 0..dim {
                            dot += q[j] * cen[j];
                        }
                        dot + q_norm * self.radius[kc_us]
                    }
                    Metric::Cosine => {
                        let cen = &self.centroids_hat[kc_us * dim..(kc_us + 1) * dim];
                        let mut dot = 0.0f64;
                        for j in 0..dim {
                            dot += q[j] * cen[j];
                        }
                        dot * q_scale + self.radius_hat[kc_us]
                    }
                };
                (kc, ub + BOUND_SLACK * (1.0 + ub.abs()))
            })
            .collect();
        order.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut global = TopK::new(k);
        global.reset(k);
        let mut i = 0;
        while i < order.len() {
            if let Some(w) = global.worst() {
                // Strictly below the k-th score ⇒ this and every later
                // cluster can be skipped (bounds are sorted descending).
                // A tie is still scanned: a tying row with a lower index
                // would displace the current worst.
                if order[i].1 < w.score {
                    break;
                }
            }
            let end = (i + CLUSTER_BATCH).min(order.len());
            // Clusters in one batch scan in parallel; the merge is order-
            // independent because the hit order is total. Later clusters
            // of a batch may turn out prunable — scanning them is wasted
            // work only, never a different result.
            let batch: Vec<TopK> = pool::par_map(end - i, |j| {
                let kc = order[i + j].0 as usize;
                let mut tk = TopK::new(k);
                tk.reset(k);
                scan_rows_into(
                    data,
                    dim,
                    &self.members[kc],
                    q,
                    exclude,
                    q_scale,
                    row_scale,
                    &mut tk,
                );
                tk
            });
            for tk in &batch {
                global.merge_from(tk);
            }
            i = end;
        }
        global
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_core::Embedding;
    use tsvd_linalg::topk::topk_scan_naive;
    use tsvd_linalg::DenseMatrix;
    use tsvd_rt::rng::{Rng, SeedableRng, StdRng};

    fn tagged(seed: u64, rows: usize, dim: usize, epoch: u64) -> TaggedEmbedding {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..rows * dim)
            .map(|_| rng.gen_range(-1000..1000) as f64 / 83.0)
            .collect();
        Embedding {
            u: DenseMatrix::from_vec(rows, dim, data),
            sigma: vec![1.0; dim],
            dim,
        }
        .tagged(epoch)
    }

    fn assert_hits_eq(a: &[Hit], b: &[Hit]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.row, y.row);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn clustered_query_is_bitwise_exact_vs_naive_both_metrics() {
        let rows = 300;
        let dim = 16;
        let t = tagged(3, rows, dim, 0);
        let state = QueryState::build(&t);
        assert!(state.has_clusters());
        let data = t.left().as_slice();
        for metric in [Metric::Dot, Metric::Cosine] {
            for qrow in [0usize, 17, 299] {
                let q = t.row(qrow).to_vec();
                let (q_scale, row_scale) = match metric {
                    Metric::Dot => (1.0, None),
                    Metric::Cosine => (
                        inv_norm_of(&q),
                        Some({
                            let inv: &[f64] = &state.inv_norms;
                            inv
                        }),
                    ),
                };
                let naive = topk_scan_naive(
                    data,
                    rows,
                    dim,
                    &q,
                    10,
                    Some(qrow as u32),
                    q_scale,
                    row_scale,
                );
                let clustered = state.top_k_rows(&t, &q, 10, metric, Some(qrow as u32), false);
                let scanned = state.top_k_rows(&t, &q, 10, metric, Some(qrow as u32), true);
                assert_hits_eq(&clustered, &naive);
                assert_hits_eq(&scanned, &naive);
            }
        }
    }

    #[test]
    fn small_subset_skips_cluster_index() {
        let t = tagged(5, 20, 8, 0);
        let state = QueryState::build(&t);
        assert!(!state.has_clusters());
        let q = t.row(1).to_vec();
        let hits = state.top_k_rows(&t, &q, 5, Metric::Dot, Some(1), false);
        let naive = topk_scan_naive(t.left().as_slice(), 20, 8, &q, 5, Some(1), 1.0, None);
        assert_hits_eq(&hits, &naive);
    }

    #[test]
    fn refresh_tracks_dirty_rows_exactly() {
        let rows = 200;
        let dim = 12;
        let t0 = tagged(7, rows, dim, 0);
        let state0 = QueryState::build(&t0);
        let mut bufs = BufPool::new();

        // Mutate a handful of rows to make epoch 1.
        let mut data: Vec<f64> = t0.left().as_slice().to_vec();
        for &r in &[3usize, 50, 51, 180] {
            for j in 0..dim {
                data[r * dim + j] = -data[r * dim + j] + 0.25;
            }
        }
        let t1 = Embedding {
            u: DenseMatrix::from_vec(rows, dim, data),
            sigma: vec![1.0; dim],
            dim,
        }
        .tagged(1);
        let state1 = QueryState::refresh(&state0, &t0, &t1, &mut bufs);
        // Norms agree with a full rebuild, bitwise.
        let full = QueryState::build(&t1);
        for r in 0..rows {
            assert_eq!(
                state1.norms[r].to_bits(),
                full.norms[r].to_bits(),
                "row {r}"
            );
            assert_eq!(state1.inv_norms[r].to_bits(), full.inv_norms[r].to_bits());
        }
        // Query results agree with naive, for both the refreshed and the
        // fully rebuilt index (internal shapes may differ; results not).
        for metric in [Metric::Dot, Metric::Cosine] {
            let q = t1.row(50).to_vec();
            let (q_scale, row_scale) = match metric {
                Metric::Dot => (1.0, None),
                Metric::Cosine => (inv_norm_of(&q), Some(state1.inv_norms.as_slice())),
            };
            let naive = topk_scan_naive(
                t1.left().as_slice(),
                rows,
                dim,
                &q,
                8,
                Some(50),
                q_scale,
                row_scale,
            );
            assert_hits_eq(
                &state1.top_k_rows(&t1, &q, 8, metric, Some(50), false),
                &naive,
            );
            assert_hits_eq(
                &full.top_k_rows(&t1, &q, 8, metric, Some(50), false),
                &naive,
            );
        }
    }

    #[test]
    fn clean_refresh_reuses_the_whole_state_by_arc() {
        let t0 = tagged(9, 100, 8, 0);
        let state0 = QueryState::build(&t0);
        let mut bufs = BufPool::new();
        let t1 = Embedding {
            u: DenseMatrix::from_vec(100, 8, t0.left().as_slice().to_vec()),
            sigma: vec![1.0; 8],
            dim: 8,
        }
        .tagged(1);
        let state1 = QueryState::refresh(&state0, &t0, &t1, &mut bufs);
        assert!(Arc::ptr_eq(&state0.norms, &state1.norms));
        assert!(Arc::ptr_eq(&state0.inv_norms, &state1.inv_norms));
        assert!(Arc::ptr_eq(
            state0.clusters.as_ref().unwrap(),
            state1.clusters.as_ref().unwrap()
        ));
    }

    #[test]
    fn buf_pool_recycles_retired_norm_buffers() {
        let rows = 80;
        let dim = 8;
        let mut bufs = BufPool::new();
        let t0 = tagged(11, rows, dim, 0);
        let state0 = QueryState::build_with(&t0, &mut bufs);
        let ptr0 = state0.norms.as_ptr();

        // Epoch 1 dirties a row; epoch-0 state is then fully retired.
        let mut data = t0.left().as_slice().to_vec();
        data[0] += 1.0;
        let t1 = Embedding {
            u: DenseMatrix::from_vec(rows, dim, data.clone()),
            sigma: vec![1.0; dim],
            dim,
        }
        .tagged(1);
        let state1 = QueryState::refresh(&state0, &t0, &t1, &mut bufs);
        drop(state0); // last external ref to epoch 0's buffers

        data[1] += 1.0;
        let t2 = Embedding {
            u: DenseMatrix::from_vec(rows, dim, data),
            sigma: vec![1.0; dim],
            dim,
        }
        .tagged(2);
        let state2 = QueryState::refresh(&state1, &t1, &t2, &mut bufs);
        let reused = [state2.norms.as_ptr(), state2.inv_norms.as_ptr()];
        assert!(
            reused.contains(&ptr0),
            "epoch-2 refresh did not reclaim epoch-0's retired buffer"
        );
    }

    #[test]
    fn metric_wire_codes_round_trip() {
        for m in [Metric::Dot, Metric::Cosine] {
            assert_eq!(Metric::from_u8(m.as_u8()), Some(m));
        }
        assert_eq!(Metric::from_u8(2), None);
        assert_eq!(Metric::from_u8(255), None);
    }
}

//! Epoch snapshots and the double-buffered publish cell.
//!
//! The writer (a `Publisher`, one per tenant — the server's event loop or
//! a follower drives it) prepares a complete [`EpochSnapshot`] *off* any
//! lock — materialising the embedding, the node→row index, the row norms
//! top-k queries scale by, and a content checksum — and then publishes it
//! with a single pointer-sized [`Arc`] swap inside [`EpochCell::store`]. Readers
//! clone the current `Arc` under a read lock held for nanoseconds and then
//! work entirely on their private snapshot: they never block the writer,
//! never see a half-written epoch, and an in-flight reader keeps its whole
//! epoch alive however many swaps happen underneath it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use tsvd_core::{PipelineTimings, TaggedEmbedding};

use crate::engine::TenantEngine;
use crate::query::{inv_norm_of, Metric, QueryState, RowQuery};

/// One immutable, internally consistent published state of the server:
/// the embedding at some epoch plus the lookup structures to query it.
#[derive(Clone)]
pub struct EpochSnapshot {
    tagged: TaggedEmbedding,
    sources: Arc<Vec<u32>>,
    index: Arc<HashMap<u32, usize>>,
    events_applied: u64,
    timings: PipelineTimings,
    checksum: f64,
    /// Cached row norms for top-k queries, computed at assembly — never
    /// per query. Behind an `Arc` so cloning a snapshot stays pointer bumps.
    query: Arc<QueryState>,
}

impl EpochSnapshot {
    /// Assemble a snapshot. `sources[i]` must be the node whose embedding
    /// is row `i` — the engine's subset order. Computes the row norms and
    /// the checksum from `tagged` alone: nothing is carried over from any
    /// earlier epoch.
    pub fn new(
        tagged: TaggedEmbedding,
        sources: Arc<Vec<u32>>,
        index: Arc<HashMap<u32, usize>>,
        events_applied: u64,
        timings: PipelineTimings,
    ) -> Self {
        assert_eq!(sources.len(), tagged.num_rows(), "sources/rows mismatch");
        let checksum = Self::checksum_of(&tagged);
        let query = Arc::new(QueryState::build(&tagged));
        EpochSnapshot {
            tagged,
            sources,
            index,
            events_applied,
            timings,
            checksum,
            query,
        }
    }

    /// Sequential sum over all embedding entries — deterministic, so any
    /// consistent snapshot verifies bitwise. A torn mix of two epochs
    /// (impossible by construction; asserted by the integration tests)
    /// would fail [`EpochSnapshot::verify`].
    fn checksum_of(tagged: &TaggedEmbedding) -> f64 {
        let left = tagged.left();
        let mut sum = 0.0f64;
        for r in 0..left.rows() {
            for v in left.row(r) {
                sum += v;
            }
        }
        sum
    }

    /// Recompute the checksum from the snapshot's current contents and
    /// compare bitwise against the one stamped at publish time.
    pub fn verify(&self) -> bool {
        Self::checksum_of(&self.tagged).to_bits() == self.checksum.to_bits()
    }

    /// The epoch (number of flushed batches) this snapshot reflects.
    pub fn epoch(&self) -> u64 {
        self.tagged.epoch()
    }

    /// Total events applied by the engine up to this epoch.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Cumulative per-stage timings up to this epoch.
    pub fn timings(&self) -> PipelineTimings {
        self.timings
    }

    /// Checksum stamped at publish time (sequential entry sum).
    pub fn checksum(&self) -> f64 {
        self.checksum
    }

    /// The subset `S` in row order.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.tagged.dim()
    }

    /// The underlying tagged embedding.
    pub fn tagged(&self) -> &TaggedEmbedding {
        &self.tagged
    }

    /// Row index of `node` in this snapshot, if it is in the subset.
    pub fn row_of(&self, node: u32) -> Option<usize> {
        self.index.get(&node).copied()
    }

    /// The embedding vector of `node`, if it is in the subset.
    pub fn get(&self, node: u32) -> Option<&[f64]> {
        self.row_of(node).map(|r| self.tagged.row(r))
    }

    /// Batched lookup: one slot per query, `None` for non-subset nodes.
    pub fn get_many(&self, nodes: &[u32]) -> Vec<Option<&[f64]>> {
        nodes.iter().map(|&u| self.get(u)).collect()
    }

    /// The `k` subset nodes most similar to `node` under `metric`,
    /// descending, excluding `node` itself; ties broken by ascending row
    /// (the canonical deterministic order — identical at any thread
    /// count). `None` if `node` is not in the subset. A batch of one
    /// ([`top_k_batch`](Self::top_k_batch)).
    pub fn top_k(&self, node: u32, k: usize, metric: Metric) -> Option<Vec<(u32, f64)>> {
        self.top_k_batch(&[TopKQuery::Node { node, k, metric }])
            .pop()
            .flatten()
    }

    /// Delegate kept only because the frozen benchmark
    /// (`tsvd-e2e/src/trace.rs`, which this repo's PRs may not edit) calls
    /// it beside `top_k`; there is one top-k path and this is it. The next
    /// benchmark PR drops the call and this method with it.
    #[doc(hidden)]
    pub fn top_k_scan(&self, node: u32, k: usize, metric: Metric) -> Option<Vec<(u32, f64)>> {
        self.top_k(node, k, metric)
    }

    /// Top-k against an arbitrary query vector (`q.len() == dim`),
    /// optionally excluding one subset node (e.g. the query node on the
    /// shard that owns it — the router's scatter path). For cosine, `q`
    /// is normalised with the same canonical inverse-norm the cached row
    /// norms use, so scoring a copied-out row gives bitwise the same
    /// answer as querying by node. A batch of one.
    pub fn top_k_by_vector(
        &self,
        q: &[f64],
        k: usize,
        metric: Metric,
        exclude: Option<u32>,
    ) -> Vec<(u32, f64)> {
        self.top_k_batch(&[TopKQuery::Vector {
            q,
            k,
            metric,
            exclude,
        }])
        .pop()
        .flatten()
        .expect("a vector query is always answered")
    }

    /// Answer many top-k queries in one scan of this snapshot: `result[i]`
    /// answers `queries[i]` — `None` for a [`TopKQuery::Node`] outside the
    /// subset — and is bitwise what [`top_k`](Self::top_k) or
    /// [`top_k_by_vector`](Self::top_k_by_vector) answers for that query
    /// alone. Panics if a vector query's length is not [`dim`](Self::dim).
    pub fn top_k_batch(&self, queries: &[TopKQuery<'_>]) -> Vec<Option<Vec<(u32, f64)>>> {
        let resolved: Vec<Option<RowQuery>> = queries
            .iter()
            .map(|query| match *query {
                TopKQuery::Node { node, k, metric } => self.row_of(node).map(|row| RowQuery {
                    q: self.tagged.row(row),
                    k,
                    metric,
                    exclude: Some(row as u32),
                }),
                TopKQuery::Vector {
                    q,
                    k,
                    metric,
                    exclude,
                } => Some(RowQuery {
                    q,
                    k,
                    metric,
                    exclude: exclude.and_then(|node| self.row_of(node)).map(|r| r as u32),
                }),
            })
            .collect();
        let scans: Vec<RowQuery> = resolved.iter().flatten().copied().collect();
        let mut hits = self.query.top_k_rows(&self.tagged, &scans).into_iter();
        resolved
            .iter()
            .map(|query| {
                query.map(|_| {
                    hits.next()
                        .expect("one answer per scanned query")
                        .into_iter()
                        .map(|h| (self.sources[h.row as usize], h.score))
                        .collect()
                })
            })
            .collect()
    }

    /// Cached per-row L2 norms (computed once at publish).
    pub fn norms(&self) -> &[f64] {
        self.query.norms()
    }

    /// The canonical inverse norm used for cosine scoring — exposed so
    /// remote scorers normalise query vectors bitwise-identically.
    pub fn query_inv_norm(q: &[f64]) -> f64 {
        inv_norm_of(q)
    }
}

/// One query of an [`EpochSnapshot::top_k_batch`] call.
#[derive(Debug, Clone, Copy)]
pub enum TopKQuery<'a> {
    /// The `k` nodes most similar to `node`'s own row, `node` excluded —
    /// what [`EpochSnapshot::top_k`] answers.
    Node { node: u32, k: usize, metric: Metric },
    /// The `k` nodes most similar to `q`, `exclude` skipped when it owns a
    /// row — what [`EpochSnapshot::top_k_by_vector`] answers.
    Vector {
        q: &'a [f64],
        k: usize,
        metric: Metric,
        exclude: Option<u32>,
    },
}

/// The double buffer: the currently published snapshot behind an `Arc`
/// swap, plus a lock-free epoch counter for cheap staleness probes.
pub struct EpochCell {
    current: RwLock<Arc<EpochSnapshot>>,
    epoch: AtomicU64,
}

impl EpochCell {
    pub fn new(initial: EpochSnapshot) -> Self {
        let epoch = initial.epoch();
        EpochCell {
            current: RwLock::new(Arc::new(initial)),
            epoch: AtomicU64::new(epoch),
        }
    }

    /// Grab the current snapshot. The read lock is held only for the
    /// `Arc` clone; the returned snapshot stays valid (and unchanged)
    /// for as long as the caller holds it.
    pub fn load(&self) -> Arc<EpochSnapshot> {
        self.current.read().unwrap().clone()
    }

    /// Publish `next` as the new current snapshot (writer side).
    pub fn store(&self, next: EpochSnapshot) {
        let epoch = next.epoch();
        let next = Arc::new(next);
        *self.current.write().unwrap() = next;
        self.epoch.store(epoch, Ordering::Release);
    }

    /// The published epoch, without touching the lock.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// One tenant's publish side — the only code that builds and stores
/// served snapshots. Owns the tenant's [`EpochCell`] and the subset lookup
/// `Arc`s every snapshot shares; it holds nothing of any published epoch.
/// The leader's reactor and a [`crate::Follower`] each hold one per tenant,
/// so their readers get the identical wait-free interface.
pub(crate) struct Publisher {
    cell: Arc<EpochCell>,
    sources: Arc<Vec<u32>>,
    index: Arc<HashMap<u32, usize>>,
}

impl Publisher {
    /// Publish `engine`'s current state as the cell's first snapshot
    /// (epoch 0 for a fresh build, the checkpoint epoch after recovery).
    pub(crate) fn new(engine: &TenantEngine) -> Self {
        let sources = Arc::new(engine.sources().to_vec());
        let index: Arc<HashMap<u32, usize>> =
            Arc::new(sources.iter().enumerate().map(|(i, &v)| (v, i)).collect());
        let cell = Arc::new(EpochCell::new(Self::snapshot_of(engine, &sources, &index)));
        Publisher {
            cell,
            sources,
            index,
        }
    }

    /// Publish `engine`'s current state through the cell: the next epoch
    /// of the engine this publisher was built over, or the state of a
    /// *replacement* engine over the same subset (a follower re-seeded
    /// from a checkpoint — readers handed out earlier simply observe the
    /// jump).
    pub(crate) fn publish(&self, engine: &TenantEngine) {
        self.cell
            .store(Self::snapshot_of(engine, &self.sources, &self.index));
    }

    fn snapshot_of(
        engine: &TenantEngine,
        sources: &Arc<Vec<u32>>,
        index: &Arc<HashMap<u32, usize>>,
    ) -> EpochSnapshot {
        EpochSnapshot::new(
            engine.tagged(),
            sources.clone(),
            index.clone(),
            engine.events_applied(),
            engine.timings(),
        )
    }

    /// The cell readers load from.
    pub(crate) fn cell(&self) -> &Arc<EpochCell> {
        &self.cell
    }

    /// The published subset, in row order.
    pub(crate) fn sources(&self) -> &[u32] {
        &self.sources
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_core::Embedding;
    use tsvd_linalg::DenseMatrix;

    fn snapshot(epoch: u64, scale: f64) -> EpochSnapshot {
        let rows = 3usize;
        let dim = 2usize;
        let data: Vec<f64> = (0..rows * dim).map(|i| scale * (i as f64 + 1.0)).collect();
        let emb = Embedding {
            u: DenseMatrix::from_vec(rows, dim, data),
            sigma: vec![1.0; dim],
            dim,
        };
        let sources = Arc::new(vec![10u32, 20, 30]);
        let index: Arc<HashMap<u32, usize>> =
            Arc::new(sources.iter().enumerate().map(|(i, &v)| (v, i)).collect());
        EpochSnapshot::new(
            emb.tagged(epoch),
            sources,
            index,
            epoch * 5,
            PipelineTimings::default(),
        )
    }

    #[test]
    fn lookup_and_checksum() {
        let s = snapshot(3, 1.0);
        assert_eq!(s.epoch(), 3);
        assert_eq!(s.events_applied(), 15);
        assert!(s.verify());
        assert!(s.get(10).is_some());
        assert!(s.get(11).is_none());
        assert_eq!(s.row_of(30), Some(2));
        let many = s.get_many(&[20, 99, 10]);
        assert!(many[0].is_some() && many[1].is_none() && many[2].is_some());
        assert_eq!(s.get(20).unwrap().len(), s.dim());
    }

    #[test]
    fn top_k_orders_by_dot_product() {
        let s = snapshot(1, 1.0);
        // Rows grow with index, so node 30 (largest row) is most similar
        // to everything under plain dot product.
        let top = s.top_k(10, 2, Metric::Dot).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 30);
        assert_eq!(top[1].0, 20);
        assert!(top[0].1 >= top[1].1);
        assert!(s.top_k(99, 2, Metric::Dot).is_none());
        // k larger than the subset truncates gracefully.
        assert_eq!(s.top_k(10, 100, Metric::Dot).unwrap().len(), 2);
    }

    #[test]
    fn cell_swap_is_atomic_per_reader() {
        let cell = EpochCell::new(snapshot(0, 1.0));
        assert_eq!(cell.epoch(), 0);
        let held = cell.load();
        cell.store(snapshot(1, 2.0));
        assert_eq!(cell.epoch(), 1);
        // The held snapshot still verifies and still reads epoch 0.
        assert_eq!(held.epoch(), 0);
        assert!(held.verify());
        assert_eq!(cell.load().epoch(), 1);
        assert!(cell.load().verify());
    }
}

//! The sharded update engine: `R` row-range PPR replicas feeding one
//! global lazy Tree-SVD — bitwise-equal to an unsharded
//! [`TreeSvdPipeline`](tsvd_core::TreeSvdPipeline) at any `R`.
//!
//! # Why sharding is exact here
//!
//! A [`TreeSvdPipeline::update`](tsvd_core::TreeSvdPipeline::update) has two
//! phases with very different structure:
//!
//! 1. **PPR + proximity rows** — per-source work: each source's push state
//!    depends only on the graph and the event batch, never on other
//!    sources. This phase shards perfectly: the batch is recorded once
//!    ([`RecordedBatch`]), mutating the graph, then every shard replays the
//!    identical record on its own contiguous row range of `M_S` via
//!    [`SubsetPpr::apply_recorded`]. Per-row output is bitwise what the
//!    unsharded `SubsetPpr` would produce.
//! 2. **Lazy Tree-SVD refresh** — global: the factorisation mixes all rows,
//!    so the engine keeps *one* [`DynamicTreeSvd`] over *one*
//!    [`BlockedProximityMatrix`] that the shards write into. Same matrix
//!    content + same cache state ⇒ same embedding, bit for bit.
//!
//! Consequently the served embedding is invariant in `R` **and** in
//! `TSVD_THREADS` (the pool places results by index), which is what lets
//! the integration suite pin `server output ≡ offline replay` exactly
//! rather than up to tolerance.
//!
//! # One window path
//!
//! [`TenantEngine::apply_recorded`] is the only place `tsvd-serve` applies
//! a window: both phases of Alg. 4, strictly in order, for one tenant's
//! subset, against a recording captured by the shared
//! [`GraphIngest`](crate::ingest::GraphIngest). The graph lives one level
//! up, in the [`TenantHost`], which records each batch once and replays
//! the recording into every tenant — so the engine owns no graph.
//! [`ShardedEngine`] is the one-tenant host under a single-engine API.
//! Everything here is synchronous and single-writer; the batching reactor
//! lives in [`crate::server`].

use std::time::Instant;

use tsvd_core::{
    BlockedProximityMatrix, DynamicTreeSvd, Embedding, PipelineTimings, TaggedEmbedding,
    TreeSvdConfig, UpdateStats,
};
use tsvd_graph::{DynGraph, EdgeEvent};
use tsvd_linalg::CsrMatrix;
use tsvd_ppr::{PprConfig, RecordedBatch, RowUpdate, SubsetPpr};
use tsvd_rt::bin::{decode_all, BinError, Cursor, Decode, Encode};
use tsvd_rt::json::{field, FromJson, Json, JsonError, ToJson};
use tsvd_rt::pool::par_for_each_mut;

use crate::server::DEFAULT_TENANT;
use crate::tenant::{HostSection, TenantHost, TenantId};

/// One pipeline replica: the PPR maintenance state for a contiguous row
/// range `[start, start + ppr.len())` of `M_S`.
struct Shard {
    /// Global row index of this shard's first source.
    start: usize,
    ppr: SubsetPpr,
    /// Scratch: `(local_row, update)` pairs produced by the parallel
    /// refresh, drained serially into the global matrix.
    pending: Vec<(usize, RowUpdate)>,
}

/// One tenant's whole update state: the shard PPR replicas of its subset,
/// the global matrix they write into, the lazy Tree-SVD over it, the
/// current embedding, and all cumulative accounting.
pub(crate) struct TenantEngine {
    pub(crate) id: TenantId,
    sources: Vec<u32>,
    shards: Vec<Shard>,
    matrix: BlockedProximityMatrix,
    tree: DynamicTreeSvd,
    embedding: Embedding,
    timings: PipelineTimings,
    stats_total: UpdateStats,
    epoch: u64,
    events_applied: u64,
}

impl TenantEngine {
    /// Build tenant `id`'s engine over `graph` for subset `sources`: shard
    /// the rows into `num_shards` contiguous `SubsetPpr` replicas (clamped
    /// to `|S|`) and run the initial factorisation, identically to
    /// `TreeSvdPipeline::new(graph, sources, ppr_cfg, tree_cfg)` — shard
    /// builds are per-source independent.
    pub(crate) fn build(
        id: TenantId,
        graph: &DynGraph,
        sources: &[u32],
        num_shards: usize,
        ppr_cfg: PprConfig,
        tree_cfg: TreeSvdConfig,
    ) -> Self {
        tree_cfg.validate();
        assert!(num_shards >= 1, "need at least one shard");
        assert!(!sources.is_empty(), "subset must be non-empty");
        assert!(
            sources.iter().all(|&s| (s as usize) < graph.num_nodes()),
            "subset node out of range"
        );
        let r = num_shards.min(sources.len());
        let per = sources.len().div_ceil(r);
        let mut shards = Vec::with_capacity(r);
        let mut start = 0usize;
        while start < sources.len() {
            let end = (start + per).min(sources.len());
            shards.push(Shard {
                start,
                ppr: SubsetPpr::build(graph, &sources[start..end], ppr_cfg),
                pending: Vec::new(),
            });
            start = end;
        }
        let rows: Vec<Vec<(u32, f64)>> = shards
            .iter()
            .flat_map(|sh| sh.ppr.proximity_rows())
            .collect();
        let matrix =
            BlockedProximityMatrix::from_proximity_rows(graph.num_nodes(), &tree_cfg, &rows);
        for sh in &mut shards {
            sh.ppr.take_dirty_rows(); // initial build handled all rows
        }
        let mut tree = DynamicTreeSvd::new(tree_cfg);
        let embedding = tree.build(&matrix);
        TenantEngine {
            id,
            sources: sources.to_vec(),
            shards,
            matrix,
            tree,
            embedding,
            timings: PipelineTimings::default(),
            stats_total: UpdateStats::default(),
            epoch: 0,
            events_applied: 0,
        }
    }

    /// Apply one window from an already-captured recording — the sharded
    /// equivalent of `TreeSvdPipeline::update`, and the only window path
    /// in this crate.
    ///
    /// `graph` must be the shared ingest graph *after* the recording
    /// mutated it (the `apply_recorded` contract) and `events` the window
    /// the recording was captured from; the same `rec` can be replayed
    /// into any number of tenants.
    pub(crate) fn apply_recorded(
        &mut self,
        graph: &DynGraph,
        rec: &RecordedBatch,
        events: &[EdgeEvent],
    ) -> UpdateStats {
        // Phase 1a: replay the record on every shard's states in parallel
        // (shards outer, sources inner — nested regions run inline on pool
        // workers, so both levels stay busy).
        let t0 = Instant::now();
        par_for_each_mut(&mut self.shards, |sh| {
            sh.ppr.apply_recorded(graph, rec);
        });
        let t1 = Instant::now();

        // Phase 1b: work out what changed in each dirty proximity row per
        // shard in parallel (the touched columns, or the whole row), then
        // drain the updates into the matrix in ascending global row order —
        // the same order, through the same two calls, as the unsharded
        // pipeline, so version stamps (and thus the lazy layer's re-diff
        // bookkeeping) match exactly.
        par_for_each_mut(&mut self.shards, |sh| {
            sh.pending = sh.ppr.drain_row_updates();
        });
        for sh in &mut self.shards {
            for (local, update) in sh.pending.drain(..) {
                self.matrix.apply_row_update(sh.start + local, &update);
            }
        }
        let t2 = Instant::now();

        // Phase 2: the global lazy Tree-SVD refresh.
        let (embedding, stats) = self.tree.update(&self.matrix);
        self.embedding = embedding;
        self.timings.ppr_secs += (t1 - t0).as_secs_f64();
        self.timings.rows_secs += (t2 - t1).as_secs_f64();
        self.timings.svd_secs += t2.elapsed().as_secs_f64();
        self.timings.updates += 1;
        self.stats_total += stats;
        self.epoch += 1;
        self.events_applied += events.len() as u64;
        stats
    }

    /// The current embedding, tagged with the current epoch, as a cheaply
    /// clonable snapshot ready to publish.
    pub(crate) fn tagged(&self) -> TaggedEmbedding {
        self.embedding.tagged(self.epoch)
    }

    pub(crate) fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(crate) fn events_applied(&self) -> u64 {
        self.events_applied
    }

    pub(crate) fn timings(&self) -> PipelineTimings {
        self.timings
    }

    pub(crate) fn sources(&self) -> &[u32] {
        &self.sources
    }

    pub(crate) fn num_shards(&self) -> usize {
        self.shards.len()
    }
}

// Checkpoint codecs. Scratch state is excluded by construction (a shard's
// `pending` buffer only lives within one `apply_recorded` call), so a
// reloaded engine continues bitwise from the saved state.
tsvd_rt::impl_json_struct!(Shard { start, ppr } transient {
    pending: Vec::new()
});

// The engine is the one struct whose two formats are not the same list
// read twice: the JSON keeps the `front` / `back` grouping older
// checkpoints were written in (so they still recover), and the binary form
// is cut into sections so that nothing ever holds more than one of them.
// Both writers take the struct apart with an exhaustive pattern and both
// readers build it with a struct literal, so a field added later does not
// compile until all four know it.
impl ToJson for TenantEngine {
    fn to_json(&self) -> Json {
        let TenantEngine {
            id,
            sources,
            shards,
            matrix,
            tree,
            embedding,
            timings,
            stats_total,
            epoch,
            events_applied,
        } = self;
        Json::object([
            ("id", id.to_json()),
            (
                "front",
                Json::object([("sources", sources.to_json()), ("shards", shards.to_json())]),
            ),
            (
                "back",
                Json::object([
                    ("matrix", matrix.to_json()),
                    ("tree", tree.to_json()),
                    ("embedding", embedding.to_json()),
                    ("timings", timings.to_json()),
                    ("stats_total", stats_total.to_json()),
                    ("epoch", epoch.to_json()),
                    ("events_applied", events_applied.to_json()),
                ]),
            ),
        ])
    }
}

impl FromJson for TenantEngine {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let part = |key: &str| {
            j.get(key)
                .ok_or_else(|| JsonError(format!("missing field '{key}'")))
        };
        let (front, back) = (part("front")?, part("back")?);
        Ok(TenantEngine {
            id: field(j, "id")?,
            sources: field(front, "sources")?,
            shards: field(front, "shards")?,
            matrix: field(back, "matrix")?,
            tree: field(back, "tree")?,
            embedding: field(back, "embedding")?,
            timings: field(back, "timings")?,
            stats_total: field(back, "stats_total")?,
            epoch: field(back, "epoch")?,
            events_applied: field(back, "events_applied")?,
        })
    }
}

impl TenantEngine {
    /// This tenant's part of [`TenantHost::encode_sections`]: one
    /// [`HostSection::Shard`] per PPR replica, the matrix, the tree, and
    /// everything small in [`HostSection::Rest`] — `timings`, the only
    /// wall-clock state, last.
    pub(crate) fn encode_sections<E>(
        &self,
        buf: &mut Vec<u8>,
        emit: &mut impl FnMut(HostSection, &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let TenantEngine {
            id,
            sources,
            shards,
            matrix,
            tree,
            embedding,
            timings,
            stats_total,
            epoch,
            events_applied,
        } = self;
        let mut whole = |section, value: &dyn Encode, buf: &mut Vec<u8>| {
            buf.clear();
            value.encode(buf);
            emit(section, buf)
        };
        for shard in shards {
            whole(HostSection::Shard, shard, buf)?;
        }
        whole(HostSection::Matrix, matrix, buf)?;
        whole(HostSection::Tree, tree, buf)?;
        buf.clear();
        id.encode(buf);
        sources.encode(buf);
        embedding.encode(buf);
        stats_total.encode(buf);
        epoch.encode(buf);
        events_applied.encode(buf);
        timings.encode(buf);
        emit(HostSection::Rest, buf)
    }

    /// Inverse of [`encode_sections`](Self::encode_sections) for a tenant
    /// saved with `num_shards` replicas: `next(section, buf)` loads the
    /// next section into `buf`, failing if it is not a `section`.
    pub(crate) fn decode_sections<E: From<BinError>>(
        num_shards: u32,
        buf: &mut Vec<u8>,
        next: &mut impl FnMut(HostSection, &mut Vec<u8>) -> Result<(), E>,
    ) -> Result<Self, E> {
        // Grown one verified section at a time, never sized from the count.
        let mut shards = Vec::new();
        for _ in 0..num_shards {
            next(HostSection::Shard, buf)?;
            shards.push(decode_all::<Shard>(buf)?);
        }
        next(HostSection::Matrix, buf)?;
        let matrix = decode_all(buf)?;
        next(HostSection::Tree, buf)?;
        let tree = decode_all(buf)?;
        next(HostSection::Rest, buf)?;
        let mut c = Cursor::new(buf);
        let engine = TenantEngine {
            id: Decode::decode(&mut c)?,
            sources: Decode::decode(&mut c)?,
            shards,
            matrix,
            tree,
            embedding: Decode::decode(&mut c)?,
            stats_total: Decode::decode(&mut c)?,
            epoch: Decode::decode(&mut c)?,
            events_applied: Decode::decode(&mut c)?,
            timings: Decode::decode(&mut c)?,
        };
        c.finish()?;
        Ok(engine)
    }
}

/// Sharded dynamic subset-embedding engine (see module docs): a
/// [`TenantHost`] with exactly one tenant, under a single-engine API.
/// Converting to and from a host ([`TenantHost::from_engine`],
/// [`TenantHost::into_single_engine`]) is a move.
pub struct ShardedEngine {
    host: TenantHost,
}

impl ShardedEngine {
    /// Build the engine on (a clone of) `g` for subset `sources`, sharding
    /// the rows over `num_shards` contiguous ranges (clamped to `|S|`).
    ///
    /// The initial factorisation is identical to
    /// `TreeSvdPipeline::new(g, sources, ppr_cfg, tree_cfg)`.
    pub fn new(
        g: &DynGraph,
        sources: &[u32],
        num_shards: usize,
        ppr_cfg: PprConfig,
        tree_cfg: TreeSvdConfig,
    ) -> Self {
        let mut host = TenantHost::new(g);
        host.register(DEFAULT_TENANT, sources, num_shards, ppr_cfg, tree_cfg)
            .expect("fresh host has no tenant ids to collide with");
        ShardedEngine { host }
    }

    /// View a one-tenant host as an engine.
    pub(crate) fn from_host(host: TenantHost) -> Self {
        assert_eq!(
            host.num_tenants(),
            1,
            "into_single_engine needs exactly one tenant, host has {}",
            host.num_tenants()
        );
        ShardedEngine { host }
    }

    /// The one-tenant host underneath.
    pub(crate) fn into_host(self) -> TenantHost {
        self.host
    }

    fn tenant(&self) -> &TenantEngine {
        &self.host.tenants()[0]
    }

    /// Start journaling every applied window (see `window_log`). Windows
    /// applied before this call are not recorded, so enable it before the
    /// first `apply_batch` for a complete journal.
    ///
    /// The in-memory journal is for tests and offline-replay ground truth
    /// and is capped at `WINDOW_LOG_CAP` (65 536) windows — exceeding it
    /// panics; a long-lived server journals through the durable WAL
    /// instead.
    pub fn enable_window_log(&mut self) {
        self.host.enable_window_log();
    }

    /// The journaled windows, in application order (`None` if journaling
    /// was never enabled). Replaying exactly these windows through a fresh
    /// `TreeSvdPipeline` on the same initial graph reproduces the current
    /// embedding bitwise — regardless of how submissions raced into flush
    /// windows.
    pub fn window_log(&self) -> Option<&[Vec<EdgeEvent>]> {
        self.host.window_log(self.tenant().id)
    }

    /// Apply one event batch and refresh the embedding — the sharded
    /// equivalent of `TreeSvdPipeline::update` on the engine's own graph.
    pub fn apply_batch(&mut self, events: &[EdgeEvent]) -> UpdateStats {
        self.host.apply_batch(events)[0].1
    }

    /// The current embedding, tagged with the current epoch, as a cheaply
    /// clonable snapshot ready to publish.
    pub fn tagged(&self) -> TaggedEmbedding {
        self.tenant().tagged()
    }

    /// The current subset embedding.
    pub fn embedding(&self) -> &Embedding {
        self.tenant().embedding()
    }

    /// Number of batches applied so far (the published epoch counter).
    pub fn epoch(&self) -> u64 {
        self.tenant().epoch
    }

    /// Total events handed to [`ShardedEngine::apply_batch`] so far.
    pub fn events_applied(&self) -> u64 {
        self.tenant().events_applied
    }

    /// Actual shard count `R` (after clamping to `|S|`).
    pub fn num_shards(&self) -> usize {
        self.tenant().num_shards()
    }

    /// Row range `[start, end)` of shard `k`.
    pub fn shard_range(&self, k: usize) -> (usize, usize) {
        let sh = &self.tenant().shards[k];
        (sh.start, sh.start + sh.ppr.len())
    }

    /// The subset `S` in row order.
    pub fn sources(&self) -> &[u32] {
        self.tenant().sources()
    }

    /// The engine's view of the graph (all applied batches included).
    pub fn graph(&self) -> &DynGraph {
        self.host.graph()
    }

    /// How many edge batches the engine's ingest has recorded — equal to
    /// [`epoch`](Self::epoch) for a standalone engine.
    pub fn batches_recorded(&self) -> u64 {
        self.host.batches_recorded()
    }

    /// Cumulative per-phase wall-clock across all applied batches.
    pub fn timings(&self) -> PipelineTimings {
        self.tenant().timings
    }

    /// Field-wise sum of every batch's [`UpdateStats`].
    pub fn total_stats(&self) -> UpdateStats {
        self.tenant().stats_total
    }

    /// The maintained proximity matrix as CSR (right embeddings, quality
    /// measurements).
    pub fn proximity_csr(&self) -> CsrMatrix {
        self.tenant().matrix.to_csr()
    }

    /// The global blocked proximity matrix.
    pub fn matrix(&self) -> &BlockedProximityMatrix {
        &self.tenant().matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_core::{Level1Method, PartitionStrategy, TreeSvdPipeline, UpdatePolicy};
    use tsvd_rt::rng::{Rng, SeedableRng, StdRng};

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

    fn tree_cfg() -> TreeSvdConfig {
        TreeSvdConfig {
            dim: 8,
            branching: 2,
            num_blocks: 4,
            oversample: 6,
            power_iters: 1,
            level1: Level1Method::Randomized,
            policy: UpdatePolicy::Lazy { delta: 0.4 },
            partition: PartitionStrategy::EqualWidth,
            seed: 7,
        }
    }

    fn random_batch(rng: &mut StdRng, n: usize, len: usize) -> Vec<EdgeEvent> {
        (0..len)
            .map(|_| {
                let u = rng.gen_range(0..n) as u32;
                let v = rng.gen_range(0..n) as u32;
                if rng.gen_bool(0.85) {
                    EdgeEvent::insert(u, v)
                } else {
                    EdgeEvent::delete(u, v)
                }
            })
            .filter(|e| e.u != e.v)
            .collect()
    }

    /// The acceptance criterion at engine level: for every R, the sharded
    /// engine tracks an unsharded pipeline bit for bit, batch after batch.
    #[test]
    fn any_shard_count_bitwise_matches_unsharded_pipeline() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 120;
        let g0 = random_graph(&mut rng, n, 480);
        let sources: Vec<u32> = (0..13).collect();
        let ppr_cfg = PprConfig {
            alpha: 0.2,
            r_max: 1e-4,
        };
        let batches: Vec<Vec<EdgeEvent>> = (0..4).map(|_| random_batch(&mut rng, n, 30)).collect();

        let mut g = g0.clone();
        let mut pipe = TreeSvdPipeline::new(&g, &sources, ppr_cfg, tree_cfg());

        let mut engines: Vec<ShardedEngine> = [1usize, 2, 3, 13, 50]
            .iter()
            .map(|&r| ShardedEngine::new(&g0, &sources, r, ppr_cfg, tree_cfg()))
            .collect();
        assert_eq!(engines[0].num_shards(), 1);
        assert_eq!(engines[3].num_shards(), 13, "one row per shard");
        assert_eq!(engines[4].num_shards(), 13, "R clamps to |S|");

        // Initial factorisation already identical.
        for e in &engines {
            assert_eq!(
                e.embedding().left().sub(&pipe.embedding().left()).max_abs(),
                0.0
            );
        }
        for batch in &batches {
            pipe.update(&mut g, batch);
            for e in &mut engines {
                let stats = e.apply_batch(batch);
                assert!(stats.blocks_total > 0);
                let diff = e.embedding().left().sub(&pipe.embedding().left()).max_abs();
                assert_eq!(
                    diff,
                    0.0,
                    "epoch {}: sharded (R={}) diverged from pipeline",
                    e.epoch(),
                    e.num_shards()
                );
                assert_eq!(e.embedding().sigma, pipe.embedding().sigma);
            }
        }
        // Graph state also tracked identically.
        for e in &engines {
            assert_eq!(e.graph().num_edges(), g.num_edges());
            assert_eq!(e.epoch(), batches.len() as u64);
        }
    }

    #[test]
    fn shard_ranges_are_contiguous_and_cover_subset() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_graph(&mut rng, 60, 240);
        let sources: Vec<u32> = (0..11).collect();
        let eng = ShardedEngine::new(&g, &sources, 4, PprConfig::default(), tree_cfg());
        let mut expect_start = 0usize;
        for k in 0..eng.num_shards() {
            let (lo, hi) = eng.shard_range(k);
            assert_eq!(lo, expect_start, "shard {k} not contiguous");
            assert!(hi > lo);
            expect_start = hi;
        }
        assert_eq!(expect_start, sources.len());
    }

    #[test]
    fn stats_and_timings_accumulate() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 80;
        let g = random_graph(&mut rng, n, 320);
        let sources: Vec<u32> = (0..8).collect();
        let mut eng = ShardedEngine::new(&g, &sources, 2, PprConfig::default(), tree_cfg());
        assert_eq!(eng.total_stats(), UpdateStats::default());
        let mut expect = UpdateStats::default();
        for _ in 0..2 {
            expect += eng.apply_batch(&random_batch(&mut rng, n, 20));
        }
        assert_eq!(eng.total_stats(), expect);
        let t = eng.timings();
        assert_eq!(t.updates, 2);
        assert!(t.ppr_secs > 0.0);
        assert_eq!(eng.epoch(), 2);
        let tagged = eng.tagged();
        assert_eq!(tagged.epoch(), 2);
        assert_eq!(tagged.num_rows(), sources.len());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let g = DynGraph::with_nodes(4);
        let _ = ShardedEngine::new(&g, &[0], 0, PprConfig::default(), tree_cfg());
    }
}

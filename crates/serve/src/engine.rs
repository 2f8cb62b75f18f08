//! The update engine: one tenant's [`TreeSvdPipeline`] under the serving
//! layer's counters, and [`ShardedEngine`], the one-tenant host under a
//! single-engine API.
//!
//! [`TenantEngine::apply_recorded`] is the only place `tsvd-serve` applies
//! a window, and it hands the window to [`TreeSvdPipeline::apply_recorded`]
//! — the call the offline replay makes through [`TreeSvdPipeline::update`]
//! — then counts it. So a served embedding is the offline replay of the
//! same windows by construction, bit for bit, at any `TSVD_THREADS` (the
//! pipeline's pool work is placed by index), which is what lets the
//! integration suites pin `server output ≡ offline replay` exactly.
//!
//! The graph lives one level up, in the [`TenantHost`], which records each
//! batch once and replays the recording into every tenant — so the engine
//! owns no graph. Everything here is synchronous and single-writer; the
//! batching reactor lives in [`crate::server`].
//!
//! Checkpoints hold a tenant's PPR states as runs of rows, each led by its
//! start row, and decode them concatenated ([`SubsetPpr::concat`]); a
//! source's state depends on no other source's, so files written when a
//! tenant was `R` row-range shards, one run per shard, decode to the same
//! engine.

use tsvd_core::{
    BlockedProximityMatrix, Embedding, PipelineTimings, TaggedEmbedding, TreeSvdConfig,
    TreeSvdPipeline, UpdateStats,
};
use tsvd_graph::{DynGraph, EdgeEvent};
use tsvd_linalg::CsrMatrix;
use tsvd_ppr::{PprConfig, RecordedBatch, SubsetPpr};
use tsvd_rt::bin::{decode_all, BinError, Cursor, Decode, Encode};
use tsvd_rt::json::{field, FromJson, Json, JsonError, ToJson};

use crate::server::DEFAULT_TENANT;
use crate::tenant::{HostSection, TenantHost, TenantId};

/// Most rows one checkpoint [`HostSection::Ppr`] holds. A tenant's PPR
/// states are two thirds of its checkpoint bytes (≈ 54 KB a row at the
/// `tsvd-e2e` benchmark's shape), and the section buffer grows to the
/// largest section, so a subset is written as a run of sections of at most
/// this many rows rather than one section of all of them.
const PPR_SECTION_ROWS: usize = 64;

/// One tenant's whole update state: its pipeline (PPR states, matrix,
/// lazy Tree-SVD, embedding, timings) and the serving counters.
pub(crate) struct TenantEngine {
    pub(crate) id: TenantId,
    pipeline: TreeSvdPipeline,
    stats_total: UpdateStats,
    epoch: u64,
    events_applied: u64,
}

impl TenantEngine {
    /// Build tenant `id`'s engine over `graph` for subset `sources`:
    /// `TreeSvdPipeline::new(graph, sources, ppr_cfg, tree_cfg)` at epoch 0.
    pub(crate) fn build(
        id: TenantId,
        graph: &DynGraph,
        sources: &[u32],
        ppr_cfg: PprConfig,
        tree_cfg: TreeSvdConfig,
    ) -> Self {
        TenantEngine {
            id,
            pipeline: TreeSvdPipeline::new(graph, sources, ppr_cfg, tree_cfg),
            stats_total: UpdateStats::default(),
            epoch: 0,
            events_applied: 0,
        }
    }

    /// Apply one window from an already-captured recording through
    /// [`TreeSvdPipeline::apply_recorded`] and count it.
    ///
    /// `graph` must be the shared ingest graph *after* the recording
    /// mutated it and `events` the window the recording was captured from;
    /// the same `rec` can be replayed into any number of tenants.
    pub(crate) fn apply_recorded(
        &mut self,
        graph: &DynGraph,
        rec: &RecordedBatch,
        events: &[EdgeEvent],
    ) -> UpdateStats {
        let stats = self.pipeline.apply_recorded(graph, rec);
        self.stats_total += stats;
        self.epoch += 1;
        self.events_applied += events.len() as u64;
        stats
    }

    /// The current embedding, tagged with the current epoch, as a cheaply
    /// clonable snapshot ready to publish.
    pub(crate) fn tagged(&self) -> TaggedEmbedding {
        self.pipeline.embedding().tagged(self.epoch)
    }

    pub(crate) fn embedding(&self) -> &Embedding {
        self.pipeline.embedding()
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(crate) fn events_applied(&self) -> u64 {
        self.events_applied
    }

    pub(crate) fn timings(&self) -> PipelineTimings {
        self.pipeline.timings()
    }

    pub(crate) fn sources(&self) -> &[u32] {
        self.pipeline.sources()
    }

    /// How many [`HostSection::Ppr`] sections
    /// [`encode_sections`](Self::encode_sections) writes.
    pub(crate) fn ppr_sections(&self) -> usize {
        self.pipeline.sources().len().div_ceil(PPR_SECTION_ROWS)
    }
}

// Checkpoint codecs. Both writers take the struct apart with an exhaustive
// pattern and both readers build it with a struct literal, so a field added
// later does not compile until all four know it.
impl ToJson for TenantEngine {
    fn to_json(&self) -> Json {
        let TenantEngine {
            id,
            pipeline,
            stats_total,
            epoch,
            events_applied,
        } = self;
        Json::object([
            ("id", id.to_json()),
            ("pipeline", pipeline.to_json()),
            ("stats_total", stats_total.to_json()),
            ("epoch", epoch.to_json()),
            ("events_applied", events_applied.to_json()),
        ])
    }
}

impl FromJson for TenantEngine {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(TenantEngine {
            id: field(j, "id")?,
            pipeline: field(j, "pipeline")?,
            stats_total: field(j, "stats_total")?,
            epoch: field(j, "epoch")?,
            events_applied: field(j, "events_applied")?,
        })
    }
}

impl TenantEngine {
    /// This tenant's part of [`TenantHost::encode_sections`]: the PPR
    /// states as [`ppr_sections`](Self::ppr_sections) runs of
    /// [`PPR_SECTION_ROWS`] rows, each led by its start row, the matrix,
    /// the tree, and everything small in [`HostSection::Rest`] —
    /// `timings`, the only wall-clock state, last.
    pub(crate) fn encode_sections<E>(
        &self,
        buf: &mut Vec<u8>,
        emit: &mut impl FnMut(HostSection, &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let TenantEngine {
            id,
            pipeline,
            stats_total,
            epoch,
            events_applied,
        } = self;
        let ppr = pipeline.ppr();
        for start in (0..ppr.len()).step_by(PPR_SECTION_ROWS) {
            buf.clear();
            start.encode(buf);
            ppr.encode_rows(start..ppr.len().min(start + PPR_SECTION_ROWS), buf);
            emit(HostSection::Ppr, buf)?;
        }
        buf.clear();
        pipeline.matrix().encode(buf);
        emit(HostSection::Matrix, buf)?;
        buf.clear();
        pipeline.tree().encode(buf);
        emit(HostSection::Tree, buf)?;
        buf.clear();
        id.encode(buf);
        pipeline.sources().encode(buf);
        pipeline.embedding().encode(buf);
        stats_total.encode(buf);
        epoch.encode(buf);
        events_applied.encode(buf);
        pipeline.timings().encode(buf);
        emit(HostSection::Rest, buf)
    }

    /// Inverse of [`encode_sections`](Self::encode_sections) for a tenant
    /// saved in `ppr_sections` PPR sections, which may cut the rows
    /// anywhere (files from versions with row-range shards cut them per
    /// shard): they are concatenated. `next(section, buf)` loads the next
    /// section into `buf`, failing if it is not a `section`.
    pub(crate) fn decode_sections<E: From<BinError>>(
        ppr_sections: u32,
        buf: &mut Vec<u8>,
        next: &mut impl FnMut(HostSection, &mut Vec<u8>) -> Result<(), E>,
    ) -> Result<Self, E> {
        // Grown one verified section at a time, never sized from the count.
        let mut parts = Vec::new();
        for _ in 0..ppr_sections {
            next(HostSection::Ppr, buf)?;
            parts.push(decode_all::<(usize, SubsetPpr)>(buf)?);
        }
        let ppr = SubsetPpr::concat(parts).map_err(|e| BinError(e.to_string()))?;
        next(HostSection::Matrix, buf)?;
        let matrix = decode_all(buf)?;
        next(HostSection::Tree, buf)?;
        let tree = decode_all(buf)?;
        next(HostSection::Rest, buf)?;
        let mut c = Cursor::new(buf);
        let id = Decode::decode(&mut c)?;
        let sources: Vec<u32> = Decode::decode(&mut c)?;
        if sources != ppr.sources() {
            return Err(BinError(format!(
                "tenant {id}: the Rest section lists other sources than the PPR sections"
            ))
            .into());
        }
        let embedding = Decode::decode(&mut c)?;
        let stats_total = Decode::decode(&mut c)?;
        let epoch = Decode::decode(&mut c)?;
        let events_applied = Decode::decode(&mut c)?;
        let timings = Decode::decode(&mut c)?;
        c.finish()?;
        Ok(TenantEngine {
            id,
            pipeline: TreeSvdPipeline::from_parts(ppr, matrix, tree, embedding, timings),
            stats_total,
            epoch,
            events_applied,
        })
    }
}

/// Dynamic subset-embedding engine (see module docs): a [`TenantHost`]
/// with exactly one tenant, under a single-engine API.
/// Converting to and from a host ([`TenantHost::from_engine`],
/// [`TenantHost::into_single_engine`]) is a move.
pub struct ShardedEngine {
    host: TenantHost,
}

impl ShardedEngine {
    /// Build the engine on (a clone of) `g` for subset `sources`: the
    /// initial factorisation is `TreeSvdPipeline::new(g, sources, ppr_cfg,
    /// tree_cfg)`.
    ///
    /// `num_shards` must be at least 1 and is otherwise ignored: the engine
    /// no longer cuts the rows into shards, and the argument stays only
    /// until the `tsvd-e2e` benchmark, which passes it, stops naming it.
    pub fn new(
        g: &DynGraph,
        sources: &[u32],
        num_shards: usize,
        ppr_cfg: PprConfig,
        tree_cfg: TreeSvdConfig,
    ) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        let mut host = TenantHost::new(g);
        host.register(DEFAULT_TENANT, sources, ppr_cfg, tree_cfg)
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

    /// Apply one event batch and refresh the embedding —
    /// `TreeSvdPipeline::update` on the engine's own graph.
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
        self.tenant().timings()
    }

    /// Field-wise sum of every batch's [`UpdateStats`].
    pub fn total_stats(&self) -> UpdateStats {
        self.tenant().stats_total
    }

    /// The maintained proximity matrix as CSR (right embeddings, quality
    /// measurements).
    pub fn proximity_csr(&self) -> CsrMatrix {
        self.tenant().pipeline.proximity_csr()
    }

    /// The global blocked proximity matrix.
    pub fn matrix(&self) -> &BlockedProximityMatrix {
        self.tenant().pipeline.matrix()
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

    /// The engine tracks the offline pipeline bit for bit, batch after
    /// batch, whatever `num_shards` it was given (the argument is ignored).
    #[test]
    fn any_num_shards_argument_serves_the_pipeline_bitwise() {
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
        let mut engines: Vec<ShardedEngine> = [1usize, 4, 50]
            .iter()
            .map(|&r| ShardedEngine::new(&g0, &sources, r, ppr_cfg, tree_cfg()))
            .collect();
        for batch in &batches {
            pipe.update(&mut g, batch);
            for (k, e) in engines.iter_mut().enumerate() {
                assert!(e.apply_batch(batch).blocks_total > 0);
                let diff = e.embedding().left().sub(&pipe.embedding().left()).max_abs();
                assert_eq!(diff, 0.0, "epoch {}: engine {k} diverged", e.epoch());
                assert_eq!(e.embedding().sigma, pipe.embedding().sigma);
            }
        }
        for e in &engines {
            assert_eq!(e.graph().num_edges(), g.num_edges());
            assert_eq!(e.epoch(), batches.len() as u64);
        }
    }

    #[test]
    fn stats_and_timings_accumulate() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 80;
        let g = random_graph(&mut rng, n, 320);
        let sources: Vec<u32> = (0..8).collect();
        let mut eng = ShardedEngine::new(&g, &sources, 1, PprConfig::default(), tree_cfg());
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

//! Multi-subset tenancy: one shared graph, N per-subset engines.
//!
//! A [`TenantHost`] owns the single [`GraphIngest`] and a set of tenants,
//! each a `TenantEngine` over its own subset `S_t` at its own shard count.
//! The edge-event stream is global — every window is recorded on the
//! shared graph **once** and the recording replayed into every tenant's
//! PPR shards — so each tenant's published embedding stays bitwise-equal
//! to an offline [`TreeSvdPipeline`](tsvd_core) replay of the same windows
//! with that tenant's subset.
//!
//! [`TenantHost::apply_batch`] is the one way `tsvd-serve` applies a
//! window: the reactor ([`crate::server`]), the follower
//! ([`crate::Follower`]), crash recovery (`tsvd-store`) and the
//! single-engine facade ([`ShardedEngine`]) all go through it. The host is
//! the synchronous, single-writer core; batching, admission and fair
//! cross-tenant scheduling live in the reactor.

use std::fmt;

use tsvd_core::{Embedding, PipelineTimings, TaggedEmbedding, TreeSvdConfig, UpdateStats};
use tsvd_graph::{DynGraph, EdgeEvent};
use tsvd_ppr::PprConfig;
use tsvd_rt::bin::{BinError, Cursor, Decode, Encode};
use tsvd_rt::json::{field, FromJson, Json, JsonError, ToJson};

use crate::engine::{ShardedEngine, TenantEngine};
use crate::ingest::GraphIngest;

/// Identifies one tenant (subset) on a host — also the id carried in the
/// wire frame header.
pub type TenantId = u32;

/// Typed registration failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantError {
    /// The id is already registered; registering it again would silently
    /// shadow (or double-replay into) the existing tenant's state.
    DuplicateId(TenantId),
}

impl fmt::Display for TenantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantError::DuplicateId(id) => write!(f, "tenant id {id} is already registered"),
        }
    }
}

impl std::error::Error for TenantError {}

/// One shared graph, N per-subset tenant engines (see module docs).
pub struct TenantHost {
    ingest: GraphIngest,
    tenants: Vec<TenantEngine>,
}

impl TenantHost {
    /// Start a host over (a clone of) `g` with no tenants registered.
    pub fn new(g: &DynGraph) -> Self {
        TenantHost {
            ingest: GraphIngest::new(g),
            tenants: Vec::new(),
        }
    }

    /// Re-label a standalone engine's one-tenant host as tenant `id` (a
    /// move: graph, `batches_recorded` and window log carry over).
    pub fn from_engine(engine: ShardedEngine, id: TenantId) -> Self {
        let mut host = engine.into_host();
        host.tenants[0].id = id;
        host
    }

    /// Register tenant `id` over subset `sources` with `num_shards`
    /// contiguous PPR replicas, factorised against the shared graph's
    /// *current* state (its offline replay baseline).
    ///
    /// Duplicate ids are rejected with [`TenantError::DuplicateId`] —
    /// never silently shadowed.
    pub fn register(
        &mut self,
        id: TenantId,
        sources: &[u32],
        num_shards: usize,
        ppr_cfg: PprConfig,
        tree_cfg: TreeSvdConfig,
    ) -> Result<(), TenantError> {
        if self.tenants.iter().any(|t| t.id == id) {
            return Err(TenantError::DuplicateId(id));
        }
        self.tenants.push(TenantEngine::build(
            id,
            self.ingest.graph(),
            sources,
            num_shards,
            ppr_cfg,
            tree_cfg,
        ));
        Ok(())
    }

    /// Registered tenant ids, in registration order.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.tenants.iter().map(|t| t.id).collect()
    }

    /// Number of registered tenants.
    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// The shared graph (all applied batches included).
    pub fn graph(&self) -> &DynGraph {
        self.ingest.graph()
    }

    /// How many edge batches the shared ingest recorded — the record-once
    /// counter: equal to the number of applied windows, *not*
    /// `windows × tenants`.
    pub fn batches_recorded(&self) -> u64 {
        self.ingest.batches_recorded()
    }

    /// Start journaling applied windows (idempotent). The stream is
    /// global, so the host keeps one journal, recorded where the graph is;
    /// it is every tenant's ground truth for its offline replay. Capped at
    /// `WINDOW_LOG_CAP` windows (exceeding it panics).
    pub fn enable_window_log(&mut self) {
        self.ingest.enable_window_log();
    }

    /// The journaled windows tenant `id` applied (`None` if the tenant is
    /// unknown or journaling was never enabled).
    pub fn window_log(&self, id: TenantId) -> Option<&[Vec<EdgeEvent>]> {
        self.tenant(id)?;
        self.ingest.window_log()
    }

    /// Apply one global event batch to every tenant: record once on the
    /// shared graph, then replay into and refresh each tenant in turn.
    /// Returns per-tenant `(id, stats)` in registration order. The
    /// synchronous equivalent of one served flush window.
    pub fn apply_batch(&mut self, events: &[EdgeEvent]) -> Vec<(TenantId, UpdateStats)> {
        let mut out = Vec::with_capacity(self.tenants.len());
        self.apply_batch_with(events, 0, |_, t, stats| out.push((t.id, stats)));
        out
    }

    /// [`apply_batch`](Self::apply_batch) with a per-tenant hook: walk the
    /// tenants starting at slot `first` (wrapping) and call
    /// `committed(slot, engine, stats)` as soon as each tenant's refresh
    /// returns — before the next tenant's replay starts, which is where
    /// the serving paths publish that tenant's new epoch.
    pub(crate) fn apply_batch_with(
        &mut self,
        events: &[EdgeEvent],
        first: usize,
        mut committed: impl FnMut(usize, &TenantEngine, UpdateStats),
    ) {
        let rec = self.ingest.record(events);
        let graph = self.ingest.graph();
        let n = self.tenants.len();
        for k in 0..n {
            let slot = (first + k) % n;
            let t = &mut self.tenants[slot];
            let stats = t.apply_recorded(graph, &rec, events);
            committed(slot, t, stats);
        }
    }

    /// Tenant `id`'s current embedding.
    pub fn embedding(&self, id: TenantId) -> Option<&Embedding> {
        Some(self.tenant(id)?.embedding())
    }

    /// Tenant `id`'s current embedding tagged with its epoch.
    pub fn tagged(&self, id: TenantId) -> Option<TaggedEmbedding> {
        Some(self.tenant(id)?.tagged())
    }

    /// Tenant `id`'s epoch (committed-window counter).
    pub fn epoch(&self, id: TenantId) -> Option<u64> {
        Some(self.tenant(id)?.epoch())
    }

    /// Cumulative events applied to tenant `id`'s engine.
    pub fn events_applied(&self, id: TenantId) -> Option<u64> {
        Some(self.tenant(id)?.events_applied())
    }

    /// Tenant `id`'s cumulative per-phase wall-clock.
    pub fn timings(&self, id: TenantId) -> Option<PipelineTimings> {
        Some(self.tenant(id)?.timings())
    }

    /// Tenant `id`'s subset in row order.
    pub fn sources(&self, id: TenantId) -> Option<&[u32]> {
        Some(self.tenant(id)?.sources())
    }

    /// Tenant `id`'s actual shard count (after clamping to `|S|`).
    pub fn num_shards(&self, id: TenantId) -> Option<usize> {
        Some(self.tenant(id)?.num_shards())
    }

    /// View a one-tenant host as a standalone engine (a move).
    ///
    /// # Panics
    /// If the host has more or fewer than exactly one tenant.
    pub fn into_single_engine(self) -> ShardedEngine {
        ShardedEngine::from_host(self)
    }

    /// The tenant engines, in registration (slot) order.
    pub(crate) fn tenants(&self) -> &[TenantEngine] {
        &self.tenants
    }

    fn tenant(&self, id: TenantId) -> Option<&TenantEngine> {
        self.tenants.iter().find(|t| t.id == id)
    }
}

/// The sections a host's binary encoding is cut into, in the order
/// [`TenantHost::encode_sections`] writes them: one [`Graph`], then per
/// tenant its [`Shard`]s, [`Matrix`], [`Tree`] and [`Rest`]. The
/// discriminant is the tag byte a container stores in front of each.
///
/// [`Graph`]: HostSection::Graph
/// [`Shard`]: HostSection::Shard
/// [`Matrix`]: HostSection::Matrix
/// [`Tree`]: HostSection::Tree
/// [`Rest`]: HostSection::Rest
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum HostSection {
    /// The shared graph, the record-once counter, and each tenant's shard
    /// count (what tells a reader how many sections follow).
    Graph = b'G',
    /// One PPR replica of one tenant: its row range and the `(p, r)` push
    /// state of every source in it, both directions — two thirds of a
    /// checkpoint's bytes.
    Shard = b'P',
    /// A tenant's blocked proximity matrix.
    Matrix = b'M',
    /// A tenant's dynamic Tree-SVD: block caches and the level factors.
    Tree = b'T',
    /// Everything small of a tenant: id, sources, embedding, counters, and
    /// last the cumulative wall-clock `timings` (32 bytes).
    Rest = b'R',
}

impl HostSection {
    /// Every section kind, in first-appearance order.
    pub const ALL: [HostSection; 5] = [
        HostSection::Graph,
        HostSection::Shard,
        HostSection::Matrix,
        HostSection::Tree,
        HostSection::Rest,
    ];

    /// The section kind a tag byte names.
    pub fn from_tag(tag: u8) -> Option<HostSection> {
        Self::ALL.into_iter().find(|s| *s as u8 == tag)
    }
}

// Checkpoint codecs: the full host state — shared graph, record-once
// counter, and every tenant's engine — round-trips losslessly, so a host
// restored from a checkpoint continues bitwise (the same property
// `core::persist` gives a standalone `TreeSvdPipeline`). The in-memory
// window log is not part of it: the durable WAL replaces it.
impl ToJson for TenantHost {
    fn to_json(&self) -> Json {
        let TenantHost { ingest, tenants } = self;
        Json::object([
            ("graph", ingest.graph().to_json()),
            ("batches_recorded", ingest.batches_recorded().to_json()),
            ("tenants", tenants.to_json()),
        ])
    }
}

impl FromJson for TenantHost {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let graph: DynGraph = field(j, "graph")?;
        let batches_recorded: u64 = field(j, "batches_recorded")?;
        Ok(TenantHost {
            ingest: GraphIngest::restore(graph, batches_recorded),
            tenants: field(j, "tenants")?,
        })
    }
}

impl TenantHost {
    /// Encode the host as a sequence of [`HostSection`]s, one at a time
    /// into `buf` (cleared and refilled per section — its capacity ends up
    /// the largest section, not the host), handing each to `emit`. The
    /// bytes are a function of the host's state alone: equal hosts give
    /// equal sections at any thread count, in any process.
    ///
    /// This is what a checkpoint file is made of ([`crate::checkpoint`]
    /// adds the framing and the checksums); [`to_json`](ToJson::to_json)
    /// remains the readable export of the same state.
    pub fn encode_sections<E>(
        &self,
        buf: &mut Vec<u8>,
        mut emit: impl FnMut(HostSection, &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let TenantHost { ingest, tenants } = self;
        buf.clear();
        ingest.graph().encode(buf);
        ingest.batches_recorded().encode(buf);
        let shard_counts: Vec<u32> = tenants.iter().map(|t| t.num_shards() as u32).collect();
        shard_counts.encode(buf);
        emit(HostSection::Graph, buf)?;
        for t in tenants {
            t.encode_sections(buf, &mut emit)?;
        }
        Ok(())
    }

    /// Rebuild a host from the sections [`encode_sections`] produced:
    /// `next(section, buf)` must load the next section's bytes into `buf`
    /// and fail if it is not a `section` (or there is none). Every section
    /// must be consumed exactly; a host that does not decode is an error,
    /// never a panic.
    ///
    /// [`encode_sections`]: Self::encode_sections
    pub fn decode_sections<E: From<BinError>>(
        mut next: impl FnMut(HostSection, &mut Vec<u8>) -> Result<(), E>,
    ) -> Result<TenantHost, E> {
        let mut buf = Vec::new();
        next(HostSection::Graph, &mut buf)?;
        let mut c = Cursor::new(&buf);
        let graph = DynGraph::decode(&mut c)?;
        let batches_recorded = u64::decode(&mut c)?;
        let shard_counts = Vec::<u32>::decode(&mut c)?;
        c.finish()?;
        let mut tenants = Vec::new();
        for num_shards in shard_counts {
            tenants.push(TenantEngine::decode_sections(
                num_shards, &mut buf, &mut next,
            )?);
        }
        Ok(TenantHost {
            ingest: GraphIngest::restore(graph, batches_recorded),
            tenants,
        })
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

    /// Satellite: duplicate subset ids are a typed error, not a silent
    /// shadow — and the failed registration leaves the host untouched.
    #[test]
    fn duplicate_tenant_id_rejected_with_typed_error() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = random_graph(&mut rng, 60, 240);
        let ppr = PprConfig::default();
        let mut host = TenantHost::new(&g);
        host.register(7, &[0, 1, 2], 1, ppr, tree_cfg()).unwrap();
        let err = host
            .register(7, &[3, 4, 5], 2, ppr, tree_cfg())
            .expect_err("second registration of id 7 must fail");
        assert_eq!(err, TenantError::DuplicateId(7));
        assert_eq!(err.to_string(), "tenant id 7 is already registered");
        // The original tenant survives intact and no shadow was added.
        assert_eq!(host.tenant_ids(), vec![7]);
        assert_eq!(host.sources(7).unwrap(), &[0, 1, 2]);
        // A different id is still accepted.
        host.register(8, &[3, 4, 5], 2, ppr, tree_cfg()).unwrap();
        assert_eq!(host.num_tenants(), 2);
    }

    /// Record-once fan-out: N tenants, each bitwise-equal to its own
    /// offline pipeline, while the ingest counter shows one recording per
    /// batch (not per tenant).
    #[test]
    fn host_fans_one_recording_to_every_tenant_bitwise() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = 100;
        let g0 = random_graph(&mut rng, n, 400);
        let ppr = PprConfig {
            alpha: 0.2,
            r_max: 1e-4,
        };
        // Overlapping subsets at different shard counts.
        let subsets: Vec<(TenantId, Vec<u32>, usize)> = vec![
            (0, (0..9).collect(), 1),
            (10, (5..17).collect(), 3),
            (20, (40..48).collect(), 2),
        ];
        let mut host = TenantHost::new(&g0);
        for (id, s, r) in &subsets {
            host.register(*id, s, *r, ppr, tree_cfg()).unwrap();
        }
        let mut offline: Vec<(DynGraph, TreeSvdPipeline)> = subsets
            .iter()
            .map(|(_, s, _)| {
                let g = g0.clone();
                let p = TreeSvdPipeline::new(&g, s, ppr, tree_cfg());
                (g, p)
            })
            .collect();

        let batches: Vec<Vec<EdgeEvent>> = (0..3).map(|_| random_batch(&mut rng, n, 24)).collect();
        for batch in &batches {
            let stats = host.apply_batch(batch);
            assert_eq!(stats.len(), subsets.len());
            for ((g, pipe), (id, _, _)) in offline.iter_mut().zip(&subsets) {
                pipe.update(g, batch);
                let served = host.embedding(*id).unwrap();
                assert_eq!(
                    served.left().sub(&pipe.embedding().left()).max_abs(),
                    0.0,
                    "tenant {id} diverged from its offline replay"
                );
                assert_eq!(served.sigma, pipe.embedding().sigma);
            }
        }
        // One recording per batch — the record-once acceptance counter.
        assert_eq!(host.batches_recorded(), batches.len() as u64);
        for (id, _, _) in &subsets {
            assert_eq!(host.epoch(*id).unwrap(), batches.len() as u64);
        }
    }

    /// The served path is the host path: a live server and a plain
    /// engine fed the same windows agree bitwise *per window* — published
    /// snapshot against `apply_batch` result — and in their cumulative
    /// accounting once the server hands its engine back.
    #[test]
    fn served_windows_match_apply_batch_per_window() {
        use crate::{EmbeddingServer, ServeConfig};

        let mut rng = StdRng::seed_from_u64(11);
        let n = 100;
        let g = random_graph(&mut rng, n, 400);
        let sources: Vec<u32> = (0..11).collect();
        let ppr = PprConfig {
            alpha: 0.2,
            r_max: 1e-4,
        };
        let windows: Vec<Vec<EdgeEvent>> = (0..5).map(|_| random_batch(&mut rng, n, 24)).collect();

        let mut serial = ShardedEngine::new(&g, &sources, 3, ppr, tree_cfg());
        let server = EmbeddingServer::start(
            ShardedEngine::new(&g, &sources, 3, ppr, tree_cfg()),
            ServeConfig {
                flush_max_events: usize::MAX,
                flush_interval_ms: 60_000,
                ..Default::default()
            },
        );
        let reader = server.reader();
        for (k, w) in windows.iter().enumerate() {
            // The server coalesces every window before the engine sees it.
            serial.apply_batch(&tsvd_graph::coalesce(w));
            assert!(server.submit_batch(w.clone()));
            assert_eq!(server.flush_sync(), k as u64 + 1);
            let snap = reader.snapshot();
            assert_eq!(snap.epoch(), serial.epoch());
            assert_eq!(
                snap.tagged()
                    .left()
                    .sub(&serial.embedding().left())
                    .max_abs(),
                0.0,
                "window {k}: served snapshot diverged from apply_batch"
            );
        }
        let served = server.shutdown();
        assert_eq!(served.epoch(), 5);
        assert_eq!(served.events_applied(), serial.events_applied());
        assert_eq!(served.total_stats(), serial.total_stats());
        assert_eq!(served.timings().updates, serial.timings().updates);
        assert_eq!(served.embedding().sigma, serial.embedding().sigma);
    }

    #[test]
    fn single_engine_round_trip_through_host() {
        let mut rng = StdRng::seed_from_u64(23);
        let n = 60;
        let g = random_graph(&mut rng, n, 240);
        let mut engine = ShardedEngine::new(
            &g,
            &(0..6).collect::<Vec<_>>(),
            2,
            PprConfig::default(),
            tree_cfg(),
        );
        engine.apply_batch(&random_batch(&mut rng, n, 12));
        let epoch = engine.epoch();
        let host = TenantHost::from_engine(engine, 0);
        assert_eq!(host.batches_recorded(), 1);
        let engine = host.into_single_engine();
        assert_eq!(engine.epoch(), epoch);
        assert_eq!(engine.batches_recorded(), 1);
    }

    #[test]
    #[should_panic(expected = "exactly one tenant")]
    fn into_single_engine_rejects_multi_tenant_hosts() {
        let g = DynGraph::with_nodes(8);
        let mut host = TenantHost::new(&g);
        host.register(0, &[0, 1], 1, PprConfig::default(), tree_cfg())
            .unwrap();
        host.register(1, &[2, 3], 1, PprConfig::default(), tree_cfg())
            .unwrap();
        let _ = host.into_single_engine();
    }
}

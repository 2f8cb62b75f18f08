//! The traced run: per-layer numbers, measured from outside the layers.
//!
//! End-to-end metrics are taken with nothing recorded. A traced run then
//! takes the exact windows the end-to-end phase flushed and replays them
//! twice, recording one span (name, start, end, parent, window) per call
//! into a layer:
//!
//! * **pass A** — a pipeline composed by hand from the layers' public
//!   functions: `RecordedBatch::record` → `SubsetPpr::apply_recorded` →
//!   `take_dirty_rows` + `proximity_row` → `BlockedProximityMatrix::set_row`
//!   → `DynamicTreeSvd::update` → `EpochSnapshot::new` + `EpochCell::store`.
//!   Its final embedding must equal the served one bitwise, so the spans
//!   time the same computation the server did.
//! * **pass B** — the same windows through `TenantHost::apply_batch` (the
//!   engine as the server drives it) with a `WalStore` beside it: the
//!   engine's whole-window time, and what the store layer costs on this
//!   workload's windows and state (append, checkpoint, recovery).
//!
//! Layer kernels with no window of their own (level-1 SVD, merge SVD, top-k
//! scan, codec, router) are timed on the run's final state afterwards.
//! Spans stay in memory and are written to `trace-<workload>.json` at exit.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tsvd_core::{
    BlockedProximityMatrix, DynamicTreeSvd, Embedding, PipelineTimings, TreeSvd, UpdateStats,
};
use tsvd_linalg::randomized::randomized_svd;
use tsvd_linalg::svd::exact_truncated_svd;
use tsvd_linalg::topk::{topk_scan, ScanScratch};
use tsvd_linalg::{DenseMatrix, RandomizedSvdConfig};
use tsvd_ppr::{RecordedBatch, SubsetPpr};
use tsvd_rt::json::{FromJson, ToJson};
use tsvd_rt::rng::{SeedableRng, StdRng};
use tsvd_serve::net::wire::{decode_frame, encode_frame, Message, RowsReply};
use tsvd_serve::net::Reply;
use tsvd_serve::{
    DurabilitySink, EpochCell, EpochSnapshot, Metric, Router, RouterConfig, ShardEndpoint,
    ShardMap, TenantHost, DEFAULT_TENANT,
};
use tsvd_store::{StoreConfig, WalStore};

use crate::gen::{self, EventGen, ReadGen};
use crate::stats::mean;
use crate::sut;
use crate::workload::{bits_equal, RunDir, RunOutput};

/// The per-layer metrics a traced run prints, with unit and direction —
/// the `per_layer` list of `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str, &str); 49] = [
    ("graph.record_us", "us", "lower"),
    ("graph.events_effective", "count", "lower"),
    ("ppr.replay_ms", "ms", "lower"),
    ("ppr.rows_ms", "ms", "lower"),
    ("ppr.dirty_rows", "count", "lower"),
    ("ppr.dirty_row_share", "ratio", "lower"),
    ("core.blocked.set_row_ms", "ms", "lower"),
    ("core.blocked.nnz", "count", "lower"),
    ("core.dynamic_tree.update_ms", "ms", "lower"),
    ("core.dynamic_tree.blocks_changed", "count", "lower"),
    ("core.dynamic_tree.blocks_recomputed", "count", "lower"),
    ("core.dynamic_tree.merges_recomputed", "count", "lower"),
    ("core.dynamic_tree.cells_rediffed", "count", "lower"),
    ("core.dynamic_tree.fired_share", "ratio", "lower"),
    ("core.dynamic_tree.rediff_share", "ratio", "lower"),
    ("core.static_tree.embed_ms", "ms", "lower"),
    ("linalg.sparse_rsvd_ms", "ms", "lower"),
    ("linalg.exact_svd_ms", "ms", "lower"),
    ("linalg.topk_scan_us", "us", "lower"),
    ("serve.engine.apply_ms", "ms", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.window_coverage_min", "ratio", "higher"),
    ("serve.snapshot.build_us", "us", "lower"),
    ("serve.server.flush_ms_mean", "ms", "lower"),
    ("serve.server.flush_ms_max", "ms", "lower"),
    ("serve.server.events_per_window", "count", "higher"),
    ("serve.server.busy_share", "ratio", "lower"),
    ("serve.server.coalesced_share", "ratio", "higher"),
    ("serve.server.overhead_ms", "ms", "lower"),
    ("serve.server.publish_ms_mean", "ms", "lower"),
    ("serve.server.publish_ms_max", "ms", "lower"),
    ("serve.query.top_k_us", "us", "lower"),
    ("serve.query.top_k_scan_us", "us", "lower"),
    ("serve.net.codec_us", "us", "lower"),
    ("serve.net.bytes_per_get_rows", "count", "lower"),
    ("serve.net.ping_us", "us", "lower"),
    ("serve.net.get_rows_burst_us_mean", "us", "lower"),
    ("serve.router.get_rows_us", "us", "lower"),
    ("serve.router.submit_flush_ms", "ms", "lower"),
    ("store.wal.append_us", "us", "lower"),
    ("store.wal.bytes_per_event", "count", "lower"),
    ("store.checkpoint.serialise_ms", "ms", "lower"),
    ("store.checkpoint.write_ms", "ms", "lower"),
    ("store.checkpoint.bytes", "count", "lower"),
    ("store.recover.load_ms", "ms", "lower"),
    ("store.recover.replay_ms_per_window", "ms", "lower"),
    ("trace.untraced_ms", "ms", "lower"),
    ("trace.windows", "count", "higher"),
    ("box.speed_factor", "ratio", "lower"),
];

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// 1-based window (epoch) the span belongs to; 0 for one-off probes.
    pub window: usize,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// In-memory span recorder.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, window: usize) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            window,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Record `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        window: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, window);
        let out = f();
        self.close(id);
        out
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Mean duration (ms) of the spans called `name`; 0 if there is none.
    pub fn mean_ms(&self, name: &str) -> f64 {
        mean(&self.durations_ms(name))
    }

    /// Self time of span `id`: its duration minus what its children cover.
    pub fn self_ms(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .sum();
        self.spans[id].ms() - children
    }

    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = format!("{{\"workload\":\"{workload}\",\"unit\":\"us\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{:.3},\"end\":{:.3},\"parent\":{parent},\"window\":{}}}{}\n",
                s.name,
                s.start_us,
                s.end_us,
                s.window,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// Mean seconds of `reps` calls of `f`.
fn time_mean(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() / reps as f64
}

/// What the traced run adds to a run: per-layer metrics and failed gates.
pub struct TraceOutput {
    pub metrics: Vec<(&'static str, f64)>,
    pub failures: Vec<String>,
}

/// Replay `run`'s windows with spans and time the layer kernels.
pub fn traced(run: &RunOutput, dir: &RunDir) -> TraceOutput {
    let fx = &run.fixture;
    let windows = &run.windows;
    let prefix = run.prefix_windows.min(windows.len());
    let mut failures = Vec::new();
    let mut m: HashMap<&'static str, f64> = HashMap::new();
    let mut tr = Tracer::new();

    // ------------------------------------------------------------ pass A
    let mut g = fx.g0.clone();
    let mut ppr = SubsetPpr::build(&g, &fx.subset, fx.ppr);
    let mut matrix =
        BlockedProximityMatrix::from_proximity_rows(g.num_nodes(), &fx.tree, &ppr.proximity_rows());
    ppr.take_dirty_rows();
    let mut tree = DynamicTreeSvd::new(fx.tree);
    let mut embedding = tree.build(&matrix);
    let sources = Arc::new(fx.subset.clone());
    let index: Arc<HashMap<u32, usize>> =
        Arc::new(fx.subset.iter().enumerate().map(|(i, &v)| (v, i)).collect());
    let snapshot_of = |e: &Embedding, epoch: u64, events: u64| {
        EpochSnapshot::new(
            e.tagged(epoch),
            sources.clone(),
            index.clone(),
            events,
            PipelineTimings::default(),
        )
    };
    let cell = EpochCell::new(snapshot_of(&embedding, 0, 0));
    let mut events_applied = 0u64;
    let mut window_ids = Vec::with_capacity(windows.len());
    let mut effective = Vec::new();
    let mut dirty_rows = Vec::new();
    let mut tree_stats = UpdateStats::default();
    for (k, window) in windows.iter().enumerate() {
        let w = k + 1;
        let root = tr.open("window", None, w);
        let rec = tr.span("graph.record", Some(root), w, || {
            RecordedBatch::record(&mut g, window)
        });
        tr.span("ppr.replay", Some(root), w, || ppr.apply_recorded(&g, &rec));
        let rows: Vec<(usize, Vec<(u32, f64)>)> = tr.span("ppr.rows", Some(root), w, || {
            ppr.take_dirty_rows()
                .into_iter()
                .map(|i| (i, ppr.proximity_row(i)))
                .collect()
        });
        tr.span("core.blocked.set_row", Some(root), w, || {
            for (i, row) in &rows {
                matrix.set_row(*i, row);
            }
        });
        let (emb, ustats) = tr.span("core.dynamic_tree.update", Some(root), w, || {
            tree.update(&matrix)
        });
        embedding = emb;
        events_applied += window.len() as u64;
        tr.span("serve.snapshot.build", Some(root), w, || {
            cell.store(snapshot_of(&embedding, w as u64, events_applied));
        });
        tr.close(root);
        window_ids.push(root);
        if k < prefix {
            effective.push(rec.num_effective() as f64);
            dirty_rows.push(rows.len() as f64);
            tree_stats += ustats;
        }
    }
    if !bits_equal(&embedding, &run.served) {
        failures
            .push("hand-composed pipeline's final embedding differs from the served one".into());
    }

    let window_ms: Vec<f64> = window_ids.iter().map(|&id| tr.spans[id].ms()).collect();
    let covered: Vec<f64> = window_ids
        .iter()
        .map(|&id| 1.0 - tr.self_ms(id) / tr.spans[id].ms().max(1e-9))
        .collect();
    let coverage_min = covered.iter().copied().fold(1.0, f64::min);
    // The gate is on all windows together: a single sub-millisecond window
    // can lose its thread between two spans, which says nothing about the
    // spans. The worst window is reported as a number.
    let untraced: f64 = window_ids.iter().map(|&id| tr.self_ms(id)).sum();
    let covered_share = 1.0 - untraced / window_ms.iter().sum::<f64>().max(1e-9);
    if covered_share < 0.95 {
        failures.push(format!(
            "child spans cover only {:.1}% of the replayed windows",
            covered_share * 100.0
        ));
    }
    m.insert("graph.record_us", tr.mean_ms("graph.record") * 1e3);
    m.insert("graph.events_effective", mean(&effective));
    m.insert("ppr.replay_ms", tr.mean_ms("ppr.replay"));
    m.insert("ppr.rows_ms", tr.mean_ms("ppr.rows"));
    m.insert("ppr.dirty_rows", mean(&dirty_rows));
    m.insert(
        "ppr.dirty_row_share",
        mean(&dirty_rows) / fx.subset.len() as f64,
    );
    m.insert(
        "core.blocked.set_row_ms",
        tr.mean_ms("core.blocked.set_row"),
    );
    m.insert("core.blocked.nnz", matrix.nnz() as f64);
    m.insert(
        "core.dynamic_tree.update_ms",
        tr.mean_ms("core.dynamic_tree.update"),
    );
    m.insert(
        "core.dynamic_tree.blocks_changed",
        tree_stats.blocks_changed as f64,
    );
    m.insert(
        "core.dynamic_tree.blocks_recomputed",
        tree_stats.blocks_recomputed as f64,
    );
    m.insert(
        "core.dynamic_tree.merges_recomputed",
        tree_stats.merges_recomputed as f64,
    );
    m.insert(
        "core.dynamic_tree.cells_rediffed",
        tree_stats.cells_rediffed as f64,
    );
    m.insert(
        "core.dynamic_tree.fired_share",
        tree_stats.blocks_recomputed as f64 / (tree_stats.blocks_changed as f64).max(1.0),
    );
    m.insert(
        "core.dynamic_tree.rediff_share",
        tree_stats.cells_rediffed as f64
            / (fx.tree.num_blocks * fx.subset.len() * prefix.max(1)) as f64,
    );
    m.insert(
        "serve.snapshot.build_us",
        tr.mean_ms("serve.snapshot.build") * 1e3,
    );
    m.insert("trace.window_coverage_min", coverage_min);
    m.insert("trace.windows", windows.len() as f64);
    // A window span's self time is what no layer span covers.
    m.insert(
        "trace.untraced_ms",
        untraced / window_ids.len().max(1) as f64,
    );

    // ------------------------------------------------------------ pass B
    // The store probe checkpoints `tail` windows before the end, so that
    // recovery has a tail to replay.
    let tail = windows.len().min(32);
    let store_dir = dir.path().join("trace-store");
    let mut host =
        TenantHost::from_engine(sut::build_engine(fx, &fx.g0, &fx.subset), DEFAULT_TENANT);
    let mut store =
        WalStore::create(StoreConfig::new(&store_dir), &host).expect("create the probe store");
    let mut wal_events = 0usize;
    for (k, window) in windows.iter().enumerate() {
        let w = k + 1;
        if k == windows.len() - tail {
            let json = tr.span("store.checkpoint.serialise", None, w, || host.to_json());
            tr.span("store.checkpoint.write", None, w, || {
                store.checkpoint(k as u64, &json).expect("probe checkpoint")
            });
            m.insert(
                "store.checkpoint.bytes",
                file_bytes(&store_dir, "checkpoint-") as f64,
            );
        }
        tr.span("store.wal.append_window", None, w, || {
            store
                .append_window(w as u64, window)
                .expect("probe WAL append")
        });
        wal_events += window.len();
        tr.span("serve.engine.apply_batch", None, w, || {
            host.apply_batch(window)
        });
    }
    let wal_bytes = file_bytes(&store_dir, "wal-");
    drop(store);
    let replayed = host
        .embedding(DEFAULT_TENANT)
        .expect("default tenant")
        .clone();
    if !bits_equal(&replayed, &run.served) {
        failures.push("engine replay's final embedding differs from the served one".into());
    }
    // Recovery, split into its two terms: load the checkpoint, replay the tail.
    let t = Instant::now();
    let (_, host_json) =
        tsvd_store::checkpoint::load_latest(&store_dir).expect("load the probe checkpoint");
    let loaded = TenantHost::from_json(&host_json).expect("decode the probe checkpoint");
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    drop((loaded, host_json));
    let rec = tr.span("store.recover", None, 0, || sut::recover(&store_dir));
    let recover_ms = tr.spans.last().expect("recover span").ms();
    if rec.windows_replayed as usize != tail
        || !bits_equal(
            rec.host.embedding(DEFAULT_TENANT).expect("default tenant"),
            &run.served,
        )
    {
        failures.push("probe recovery did not land on the served state".into());
    }
    drop(rec);
    drop(host);
    let _ = std::fs::remove_dir_all(&store_dir);

    let apply_ms = tr.durations_ms("serve.engine.apply_batch");
    m.insert("serve.engine.apply_ms", mean(&apply_ms));
    m.insert(
        "trace.coverage",
        (window_ms.iter().sum::<f64>() - untraced) / apply_ms.iter().sum::<f64>().max(1e-9),
    );
    m.insert(
        "store.wal.append_us",
        tr.mean_ms("store.wal.append_window") * 1e3,
    );
    m.insert(
        "store.wal.bytes_per_event",
        wal_bytes as f64 / wal_events.max(1) as f64,
    );
    m.insert(
        "store.checkpoint.serialise_ms",
        tr.mean_ms("store.checkpoint.serialise"),
    );
    m.insert(
        "store.checkpoint.write_ms",
        tr.mean_ms("store.checkpoint.write"),
    );
    m.insert("store.recover.load_ms", load_ms);
    m.insert(
        "store.recover.replay_ms_per_window",
        (recover_ms - load_ms).max(0.0) / tail.max(1) as f64,
    );

    // ---------------------------------------------- the server's own view
    let s = &run.stats;
    let timed = s.epoch.max(1) as usize;
    let consumed = (s.events_applied + s.events_coalesced) as f64;
    m.insert("serve.server.flush_ms_mean", s.flush_ms_mean);
    m.insert("serve.server.flush_ms_max", s.flush_ms_max);
    m.insert(
        "serve.server.events_per_window",
        consumed / s.batches_flushed.max(1) as f64,
    );
    m.insert(
        "serve.server.busy_share",
        s.flush_ms_mean * s.batches_flushed as f64 / 1e3 / run.timed_secs,
    );
    m.insert(
        "serve.server.coalesced_share",
        s.events_coalesced as f64 / consumed.max(1.0),
    );
    // Against the engine's time on the same windows (the timed phase's).
    m.insert(
        "serve.server.overhead_ms",
        s.flush_ms_mean - mean(&apply_ms[..timed.min(apply_ms.len())]),
    );
    m.insert("serve.server.publish_ms_mean", run.publish_ms_mean);
    m.insert("serve.server.publish_ms_max", run.publish_ms_max);
    m.insert("serve.net.ping_us", run.ping_us);
    // Where contention with the write path shows: a burst that lands in a
    // flush waits for a core. Too heavy-tailed to repeat within a bound.
    m.insert(
        "serve.net.get_rows_burst_us_mean",
        run.get_rows_burst_us_mean,
    );
    // Per-layer times are raw; this is how much slower than nominal the box
    // ran during the timed phase (the end-to-end durations are divided by it).
    m.insert("box.speed_factor", run.speed_factor);

    // ------------------------------------------------------ layer kernels
    m.insert(
        "core.static_tree.embed_ms",
        time_mean(3, || {
            std::hint::black_box(TreeSvd::new(fx.tree).embed(&matrix));
        }) * 1e3,
    );
    let rcfg = RandomizedSvdConfig {
        rank: fx.tree.dim,
        oversample: fx.tree.oversample,
        power_iters: fx.tree.power_iters,
    };
    // The densest level-1 block, and the merge of the first `k` blocks.
    let densest = (0..matrix.num_blocks())
        .map(|j| matrix.block_csr(j))
        .max_by_key(|b| b.nnz())
        .expect("at least one block");
    m.insert(
        "linalg.sparse_rsvd_ms",
        time_mean(5, || {
            let mut rng = StdRng::seed_from_u64(fx.tree.seed);
            std::hint::black_box(randomized_svd(&densest, &rcfg, &mut rng));
        }) * 1e3,
    );
    let factors: Vec<DenseMatrix> = (0..fx.tree.branching.min(matrix.num_blocks()))
        .map(|j| {
            let mut rng = StdRng::seed_from_u64(fx.tree.seed ^ j as u64);
            randomized_svd(&matrix.block_csr(j), &rcfg, &mut rng).u_sigma()
        })
        .collect();
    let merged = DenseMatrix::hconcat(&factors.iter().collect::<Vec<_>>());
    m.insert(
        "linalg.exact_svd_ms",
        time_mean(5, || {
            std::hint::black_box(exact_truncated_svd(&merged, fx.tree.dim));
        }) * 1e3,
    );

    let snap = cell.load();
    let left = run.served.left();
    let mut reads = ReadGen::new(&fx.subset, 7);
    let nodes: Vec<u32> = (0..200).map(|_| reads.popular_node()).collect();
    let mut scratch = ScanScratch::new();
    let mut hits = Vec::new();
    let mut i = 0usize;
    m.insert(
        "linalg.topk_scan_us",
        time_mean(nodes.len(), || {
            let row = snap.row_of(nodes[i]).expect("subset node");
            topk_scan(
                left.as_slice(),
                left.rows(),
                left.cols(),
                left.row(row),
                gen::TOP_K as usize,
                Some(row as u32),
                1.0,
                None,
                &mut scratch,
                &mut hits,
            );
            i += 1;
        }) * 1e6,
    );
    for (name, scan) in [
        ("serve.query.top_k_us", false),
        ("serve.query.top_k_scan_us", true),
    ] {
        let mut i = 0usize;
        m.insert(
            name,
            time_mean(nodes.len(), || {
                let k = gen::TOP_K as usize;
                std::hint::black_box(if scan {
                    snap.top_k_scan(nodes[i], k, Metric::Cosine)
                } else {
                    snap.top_k(nodes[i], k, Metric::Cosine)
                });
                i += 1;
            }) * 1e6,
        );
    }

    // Codec: one GetRows reply of 8 rows, encoded and decoded.
    let reply = Message::Reply(Reply::Rows(RowsReply {
        epoch: snap.epoch(),
        checksum_bits: snap.checksum().to_bits(),
        dim: snap.dim() as u32,
        rows: nodes[..gen::ROWS_PER_GET]
            .iter()
            .map(|&n| snap.get(n).map(<[f64]>::to_vec))
            .collect(),
    }));
    let mut frame = Vec::new();
    m.insert(
        "serve.net.codec_us",
        time_mean(2000, || {
            frame.clear();
            encode_frame(1, DEFAULT_TENANT, &reply, &mut frame);
            std::hint::black_box(decode_frame(&frame).expect("decode own frame"));
        }) * 1e6,
    );
    m.insert("serve.net.bytes_per_get_rows", frame.len() as f64);

    // Router: two shard servers at this scale on loopback TCP.
    let map = ShardMap::even_split(&fx.subset, 2);
    let shards: Vec<sut::Serving> = (0..map.num_shards())
        .map(|k| sut::start(sut::build_engine(fx, &fx.g0, map.sources_of(k)), None))
        .collect();
    let endpoints = shards
        .iter()
        .map(|s| ShardEndpoint::leader_only(s.addr()))
        .collect();
    let mut router =
        Router::connect(map, endpoints, RouterConfig::default()).expect("connect the router");
    let mut events = EventGen::new(&fx.g0, 11);
    m.insert(
        "serve.router.submit_flush_ms",
        time_mean(8, || {
            router
                .submit(vec![events.next_event()])
                .expect("router submit");
            router.flush().expect("router flush");
        }) * 1e3,
    );
    let mut i = 0usize;
    m.insert(
        "serve.router.get_rows_us",
        time_mean(200, || {
            let at = i % (nodes.len() - gen::ROWS_PER_GET);
            let got = router
                .get_rows(&nodes[at..at + gen::ROWS_PER_GET])
                .expect("router read");
            assert!(got.rows.iter().all(Option::is_some), "router lost a row");
            i += 1;
        }) * 1e6,
    );
    drop(router);
    for shard in shards {
        drop(shard.stop());
    }

    let path = dir
        .trace_dir()
        .join(format!("trace-{}.json", run.spec.name));
    if let Err(e) = tr.write_json(&path, run.spec.name) {
        failures.push(format!("could not write {}: {e}", path.display()));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, _, _)| {
            let v = *m
                .get(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            (name, v)
        })
        .collect();
    TraceOutput { metrics, failures }
}

/// Total size of the files in `dir` whose name starts with `prefix`.
fn file_bytes(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter_map(|e| e.metadata().ok())
                .map(|md| md.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::new();
        let root = tr.open("window", None, 1);
        tr.span("a", Some(root), 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.span("b", Some(root), 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        std::thread::sleep(std::time::Duration::from_millis(3));
        tr.close(root);
        let total = tr.spans[root].ms();
        let own = tr.self_ms(root);
        assert!(total >= 7.0, "{total}");
        assert!((3.0..total - 3.9).contains(&own), "self {own} of {total}");
        assert_eq!(tr.spans[1].parent, Some(root));
        assert_eq!(tr.durations_ms("a").len(), 1);
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(matches!(*better, "lower" | "higher"));
            assert!(PER_LAYER[..i].iter().all(|o| o.0 != *name), "{name} twice");
        }
    }
}

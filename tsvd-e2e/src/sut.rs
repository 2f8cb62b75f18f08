//! The one adapter between the benchmark and the system under test: every
//! call that constructs or configures the SUT lives here, so a change to
//! how the serving stack is built or configured needs a follow-up in this
//! file only.
//!
//! Over `ServeConfig::default()` it sets `flush_max_events`,
//! `flush_interval_ms` and `checkpoint_every` and nothing else; the Tree-SVD
//! and PPR parameters are pinned explicitly, never taken from `Default`.

use std::path::Path;
use std::time::Duration;

use tsvd_core::{Level1Method, PartitionStrategy, TreeSvdConfig, TreeSvdPipeline, UpdatePolicy};
use tsvd_datasets::{DatasetConfig, SyntheticDataset};
use tsvd_graph::DynGraph;
use tsvd_ppr::PprConfig;
use tsvd_serve::{
    ClientConfig, EmbeddingReader, EmbeddingServer, NetClient, NetFront, ServeConfig,
    ShardedEngine, TcpTransport, TenantHost, DEFAULT_TENANT,
};
use tsvd_store::{Recovered, StoreConfig, WalStore};

/// Flush window: whichever of 512 events / 20 ms comes first.
pub const FLUSH_MAX_EVENTS: usize = 512;
pub const FLUSH_INTERVAL_MS: u64 = 20;
/// Checkpoint cadence of the `durable` workload, in flushed windows.
pub const CHECKPOINT_EVERY: u64 = 128;

/// Graph and subset size of a workload, plus the tree shape that fits it.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub name: &'static str,
    pub nodes: usize,
    pub edges: usize,
    pub subset: usize,
    pub dim: usize,
    pub blocks: usize,
}

/// The EXPERIMENTS.md shape: patent-like 5 000 nodes / 25 000 edges.
pub const BASE: Scale = Scale {
    name: "base",
    nodes: 5_000,
    edges: 25_000,
    subset: 300,
    dim: 64,
    blocks: 16,
};

/// Twice the graph and twice the subset of `base`: the per-window floor
/// (the terms that scale with `b × |S|`, not with the delta) roughly
/// doubles, as does the matrix a top-k query scans.
pub const WIDE: Scale = Scale {
    name: "wide",
    nodes: 10_000,
    edges: 60_000,
    subset: 600,
    dim: 64,
    blocks: 16,
};

/// `--smoke` only: every code path in a second or two.
pub const TOY: Scale = Scale {
    name: "toy",
    nodes: 200,
    edges: 1_000,
    subset: 16,
    dim: 8,
    blocks: 4,
};

/// The generated inputs a run starts from.
pub struct Fixture {
    pub g0: DynGraph,
    pub subset: Vec<u32>,
    pub ppr: PprConfig,
    pub tree: TreeSvdConfig,
}

/// Generate the initial graph and sample the subset. The graph is the same
/// for every seed (the workload seed drives the traffic, not the fixture),
/// so accuracy numbers of different seeds are comparable.
pub fn fixture(scale: &Scale) -> Fixture {
    let mut cfg = DatasetConfig::patent();
    cfg.num_nodes = scale.nodes;
    cfg.num_edges = scale.edges;
    cfg.tau = 2;
    let data = SyntheticDataset::generate(&cfg);
    Fixture {
        g0: data.stream.snapshot(2),
        subset: data.sample_subset(scale.subset, 777),
        ppr: PprConfig {
            alpha: 0.2,
            r_max: 1e-4,
        },
        tree: TreeSvdConfig {
            dim: scale.dim,
            branching: 4,
            num_blocks: scale.blocks,
            oversample: 8,
            power_iters: 1,
            level1: Level1Method::Randomized,
            policy: UpdatePolicy::Lazy { delta: 0.65 },
            partition: PartitionStrategy::EqualWidth,
            seed: 42,
        },
    }
}

/// The serving configuration every workload runs under.
pub fn serve_config(durable: bool) -> ServeConfig {
    ServeConfig {
        flush_max_events: FLUSH_MAX_EVENTS,
        flush_interval_ms: FLUSH_INTERVAL_MS,
        checkpoint_every: if durable { CHECKPOINT_EVERY } else { 0 },
        ..ServeConfig::default()
    }
}

/// Initial PPR + static Tree-SVD over `graph` for the rows `sources`.
pub fn build_engine(fx: &Fixture, graph: &DynGraph, sources: &[u32]) -> ShardedEngine {
    ShardedEngine::new(
        graph,
        sources,
        serve_config(false).num_shards,
        fx.ppr,
        fx.tree,
    )
}

/// The unsharded offline pipeline the served state is checked against.
pub fn oracle(fx: &Fixture) -> TreeSvdPipeline {
    TreeSvdPipeline::new(&fx.g0, &fx.subset, fx.ppr, fx.tree)
}

/// A running server behind a TCP front.
pub struct Serving {
    front: NetFront,
    addr: String,
    /// In-process view of the served epoch, for the epoch watcher.
    pub reader: EmbeddingReader,
}

/// Start serving `engine` on an OS-assigned loopback port, with the window
/// log on. With `store_dir`, every window is appended to a WAL there before
/// it is published and the host is checkpointed periodically.
pub fn start(engine: ShardedEngine, store_dir: Option<&Path>) -> Serving {
    let mut host = TenantHost::from_engine(engine, DEFAULT_TENANT);
    host.enable_window_log();
    let handle = match store_dir {
        Some(dir) => {
            let store = WalStore::create(StoreConfig::new(dir), &host).expect("create WAL store");
            EmbeddingServer::start_host_with_store(host, serve_config(true), Box::new(store))
        }
        None => EmbeddingServer::start_host(host, serve_config(false)),
    };
    let reader = handle.reader();
    let front = NetFront::start(handle);
    let addr = front.listen("127.0.0.1:0").expect("bind loopback listener");
    Serving {
        front,
        addr: addr.to_string(),
        reader,
    }
}

impl Serving {
    /// A new client connection. The read timeout is longer than any
    /// checkpoint stall, so a slow reply is measured, not dropped.
    pub fn client(&self) -> NetClient {
        let mut transport = TcpTransport::new(self.addr.clone());
        transport.read_timeout = Some(Duration::from_secs(120));
        NetClient::connect(transport, ClientConfig::default()).expect("connect to the front")
    }

    /// `host:port` the front listens on.
    pub fn addr(&self) -> String {
        self.addr.clone()
    }

    /// Stop the front and the server (with a store: final checkpoint) and
    /// take the engine back.
    pub fn stop(self) -> ShardedEngine {
        self.front.shutdown()
    }
}

/// Crash recovery from a store directory: latest checkpoint + WAL replay.
pub fn recover(dir: &Path) -> Recovered {
    tsvd_store::recover(StoreConfig::new(dir)).expect("recover from the copied store")
}

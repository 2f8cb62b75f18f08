//! # tsvd-serve
//!
//! A double-buffered **embedding-serving layer** over the dynamic
//! Tree-SVD pipeline — the "online" deployment shape of the paper's system:
//! edge events stream in, queries read the subset embedding concurrently,
//! and updates must neither block readers nor change results.
//!
//! Five pieces:
//!
//! * [`TenantHost`] — the update path, and the only one. One host owns
//!   **one** shared graph; N registered tenants each own a subset and its
//!   [`TreeSvdPipeline`](tsvd_core::TreeSvdPipeline). [`TenantHost::apply_batch`] records each
//!   edge batch on the shared graph exactly once and replays the recording
//!   into every tenant — so the graph work is paid once, not N times —
//!   while every tenant's embedding stays bitwise equal to its own offline
//!   [`TreeSvdPipeline`](tsvd_core::TreeSvdPipeline) replay. The server,
//!   followers and crash recovery all apply windows through this call.
//! * [`ShardedEngine`] — a one-tenant host under a single-engine API. A
//!   window is the pipeline's own `apply_recorded`, so output is **bitwise
//!   identical** to the offline pipeline at any `TSVD_THREADS` (see
//!   `engine` module docs for why this holds).
//! * [`EmbeddingServer`] / [`ServerHandle`] / [`EmbeddingReader`] — the
//!   asynchronous front. A dedicated reactor thread (a plain loop over
//!   its own `std::sync::mpsc` channel and one flush deadline — no tokio)
//!   owns the host,
//!   batches incoming [`EdgeEvent`](tsvd_graph::EdgeEvent)s per
//!   [`ServeConfig`] window (count- or deadline-triggered, last-write-wins
//!   coalesced) and applies each window serially, tenants
//!   round-robin fair on the shared compute pool, with per-tenant
//!   admission quotas ([`ServeConfig::tenant_quota`]) and per-tenant epoch
//!   publication.
//! * [`EpochCell`] / [`EpochSnapshot`] — the double buffer. Each flush
//!   publishes a complete immutable snapshot via one `Arc` swap; readers
//!   always observe a whole epoch (checksum-verifiable), never a torn mix,
//!   and never wait on a flush. A snapshot also answers top-k similarity
//!   ([`EpochSnapshot::top_k`], [`EpochSnapshot::top_k_batch`], [`Metric`])
//!   — one scan over its rows for any number of queries, with the row
//!   norms cosine needs computed when it is assembled (see the [`query`]
//!   module docs).
//! * [`net`] — the network front. A hermetic length-prefixed wire protocol
//!   (`std::net` only) carries the full server API; [`NetFront`] accepts
//!   TCP or in-process loopback connections and serves each on one
//!   thread, and [`NetClient`] adds pipelining, reconnect, and
//!   epoch/checksum staleness guards. `f64`s travel as raw IEEE-754 bits,
//!   so replies over the wire stay bitwise-equal to in-process reads.
//!
//! ```no_run
//! use tsvd_serve::{EmbeddingServer, ServeConfig, ShardedEngine};
//! # let g = tsvd_graph::DynGraph::with_nodes(100);
//! # let sources: Vec<u32> = (0..10).collect();
//! let engine = ShardedEngine::new(
//!     &g, &sources, 1,
//!     tsvd_ppr::PprConfig::default(),
//!     tsvd_core::TreeSvdConfig { dim: 8, ..Default::default() },
//! );
//! let server = EmbeddingServer::start(engine, ServeConfig::default());
//! let reader = server.reader(); // Clone per query thread
//! server.submit(tsvd_graph::EdgeEvent::insert(3, 17));
//! server.flush_sync();
//! let snap = reader.snapshot(); // whole-epoch consistent view
//! let _vec = snap.get(3);
//! let engine = server.shutdown(); // engine back, e.g. for offline checks
//! # let _ = engine;
//! ```

pub mod checkpoint;
mod config;
mod engine;
mod follower;
mod ingest;
mod journal;
pub mod net;
pub mod query;
pub mod router;
mod server;
mod snapshot;
mod stats;
mod tenant;

pub use config::{RouterConfig, ServeConfig};
pub use engine::ShardedEngine;
pub use follower::{CatchUpError, Follower};
pub use ingest::GraphIngest;
pub use journal::{DurabilitySink, JournalError, JournalWindows, WindowJournal, JOURNAL_KEEP};
pub use net::{ClientConfig, NetClient, NetFront, TcpTransport, WindowsPull};
pub use query::Metric;
pub use router::{Router, RouterError, RouterFront, ShardEndpoint, ShardMap};
pub use server::{EmbeddingReader, EmbeddingServer, ServerHandle, SubmitError, DEFAULT_TENANT};
pub use snapshot::{EpochCell, EpochSnapshot, TopKQuery};
pub use stats::{HostStats, RouterStats, ServeStats, StatsReply};
pub use tenant::{HostSection, TenantError, TenantHost, TenantId};

//! The scale-out router tier: stateless scatter-gather over `serve::net`.
//!
//! One process caps the system at one machine. The router splits the
//! subset's global row order into contiguous ranges — with `n` shards over
//! `len` rows each range gets `len / n` rows and the first `len % n` one
//! more ([`ShardMap::even_split`]) — and places each range in its own
//! **shard process** (an `EmbeddingServer` + [`NetFront`](crate::NetFront)
//! over that sub-subset). The router itself holds no embedding state: just
//! a [`ShardMap`], one pipelining [`NetClient`] per range, and counters.
//!
//! ```text
//!             ┌────────────┐  SubmitEvents/Flush: broadcast (lockstep)
//!  clients ──▶│ RouterFront│  GetRows: scatter per ShardMap, gather,
//!             │  (Router)  │           epoch barrier, merge
//!             └─────┬──────┘
//!        ┌──────────┼──────────────┐
//!        ▼          ▼              ▼
//!    shard 0     shard 1   ...  shard N-1      (leader processes)
//!        │          │              │  GetWindows (journal replication)
//!        ▼          ▼              ▼
//!    follower 0  follower 1 ... follower N-1   (read replicas)
//! ```
//!
//! **Lockstep invariant.** Every write (`SubmitEvents`) and every `Flush`
//! is broadcast to all healthy shards *in the same serialized order* (the
//! router is behind one lock). Each shard therefore coalesces identical
//! pending buffers into identical windows at identical epochs — so the
//! shards' journals are byte-identical, any shard can feed any range's
//! follower, and epoch `e` means the same global prefix of the event
//! stream everywhere. A shard that misses one write has diverged forever;
//! the router immediately fails it over (below) rather than let it serve.
//!
//! **Epoch barrier.** A scatter read can catch shards mid-flush at
//! different epochs. The gather takes `target = max(epoch)` over the
//! replies and re-probes every range below it (bounded retries with
//! linear backoff, [`RouterConfig::barrier_retries`] ×
//! [`RouterConfig::barrier_backoff_ms`]); per-connection staleness guards
//! in [`NetClient`] separately reject a same-epoch checksum flip. A shard
//! that cannot reach the barrier fails the read with the typed
//! [`RouterError::EpochBarrier`] — never a torn cross-shard mix.
//!
//! **Failover ladder.** A shard that faults on the *write* path has
//! either missed the broadcast or is unreachable — both mean its journal
//! has diverged from the lockstep order, so it must never serve again:
//! the router switches the range to its journal-fed
//! [`Follower`](crate::Follower) replica, which serves the identical
//! bitwise rows at a possibly-stale epoch — the barrier absorbs the lag
//! while the follower catches up from any healthy shard's journal. With
//! no usable follower the range is **poisoned**: permanently excluded
//! from writes and reads (a transient fault would otherwise reconnect the
//! diverged leader on the next call and serve it as healthy), with the
//! fault reported only after the broadcast has reached every remaining
//! shard — a mid-broadcast error must not leave the survivors with
//! divergent pending sets. One write failure is not a fault at all: a
//! *server rejection* (the shard answered with a wire `Error` instead of
//! applying the request, e.g. an exceeded tenant quota). If no shard
//! applied the batch the survivors still agree, and the rejection
//! surfaces as the request-level [`RouterError::Io`] — backpressure, not
//! divergence; if another shard *did* apply it, the rejecting shard has
//! missed a write and rides the ladder like any other write fault. On the
//! *read* path, a dead transport fails over to the follower and retries
//! there; request-level faults (a corrupt frame, a server-side error
//! string) fail only that request: the client reconnects on the next
//! call. Followers that outlive the leaders' bounded journals re-seed
//! over the wire (`GetCheckpoint` →
//! [`Follower::reseed_from`](crate::Follower)).
//!
//! The merged `Rows` reply's checksum is the FNV-1a 64 chain of the
//! per-range checksums in ascending range order — deterministic per epoch
//! (sequential f64 summation is non-associative, so the router cannot
//! recompute a *global* content checksum without the rows it did not
//! fetch; the chained per-range form is stable across failover because a
//! follower's state is bitwise its leader's). For the same reason the
//! router does not serve `GetEmbedding`.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;
use std::{fmt, thread};

use tsvd_graph::EdgeEvent;
use tsvd_rt::bin::{fnv1a64, CHECKSUM_OFFSET};

use crate::config::RouterConfig;
use crate::net::client::{is_transient, unexpected};
use crate::net::conn::{self, Conns, Handler};
use crate::net::wire::{FrameWriter, Reply, Request, RowsReply, TopKReply, MAX_PAYLOAD};
use crate::net::{ClientConfig, Duplex, NetClient, TcpTransport};
use crate::query::Metric;
use crate::stats::RouterStats;

/// The contiguous-range split of the subset's global row order across N
/// shards — the cross-process analogue of
/// [`ShardedEngine`](crate::ShardedEngine)'s in-process split. Global row
/// `i` is the `i`-th source in the full subset; shard `k` owns rows
/// `range(k).0 .. range(k).1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    sources: Vec<u32>,
    /// Half-open `(start, end)` global-row ranges, ascending, tiling
    /// `0..sources.len()` exactly.
    ranges: Vec<(usize, usize)>,
    /// node id → (owning shard, global row).
    owner: HashMap<u32, (usize, usize)>,
}

impl ShardMap {
    /// Split `sources` into `num_shards` contiguous ranges of near-equal
    /// size: the first `len % n` ranges get one extra row. `num_shards` is
    /// clamped to `1..=sources.len()`. Panics on an empty subset or on a
    /// node listed twice.
    pub fn even_split(sources: &[u32], num_shards: usize) -> ShardMap {
        assert!(!sources.is_empty(), "shard map over an empty subset");
        let n = num_shards.clamp(1, sources.len());
        let base = sources.len() / n;
        let rem = sources.len() % n;
        let ranges: Vec<(usize, usize)> = (0..n)
            .map(|k| {
                let start = k * base + k.min(rem);
                (start, start + base + usize::from(k < rem))
            })
            .collect();
        let mut owner = HashMap::with_capacity(sources.len());
        for (k, &(start, end)) in ranges.iter().enumerate() {
            for (row, &node) in sources[start..end].iter().enumerate() {
                let twice = owner.insert(node, (k, start + row)).is_some();
                assert!(!twice, "node {node} appears twice in the subset");
            }
        }
        ShardMap {
            sources: sources.to_vec(),
            ranges,
            owner,
        }
    }

    /// Number of shard ranges.
    pub fn num_shards(&self) -> usize {
        self.ranges.len()
    }

    /// The full subset, in global row order.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// Shard `k`'s half-open global-row range.
    pub fn range(&self, k: usize) -> (usize, usize) {
        self.ranges[k]
    }

    /// The sub-subset shard `k` owns, in global row order — what its
    /// engine process is registered with.
    pub fn sources_of(&self, k: usize) -> &[u32] {
        let (start, end) = self.ranges[k];
        &self.sources[start..end]
    }

    /// The global row a subset node owns, if any — the deterministic
    /// tie-break key the cross-shard top-k merge sorts by (a shard's
    /// local rows are this minus its range start, so the merged order is
    /// the same total order a single shard would produce).
    pub fn global_row(&self, node: u32) -> Option<usize> {
        self.owner.get(&node).map(|&(_, row)| row)
    }

    /// Partition one `GetRows` request across the shards. Every shard gets
    /// an entry — possibly empty: an empty `GetRows` still returns the
    /// shard's epoch and range checksum, which the barrier and the merged
    /// checksum need from *all* ranges.
    pub fn plan(&self, nodes: &[u32]) -> ScatterPlan {
        let n = self.num_shards();
        let mut per_shard = vec![Vec::new(); n];
        let mut positions = vec![Vec::new(); n];
        for (pos, &node) in nodes.iter().enumerate() {
            if let Some(&(k, _)) = self.owner.get(&node) {
                per_shard[k].push(node);
                positions[k].push(pos);
            }
            // Nodes outside the subset stay None in the merged reply,
            // exactly as a single shard answers for unknown nodes.
        }
        ScatterPlan {
            per_shard,
            positions,
            total: nodes.len(),
        }
    }

    /// Merge one reply per shard (ascending range order, aligned with
    /// `plan`) into the client-facing [`RowsReply`]. Rejects — with a
    /// typed [`RouterError::Merge`] — any reply set that would tear the
    /// read: a row-count mismatch against the plan (a gap or overlap in
    /// global-row coverage), ranges at different epochs (the barrier's
    /// job; merging them would mix epochs), or disagreeing dimensions.
    pub fn merge(
        &self,
        plan: &ScatterPlan,
        replies: &[RowsReply],
    ) -> Result<RowsReply, RouterError> {
        if replies.len() != self.num_shards() {
            return Err(RouterError::Merge(format!(
                "{} replies for {} shard ranges",
                replies.len(),
                self.num_shards()
            )));
        }
        let epoch = replies[0].epoch;
        let dim = replies[0].dim;
        let mut checksum = CHECKSUM_OFFSET;
        for (k, r) in replies.iter().enumerate() {
            if r.epoch != epoch {
                return Err(RouterError::Merge(format!(
                    "shard {k} answered at epoch {}, shard 0 at {epoch} — torn cross-shard read",
                    r.epoch
                )));
            }
            if r.dim != dim {
                return Err(RouterError::Merge(format!(
                    "shard {k} serves dim {}, shard 0 dim {dim}",
                    r.dim
                )));
            }
            let asked = plan.per_shard[k].len();
            if r.rows.len() != asked {
                let what = if r.rows.len() < asked {
                    "gap"
                } else {
                    "overlap"
                };
                return Err(RouterError::Merge(format!(
                    "row-coverage {what}: shard {k} returned {} row slots for {asked} requested",
                    r.rows.len()
                )));
            }
            checksum = fnv1a64(checksum, &r.checksum_bits.to_le_bytes());
        }
        let mut rows: Vec<Option<Vec<f64>>> = vec![None; plan.total];
        for (k, r) in replies.iter().enumerate() {
            for (slot, row) in plan.positions[k].iter().zip(&r.rows) {
                rows[*slot] = row.clone();
            }
        }
        Ok(RowsReply {
            epoch,
            checksum_bits: checksum,
            dim,
            rows,
        })
    }
}

/// How one `GetRows` request scatters across the [`ShardMap`]: which
/// requested nodes go to which shard, and where each answer lands in the
/// merged reply.
#[derive(Debug, Clone)]
pub struct ScatterPlan {
    /// Per shard: the requested nodes it owns, in request order.
    per_shard: Vec<Vec<u32>>,
    /// Per shard: the position in the original request of each of its
    /// nodes (parallel to `per_shard`).
    positions: Vec<Vec<usize>>,
    /// Length of the original request (== merged reply row count).
    total: usize,
}

impl ScatterPlan {
    /// The nodes shard `k` is asked for (possibly empty — a probe).
    pub fn shard_nodes(&self, k: usize) -> &[u32] {
        &self.per_shard[k]
    }
}

/// Typed failures of router operations.
#[derive(Debug)]
pub enum RouterError {
    /// A shard stayed below the barrier epoch through every bounded
    /// retry: the read fails typed rather than serving a torn mix.
    EpochBarrier {
        /// The epoch the freshest range answered at.
        target: u64,
        /// The range that could not reach it.
        shard: usize,
        /// The epoch it was stuck at.
        stuck_at: u64,
        /// Retry rounds spent.
        retries: u32,
    },
    /// Gathered replies that cannot be merged into one consistent reply.
    Merge(String),
    /// A shard's transport is dead and no (reachable) follower replica
    /// covers its range.
    ShardDown {
        /// The dead range.
        shard: usize,
        /// The underlying failure. Shared: a range poisoned by a write
        /// fault reports the fault that poisoned it to every later read.
        error: Arc<io::Error>,
    },
    /// A request-level fault on one shard (corrupt frame, server-side
    /// error). The router stays up; only this request fails.
    Io {
        /// The faulting range.
        shard: usize,
        /// The underlying failure.
        error: io::Error,
    },
    /// Every shard range has been failed over to a read-only follower:
    /// no process is left to accept writes.
    NoWriters,
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::EpochBarrier {
                target,
                shard,
                stuck_at,
                retries,
            } => write!(
                f,
                "epoch barrier failed: shard {shard} stuck at epoch {stuck_at}, \
                 target {target}, after {retries} retries"
            ),
            RouterError::Merge(what) => write!(f, "merge rejected: {what}"),
            RouterError::ShardDown { shard, error } => {
                write!(f, "shard {shard} down with no usable replica: {error}")
            }
            RouterError::Io { shard, error } => write!(f, "shard {shard} request failed: {error}"),
            RouterError::NoWriters => write!(f, "every shard failed over; no writer left"),
        }
    }
}

impl std::error::Error for RouterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouterError::ShardDown { error, .. } => Some(&**error),
            RouterError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Where one shard range lives on the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEndpoint {
    /// The leader shard process (`host:port`).
    pub addr: String,
    /// Its journal-fed follower replica, if deployed — the failover
    /// target for this range.
    pub follower: Option<String>,
}

impl ShardEndpoint {
    /// A leader with no replica.
    pub fn leader_only(addr: impl Into<String>) -> ShardEndpoint {
        ShardEndpoint {
            addr: addr.into(),
            follower: None,
        }
    }

    /// A leader with a follower replica behind it.
    pub fn with_follower(addr: impl Into<String>, follower: impl Into<String>) -> ShardEndpoint {
        ShardEndpoint {
            addr: addr.into(),
            follower: Some(follower.into()),
        }
    }
}

/// One shard range's health, published once and observed by the writer
/// and by every read session: a range failed over (or poisoned) by any
/// path is failed over for all of them.
struct RangeHealth {
    /// Once true, this range reads from its follower and receives no more
    /// writes (the leader is dead or diverged — see module docs).
    failed_over: AtomicBool,
    /// Once set, this range is out of service entirely: its leader
    /// diverged from the broadcast order (missed a write) and no follower
    /// replica could take over. Holds the fault that poisoned it. A
    /// poisoned range is never written to or read from again — the client
    /// would transparently reconnect, and a diverged leader must not serve
    /// as if healthy.
    poisoned: OnceLock<Arc<io::Error>>,
}

/// State shared by the [`Router`] (the single writer) and every read
/// session: the immutable deployment shape plus the mutable range-health
/// flags and traffic counters. Connections are *not* here — each session
/// owns its own, which is what lets reads on different connections
/// proceed concurrently.
struct RouterShared {
    map: ShardMap,
    cfg: RouterConfig,
    endpoints: Vec<ShardEndpoint>,
    health: Vec<RangeHealth>,
    reads: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
    barrier_retries: AtomicU64,
    failovers: AtomicU64,
    poisoned: AtomicU64,
}

impl RouterShared {
    fn failed_over(&self, k: usize) -> bool {
        self.health[k].failed_over.load(Ordering::Acquire)
    }

    fn is_poisoned(&self, k: usize) -> bool {
        self.health[k].poisoned.get().is_some()
    }

    /// Whether range `k` still takes lockstep writes.
    fn is_writer(&self, k: usize) -> bool {
        !self.failed_over(k) && !self.is_poisoned(k)
    }

    /// The epoch barriers' one bounded linear backoff (the rows barrier
    /// and the top-k round): `false` once `retries` has reached
    /// [`RouterConfig::barrier_retries`]; otherwise count one more retry
    /// and sleep `retries × barrier_backoff_ms`.
    fn backoff(&self, retries: &mut u32) -> bool {
        if *retries >= self.cfg.barrier_retries {
            return false;
        }
        *retries += 1;
        self.barrier_retries.fetch_add(1, Ordering::Relaxed);
        thread::sleep(Duration::from_millis(
            self.cfg.barrier_backoff_ms * u64::from(*retries),
        ));
        true
    }
}

/// One range connection owned by a [`ReadSession`]: opened lazily on
/// first use, re-pinned to the follower once the range's shared health
/// says it failed over.
struct RangeConn {
    client: Option<NetClient>,
    on_follower: bool,
}

/// The stateless scatter-gather core: a [`ShardMap`], one client per
/// range, and the barrier/failover logic. Wrap in a [`RouterFront`] to
/// serve it over the wire, or drive it in-process.
///
/// The router is the deployment's single *writer*: lockstep requires a
/// total broadcast order, so writes serialize on `&mut self`. Reads do
/// not need that order: every connection a [`RouterFront`] accepts reads
/// on its own connections to the ranges, over the same health flags and
/// counters, concurrently with each other and with this router's calls.
pub struct Router {
    shared: Arc<RouterShared>,
    /// The router's own connections — opened eagerly at
    /// [`Router::connect`] and used by both the write path and this
    /// router's direct reads (one ordered stream per shard).
    session: ReadSession,
}

/// A client pinned to the router's tenant, connected to `addr`.
fn connect(addr: &str, tenant: u32) -> io::Result<NetClient> {
    NetClient::connect(TcpTransport::new(addr), ClientConfig { tenant })
}

/// A request-level server rejection: the shard answered the request with
/// a wire `Error` reply instead of applying it (surfaced by [`NetClient`]
/// as `ErrorKind::Other`, e.g. an exceeded tenant quota). Unlike a
/// transport fault — where the outcome is unknown — the shard is alive
/// and positively did *not* apply the write.
fn is_server_rejection(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::Other
}

impl Router {
    /// Connect one client per shard range. `endpoints[k]` serves
    /// `map.range(k)`; all connections are opened eagerly so a
    /// misconfigured deployment fails here, not mid-request.
    pub fn connect(
        map: ShardMap,
        endpoints: Vec<ShardEndpoint>,
        cfg: RouterConfig,
    ) -> io::Result<Router> {
        assert_eq!(
            endpoints.len(),
            map.num_shards(),
            "one endpoint per shard range"
        );
        let health = (0..map.num_shards())
            .map(|_| RangeHealth {
                failed_over: AtomicBool::new(false),
                poisoned: OnceLock::new(),
            })
            .collect();
        let shared = Arc::new(RouterShared {
            map,
            cfg,
            endpoints,
            health,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            barrier_retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
        });
        let mut session = ReadSession::new(shared.clone());
        for k in 0..shared.map.num_shards() {
            session.client(k)?; // eager: a bad deployment fails here
        }
        Ok(Router { shared, session })
    }

    /// The row split this router scatters over.
    pub fn map(&self) -> &ShardMap {
        &self.shared.map
    }

    /// Traffic and fault counters so far (across this router *and* every
    /// connection of a [`RouterFront`] over it — the counters are shared).
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            shards: self.shared.map.num_shards(),
            reads: self.shared.reads.load(Ordering::Relaxed),
            writes: self.shared.writes.load(Ordering::Relaxed),
            flushes: self.shared.flushes.load(Ordering::Relaxed),
            barrier_retries: self.shared.barrier_retries.load(Ordering::Relaxed),
            failovers: self.shared.failovers.load(Ordering::Relaxed),
            poisoned: self.shared.poisoned.load(Ordering::Relaxed),
        }
    }

    /// Which ranges are currently served by their follower replica.
    pub fn failed_over(&self) -> Vec<usize> {
        (0..self.shared.map.num_shards())
            .filter(|&k| self.shared.failed_over(k))
            .collect()
    }

    /// Which ranges are permanently out of service: their leader diverged
    /// on a write (missed the broadcast or went unreachable) and no
    /// follower replica could take over.
    pub fn poisoned(&self) -> Vec<usize> {
        (0..self.shared.map.num_shards())
            .filter(|&k| self.shared.is_poisoned(k))
            .collect()
    }

    /// After a diverging write fault on range `k`: the leader either
    /// missed the write or is unreachable — both mean its stream has
    /// diverged from the broadcast order and it must never serve again
    /// (module docs). Fail the range over so the follower replicates the
    /// true window stream from the remaining shards' journals; with no
    /// usable follower, poison the range permanently — the client would
    /// otherwise reconnect the diverged leader on the next call and serve
    /// it as healthy. Returns the [`RouterError::ShardDown`] to surface
    /// (after the broadcast completes) when the range is lost for good.
    fn write_fault(&mut self, k: usize, error: io::Error) -> Option<RouterError> {
        let error = Arc::new(self.session.failover(k, error).err()?);
        let _ = self.shared.health[k].poisoned.set(error.clone());
        self.shared.poisoned.fetch_add(1, Ordering::Relaxed);
        Some(RouterError::ShardDown { shard: k, error })
    }

    /// Broadcast one write-path request (`op`) to every shard that still
    /// takes writes, in lockstep order — callers serialize on `&mut
    /// self`. The broadcast always runs to completion: faults are
    /// collected and settled only after every remaining shard has seen
    /// the request, so a mid-broadcast error can never leave the
    /// survivors with divergent pending sets. Settlement: transport
    /// faults ride the failover ladder ([`Router::write_fault`]);
    /// server-level rejections do too, but *only* if some other shard
    /// applied the request — a rejection applied nowhere (e.g. a uniform
    /// tenant-quota bounce) leaves the survivors in agreement and
    /// surfaces as the request-level [`RouterError::Io`] instead.
    fn broadcast<T>(
        &mut self,
        mut op: impl FnMut(&mut NetClient) -> io::Result<T>,
    ) -> Result<Vec<T>, RouterError> {
        let mut applied = Vec::new();
        let mut faults: Vec<(usize, io::Error)> = Vec::new();
        let mut rejections: Vec<(usize, io::Error)> = Vec::new();
        for k in 0..self.shared.map.num_shards() {
            if !self.shared.is_writer(k) {
                continue;
            }
            // A writer range still holds its eagerly opened leader client
            // (failover is what clears writer status).
            let client = self.session.conns[k]
                .client
                .as_mut()
                .expect("writer range has a connected client");
            match op(client) {
                Ok(v) => applied.push(v),
                Err(e) if is_server_rejection(&e) => rejections.push((k, e)),
                Err(e) => faults.push((k, e)),
            }
        }
        let any_applied = !applied.is_empty();
        let mut down = None;
        for (k, e) in faults {
            if let Some(err) = self.write_fault(k, e) {
                down.get_or_insert(err);
            }
        }
        if any_applied {
            // A shard that rejected a request its peers applied has
            // missed a write: divergence, like any transport fault.
            for (k, e) in rejections {
                if let Some(err) = self.write_fault(k, e) {
                    down.get_or_insert(err);
                }
            }
        } else if down.is_none() {
            // No shard applied the request, so the survivors still agree:
            // a uniform server rejection is backpressure, not divergence.
            if let Some((shard, error)) = rejections.into_iter().next() {
                return Err(RouterError::Io { shard, error });
            }
        }
        match down {
            Some(err) => Err(err),
            None => Ok(applied),
        }
    }

    /// Broadcast one event batch to every healthy shard (lockstep order —
    /// callers serialize on `&mut self`). Returns the accepted count. A
    /// faulting shard is failed over to its replica (or poisoned, when it
    /// has none); the write succeeds as long as one leader
    /// remains and no range was lost outright.
    pub fn submit(&mut self, events: Vec<EdgeEvent>) -> Result<u64, RouterError> {
        self.shared.writes.fetch_add(1, Ordering::Relaxed);
        let applied = self.broadcast(|c| c.submit_events(events.clone()))?;
        applied.into_iter().next().ok_or(RouterError::NoWriters)
    }

    /// Broadcast a flush barrier; returns the epoch watermark the healthy
    /// shards reached (equal across shards in lockstep).
    pub fn flush(&mut self) -> Result<u64, RouterError> {
        self.shared.flushes.fetch_add(1, Ordering::Relaxed);
        let applied = self.broadcast(NetClient::flush)?;
        applied.into_iter().max().ok_or(RouterError::NoWriters)
    }

    /// Scatter-gather one `GetRows` across every range and merge under
    /// the epoch barrier, on this router's own connections. The merged
    /// reply is aligned with `nodes` (request order); nodes outside the
    /// subset come back `None`.
    pub fn get_rows(&mut self, nodes: &[u32]) -> Result<RowsReply, RouterError> {
        self.session.get_rows(nodes)
    }

    /// Cross-shard top-k on this router's own connections: `node`'s own
    /// row, read through the rows barrier, is scored against every range
    /// (the owner excludes `node` from its own answer), and the per-range
    /// lists merge under the canonical total order — score descending by
    /// `total_cmp`, ties by ascending **global** row — into bitwise what a
    /// single unsharded process answers. Every range must answer at the
    /// row's epoch; a flush racing between the two reads retries the
    /// whole round under the barrier's bounded backoff. The checksum is
    /// the per-range chain a merged `GetRows` carries at the same epoch.
    pub fn top_k(&mut self, node: u32, k: u32, metric: Metric) -> Result<TopKReply, RouterError> {
        self.session.top_k(node, k, metric, None)
    }

    /// Flush, then tell every healthy leader to shut down (clean
    /// deployment teardown — staged windows drain server-side before the
    /// ack). Followers are owned by whoever deployed them.
    pub fn shutdown_shards(&mut self) {
        let _ = self.flush();
        for k in 0..self.shared.map.num_shards() {
            if !self.shared.is_writer(k) {
                continue;
            }
            if let Some(client) = self.session.conns[k].client.as_mut() {
                let _ = client.shutdown_server();
            }
        }
    }
}

/// An independent read path over a router deployment: one lazily opened
/// connection per shard range, scatter-gather/barrier/merge logic, and
/// the shared health flags. A [`RouterFront`] gives every incoming
/// connection its own session, so concurrent reads from different
/// connections proceed in parallel — only writes serialize (on the
/// [`Router`] itself, whose lock *is* the lockstep order). A session is
/// a single ordered request stream per range (methods take `&mut self`).
struct ReadSession {
    shared: Arc<RouterShared>,
    conns: Vec<RangeConn>,
}

impl ReadSession {
    fn new(shared: Arc<RouterShared>) -> ReadSession {
        let conns = (0..shared.map.num_shards())
            .map(|_| RangeConn {
                client: None,
                on_follower: false,
            })
            .collect();
        ReadSession { shared, conns }
    }

    /// The connected client for range `k`: opened on first use, and
    /// re-pinned to the follower when the shared health says the range
    /// failed over (a leader another path declared diverged must not be
    /// re-dialed here).
    fn client(&mut self, k: usize) -> io::Result<&mut NetClient> {
        let fo = self.shared.failed_over(k);
        let endpoint = &self.shared.endpoints[k];
        let conn = &mut self.conns[k];
        if conn.client.is_none() || (fo && !conn.on_follower) {
            let addr = if fo {
                let follower = endpoint.follower.as_deref();
                follower.expect("failed-over range has a follower endpoint")
            } else {
                &endpoint.addr
            };
            conn.client = Some(connect(addr, self.shared.cfg.tenant)?);
            conn.on_follower = fo;
        }
        Ok(conn.client.as_mut().expect("connection just opened"))
    }

    /// Switch range `k` to its follower replica and publish the failover
    /// to the shared health (every other session re-pins on its next
    /// touch of the range). Idempotent. Fails with `cause` when no
    /// follower is configured, or with the follower's connect error.
    fn failover(&mut self, k: usize, cause: io::Error) -> io::Result<()> {
        if self.shared.failed_over(k) && self.conns[k].on_follower {
            return Ok(());
        }
        let Some(follower) = &self.shared.endpoints[k].follower else {
            return Err(cause);
        };
        self.conns[k].client = Some(connect(follower, self.shared.cfg.tenant)?);
        self.conns[k].on_follower = true;
        if !self.shared.health[k]
            .failed_over
            .swap(true, Ordering::AcqRel)
        {
            self.shared.failovers.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// One synchronous range call with the failover ladder: a dead
    /// transport on the leader switches to the follower and retries
    /// there; request-level faults (corrupt frame, server error) fail
    /// only this request.
    fn range_call<T>(
        &mut self,
        k: usize,
        op: impl Fn(&mut NetClient) -> io::Result<T>,
    ) -> Result<T, RouterError> {
        let down = |error| RouterError::ShardDown {
            shard: k,
            error: Arc::new(error),
        };
        match self.client(k).and_then(&op) {
            Ok(r) => Ok(r),
            Err(e) if is_transient(&e) && !self.conns[k].on_follower => {
                self.failover(k, e).map_err(down)?;
                self.client(k).and_then(&op).map_err(down)
            }
            Err(e) if is_transient(&e) => Err(down(e)),
            Err(error) => Err(RouterError::Io { shard: k, error }),
        }
    }

    /// Fail fast when any range is poisoned: it has no server and no
    /// replica, and every merged read needs all ranges (if only as an
    /// epoch probe) — re-dialing the diverged leader through the client's
    /// transparent reconnect would serve it as healthy.
    fn check_poisoned(&self) -> Result<(), RouterError> {
        for (shard, health) in self.shared.health.iter().enumerate() {
            if let Some(error) = health.poisoned.get() {
                let error = error.clone();
                return Err(RouterError::ShardDown { shard, error });
            }
        }
        Ok(())
    }

    /// Split-phase scatter of one request per range, gathering every
    /// in-flight reply (skipping one on a fault would leave its bytes in
    /// the socket and poison the next request on that connection). Then
    /// each range whose transport died gets the same request again
    /// through [`range_call`](Self::range_call) — which is where failover
    /// happens. `parse` extracts the expected reply variant.
    fn scatter<T>(
        &mut self,
        mk_req: impl Fn(usize) -> Request,
        parse: impl Fn(Reply) -> io::Result<T>,
    ) -> Result<Vec<T>, RouterError> {
        let n = self.shared.map.num_shards();
        let sent: Vec<io::Result<u64>> = (0..n)
            .map(|k| self.client(k).and_then(|c| c.dispatch(&mk_req(k))))
            .collect();
        let gathered: Vec<io::Result<T>> = sent
            .into_iter()
            .enumerate()
            .map(|(k, sent)| {
                let client = self.conns[k].client.as_mut();
                sent.and_then(|id| client.expect("dispatched range has a client").collect(id))
                    .and_then(&parse)
            })
            .collect();
        gathered
            .into_iter()
            .enumerate()
            .map(|(k, got)| match got {
                Err(e) if is_transient(&e) => {
                    self.range_call(k, |c| c.call(mk_req(k)).and_then(&parse))
                }
                got => got.map_err(|error| RouterError::Io { shard: k, error }),
            })
            .collect()
    }

    /// Scatter-gather one `GetRows` across every range and merge under
    /// the epoch barrier. The merged reply is aligned with `nodes`
    /// (request order); nodes outside the subset come back `None`.
    fn get_rows(&mut self, nodes: &[u32]) -> Result<RowsReply, RouterError> {
        self.shared.reads.fetch_add(1, Ordering::Relaxed);
        self.get_rows_inner(nodes)
    }

    fn get_rows_inner(&mut self, nodes: &[u32]) -> Result<RowsReply, RouterError> {
        self.check_poisoned()?;
        let plan = self.shared.map.plan(nodes);
        let n = self.shared.map.num_shards();
        let mut replies = self.scatter(
            |k| Request::GetRows(plan.shard_nodes(k).to_vec()),
            |reply| match reply {
                Reply::Rows(r) => Ok(r),
                other => Err(unexpected(&other)),
            },
        )?;

        // Epoch barrier: re-probe every range below the freshest epoch
        // until all agree or the bounded retries run out.
        let mut retries = 0u32;
        loop {
            let target = replies.iter().map(|r| r.epoch).max().expect("n >= 1");
            let lagging: Vec<usize> = (0..n).filter(|&k| replies[k].epoch < target).collect();
            let Some(&first) = lagging.first() else {
                return self.shared.map.merge(&plan, &replies);
            };
            if !self.shared.backoff(&mut retries) {
                return Err(RouterError::EpochBarrier {
                    target,
                    shard: first,
                    stuck_at: replies[first].epoch,
                    retries,
                });
            }
            for k in lagging {
                replies[k] = self.range_call(k, |c| c.get_rows(plan.shard_nodes(k)))?;
            }
        }
    }

    /// Cross-shard top-k ([`Router::top_k`]): resolve the query vector
    /// (via an epoch-barriered [`get_rows`](Self::get_rows) when `query`
    /// is `None`), scatter a [`Request::TopK`] carrying the explicit
    /// vector to *every* range, and merge the per-range lists. Every
    /// reply must answer at one epoch — the row's, or with an explicit
    /// vector the first range's; a flush racing between the two phases,
    /// or a failed-over range answering from a follower at another epoch,
    /// retries the whole round.
    ///
    /// The merged neighbor list is bitwise identical to what a single
    /// unsharded process answers: per-range scores are computed by the
    /// same sequential kernel, and each range's local-row tie order is the
    /// global order restricted to its contiguous range.
    fn top_k(
        &mut self,
        node: u32,
        k: u32,
        metric: Metric,
        query: Option<Vec<f64>>,
    ) -> Result<TopKReply, RouterError> {
        self.shared.reads.fetch_add(1, Ordering::Relaxed);
        let mut rounds = 0u32;
        loop {
            // Phase 1: the query vector and the anchor epoch.
            let (anchor, q) = match &query {
                Some(q) => (None, q.clone()),
                None => {
                    let rows = self.get_rows_inner(&[node])?;
                    match rows.rows.into_iter().next().flatten() {
                        Some(q) => (Some(rows.epoch), q),
                        None => {
                            // Outside the subset: same not-found answer a
                            // single shard gives, at the barriered epoch.
                            return Ok(TopKReply {
                                epoch: rows.epoch,
                                checksum_bits: rows.checksum_bits,
                                found: false,
                                neighbors: Vec::new(),
                            });
                        }
                    }
                }
            };
            // Phase 2: scatter the explicit-vector form everywhere.
            let replies = self.scatter(
                |_| Request::TopK {
                    node,
                    k,
                    metric,
                    query: Some(q.clone()),
                },
                |reply| match reply {
                    Reply::TopKReply(t) => Ok(t),
                    other => Err(unexpected(&other)),
                },
            )?;
            let epoch = anchor.unwrap_or(replies[0].epoch);
            if replies.iter().all(|r| r.epoch == epoch) {
                return self.merge_top_k(epoch, k, &replies);
            }
            if !self.shared.backoff(&mut rounds) {
                let freshest = replies.iter().map(|r| r.epoch).max().expect("n >= 1");
                let (shard, stuck_at) = replies
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.epoch < freshest)
                    .map(|(sk, r)| (sk, r.epoch))
                    .next()
                    .unwrap_or((0, epoch));
                return Err(RouterError::EpochBarrier {
                    target: freshest,
                    shard,
                    stuck_at,
                    retries: rounds,
                });
            }
        }
    }

    /// Merge per-range top-k lists answered at one agreed epoch.
    fn merge_top_k(
        &self,
        epoch: u64,
        k: u32,
        replies: &[TopKReply],
    ) -> Result<TopKReply, RouterError> {
        let mut checksum = CHECKSUM_OFFSET;
        let mut hits: Vec<(f64, usize, u32)> = Vec::new();
        for (sk, r) in replies.iter().enumerate() {
            checksum = fnv1a64(checksum, &r.checksum_bits.to_le_bytes());
            for &(nd, score) in &r.neighbors {
                let row = self.shared.map.global_row(nd).ok_or_else(|| {
                    RouterError::Merge(format!(
                        "shard {sk} answered neighbor {nd} outside the shard map"
                    ))
                })?;
                hits.push((score, row, nd));
            }
        }
        // The canonical total order: score descending (total_cmp), ties
        // by ascending global row — identical to a single shard's order.
        hits.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        hits.truncate(k as usize);
        Ok(TopKReply {
            epoch,
            checksum_bits: checksum,
            found: true,
            neighbors: hits.into_iter().map(|(score, _, nd)| (nd, score)).collect(),
        })
    }
}

/// Shared state of a [`RouterFront`] and its connection threads.
struct FrontInner {
    /// Taken (→ `None`) by [`RouterFront::shutdown`].
    router: Mutex<Option<Router>>,
    /// The same deployment the router scatters over, for per-connection
    /// [`ReadSession`]s — reads bypass the router lock entirely.
    shared: Arc<RouterShared>,
    /// The tenant every request must name (the router pins one).
    tenant: u32,
    /// Listener and connection threads, and the stop flag.
    conns: Arc<Conns>,
}

/// Serves a [`Router`] over the same wire protocol the shards speak, so
/// any [`NetClient`] can talk to the deployment without knowing it is
/// sharded. *Write-path* requests across all connections are serialized
/// through the router's lock — that serialization *is* the lockstep
/// write order the shards' journals rely on.
///
/// **Reads do not serialize.** Every accepted connection owns a read
/// session — its own connection per shard range over the shared health
/// flags and counters — so `GetRows` and `TopK` from different
/// connections scatter-gather in parallel, including across any
/// epoch-barrier backoff sleeps and even while a write holds the router
/// lock. The shards' epoch/checksum guards keep every session's merges
/// consistent, and a failover observed by one path is published to all
/// of them through the shared health.
pub struct RouterFront {
    inner: Arc<FrontInner>,
}

impl RouterFront {
    /// Wrap a connected router. Call [`RouterFront::listen`] to accept.
    pub fn start(router: Router) -> RouterFront {
        let tenant = router.shared.cfg.tenant;
        let shared = router.shared.clone();
        RouterFront {
            inner: Arc::new(FrontInner {
                router: Mutex::new(Some(router)),
                shared,
                tenant,
                conns: Conns::new("tsvd-router"),
            }),
        }
    }

    /// Bind a TCP listener (port 0 for OS-assigned) and start accepting.
    pub fn listen(&self, addr: &str) -> io::Result<SocketAddr> {
        let inner = self.inner.clone();
        self.inner.conns.listen(addr, move |duplex| {
            serve_connection(&inner, duplex, MAX_PAYLOAD)
        })
    }

    /// Whether a client's `Shutdown` (or [`RouterFront::shutdown`]) has
    /// stopped the front.
    pub fn is_stopped(&self) -> bool {
        self.inner.conns.is_stopped()
    }

    /// Block (polling) until stopped or `timeout` elapses.
    pub fn wait_stopped(&self, timeout: Duration) -> bool {
        self.inner.conns.wait_stopped(timeout)
    }

    /// Stop listeners and connections and take the router back (`None` if
    /// a wire `Shutdown` already consumed it — it shut the shards down).
    pub fn shutdown(self) -> Option<Router> {
        self.inner.conns.shutdown();
        self.inner.router.lock().unwrap().take()
    }
}

/// One router connection, served to completion on the calling thread:
/// reads over the connection's own [`ReadSession`], writes against the
/// shared router under its lock. Concurrency comes from multiple
/// connections. Replies over `cap` payload bytes are answered with a
/// typed error.
fn serve_connection(inner: &FrontInner, duplex: Duplex, cap: u32) {
    let mut conn = RouterConn {
        session: ReadSession::new(inner.shared.clone()),
        inner,
    };
    conn::serve(
        &mut conn,
        duplex.reader,
        FrameWriter::with_cap(duplex.writer, cap as usize),
        &inner.conns.stop,
    );
}

/// A [`RouterFront`] connection's request handler.
struct RouterConn<'a> {
    inner: &'a FrontInner,
    session: ReadSession,
}

impl Handler for RouterConn<'_> {
    /// Execute one request. Reads (`GetRows`, `TopK`) run on this
    /// connection's own session — off the router lock, so they proceed
    /// while a write from another connection is in flight. Write-path
    /// requests serialize under the router's lock (that order *is*
    /// lockstep). Faults map to `Reply::Error` — a request-level answer;
    /// the connection stays open unless the router itself is gone.
    fn execute(&mut self, tenant: u32, req: Request) -> (Reply, bool) {
        let inner = self.inner;
        if tenant != inner.tenant {
            return (
                Reply::Error(format!(
                    "router pins tenant {}, request named {tenant}",
                    inner.tenant
                )),
                false,
            );
        }
        // Read path: no router lock. A wire Shutdown (or front shutdown)
        // raises `stop` before the router is consumed, so the flag is the
        // liveness check here.
        match req {
            Request::Ping => return (Reply::Pong, false),
            Request::GetRows(ref nodes) => {
                if inner.conns.is_stopped() {
                    return (Reply::Error("router is shut down".into()), true);
                }
                return match self.session.get_rows(nodes) {
                    Ok(rows) => (Reply::Rows(rows), false),
                    Err(e) => (Reply::Error(e.to_string()), false),
                };
            }
            Request::TopK {
                node,
                k,
                metric,
                ref query,
            } => {
                if inner.conns.is_stopped() {
                    return (Reply::Error("router is shut down".into()), true);
                }
                return match self.session.top_k(node, k, metric, query.clone()) {
                    Ok(t) => (Reply::TopKReply(t), false),
                    Err(e) => (Reply::Error(e.to_string()), false),
                };
            }
            _ => {}
        }
        let mut guard = inner.router.lock().unwrap();
        let Some(router) = guard.as_mut() else {
            return (Reply::Error("router is shut down".into()), true);
        };
        match req {
            Request::Ping | Request::GetRows(_) | Request::TopK { .. } => {
                unreachable!("read path handled above")
            }
            Request::SubmitEvents(events) => match router.submit(events) {
                Ok(accepted) => (Reply::SubmitAck { accepted }, false),
                Err(e) => (Reply::Error(e.to_string()), false),
            },
            Request::Flush => match router.flush() {
                Ok(epoch) => (Reply::FlushAck { epoch }, false),
                Err(e) => (Reply::Error(e.to_string()), false),
            },
            Request::GetEmbedding => (
                Reply::Error(
                    "router serves GetRows only: a cross-shard embedding has no \
                     single-process checksum"
                        .into(),
                ),
                false,
            ),
            Request::GetStats | Request::GetWindows { .. } | Request::GetCheckpoint => (
                Reply::Error("not served by the router tier; ask a shard directly".into()),
                false,
            ),
            Request::Shutdown => {
                router.shutdown_shards();
                *guard = None;
                inner.conns.stop.store(true, Ordering::Release);
                (Reply::ShutdownAck, true)
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::net::conn::tests::Served;
    use crate::net::frontend::tests::server;
    use crate::{EmbeddingReader, NetFront};

    /// A `RouterFront` over eight subset rows on two `NetFront` shards.
    pub(crate) fn served() -> Served {
        let sources: Vec<u32> = (0..8).collect();
        let map = ShardMap::even_split(&sources, 2);
        let shards: Vec<(NetFront, ShardEndpoint, EmbeddingReader)> = (0..2)
            .map(|k| {
                let handle = server(map.sources_of(k));
                let reader = handle.reader_for(0).expect("tenant 0");
                let front = NetFront::start(handle);
                let addr = front.listen("127.0.0.1:0").unwrap();
                (front, ShardEndpoint::leader_only(addr.to_string()), reader)
            })
            .collect();
        let endpoints = shards.iter().map(|(_, e, _)| e.clone()).collect();
        let router = Router::connect(map, endpoints, RouterConfig::default()).unwrap();
        let front = RouterFront::start(router);
        let inner = front.inner.clone();
        Served {
            serve: Box::new(move |duplex, cap| {
                let conn = inner.clone();
                inner
                    .conns
                    .spawn(move || serve_connection(&conn, duplex, cap));
            }),
            reader: shards[0].2.clone(),
            shutdown: Box::new(move || {
                drop(front.shutdown());
                for (shard, _, _) in shards {
                    drop(shard.shutdown());
                }
            }),
        }
    }

    fn reply(epoch: u64, checksum_bits: u64, dim: u32, rows: Vec<Option<Vec<f64>>>) -> RowsReply {
        RowsReply {
            epoch,
            checksum_bits,
            dim,
            rows,
        }
    }

    #[test]
    fn even_split_tiles_with_base_rem_rule() {
        let sources: Vec<u32> = (0..11).map(|i| i * 3).collect();
        let map = ShardMap::even_split(&sources, 4);
        assert_eq!(map.num_shards(), 4);
        // 11 rows over 4 shards: 3, 3, 3, 2.
        assert_eq!(map.range(0), (0, 3));
        assert_eq!(map.range(1), (3, 6));
        assert_eq!(map.range(2), (6, 9));
        assert_eq!(map.range(3), (9, 11));
        assert_eq!(map.sources_of(3), &[27, 30]);
        // 10 rows over 4 shards: 3, 3, 2, 2 (a `div_ceil` rule would give
        // 3, 3, 3, 1, which 11 rows cannot tell apart).
        let ten = ShardMap::even_split(&sources[..10], 4);
        let ranges: Vec<_> = (0..4).map(|k| ten.range(k)).collect();
        assert_eq!(ranges, [(0, 3), (3, 6), (6, 8), (8, 10)]);
        // Clamped: more shards than rows degenerates to one row each.
        assert_eq!(ShardMap::even_split(&[5, 6], 10).num_shards(), 2);
    }

    #[test]
    fn plan_routes_by_owner_and_keeps_probe_entries() {
        let s: Vec<u32> = vec![10, 20, 30, 40];
        let map = ShardMap::even_split(&s, 2);
        // 99 is outside the subset; shard 1 gets nodes, shard 0 a probe.
        let plan = map.plan(&[40, 99, 30]);
        assert_eq!(plan.shard_nodes(0), &[] as &[u32]);
        assert_eq!(plan.shard_nodes(1), &[40, 30]);
        assert_eq!(plan.total, 3);
    }

    #[test]
    fn merge_reassembles_request_order_and_chains_checksums() {
        let s: Vec<u32> = vec![10, 20, 30, 40];
        let map = ShardMap::even_split(&s, 2);
        let plan = map.plan(&[40, 99, 10]);
        let replies = vec![
            reply(5, 111, 2, vec![Some(vec![1.0, 2.0])]), // shard 0: node 10
            reply(5, 222, 2, vec![Some(vec![3.0, 4.0])]), // shard 1: node 40
        ];
        let merged = map.merge(&plan, &replies).unwrap();
        assert_eq!(merged.epoch, 5);
        assert_eq!(merged.dim, 2);
        assert_eq!(merged.rows.len(), 3);
        assert_eq!(merged.rows[0], Some(vec![3.0, 4.0])); // 40
        assert_eq!(merged.rows[1], None); // 99: not in subset
        assert_eq!(merged.rows[2], Some(vec![1.0, 2.0])); // 10
        let expect = fnv1a64(
            fnv1a64(CHECKSUM_OFFSET, &111u64.to_le_bytes()),
            &222u64.to_le_bytes(),
        );
        assert_eq!(merged.checksum_bits, expect);
    }

    #[test]
    fn merge_rejects_row_count_gap_and_overlap() {
        let s: Vec<u32> = vec![1, 2, 3, 4];
        let map = ShardMap::even_split(&s, 2);
        let plan = map.plan(&[1, 3]);
        // Shard 1 answers zero slots for one requested node: a gap.
        let gap = map
            .merge(
                &plan,
                &[
                    reply(1, 0, 2, vec![Some(vec![0.0, 0.0])]),
                    reply(1, 0, 2, vec![]),
                ],
            )
            .unwrap_err();
        assert!(gap.to_string().contains("gap"), "{gap}");
        // Shard 1 answers two slots for one requested node: an overlap.
        let overlap = map
            .merge(
                &plan,
                &[
                    reply(1, 0, 2, vec![Some(vec![0.0, 0.0])]),
                    reply(1, 0, 2, vec![None, None]),
                ],
            )
            .unwrap_err();
        assert!(overlap.to_string().contains("overlap"), "{overlap}");
    }

    #[test]
    fn merge_rejects_epoch_and_dim_mismatch() {
        let s: Vec<u32> = vec![1, 2];
        let map = ShardMap::even_split(&s, 2);
        let plan = map.plan(&[]);
        let torn = map
            .merge(&plan, &[reply(3, 0, 2, vec![]), reply(4, 0, 2, vec![])])
            .unwrap_err();
        assert!(matches!(torn, RouterError::Merge(_)), "{torn}");
        assert!(torn.to_string().contains("torn"), "{torn}");
        let dim = map
            .merge(&plan, &[reply(3, 0, 2, vec![]), reply(3, 0, 4, vec![])])
            .unwrap_err();
        assert!(dim.to_string().contains("dim"), "{dim}");
    }
}

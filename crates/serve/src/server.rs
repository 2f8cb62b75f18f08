//! The serving front: a dedicated reactor thread that batches incoming
//! edge events, applies each flushed window to a whole [`TenantHost`], and
//! publishes each tenant's new epoch through its own [`EpochCell`].
//!
//! ```text
//!  submit_batch_to(tenant)  ┌──────────────────────────────────────────────┐
//!  ────────────────────────▶│ Inner::run (one thread, owns Receiver<Msg>)  │
//!   mpsc::Sender<Msg>       │   pending ── count/deadline ──▶ flush:       │
//!   (per-tenant quota       │     coalesce (shared scratch, per-tenant     │
//!    checked at admission)  │       applied/coalesced attribution)         │
//!                           │     WAL append (if a sink is attached)       │
//!                           │     TenantHost::apply_batch:                 │
//!                           │       record on the shared graph — ONCE      │
//!                           │       round-robin over tenants:              │
//!                           │         replay + refresh (pool)              │
//!                           │         → tenant EpochCell::store(snapshot)  │
//!  reader_for(tenant) ◀─────│                                              │
//!   Arc swap load           └──────────────────────────────────────────────┘
//! ```
//!
//! The edge stream is **global**: every flushed window is recorded on the
//! shared graph exactly once and replayed into every tenant's pipeline (the
//! shared graph demands it — a tenant that skipped a window would diverge
//! from the graph its PPR states are defined over). Submissions are
//! tenant-*tagged* for admission control and accounting: the per-tenant
//! `submitted/applied/coalesced` counters attribute each event of a window
//! to its submitting tenant, so `submitted = applied + coalesced + pending`
//! holds per tenant and the host rollup sums to the global stream.
//!
//! A flush fires when the pending buffer reaches
//! [`ServeConfig::flush_max_events`] **or** when the oldest pending event
//! turns [`ServeConfig::flush_interval`] old, whichever comes first. The
//! reactor's only timer is that one deadline (`Inner::deadline`): a later
//! submission never pushes it out, and any flush clears it. The loop
//! blocks in `recv` with no deadline set and in `recv_timeout` with one;
//! a due deadline flushes before the next message is taken. When every
//! sender is gone the loop flushes and stops as `Shutdown` does. Readers
//! are fully decoupled: [`EmbeddingReader::snapshot`] is an `Arc` clone
//! under a nanoseconds-scale read lock and never waits on a flush.
//!
//! Flushes are serial: the reactor owns the host and runs each window to
//! completion, so when `flush` returns every tenant serves the new epoch
//! and `flush_sync`, checkpoints and `shutdown` need no draining. Within a
//! window, tenant `k` is published as soon as its own refresh returns,
//! before tenant `k + 1` starts its replay. **Fairness:** each flush walks
//! the tenants starting from a cursor that rotates by one per flush, so no
//! tenant permanently goes first (pays the cold pool) or last (publishes
//! latest).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use tsvd_core::UpdateStats;
use tsvd_graph::{CoalesceScratch, EdgeEvent};

use crate::checkpoint::write_host;
use crate::config::ServeConfig;
use crate::engine::{ShardedEngine, TenantEngine};
use crate::journal::{DurabilitySink, JournalError, JournalWindows, WindowJournal, JOURNAL_KEEP};
use crate::snapshot::{EpochCell, EpochSnapshot, Publisher};
use crate::stats::{HostStats, ServeStats, StatsReply};
use crate::tenant::{TenantHost, TenantId};

/// Tenant id a single-engine server registers its engine under, and the id
/// the tenant-unaware handle methods route to.
pub const DEFAULT_TENANT: TenantId = 0;

/// Messages understood by the serving reactor.
enum Msg {
    /// New events for the pending window, tagged with the submitting
    /// tenant's slot (for per-tenant attribution — the window itself is
    /// global).
    Events(usize, Vec<EdgeEvent>),
    /// Flush whatever is pending now; ack with the epoch watermark every
    /// tenant has then published.
    Flush(mpsc::Sender<u64>),
    /// Checkpoint the host as it stands (do NOT flush pending events) and
    /// send back `(epoch, checkpoint file bytes)` — what the
    /// `GetCheckpoint` wire request serves to re-seeding followers.
    Snapshot(mpsc::Sender<(u64, Vec<u8>)>),
    /// Flush, stop the loop, and hand the host back.
    Shutdown(mpsc::Sender<TenantHost>),
}

/// Why a submission was rejected at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// No tenant with this id is registered on the server.
    UnknownTenant(TenantId),
    /// The tenant's submitted-but-unapplied backlog would exceed
    /// [`ServeConfig::tenant_quota`]. Back off and retry after a flush;
    /// other tenants are unaffected.
    QuotaExceeded {
        /// The rejected tenant.
        tenant: TenantId,
        /// Its backlog at admission time.
        pending: u64,
        /// The configured quota.
        quota: u64,
    },
    /// The server thread is gone.
    Closed,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::UnknownTenant(id) => write!(f, "unknown tenant {id}"),
            SubmitError::QuotaExceeded {
                tenant,
                pending,
                quota,
            } => write!(
                f,
                "tenant {tenant} quota exceeded ({pending} pending ≥ quota {quota})"
            ),
            SubmitError::Closed => write!(f, "server is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Cross-thread counters shared by the reactor and every handle/reader,
/// one set per tenant.
#[derive(Default)]
struct Counters {
    /// Events accepted by `submit`/`submit_batch` for this tenant (may
    /// still be in flight).
    submitted: AtomicU64,
    /// Window events attributed to this tenant and applied (the tenant's
    /// submissions that survived coalescing).
    applied: AtomicU64,
    /// This tenant's submissions dropped by last-write-wins coalescing.
    coalesced: AtomicU64,
    /// Flushes executed (== epochs published since start).
    batches: AtomicU64,
    /// Flush wall-clock (trigger → publish), nanoseconds: cumulative /
    /// last / worst. With several tenants this includes the time the
    /// window spent on the tenants walked before this one.
    flush_nanos_total: AtomicU64,
    flush_nanos_last: AtomicU64,
    flush_nanos_max: AtomicU64,
    /// Level-1 block refactorisations, cumulative across flushes.
    blocks_refactored: AtomicU64,
}

/// Host-level counters (shared-ingest scope, not per tenant).
#[derive(Default)]
struct HostCounters {
    /// Mirror of `TenantHost::batches_recorded`, published per flush.
    batches_recorded: AtomicU64,
}

/// Reactor-side per-tenant state (single-threaded: no locks needed).
struct TenantState {
    publisher: Publisher,
    counters: Arc<Counters>,
}

impl TenantState {
    /// Account for and publish this tenant's refresh of one window:
    /// `applied` of the window's events were this tenant's surviving
    /// submissions, `coalesced` its submissions dropped by coalescing.
    fn complete(
        &mut self,
        engine: &TenantEngine,
        stats: &UpdateStats,
        t_trigger: Instant,
        applied: u64,
        coalesced: u64,
    ) {
        let nanos = t_trigger.elapsed().as_nanos() as u64;
        // Counters first, publish second: once a reader observes the new
        // epoch in the cell, every counter already accounts for this flush
        // (`batches ≥ epoch`, `applied + coalesced` covers every published
        // window). The reverse order let `stats()` pair a fresh epoch with
        // stale counters. Within the timing counters, `max` is raised
        // before `last` is overwritten so `max ≥ last` holds for any
        // interleaved reader.
        let c = &self.counters;
        c.applied.fetch_add(applied, Ordering::Release);
        c.coalesced.fetch_add(coalesced, Ordering::Release);
        c.flush_nanos_total.fetch_add(nanos, Ordering::Release);
        c.flush_nanos_max.fetch_max(nanos, Ordering::Release);
        c.flush_nanos_last.store(nanos, Ordering::Release);
        c.blocks_refactored
            .fetch_add(stats.blocks_recomputed as u64, Ordering::Release);
        c.batches.fetch_add(1, Ordering::Release);
        self.publisher.publish(engine);
    }
}

/// Reactor-side state.
struct Inner {
    /// The whole host: shared graph + every tenant's engine.
    host: TenantHost,
    /// Publish side of each tenant, in the host's slot order.
    tenants: Vec<TenantState>,
    cfg: ServeConfig,
    /// The open (pre-coalesce) global window...
    pending: Vec<EdgeEvent>,
    /// ...and the submitting tenant's slot of each pending event.
    pending_tags: Vec<u32>,
    /// Coalesce workspace, reused across flushes (the `PushScratch` fix
    /// applied to the window map).
    scratch: CoalesceScratch,
    keep: Vec<bool>,
    /// Round-robin cursor: which tenant goes first this flush.
    rr: usize,
    counters: Arc<HostCounters>,
    /// Durable write-ahead sink: every flushed window is appended (and
    /// fsync'd) here *before* it is recorded or any tenant commits, so a
    /// published epoch is always recoverable. `None` = no durability.
    sink: Option<Box<dyn DurabilitySink>>,
    /// Bounded in-memory tail of recent windows, shared with the handle —
    /// what `GetWindows` serves to followers.
    journal: Arc<WindowJournal>,
    /// When the open window must flush: its first event's arrival plus
    /// the flush interval. `None` while nothing is pending.
    deadline: Option<Instant>,
}

impl Inner {
    /// Flush the pending window: coalesce it (attributing survivors and
    /// drops to their submitting tenants), make it durable, and apply it
    /// to the host — recorded **once** on the shared graph, then each
    /// tenant in round-robin order replays it, refreshes and publishes.
    fn flush(&mut self) {
        self.deadline = None;
        if self.pending.is_empty() {
            return;
        }
        let t_trigger = Instant::now();
        let raw = std::mem::take(&mut self.pending);
        let tags = std::mem::take(&mut self.pending_tags);
        let nt = self.tenants.len();
        let mut applied = vec![0u64; nt];
        let mut coalesced = vec![0u64; nt];
        let survivors = self.scratch.mark_survivors(&raw, &mut self.keep);
        let mut window = Vec::with_capacity(survivors);
        for (i, e) in raw.iter().enumerate() {
            if self.keep[i] {
                applied[tags[i] as usize] += 1;
                window.push(*e);
            } else {
                coalesced[tags[i] as usize] += 1;
            }
        }
        // Durability barrier: the window must be on disk before the graph
        // records it or any tenant can publish it — a crash after this
        // point replays the window; a crash before it never published it.
        // A failed append is a broken durability guarantee, not a
        // recoverable condition: continuing would publish epochs a
        // recovery cannot reproduce.
        let epoch = self.host.batches_recorded() + 1;
        if let Some(sink) = &mut self.sink {
            if let Err(e) = sink.append_window(epoch, &window) {
                panic!("WAL append for epoch {epoch} failed: {e}");
            }
        }
        // The recording mirror and the follower feed go first, so a rollup
        // never shows an epoch the recording counter has not covered.
        self.counters
            .batches_recorded
            .store(epoch, Ordering::Release);
        self.journal.push(epoch, &window);
        // Fairness: rotate which tenant goes first (and publishes first).
        let tenants = &mut self.tenants;
        self.host
            .apply_batch_with(&window, self.rr, |slot, engine, stats| {
                tenants[slot].complete(engine, &stats, t_trigger, applied[slot], coalesced[slot]);
            });
        self.rr = (self.rr + 1) % nt;
        // Periodic checkpoint: every `cfg.checkpoint_every` flushed
        // windows (and only with a sink attached).
        let every = self.cfg.checkpoint_every;
        if every != 0 && epoch.is_multiple_of(every) {
            self.checkpoint();
        }
    }

    /// Hand the host to the sink (if one is attached), which writes it out
    /// and compacts the WAL behind the checkpointed epoch. Nothing
    /// publishes while it does. Same failure policy as the append path.
    fn checkpoint(&mut self) {
        if let Some(sink) = &mut self.sink {
            let epoch = self.host.batches_recorded();
            if let Err(e) = sink.checkpoint(epoch, &self.host) {
                panic!("checkpoint at epoch {epoch} failed: {e}");
            }
        }
    }

    /// The epoch watermark every tenant has published.
    fn min_epoch(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| t.publisher.cell().epoch())
            .min()
            .unwrap_or(0)
    }

    fn on_events(&mut self, slot: usize, events: Vec<EdgeEvent>) {
        if events.is_empty() {
            return;
        }
        self.pending_tags
            .resize(self.pending_tags.len() + events.len(), slot as u32);
        self.pending.extend(events);
        if self.pending.len() >= self.cfg.flush_max_events {
            self.flush();
        } else if self.deadline.is_none() {
            // Deadline counts from the window's *oldest* event, i.e. from
            // the first submission after the previous flush.
            self.deadline = Some(Instant::now() + self.cfg.flush_interval());
        }
    }

    /// The reactor: take messages in send order until `Shutdown` (whose
    /// reply channel is returned) or until every sender is gone (`None`),
    /// flushing what is pending either way.
    fn run(&mut self, rx: mpsc::Receiver<Msg>) -> Option<mpsc::Sender<TenantHost>> {
        loop {
            let msg = match self.deadline {
                // A due deadline flushes before the next message is taken.
                Some(due) if due <= Instant::now() => {
                    self.flush();
                    continue;
                }
                Some(due) => match rx.recv_timeout(due.saturating_duration_since(Instant::now())) {
                    Err(RecvTimeoutError::Timeout) => continue,
                    got => got.ok(),
                },
                None => rx.recv().ok(),
            };
            match msg {
                Some(Msg::Events(slot, events)) => self.on_events(slot, events),
                Some(Msg::Flush(ack)) => {
                    self.flush();
                    let _ = ack.send(self.min_epoch());
                }
                Some(Msg::Snapshot(tx)) => {
                    // A cut at whatever is *recorded*: pending (unflushed)
                    // events belong to a later epoch.
                    let epoch = self.host.batches_recorded();
                    let mut file = Vec::new();
                    write_host(&mut file, epoch, &self.host).expect("writing to a Vec");
                    let _ = tx.send((epoch, file));
                }
                Some(Msg::Shutdown(tx)) => {
                    self.flush();
                    return Some(tx);
                }
                None => {
                    self.flush();
                    return None;
                }
            }
        }
    }
}

/// A running embedding server: owns a [`TenantHost`] behind a reactor
/// thread. Construct with [`EmbeddingServer::start`] (one engine, tenant
/// [`DEFAULT_TENANT`]) or [`EmbeddingServer::start_host`] (N registered
/// tenants); interact through the returned [`ServerHandle`].
pub struct EmbeddingServer;

/// Handle-side per-tenant shared state.
struct TenantHandle {
    id: TenantId,
    cell: Arc<EpochCell>,
    counters: Arc<Counters>,
}

impl EmbeddingServer {
    /// Spawn the reactor thread over a single engine (registered as tenant
    /// [`DEFAULT_TENANT`]) and return its handle.
    pub fn start(engine: ShardedEngine, cfg: ServeConfig) -> ServerHandle {
        Self::start_host(TenantHost::from_engine(engine, DEFAULT_TENANT), cfg)
    }

    /// Spawn the reactor thread over a host with at least one registered
    /// tenant and return its handle.
    pub fn start_host(host: TenantHost, cfg: ServeConfig) -> ServerHandle {
        Self::start_host_inner(host, cfg, None)
    }

    /// Like [`start_host`](Self::start_host), with a durability sink
    /// attached: every flushed window is appended (and made durable)
    /// through `sink` before its epoch is published, and full checkpoints
    /// are written every [`ServeConfig::checkpoint_every`] windows and at
    /// shutdown.
    pub fn start_host_with_store(
        host: TenantHost,
        cfg: ServeConfig,
        sink: Box<dyn DurabilitySink>,
    ) -> ServerHandle {
        Self::start_host_inner(host, cfg, Some(sink))
    }

    fn start_host_inner(
        host: TenantHost,
        cfg: ServeConfig,
        sink: Option<Box<dyn DurabilitySink>>,
    ) -> ServerHandle {
        cfg.validate();
        assert!(host.num_tenants() >= 1, "host has no tenants registered");
        let mut tenants = Vec::with_capacity(host.num_tenants());
        let mut handles = Vec::with_capacity(host.num_tenants());
        let mut ids = HashMap::new();
        for (slot, engine) in host.tenants().iter().enumerate() {
            // Epoch 0 (the initial factorisation) is served immediately.
            let publisher = Publisher::new(engine);
            let counters = Arc::new(Counters::default());
            ids.insert(engine.id, slot);
            handles.push(TenantHandle {
                id: engine.id,
                cell: publisher.cell().clone(),
                counters: counters.clone(),
            });
            tenants.push(TenantState {
                publisher,
                counters,
            });
        }
        let host_counters = Arc::new(HostCounters::default());
        host_counters
            .batches_recorded
            .store(host.batches_recorded(), Ordering::Release);
        let keep = if cfg.journal_keep == 0 {
            JOURNAL_KEEP
        } else {
            cfg.journal_keep
        };
        let journal = Arc::new(WindowJournal::new(host.batches_recorded(), keep));
        let mut inner = Inner {
            host,
            tenants,
            cfg,
            pending: Vec::new(),
            pending_tags: Vec::new(),
            scratch: CoalesceScratch::new(),
            keep: Vec::new(),
            rr: 0,
            counters: host_counters.clone(),
            sink,
            journal: journal.clone(),
            deadline: None,
        };
        let (tx, rx) = mpsc::channel();
        let join = std::thread::Builder::new()
            .name("tsvd-serve".into())
            .spawn(move || {
                let host_out = inner.run(rx);
                // Clean shutdown checkpoints at the final epoch, so a
                // restart seeds from here with nothing left to replay (and
                // the sink can compact the whole WAL away).
                inner.checkpoint();
                if let Some(tx) = host_out {
                    let _ = tx.send(inner.host);
                }
            })
            .expect("spawn tsvd-serve reactor");
        ServerHandle {
            tx,
            tenants: handles,
            ids,
            host: host_counters,
            cfg,
            journal,
            join,
        }
    }
}

/// Client handle to a running [`EmbeddingServer`].
///
/// Tenant-unaware methods ([`submit_batch`](Self::submit_batch),
/// [`reader`](Self::reader), [`stats`](Self::stats), ...) route to the
/// server's first tenant — [`DEFAULT_TENANT`] for a server started from a
/// single engine — so single-tenant callers never name tenants.
pub struct ServerHandle {
    tx: mpsc::Sender<Msg>,
    tenants: Vec<TenantHandle>,
    ids: HashMap<TenantId, usize>,
    host: Arc<HostCounters>,
    cfg: ServeConfig,
    journal: Arc<WindowJournal>,
    join: JoinHandle<()>,
}

impl ServerHandle {
    /// Submit one event; returns `false` if the server is gone.
    pub fn submit(&self, event: EdgeEvent) -> bool {
        self.submit_batch(vec![event])
    }

    /// Submit a batch of events to the first tenant (one channel message;
    /// the server may split or merge it across flush windows).
    pub fn submit_batch(&self, events: Vec<EdgeEvent>) -> bool {
        self.submit_batch_to(self.tenants[0].id, events).is_ok()
    }

    /// Submit a batch of events on behalf of `tenant`, enforcing its
    /// admission quota (see [`ServeConfig::tenant_quota`]).
    ///
    /// The quota check is advisory under concurrent submitters (two racing
    /// admissions may overshoot by one batch), which is fine for a
    /// backpressure signal — the reactor itself never rejects.
    pub fn submit_batch_to(
        &self,
        tenant: TenantId,
        events: Vec<EdgeEvent>,
    ) -> Result<(), SubmitError> {
        let &slot = self
            .ids
            .get(&tenant)
            .ok_or(SubmitError::UnknownTenant(tenant))?;
        if events.is_empty() {
            return Ok(());
        }
        let n = events.len() as u64;
        let c = &self.tenants[slot].counters;
        if let Some(quota) = self.cfg.quota() {
            let submitted = c.submitted.load(Ordering::Acquire);
            let applied = c.applied.load(Ordering::Acquire);
            let coalesced = c.coalesced.load(Ordering::Acquire);
            let pending = submitted.saturating_sub(applied + coalesced);
            if pending + n > quota {
                return Err(SubmitError::QuotaExceeded {
                    tenant,
                    pending,
                    quota,
                });
            }
        }
        // Count *before* handing the batch to the reactor: the reactor may
        // flush (and bump `applied`) before this thread runs again, and
        // `submitted ≥ applied + coalesced` must hold for every observer.
        // The increment is undone on the (server already gone) failure path.
        c.submitted.fetch_add(n, Ordering::Release);
        if self.tx.send(Msg::Events(slot, events)).is_ok() {
            Ok(())
        } else {
            c.submitted.fetch_sub(n, Ordering::Release);
            Err(SubmitError::Closed)
        }
    }

    /// Force a flush of everything submitted so far (from this handle) and
    /// block until every tenant applied it; returns the epoch watermark
    /// then being served by all tenants.
    pub fn flush_sync(&self) -> u64 {
        let (tx, rx) = mpsc::channel();
        if self.tx.send(Msg::Flush(tx)).is_err() {
            return self.min_epoch();
        }
        rx.recv().unwrap_or_else(|_| self.min_epoch())
    }

    fn min_epoch(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| t.cell.epoch())
            .min()
            .unwrap_or(0)
    }

    /// A cheap, cloneable read-side handle on the first tenant.
    pub fn reader(&self) -> EmbeddingReader {
        EmbeddingReader {
            cell: self.tenants[0].cell.clone(),
        }
    }

    /// A read-side handle on `tenant` (`None` if unknown).
    pub fn reader_for(&self, tenant: TenantId) -> Option<EmbeddingReader> {
        let &slot = self.ids.get(&tenant)?;
        Some(EmbeddingReader {
            cell: self.tenants[slot].cell.clone(),
        })
    }

    /// Registered tenant ids, in registration order.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.tenants.iter().map(|t| t.id).collect()
    }

    /// The first tenant's currently served epoch.
    pub fn epoch(&self) -> u64 {
        self.tenants[0].cell.epoch()
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> ServeConfig {
        self.cfg
    }

    /// Up to `max` flushed windows with epochs `> after_epoch`, from the
    /// bounded in-memory journal — what the `GetWindows` wire request
    /// serves to followers. Windows that aged out of the journal yield
    /// [`JournalError::Compacted`]; the follower must re-seed from a
    /// checkpoint.
    pub fn journal_windows(
        &self,
        after_epoch: u64,
        max: usize,
    ) -> Result<JournalWindows, JournalError> {
        self.journal.windows_after(after_epoch, max)
    }

    /// A consistent-cut checkpoint of the whole host: `(epoch, checkpoint
    /// file bytes)` with every window ≤ `epoch` applied and nothing newer
    /// (pending *unflushed* events stay pending — they belong to a later
    /// epoch) — byte-equal, wall-clock timings aside, to
    /// [`write_host`] of an offline [`TenantHost`] that applied the same
    /// windows. This is what the `GetCheckpoint` wire request serves to
    /// re-seeding followers. `None` if the server is gone.
    pub fn checkpoint_bytes(&self) -> Option<(u64, Vec<u8>)> {
        let (tx, rx) = mpsc::channel();
        if self.tx.send(Msg::Snapshot(tx)).is_err() {
            return None;
        }
        rx.recv().ok()
    }

    /// A point-in-time counter snapshot of the first tenant.
    pub fn stats(&self) -> ServeStats {
        self.stats_of(&self.tenants[0])
    }

    /// A point-in-time counter snapshot of `tenant` (`None` if unknown).
    pub fn stats_for(&self, tenant: TenantId) -> Option<ServeStats> {
        let &slot = self.ids.get(&tenant)?;
        Some(self.stats_of(&self.tenants[slot]))
    }

    /// The host-level rollup across every tenant.
    ///
    /// Per-tenant snapshots are taken first and the shared
    /// `batches_recorded` mirror last: the reactor publishes the mirror
    /// before any tenant commits the window, so the rollup never shows an
    /// epoch the recording counter has not covered.
    pub fn host_stats(&self) -> HostStats {
        let per: Vec<ServeStats> = self.tenants.iter().map(|t| self.stats_of(t)).collect();
        let batches_recorded = self.host.batches_recorded.load(Ordering::Acquire);
        HostStats {
            tenants: per.len(),
            batches_recorded,
            epoch: per.iter().map(|s| s.epoch).min().unwrap_or(0),
            events_submitted: per.iter().map(|s| s.events_submitted).sum(),
            events_applied: per.iter().map(|s| s.events_applied).sum(),
            events_coalesced: per.iter().map(|s| s.events_coalesced).sum(),
            events_pending: per.iter().map(|s| s.events_pending).sum(),
        }
    }

    /// The wire `Stats` answer for `tenant`: its stats plus the host
    /// rollup (`None` if the tenant is unknown).
    pub fn stats_reply(&self, tenant: TenantId) -> Option<StatsReply> {
        Some(StatsReply {
            tenant: self.stats_for(tenant)?,
            host: self.host_stats(),
        })
    }

    /// Counter snapshot of one tenant.
    ///
    /// Read order is load-bearing: the epoch snapshot is taken *first*
    /// (the flush path updates counters before publishing, so counters can
    /// only be ahead of the observed epoch, never behind), and `submitted`
    /// is read *last* with `Acquire` (the submit path counts before the
    /// channel send that happens-before `applied`/`coalesced` increments,
    /// so reading it after them keeps `submitted ≥ applied + coalesced`).
    fn stats_of(&self, t: &TenantHandle) -> ServeStats {
        let c = &t.counters;
        let snap = t.cell.load();
        let batches = c.batches.load(Ordering::Acquire);
        let applied = c.applied.load(Ordering::Acquire);
        let coalesced = c.coalesced.load(Ordering::Acquire);
        let total_ns = c.flush_nanos_total.load(Ordering::Acquire);
        let submitted = c.submitted.load(Ordering::Acquire);
        // `last` before `max`: the flush path raises `max` before storing
        // `last`, so this order guarantees `max ≥ last` in the result.
        let last_ns = c.flush_nanos_last.load(Ordering::Acquire);
        let max_ns = c.flush_nanos_max.load(Ordering::Acquire);
        let blocks_refactored = c.blocks_refactored.load(Ordering::Acquire);
        ServeStats {
            tenant: t.id,
            epoch: snap.epoch(),
            events_submitted: submitted,
            events_applied: applied,
            events_coalesced: coalesced,
            events_pending: submitted.saturating_sub(applied + coalesced),
            batches_flushed: batches,
            flush_ms_last: last_ns as f64 / 1e6,
            flush_ms_mean: if batches == 0 {
                0.0
            } else {
                total_ns as f64 / batches as f64 / 1e6
            },
            flush_ms_max: max_ns as f64 / 1e6,
            blocks_refactored,
            timings: snap.timings(),
        }
    }

    /// Flush, stop the reactor, and take the whole host back.
    pub fn shutdown_host(self) -> TenantHost {
        let (tx, rx) = mpsc::channel();
        let sent = self.tx.send(Msg::Shutdown(tx));
        assert!(sent.is_ok(), "server thread already gone");
        let host = rx.recv().expect("server thread dropped the host");
        self.join.join().expect("tsvd-serve reactor panicked");
        host
    }

    /// Flush, stop the reactor, and take the engine back (e.g. to compare
    /// against an offline replay, or to persist). Single-tenant servers
    /// only; multi-tenant hosts use [`shutdown_host`](Self::shutdown_host).
    pub fn shutdown(self) -> ShardedEngine {
        self.shutdown_host().into_single_engine()
    }
}

/// Read-only, cloneable view of one tenant's served embedding. Loading a
/// snapshot never blocks on the writer; a held snapshot is immutable.
#[derive(Clone)]
pub struct EmbeddingReader {
    cell: Arc<EpochCell>,
}

impl EmbeddingReader {
    /// Wrap an epoch cell owned by something other than a server — the
    /// follower publishes through the same cell type, so its readers get
    /// the identical wait-free interface.
    pub(crate) fn from_cell(cell: Arc<EpochCell>) -> EmbeddingReader {
        EmbeddingReader { cell }
    }

    /// The currently served snapshot (whole-epoch consistent).
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        self.cell.load()
    }

    /// The currently served epoch, lock-free.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// The embedding of `node` in the current snapshot, copied out.
    pub fn get(&self, node: u32) -> Option<Vec<f64>> {
        self.snapshot().get(node).map(|v| v.to_vec())
    }

    /// Block (polling) until the served epoch reaches `epoch`; `false` on
    /// timeout. Test/demo convenience — production readers just `load`.
    pub fn wait_for_epoch(&self, epoch: u64, timeout: std::time::Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.epoch() < epoch {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tsvd_core::{TreeSvdConfig, UpdatePolicy};
    use tsvd_graph::DynGraph;
    use tsvd_ppr::PprConfig;
    use tsvd_rt::rng::{Rng, SeedableRng, StdRng};

    fn setup() -> (DynGraph, ShardedEngine) {
        setup_with(TreeSvdConfig::default().policy)
    }

    fn setup_with(policy: UpdatePolicy) -> (DynGraph, ShardedEngine) {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 60usize;
        let mut g = DynGraph::with_nodes(n);
        while g.num_edges() < 240 {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            if u != v {
                g.insert_edge(u, v);
            }
        }
        let sources: Vec<u32> = (0..8).collect();
        let cfg = TreeSvdConfig {
            dim: 4,
            num_blocks: 3,
            policy,
            ..Default::default()
        };
        let engine = ShardedEngine::new(&g, &sources, 1, PprConfig::default(), cfg);
        (g, engine)
    }

    #[test]
    fn serves_epoch_zero_immediately() {
        let (_, engine) = setup();
        let server = EmbeddingServer::start(engine, ServeConfig::default());
        let reader = server.reader();
        let snap = reader.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.sources(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(snap.verify());
        assert!(snap.get(3).is_some());
        assert!(snap.get(59).is_none());
        server.shutdown();
    }

    #[test]
    fn count_trigger_flushes_without_waiting_for_deadline() {
        let (_, engine) = setup();
        let cfg = ServeConfig {
            flush_max_events: 4,
            flush_interval_ms: 60_000, // deadline effectively off
            ..Default::default()
        };
        let server = EmbeddingServer::start(engine, cfg);
        let reader = server.reader();
        let events: Vec<EdgeEvent> = (0..4).map(|i| EdgeEvent::insert(50, 51 + i)).collect();
        assert!(server.submit_batch(events));
        assert!(
            reader.wait_for_epoch(1, Duration::from_secs(10)),
            "count trigger did not flush"
        );
        let stats = server.stats();
        assert_eq!(stats.tenant, DEFAULT_TENANT);
        assert_eq!(stats.batches_flushed, 1);
        assert_eq!(stats.events_submitted, 4);
        assert_eq!(stats.events_applied + stats.events_coalesced, 4);
        assert_eq!(stats.events_pending, 0);
        let engine = server.shutdown();
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.batches_recorded(), 1);
    }

    #[test]
    fn deadline_trigger_flushes_partial_window() {
        let (_, engine) = setup();
        let cfg = ServeConfig {
            flush_max_events: 1_000_000,
            flush_interval_ms: 5,
            ..Default::default()
        };
        let server = EmbeddingServer::start(engine, cfg);
        let reader = server.reader();
        assert!(server.submit(EdgeEvent::insert(40, 41)));
        assert!(
            reader.wait_for_epoch(1, Duration::from_secs(10)),
            "deadline trigger did not flush"
        );
        assert_eq!(server.stats().events_applied, 1);
        server.shutdown();
    }

    /// One call a [`RecordingSink`] saw.
    #[derive(Debug, PartialEq)]
    enum SinkCall {
        Append(u64, Vec<EdgeEvent>),
        Checkpoint(u64),
    }

    /// A durability sink that reports each call on a channel.
    struct RecordingSink(mpsc::Sender<SinkCall>);

    impl DurabilitySink for RecordingSink {
        fn append_window(&mut self, epoch: u64, events: &[EdgeEvent]) -> std::io::Result<()> {
            let _ = self.0.send(SinkCall::Append(epoch, events.to_vec()));
            Ok(())
        }

        fn checkpoint(&mut self, epoch: u64, _: &TenantHost) -> std::io::Result<()> {
            let _ = self.0.send(SinkCall::Checkpoint(epoch));
            Ok(())
        }
    }

    fn start_recorded(cfg: ServeConfig) -> (ServerHandle, mpsc::Receiver<SinkCall>) {
        let (_, engine) = setup();
        let (tx, rx) = mpsc::channel();
        let host = TenantHost::from_engine(engine, DEFAULT_TENANT);
        let sink = Box::new(RecordingSink(tx));
        (EmbeddingServer::start_host_with_store(host, cfg, sink), rx)
    }

    #[test]
    fn dropped_handle_flushes_and_checkpoints_without_waiting_for_deadline() {
        // Once every sender is gone no event can join the open window, so
        // the loop flushes it and checkpoints at once, as `Shutdown` does,
        // instead of sleeping out a one-minute deadline.
        let (server, calls) = start_recorded(ServeConfig {
            flush_max_events: 1_000_000,
            flush_interval_ms: 60_000,
            ..Default::default()
        });
        let event = EdgeEvent::insert(40, 41);
        assert!(server.submit(event));
        drop(server);
        let wait = Duration::from_secs(10);
        assert_eq!(
            calls.recv_timeout(wait),
            Ok(SinkCall::Append(1, vec![event]))
        );
        assert_eq!(calls.recv_timeout(wait), Ok(SinkCall::Checkpoint(1)));
    }

    #[test]
    fn deadline_trigger_is_not_pushed_out_by_a_later_submission() {
        // The deadline counts from the window's first event: a second
        // submission halfway there joins the same window and does not
        // move the flush.
        let interval = Duration::from_millis(1_000);
        let (server, calls) = start_recorded(ServeConfig {
            flush_max_events: 1_000_000,
            flush_interval_ms: interval.as_millis() as u64,
            ..Default::default()
        });
        let reader = server.reader();
        let (first, second) = (EdgeEvent::insert(40, 41), EdgeEvent::insert(42, 43));
        let t0 = Instant::now();
        assert!(server.submit(first));
        std::thread::sleep(interval / 2);
        assert!(server.submit(second));
        assert!(reader.wait_for_epoch(1, Duration::from_secs(10)));
        let published = t0.elapsed();
        assert!(
            published < interval * 3 / 2,
            "epoch 1 published {published:?} after the first submission"
        );
        assert_eq!(
            calls.recv_timeout(Duration::from_secs(10)),
            Ok(SinkCall::Append(1, vec![first, second]))
        );
        server.shutdown();
    }

    #[test]
    fn flush_sync_applies_everything_submitted() {
        let (_, engine) = setup();
        let cfg = ServeConfig {
            flush_max_events: 1_000_000,
            flush_interval_ms: 60_000,
            ..Default::default()
        };
        let server = EmbeddingServer::start(engine, cfg);
        server.submit_batch(vec![
            EdgeEvent::insert(30, 31),
            EdgeEvent::insert(31, 32),
            EdgeEvent::delete(30, 31),
        ]);
        let epoch = server.flush_sync();
        assert_eq!(epoch, 1);
        // Idempotent when nothing is pending: no empty epoch published.
        assert_eq!(server.flush_sync(), 1);
        let stats = server.stats();
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.batches_flushed, 1);
        assert!(stats.flush_ms_last > 0.0);
        assert!(stats.flush_ms_max >= stats.flush_ms_last);
        server.shutdown();
    }

    #[test]
    fn refactor_counter_matches_the_engine() {
        // The served counter accounts for every level-1 refactorisation
        // the flushes performed, as the engine's own totals count them.
        let (_, engine) = setup_with(UpdatePolicy::Lazy { delta: 0.05 });
        let cfg = ServeConfig {
            flush_max_events: 1_000_000,
            flush_interval_ms: 60_000,
            ..Default::default()
        };
        let server = EmbeddingServer::start(engine, cfg);
        for w in 0..4u32 {
            server.submit_batch(
                (0..8)
                    .map(|i| EdgeEvent::insert(i, 20 + w * 8 + i))
                    .collect(),
            );
            server.flush_sync();
        }
        let stats = server.stats();
        let engine = server.shutdown();
        let recomputed = engine.total_stats().blocks_recomputed as u64;
        assert_eq!(stats.blocks_refactored, recomputed);
        assert!(recomputed > 0, "no block fired");
    }

    #[test]
    fn coalescing_counts_dropped_events() {
        let (_, engine) = setup();
        let server = EmbeddingServer::start(
            engine,
            ServeConfig {
                flush_max_events: 1_000_000,
                flush_interval_ms: 60_000,
                ..Default::default()
            },
        );
        // Same pair three times: last write wins, two events coalesced away.
        server.submit_batch(vec![
            EdgeEvent::insert(20, 21),
            EdgeEvent::delete(20, 21),
            EdgeEvent::insert(20, 21),
            EdgeEvent::insert(22, 23),
        ]);
        server.flush_sync();
        let stats = server.stats();
        assert_eq!(stats.events_submitted, 4);
        assert_eq!(stats.events_applied, 2);
        assert_eq!(stats.events_coalesced, 2);
        server.shutdown();
    }

    #[test]
    fn readers_hold_consistent_epochs_across_swaps() {
        let (_, engine) = setup();
        let cfg = ServeConfig {
            flush_max_events: 1_000_000,
            flush_interval_ms: 60_000,
            ..Default::default()
        };
        let server = EmbeddingServer::start(engine, cfg);
        let reader = server.reader();
        let held0 = reader.snapshot();
        server.submit(EdgeEvent::insert(10, 11));
        server.flush_sync();
        let held1 = reader.snapshot();
        assert_eq!(held0.epoch(), 0);
        assert_eq!(held1.epoch(), 1);
        // Old epoch stays alive and internally consistent after the swap.
        assert!(held0.verify());
        assert!(held1.verify());
        server.shutdown();
    }

    #[test]
    fn unknown_tenant_rejected_at_admission() {
        let (_, engine) = setup();
        let server = EmbeddingServer::start(engine, ServeConfig::default());
        let err = server
            .submit_batch_to(99, vec![EdgeEvent::insert(0, 1)])
            .expect_err("tenant 99 is not registered");
        assert_eq!(err, SubmitError::UnknownTenant(99));
        assert!(server.reader_for(99).is_none());
        assert!(server.stats_for(99).is_none());
        assert_eq!(server.tenant_ids(), vec![DEFAULT_TENANT]);
        server.shutdown();
    }

    #[test]
    fn quota_backpressures_at_admission_and_releases_after_flush() {
        let (_, engine) = setup();
        let cfg = ServeConfig {
            flush_max_events: 1_000_000,
            flush_interval_ms: 60_000,
            tenant_quota: 4,
            ..Default::default()
        };
        let server = EmbeddingServer::start(engine, cfg);
        let batch = |k: u32| vec![EdgeEvent::insert(10 + k, 20 + k), EdgeEvent::insert(11, 21)];
        server.submit_batch_to(DEFAULT_TENANT, batch(0)).unwrap();
        server.submit_batch_to(DEFAULT_TENANT, batch(1)).unwrap();
        // 4 pending = quota: the next batch must be rejected, with the
        // backlog reported.
        match server.submit_batch_to(DEFAULT_TENANT, batch(2)) {
            Err(SubmitError::QuotaExceeded {
                tenant,
                pending,
                quota,
            }) => {
                assert_eq!(tenant, DEFAULT_TENANT);
                assert_eq!(pending, 4);
                assert_eq!(quota, 4);
            }
            other => panic!("expected quota rejection, got {other:?}"),
        }
        // Applying the backlog frees the quota.
        server.flush_sync();
        server.submit_batch_to(DEFAULT_TENANT, batch(2)).unwrap();
        server.flush_sync();
        let stats = server.stats();
        assert_eq!(stats.events_submitted, 6);
        assert_eq!(stats.events_pending, 0);
        let host = server.host_stats();
        assert_eq!(host.tenants, 1);
        assert_eq!(host.events_submitted, 6);
        assert_eq!(host.batches_recorded, 2);
        server.shutdown();
    }
}

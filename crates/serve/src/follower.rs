//! Journal-fed follower replicas: read scale-out for free.
//!
//! A [`Follower`] wraps its own [`TenantHost`] — typically seeded from a
//! checkpoint of the leader (`tsvd-store` recovery) or built from the same
//! initial graph — and replays the leader's flush windows into it, in
//! order, publishing each resulting epoch through the same
//! [`EpochCell`]/[`EpochSnapshot`] machinery the leader's server uses. Its
//! readers are therefore wait-free and whole-epoch consistent, just
//! possibly *stale*: the follower serves epoch `k` while the leader is at
//! `k + lag`.
//!
//! Windows arrive over the existing `serve::net` protocol: the follower
//! polls `GetWindows{after_epoch, max}` ([`NetClient::pull_windows`]),
//! which streams the leader's bounded in-memory journal tail. Because
//! those windows are exactly the post-coalesce windows the leader applied
//! — and every layer below is bitwise deterministic — the follower's
//! published embedding at epoch `k` equals the leader's at epoch `k` bit
//! for bit, per tenant.
//!
//! A follower that disconnects simply resumes polling from its own epoch;
//! if it fell further behind than the leader's journal retains, the pull
//! fails (the leader answers with a compaction error) and the follower
//! must re-seed from a newer checkpoint.

use std::fmt;
use std::io;

use tsvd_graph::EdgeEvent;

use crate::checkpoint::read_host;
use crate::net::{CheckpointReply, NetClient, WindowsPull};
use crate::server::EmbeddingReader;
use crate::snapshot::Publisher;
use crate::tenant::{TenantHost, TenantId};

/// Why a follower could not catch up to the leader.
#[derive(Debug)]
pub enum CatchUpError {
    /// The leader compacted past this follower's epoch: the journal no
    /// longer holds the next window it needs. Retryable — after a re-seed
    /// ([`Follower::reseed_from`], or the combined
    /// [`Follower::catch_up_or_reseed`]).
    Compacted {
        /// Oldest epoch the leader's journal still retains.
        oldest: u64,
        /// The epoch this follower needed (`epoch() + 1`).
        requested: u64,
    },
    /// The leader answered with windows that do not start right after this
    /// follower's epoch — a protocol violation, not retryable.
    Gap {
        /// What the follower needed (`epoch() + 1`).
        expected: u64,
        /// What the leader sent.
        got: u64,
    },
    /// A checkpoint offered for re-seeding does not describe this
    /// follower's tenants/subsets (or would move it backwards). Not
    /// retryable against the same leader.
    SeedMismatch(String),
    /// Transport/protocol failure underneath; retryable per the client's
    /// own rules.
    Io(io::Error),
}

impl fmt::Display for CatchUpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatchUpError::Compacted { oldest, requested } => write!(
                f,
                "leader compacted window {requested} (oldest retained: {oldest}); re-seed needed"
            ),
            CatchUpError::Gap { expected, got } => write!(
                f,
                "journal stream gap: leader sent windows from epoch {got}, follower needs {expected}"
            ),
            CatchUpError::SeedMismatch(what) => write!(f, "checkpoint does not match: {what}"),
            CatchUpError::Io(e) => write!(f, "catch-up transport failure: {e}"),
        }
    }
}

impl std::error::Error for CatchUpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CatchUpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CatchUpError {
    fn from(e: io::Error) -> Self {
        CatchUpError::Io(e)
    }
}

impl From<CatchUpError> for io::Error {
    fn from(e: CatchUpError) -> Self {
        match e {
            CatchUpError::Io(io) => io,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// A replica host that replays the leader's flush windows and serves
/// wait-free reads at a possibly-stale-but-consistent epoch (module docs).
pub struct Follower {
    host: TenantHost,
    /// One publisher per tenant, in the host's slot order.
    publishers: Vec<Publisher>,
}

impl Follower {
    /// Wrap `host` as a follower and publish its current state (every
    /// tenant's epoch as of the host — epoch 0 for a fresh build, the
    /// checkpoint epoch for a recovered one).
    pub fn new(host: TenantHost) -> Self {
        let publishers = host.tenants().iter().map(Publisher::new).collect();
        Follower { host, publishers }
    }

    /// The epoch this follower has applied and published (tenant epochs
    /// are lockstep with the window counter).
    pub fn epoch(&self) -> u64 {
        self.host.batches_recorded()
    }

    /// Registered tenant ids, in registration order.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.host.tenant_ids()
    }

    /// A wait-free read handle on `tenant` (`None` if unknown) — the same
    /// interface a leader's [`ServerHandle::reader_for`] hands out.
    ///
    /// [`ServerHandle::reader_for`]: crate::ServerHandle::reader_for
    pub fn reader(&self, tenant: TenantId) -> Option<EmbeddingReader> {
        let slot = self.host.tenants().iter().position(|t| t.id == tenant)?;
        Some(EmbeddingReader::from_cell(
            self.publishers[slot].cell().clone(),
        ))
    }

    /// The wrapped host (e.g. for offline comparison).
    pub fn host(&self) -> &TenantHost {
        &self.host
    }

    /// Unwrap the host. Readers handed out earlier keep serving the last
    /// published epoch.
    pub fn into_host(self) -> TenantHost {
        self.host
    }

    /// Apply one of the leader's post-coalesce windows verbatim,
    /// publishing each tenant's resulting epoch as soon as that tenant's
    /// refresh returns.
    pub fn apply_window(&mut self, events: &[EdgeEvent]) {
        let publishers = &self.publishers;
        self.host.apply_batch_with(events, 0, |slot, engine, _| {
            publishers[slot].publish(engine)
        });
    }

    /// Pull windows from the leader until caught up to its journal head,
    /// applying and publishing each; returns the epoch then served.
    /// `max_per_pull` bounds each round trip (paging). Errors are typed:
    /// the follower stays consistent at whatever epoch it last published;
    /// [`CatchUpError::Io`] means simply call again, while
    /// [`CatchUpError::Compacted`] means the leader's bounded journal no
    /// longer reaches back this far and the follower must re-seed
    /// ([`Follower::reseed_from`] / [`Follower::catch_up_or_reseed`]).
    pub fn catch_up(
        &mut self,
        client: &mut NetClient,
        max_per_pull: u32,
    ) -> Result<u64, CatchUpError> {
        loop {
            let reply = match client.pull_windows(self.epoch(), max_per_pull)? {
                WindowsPull::Windows(reply) => reply,
                WindowsPull::Compacted { oldest, requested } => {
                    return Err(CatchUpError::Compacted { oldest, requested })
                }
            };
            if reply.windows.is_empty() {
                return Ok(self.epoch());
            }
            if reply.first_epoch != self.epoch() + 1 {
                return Err(CatchUpError::Gap {
                    expected: self.epoch() + 1,
                    got: reply.first_epoch,
                });
            }
            for w in &reply.windows {
                self.apply_window(w);
            }
            if self.epoch() >= reply.latest {
                return Ok(self.epoch());
            }
        }
    }

    /// Re-seed from a leader checkpoint fetched over the wire
    /// (`GetCheckpoint`): install the checkpointed host in place of this
    /// follower's, re-publishing every tenant's cell at the checkpoint
    /// epoch — readers handed out earlier stay live and simply observe the
    /// jump. The reply carries a checkpoint file, decoded with the reader
    /// recovery uses; its header must name the reply's epoch. The
    /// checkpoint must describe the *same* deployment (identical tenant ids
    /// and subsets) and must not move the follower backwards (reader epoch
    /// monotonicity); damaged bytes and violations are typed
    /// [`CatchUpError::SeedMismatch`]. Returns the new epoch.
    pub fn reseed_from(&mut self, client: &mut NetClient) -> Result<u64, CatchUpError> {
        let cp = client.get_checkpoint()?;
        self.install(&cp)
    }

    /// Install a checkpoint reply: decode its file with the reader
    /// recovery uses, check it against this follower, re-publish.
    fn install(&mut self, cp: &CheckpointReply) -> Result<u64, CatchUpError> {
        let (named, host) = read_host(&cp.host[..])
            .map_err(|e| CatchUpError::SeedMismatch(format!("checkpoint does not decode: {e}")))?;
        if named != cp.epoch {
            return Err(CatchUpError::SeedMismatch(format!(
                "checkpoint reply at epoch {} carries a file for epoch {named}",
                cp.epoch
            )));
        }
        if host.batches_recorded() != cp.epoch {
            return Err(CatchUpError::SeedMismatch(format!(
                "checkpoint claims epoch {} but its host is at {}",
                cp.epoch,
                host.batches_recorded()
            )));
        }
        if cp.epoch < self.epoch() {
            return Err(CatchUpError::SeedMismatch(format!(
                "checkpoint epoch {} is behind this follower ({})",
                cp.epoch,
                self.epoch()
            )));
        }
        if host.tenant_ids() != self.host.tenant_ids() {
            return Err(CatchUpError::SeedMismatch(format!(
                "tenant ids {:?} != follower's {:?}",
                host.tenant_ids(),
                self.host.tenant_ids()
            )));
        }
        for (p, theirs) in self.publishers.iter().zip(host.tenants()) {
            if theirs.sources() != p.sources() {
                return Err(CatchUpError::SeedMismatch(format!(
                    "tenant {} subset differs from this follower's",
                    theirs.id
                )));
            }
        }
        self.host = host;
        // Re-publish through the *existing* cells so readers handed out
        // before the re-seed keep working.
        for (p, engine) in self.publishers.iter().zip(self.host.tenants()) {
            p.publish(engine);
        }
        Ok(self.epoch())
    }

    /// [`catch_up`](Self::catch_up), transparently re-seeding from the
    /// leader's checkpoint when the journal has compacted past this
    /// follower — the self-healing loop a long-offline replica runs to
    /// rejoin. Returns the epoch then served.
    pub fn catch_up_or_reseed(
        &mut self,
        client: &mut NetClient,
        max_per_pull: u32,
    ) -> Result<u64, CatchUpError> {
        match self.catch_up(client, max_per_pull) {
            Err(CatchUpError::Compacted { .. }) => {
                self.reseed_from(client)?;
                self.catch_up(client, max_per_pull)
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_core::{Level1Method, PartitionStrategy, TreeSvdConfig, UpdatePolicy};
    use tsvd_graph::DynGraph;
    use tsvd_ppr::PprConfig;
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

    /// Applying the same windows to a follower and to a plain host yields
    /// identical published snapshots, epoch by epoch, for every tenant.
    #[test]
    fn follower_publishes_replayed_epochs_bitwise() {
        let mut rng = StdRng::seed_from_u64(31);
        let n = 80;
        let g = random_graph(&mut rng, n, 320);
        let ppr = PprConfig::default();
        let build_host = |g: &DynGraph| {
            let mut h = TenantHost::new(g);
            h.register(0, &(0..7).collect::<Vec<_>>(), ppr, tree_cfg())
                .unwrap();
            h.register(5, &(10..16).collect::<Vec<_>>(), ppr, tree_cfg())
                .unwrap();
            h
        };
        let mut leader = build_host(&g);
        let mut follower = Follower::new(build_host(&g));
        let r0 = follower.reader(0).unwrap();
        let r5 = follower.reader(5).unwrap();
        assert_eq!(follower.epoch(), 0);
        assert_eq!(r0.epoch(), 0);
        assert!(follower.reader(99).is_none());

        for k in 0..3u32 {
            let window = vec![
                EdgeEvent::insert(k, 40 + k),
                EdgeEvent::insert(12, 50 + k),
                EdgeEvent::delete(k, 40 + k),
            ];
            leader.apply_batch(&window);
            follower.apply_window(&window);
            let e = follower.epoch();
            assert_eq!(e, (k + 1) as u64);
            for (id, reader) in [(0, &r0), (5, &r5)] {
                let snap = reader.snapshot();
                assert_eq!(snap.epoch(), e);
                assert!(snap.verify());
                let lead = leader.tagged(id).unwrap();
                let srv = snap.tagged();
                assert_eq!(
                    srv.left().sub(lead.left()).max_abs(),
                    0.0,
                    "tenant {id} diverged at epoch {e}"
                );
            }
        }
        let host = follower.into_host();
        assert_eq!(host.batches_recorded(), 3);
        // Readers keep serving the last published epoch after unwrap.
        assert_eq!(r0.epoch(), 3);
    }

    use crate::config::ServeConfig;
    use crate::net::{ClientConfig, NetFront};
    use crate::server::EmbeddingServer;

    fn fixed_graph() -> DynGraph {
        let mut rng = StdRng::seed_from_u64(47);
        random_graph(&mut rng, 60, 240)
    }

    fn build_host(g: &DynGraph) -> TenantHost {
        let mut h = TenantHost::new(g);
        h.register(
            0,
            &(0..8).collect::<Vec<_>>(),
            PprConfig::default(),
            tree_cfg(),
        )
        .unwrap();
        h
    }

    /// Distinct edges per window so coalescing is the identity and the
    /// offline replay below sees exactly the submitted windows.
    fn window(k: u32) -> Vec<EdgeEvent> {
        vec![
            EdgeEvent::insert(k, 30 + k),
            EdgeEvent::insert(2 + k, 40 + k),
        ]
    }

    /// Leader with a 2-window journal, 4 windows flushed: a follower
    /// stuck at epoch 0 needs window 1, which has been compacted away —
    /// the previously untested `Compacted` branch, now typed.
    #[test]
    fn catch_up_surfaces_compaction_as_typed_retryable_error() {
        let g = fixed_graph();
        let cfg = ServeConfig {
            flush_max_events: 1 << 20,
            flush_interval_ms: 60_000,
            journal_keep: 2,
            ..Default::default()
        };
        let handle = EmbeddingServer::start_host(build_host(&g), cfg);
        let front = NetFront::start(handle);
        let mut client = NetClient::connect(front.loopback(), ClientConfig::default()).unwrap();
        for k in 0..4u32 {
            client.submit_events(window(k)).unwrap();
            assert_eq!(client.flush().unwrap(), (k + 1) as u64);
        }

        let mut follower = Follower::new(build_host(&g));
        match follower.catch_up(&mut client, 16) {
            Err(CatchUpError::Compacted { oldest, requested }) => {
                assert_eq!(requested, 1);
                assert_eq!(oldest, 3); // keep=2 over epochs 1..=4 retains 3, 4
            }
            other => panic!("expected Compacted, got {other:?}"),
        }
        // Typed and non-destructive: the follower still serves epoch 0.
        assert_eq!(follower.epoch(), 0);
        front.shutdown_host();
    }

    /// The self-healing ladder: `catch_up_or_reseed` pulls the leader's
    /// checkpoint over the wire, re-seeds, finishes catch-up from the
    /// journal, and lands bitwise on the offline replay — with readers
    /// handed out before the re-seed observing the jump.
    #[test]
    fn catch_up_or_reseed_recovers_bitwise_after_compaction() {
        let g = fixed_graph();
        let cfg = ServeConfig {
            flush_max_events: 1 << 20,
            flush_interval_ms: 60_000,
            journal_keep: 2,
            ..Default::default()
        };
        let handle = EmbeddingServer::start_host(build_host(&g), cfg);
        let front = NetFront::start(handle);
        let mut client = NetClient::connect(front.loopback(), ClientConfig::default()).unwrap();
        let mut offline = build_host(&g);
        for k in 0..5u32 {
            client.submit_events(window(k)).unwrap();
            client.flush().unwrap();
            offline.apply_batch(&window(k));
        }

        let mut follower = Follower::new(build_host(&g));
        let reader = follower.reader(0).unwrap();
        assert_eq!(reader.epoch(), 0);
        let epoch = follower.catch_up_or_reseed(&mut client, 16).unwrap();
        assert_eq!(epoch, 5);
        // Pre-reseed readers observe the jump through the same cell.
        assert_eq!(reader.epoch(), 5);
        let snap = reader.snapshot();
        assert!(snap.verify());
        let diff = snap
            .tagged()
            .left()
            .sub(offline.tagged(0).unwrap().left())
            .max_abs();
        assert_eq!(diff, 0.0, "re-seeded follower diverged from offline replay");
        // Once caught up, further catch-up is a no-op, not an error.
        assert_eq!(follower.catch_up(&mut client, 16).unwrap(), 5);
        front.shutdown_host();
    }

    /// A checkpoint reply whose file is cut short, has a bit flipped, or
    /// names another epoch than the reply is a typed error, not a panic,
    /// and the follower keeps serving; the intact file installs.
    #[test]
    fn a_damaged_checkpoint_reply_is_a_typed_error() {
        let g = fixed_graph();
        let mut leader = build_host(&g);
        for k in 0..3u32 {
            leader.apply_batch(&window(k));
        }
        let file_at = |epoch| {
            let mut file = Vec::new();
            crate::checkpoint::write_host(&mut file, epoch, &leader).unwrap();
            file
        };
        let file = file_at(3);
        let mut follower = Follower::new(build_host(&g));
        let reader = follower.reader(0).unwrap();
        let mut refuse = |host: Vec<u8>, what: &str| match follower
            .install(&CheckpointReply { epoch: 3, host })
        {
            Err(CatchUpError::SeedMismatch(_)) => {}
            other => panic!("{what}: expected SeedMismatch, got {other:?}"),
        };
        for cut in (0..file.len()).step_by(61).chain([file.len() - 1]) {
            refuse(file[..cut].to_vec(), &format!("cut at {cut}"));
        }
        for at in (0..file.len()).step_by(53) {
            let mut flipped = file.clone();
            flipped[at] ^= 1 << (at % 8);
            refuse(flipped, &format!("bit flip at {at}"));
        }
        refuse(file_at(2), "a file for epoch 2");
        assert_eq!((follower.epoch(), reader.epoch()), (0, 0));
        assert_eq!(
            follower
                .install(&CheckpointReply {
                    epoch: 3,
                    host: file,
                })
                .unwrap(),
            3
        );
        assert_eq!(reader.epoch(), 3);
    }

    /// A checkpoint that does not describe this follower's deployment is
    /// rejected typed, leaving the follower untouched.
    #[test]
    fn reseed_rejects_checkpoint_for_a_different_subset() {
        let g = fixed_graph();
        let handle = EmbeddingServer::start_host(
            build_host(&g),
            ServeConfig {
                flush_max_events: 1 << 20,
                flush_interval_ms: 60_000,
                ..Default::default()
            },
        );
        let front = NetFront::start(handle);
        let mut client = NetClient::connect(front.loopback(), ClientConfig::default()).unwrap();

        // Same tenant id, different subset.
        let mut other = TenantHost::new(&g);
        other
            .register(
                0,
                &(10..18).collect::<Vec<_>>(),
                PprConfig::default(),
                tree_cfg(),
            )
            .unwrap();
        let mut follower = Follower::new(other);
        match follower.reseed_from(&mut client) {
            Err(CatchUpError::SeedMismatch(what)) => {
                assert!(
                    what.contains("subset"),
                    "unexpected mismatch detail: {what}"
                )
            }
            other => panic!("expected SeedMismatch, got {other:?}"),
        }
        assert_eq!(follower.epoch(), 0);
        front.shutdown_host();
    }
}

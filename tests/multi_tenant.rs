//! Multi-subset tenancy acceptance tests — N engines, one graph:
//!
//! 1. **Per-tenant equivalence.** Three tenants with distinct subsets
//!    share one `TenantHost`; every flushed window is recorded on the
//!    shared graph exactly once and replayed into every tenant. Each
//!    tenant's final embedding must be **bitwise identical** to an offline
//!    pipeline replay of its own journal over its own subset, under
//!    whatever `TSVD_THREADS` the ci matrix sets.
//! 2. **Quota backpressure over the wire.** A tenant over its submission
//!    quota draws a tenant-level `Reply::Error` that leaves the
//!    connection open and the other tenant unaffected.
//! 3. **TCP soak.** Interleaved writers on different tenants drive a live
//!    TCP front; per-tenant counters attribute every event to its
//!    submitting tenant, the host rollup accounts for all of them, and
//!    every tenant's journal replays bitwise. `TSVD_TENANTS` scales the
//!    tenant count (default 2).
//! 4. **A live checkpoint is the offline host.** Between flushes, with
//!    unflushed events pending, both exports of a live 2-tenant server —
//!    the `GetCheckpoint` JSON and the binary checkpoint file its store
//!    wrote — equal, as bytes, what an offline host fed the same journal
//!    windows produces (wall-clock `timings` aside).

use std::time::Duration;

use tree_svd::prelude::*;
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};
use tsvd_serve::HostSection;
use tsvd_store::checkpoint::{self, Format, SectionReader};
use tsvd_store::{StoreConfig, WalStore};

fn small_dataset() -> SyntheticDataset {
    let mut cfg = DatasetConfig::youtube();
    cfg.num_nodes = 400;
    cfg.num_edges = 2000;
    cfg.tau = 4;
    SyntheticDataset::generate(&cfg)
}

fn tree_cfg() -> TreeSvdConfig {
    TreeSvdConfig {
        dim: 8,
        branching: 4,
        num_blocks: 4,
        policy: UpdatePolicy::Lazy { delta: 0.5 },
        ..TreeSvdConfig::default()
    }
}

fn ppr_cfg() -> PprConfig {
    PprConfig {
        alpha: 0.2,
        r_max: 1e-4,
    }
}

/// Tenant count for the soak: `TSVD_TENANTS` if set (the ci matrix runs a
/// 3-tenant leg), else 2.
fn tenant_count() -> usize {
    std::env::var("TSVD_TENANTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(2)
}

/// Three tenants, distinct subsets, shared edge stream: each tenant's
/// served embedding must equal its own offline replay bitwise — and the
/// shared graph records each window exactly once.
#[test]
fn three_tenants_bitwise_equal_their_own_offline_replay() {
    let data = small_dataset();
    let g0 = data.stream.snapshot(1);
    let subsets: Vec<Vec<u32>> = vec![
        data.sample_subset(24, 5),
        data.sample_subset(20, 11),
        data.sample_subset(16, 23),
    ];
    let mut events = Vec::new();
    for t in 2..=data.stream.num_snapshots() {
        events.extend_from_slice(data.stream.batch(t));
    }
    events.truncate(600);
    let chunks: Vec<Vec<EdgeEvent>> = events.chunks(75).map(|c| c.to_vec()).collect();
    assert!(chunks.len() >= 4, "want several flush windows");

    let mut host = TenantHost::new(&g0);
    for (t, subset) in subsets.iter().enumerate() {
        host.register(t as TenantId, subset, ppr_cfg(), tree_cfg())
            .expect("fresh id");
    }
    host.enable_window_log();
    let server = EmbeddingServer::start_host(
        host,
        ServeConfig {
            flush_max_events: usize::MAX,
            flush_interval_ms: 60_000,
            ..Default::default()
        },
    );

    // Submissions rotate over tenants: the tag picks who is charged
    // for the events, not who sees them — the stream is global.
    for (i, chunk) in chunks.iter().enumerate() {
        let tenant = (i % subsets.len()) as TenantId;
        server
            .submit_batch_to(tenant, chunk.clone())
            .expect("admission");
        assert_eq!(server.flush_sync(), (i + 1) as u64);
    }

    // Record-once: one `RecordedBatch` per window, every tenant at the
    // same epoch, rollup pending drained.
    let host_stats = server.host_stats();
    assert_eq!(host_stats.tenants, subsets.len());
    assert_eq!(host_stats.batches_recorded, chunks.len() as u64);
    assert_eq!(host_stats.epoch, chunks.len() as u64);
    assert_eq!(host_stats.events_pending, 0);
    assert_eq!(host_stats.events_submitted, events.len() as u64);
    for t in 0..subsets.len() as TenantId {
        let s = server.stats_for(t).expect("registered tenant");
        assert_eq!(s.tenant, t);
        assert_eq!(s.epoch, chunks.len() as u64);
        assert_eq!(s.events_pending, 0);
        assert_eq!(s.events_submitted, s.events_applied + s.events_coalesced);
    }

    let host = server.shutdown_host();
    for (t, subset) in subsets.iter().enumerate() {
        let t = t as TenantId;
        let log = host.window_log(t).expect("journal enabled").to_vec();
        assert_eq!(log.len() as u64, chunks.len() as u64);
        // Ground truth: this tenant's own pipeline replay of the shared
        // journal over its own subset.
        let mut g = g0.clone();
        let mut pipe = TreeSvdPipeline::new(&g, subset, ppr_cfg(), tree_cfg());
        for window in &log {
            pipe.update(&mut g, window);
        }
        let left = host.embedding(t).expect("tenant embedding").left();
        assert_eq!(
            left.sub(&pipe.embedding().left()).max_abs(),
            0.0,
            "tenant {t}: diverged from offline replay"
        );
        assert_eq!(
            host.embedding(t).unwrap().sigma,
            pipe.embedding().sigma,
            "tenant {t}: sigma diverged"
        );
    }
    // All tenants journal the identical global window sequence.
    let log0 = host.window_log(0).unwrap().to_vec();
    for t in 1..subsets.len() as TenantId {
        assert_eq!(
            host.window_log(t).unwrap().to_vec(),
            log0,
            "tenant {t} journalled a different window sequence"
        );
    }
}

/// Over-quota submissions draw a tenant-level error that keeps the
/// connection open; the other tenant keeps writing, and a flush releases
/// the quota.
#[test]
fn wire_quota_rejection_keeps_connection_open_and_tenants_isolated() {
    let data = small_dataset();
    let g0 = data.stream.snapshot(1);
    let mut host = TenantHost::new(&g0);
    host.register(0, &data.sample_subset(12, 1), ppr_cfg(), tree_cfg())
        .unwrap();
    host.register(1, &data.sample_subset(12, 2), ppr_cfg(), tree_cfg())
        .unwrap();
    let server = EmbeddingServer::start_host(
        host,
        ServeConfig {
            flush_max_events: usize::MAX,
            flush_interval_ms: 60_000,
            tenant_quota: 4,
            ..Default::default()
        },
    );
    let front = NetFront::start(server);
    let mut a = NetClient::connect(front.loopback(), ClientConfig { tenant: 0 }).unwrap();
    let mut b = NetClient::connect(front.loopback(), ClientConfig { tenant: 1 }).unwrap();

    let batch = vec![EdgeEvent::insert(0, 50), EdgeEvent::insert(1, 51)];
    assert_eq!(a.submit_events(batch.clone()).unwrap(), 2);
    assert_eq!(a.submit_events(batch.clone()).unwrap(), 2);
    // Tenant 0 is at its quota of 4 pending events: rejected, not closed.
    let err = a.submit_events(batch.clone()).unwrap_err();
    assert!(
        err.to_string().contains("quota"),
        "expected a quota error, got: {err}"
    );
    // The connection survived the rejection…
    a.ping()
        .expect("connection stayed open after quota rejection");
    assert_eq!(a.reconnects(), 0);
    // …and tenant 1 was never throttled by tenant 0's backlog.
    assert_eq!(b.submit_events(batch.clone()).unwrap(), 2);

    // Flushing applies the backlog, freeing tenant 0's quota.
    a.flush().unwrap();
    assert_eq!(a.submit_events(batch).unwrap(), 2);

    // A client pinned to an unregistered tenant is rejected per request,
    // connection-level liveness intact.
    let mut ghost = NetClient::connect(front.loopback(), ClientConfig { tenant: 99 }).unwrap();
    assert!(ghost.get_rows(&[0]).is_err());
    ghost.ping().expect("unknown tenant still gets transport");

    drop((a, b, ghost));
    front.shutdown_host();
}

/// Interleaved writers on different tenants over real TCP: per-tenant
/// attribution, host-rollup accounting, and per-tenant bitwise replay.
#[test]
fn tcp_soak_interleaved_tenant_writers_replay_bitwise() {
    const ROUNDS: usize = 10;
    const BATCH: usize = 8;

    let nt = tenant_count();
    let n = 120usize;
    let mut rng = StdRng::seed_from_u64(3);
    let mut g0 = DynGraph::with_nodes(n);
    while g0.num_edges() < 400 {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u != v {
            g0.insert_edge(u, v);
        }
    }

    let mut host = TenantHost::new(&g0);
    let mut subsets = Vec::new();
    for t in 0..nt {
        // Distinct (overlapping) subsets.
        let subset: Vec<u32> = (t as u32 * 6..t as u32 * 6 + 12).collect();
        host.register(t as TenantId, &subset, ppr_cfg(), tree_cfg())
            .expect("fresh id");
        subsets.push(subset);
    }
    host.enable_window_log();
    let server = EmbeddingServer::start_host(
        host,
        ServeConfig {
            flush_max_events: 24, // small windows: many flushes racing reads
            flush_interval_ms: 3,
            ..Default::default()
        },
    );
    let front = NetFront::start(server);
    let addr = front.listen("127.0.0.1:0").expect("bind TCP listener");

    // One writer per tenant, each pinned to its own id.
    let writers: Vec<_> = (0..nt)
        .map(|t| {
            let addr = addr.to_string();
            let probe: Vec<u32> = subsets[t].iter().take(4).copied().collect();
            std::thread::spawn(move || -> u64 {
                let mut client =
                    NetClient::connect(TcpTransport::new(addr), ClientConfig { tenant: t as u32 })
                        .expect("client connect");
                let mut rng = StdRng::seed_from_u64(500 + t as u64);
                let mut submitted = 0u64;
                for round in 0..ROUNDS {
                    let events: Vec<EdgeEvent> = (0..BATCH)
                        .map(|_| {
                            let u = rng.gen_range(0..n) as u32;
                            let v = rng.gen_range(0..n) as u32;
                            if rng.gen_range(0..5) == 0 {
                                EdgeEvent::delete(u, v)
                            } else {
                                EdgeEvent::insert(u, v)
                            }
                        })
                        .filter(|e| e.u != e.v)
                        .collect();
                    submitted += client.submit_events(events).expect("submit");
                    // Reads route to this writer's tenant; the client-side
                    // guards verify epoch monotonicity per reply.
                    let rows = client.get_rows(&probe).expect("rows");
                    assert_eq!(rows.dim, 8);
                    if round % 4 == 1 {
                        client.flush().expect("flush");
                    }
                }
                submitted
            })
        })
        .collect();
    let per_writer: Vec<u64> = writers
        .into_iter()
        .map(|h| h.join().expect("writer"))
        .collect();
    let total: u64 = per_writer.iter().sum();
    assert!(total > 0);

    // Per-tenant attribution: every event is charged to its submitting
    // tenant exactly; the host rollup sums to the global total.
    let mut drain = NetClient::connect(
        TcpTransport {
            read_timeout: Some(Duration::from_secs(30)),
            ..TcpTransport::new(addr.to_string())
        },
        ClientConfig::default(),
    )
    .expect("drain client");
    drain.flush().expect("final flush");
    let mut epochs = Vec::new();
    for (t, &wrote) in per_writer.iter().enumerate() {
        let mut c = NetClient::connect(
            TcpTransport::new(addr.to_string()),
            ClientConfig { tenant: t as u32 },
        )
        .expect("stats client");
        let s = c.stats().expect("stats");
        assert_eq!(s.tenant.tenant, t as u32);
        assert_eq!(
            s.tenant.events_submitted, wrote,
            "tenant {t}: cross-tenant accounting leak"
        );
        assert_eq!(
            s.tenant.events_applied + s.tenant.events_coalesced,
            wrote,
            "tenant {t}: submitted events unaccounted for"
        );
        assert_eq!(s.tenant.events_pending, 0);
        assert_eq!(s.host.tenants, nt);
        assert_eq!(s.host.events_submitted, total);
        epochs.push(s.tenant.epoch);
        if t == 0 {
            assert_eq!(s.host.batches_recorded, s.tenant.epoch);
        }
    }
    // The shared stream advances all tenants in lockstep.
    assert!(epochs.windows(2).all(|w| w[0] == w[1]));
    drop(drain);

    // Per-tenant ground truth: each journal replays bitwise over that
    // tenant's own subset.
    let host = front.shutdown_host();
    assert_eq!(host.batches_recorded(), epochs[0]);
    for (t, subset) in subsets.iter().enumerate() {
        let t = t as TenantId;
        let log = host.window_log(t).expect("journal enabled").to_vec();
        assert_eq!(log.len() as u64, host.epoch(t).unwrap());
        let mut g = g0.clone();
        let mut pipe = TreeSvdPipeline::new(&g, subset, ppr_cfg(), tree_cfg());
        for window in &log {
            pipe.update(&mut g, window);
        }
        let diff = host
            .embedding(t)
            .unwrap()
            .left()
            .sub(&pipe.embedding().left())
            .max_abs();
        assert_eq!(diff, 0.0, "tenant {t}: TCP-served state diverged");
        assert_eq!(host.graph().num_edges(), g.num_edges());
    }
}

/// The reactor holds a whole `TenantHost`: on a live 2-tenant server, the
/// checkpoint cut *between* flushes (with unflushed events pending) — what
/// a `GetCheckpoint` reply carries — is, section by section and byte for
/// byte (wall-clock `timings` aside), the encoding of an offline host that
/// applied the same journal windows, and shutdown hands back that same
/// host.
#[test]
fn live_checkpoint_cut_is_byte_equal_to_offline_host_encoding() {
    let data = small_dataset();
    let g0 = data.stream.snapshot(1);
    let build = || {
        let mut host = TenantHost::new(&g0);
        host.register(0, &data.sample_subset(16, 5), ppr_cfg(), tree_cfg())
            .unwrap();
        host.register(9, &data.sample_subset(12, 11), ppr_cfg(), tree_cfg())
            .unwrap();
        host
    };
    let server = EmbeddingServer::start_host(
        build(),
        ServeConfig {
            flush_max_events: usize::MAX,
            flush_interval_ms: 60_000,
            ..Default::default()
        },
    );
    let mut offline = build();
    let events: Vec<EdgeEvent> = data.stream.batch(2).iter().take(160).copied().collect();
    let mut mirrored = 0u64; // journal windows already applied offline
    for (i, chunk) in events.chunks(40).enumerate() {
        server
            .submit_batch_to(if i % 2 == 0 { 0 } else { 9 }, chunk.to_vec())
            .expect("admission");
        let epoch = server.flush_sync();
        assert_eq!(epoch, (i + 1) as u64);
        let pulled = server.journal_windows(mirrored, 8).expect("journal tail");
        assert_eq!(pulled.windows.len(), 1, "one new window per flush");
        offline.apply_batch(&pulled.windows[0]);
        mirrored = epoch;

        // Leave an event pending (it rides into the next window): the cut
        // must stop at what is recorded.
        assert!(server.submit(EdgeEvent::insert(1, 2 + i as u32)));
        let (cut_epoch, live) = server.checkpoint_bytes().expect("server is running");
        assert_eq!(cut_epoch, epoch, "cut includes an unflushed window");
        assert_eq!(live[12..20], epoch.to_le_bytes(), "header epoch");
        assert!(
            sections_without_timings(&live) == sections_without_timings(&encoding_of(&offline)),
            "epoch {epoch}: live checkpoint differs from the offline host"
        );
    }
    // Shutdown flushes the last pending event as one more window.
    let tail = server.journal_windows(mirrored, 8);
    assert!(tail.unwrap().windows.is_empty(), "nothing flushed yet");
    let host = server.shutdown_host();
    assert_eq!(host.batches_recorded(), mirrored + 1);
    offline.apply_batch(&[EdgeEvent::insert(1, 2 + 3)]);
    assert!(
        sections_without_timings(&encoding_of(&host))
            == sections_without_timings(&encoding_of(&offline)),
        "shutdown handed back a different host"
    );
}

/// `host`'s checkpoint at its own epoch.
fn encoding_of(host: &TenantHost) -> Vec<u8> {
    let mut bytes = Vec::new();
    checkpoint::write_host(&mut bytes, host.batches_recorded(), host).unwrap();
    bytes
}

/// The verified sections of a binary checkpoint with the wall-clock part
/// of every tenant's `timings` zeroed — the one field of a checkpoint that
/// differs on every run by nature. A `Rest` section ends with `timings`:
/// three `f64` seconds, then the update count (which is state, and stays).
fn sections_without_timings(file: &[u8]) -> Vec<(HostSection, Vec<u8>)> {
    let mut reader = SectionReader::open(file).expect("a checkpoint header");
    let (mut buf, mut out) = (Vec::new(), Vec::new());
    while let Some(section) = reader.next_section(&mut buf).expect("a whole section") {
        if section == HostSection::Rest {
            let end = buf.len() - 8;
            buf[end - 24..end].fill(0);
        }
        out.push((section, buf.clone()));
    }
    out
}

/// The twin of the test above for the format checkpoints are written in:
/// on a live 2-tenant server with a store attached, the checkpoint file of
/// each epoch — read back *between* flushes, an unflushed event pending —
/// is, section by section and byte for byte (wall-clock `timings` aside),
/// the encoding of an offline host that applied the same journal windows.
#[test]
fn live_checkpoint_file_is_byte_equal_to_offline_host_encoding() {
    let data = small_dataset();
    let g0 = data.stream.snapshot(1);
    let build = || {
        let mut host = TenantHost::new(&g0);
        host.register(0, &data.sample_subset(16, 5), ppr_cfg(), tree_cfg())
            .unwrap();
        host.register(9, &data.sample_subset(12, 11), ppr_cfg(), tree_cfg())
            .unwrap();
        host
    };
    let dir = std::env::temp_dir().join(format!("tsvd-live-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let host = build();
    let store = WalStore::create(StoreConfig::new(&dir), &host).expect("fresh store");
    let server = EmbeddingServer::start_host_with_store(
        host,
        ServeConfig {
            flush_max_events: usize::MAX,
            flush_interval_ms: 60_000,
            checkpoint_every: 1,
            ..Default::default()
        },
        Box::new(store),
    );
    let mut offline = build();
    let file_of = |epoch: u64| {
        std::fs::read(checkpoint::checkpoint_path(&dir, epoch, Format::Bin))
            .unwrap_or_else(|e| panic!("checkpoint file of epoch {epoch}: {e}"))
    };
    // Epoch 0 — written by `create`, before the server existed.
    assert_eq!(
        sections_without_timings(&file_of(0)),
        sections_without_timings(&encoding_of(&offline))
    );
    let events: Vec<EdgeEvent> = data.stream.batch(2).iter().take(160).copied().collect();
    for (i, chunk) in events.chunks(40).enumerate() {
        server
            .submit_batch_to(if i % 2 == 0 { 0 } else { 9 }, chunk.to_vec())
            .expect("admission");
        let epoch = server.flush_sync();
        assert_eq!(epoch, (i + 1) as u64);
        let pulled = server.journal_windows(epoch - 1, 8).expect("journal tail");
        assert_eq!(pulled.windows.len(), 1, "one new window per flush");
        offline.apply_batch(&pulled.windows[0]);

        // An event left pending rides into the next window; the file on
        // disk was cut at what is recorded.
        assert!(server.submit(EdgeEvent::insert(1, 2 + i as u32)));
        let live = file_of(epoch);
        assert_eq!(live[12..20], epoch.to_le_bytes(), "header epoch");
        let (live, want) = (
            sections_without_timings(&live),
            sections_without_timings(&encoding_of(&offline)),
        );
        let tags: Vec<u8> = live.iter().map(|(s, _)| *s as u8).collect();
        assert_eq!(tags, b"GPMTRPMTR", "graph, then two tenants");
        for (k, (a, b)) in live.iter().zip(&want).enumerate() {
            assert!(
                a == b,
                "epoch {epoch}: section {k} ({:?}) of the live checkpoint differs",
                a.0
            );
        }
        assert_eq!(live.len(), want.len());
        // Compaction keeps exactly the newest.
        let kept: Vec<u64> = checkpoint::list_checkpoints(&dir)
            .unwrap()
            .into_iter()
            .map(|(e, _, _)| e)
            .collect();
        assert_eq!(kept, vec![epoch]);
    }
    // Shutdown flushes the pending event as one more window and
    // checkpoints the host it hands back.
    let host = server.shutdown_host();
    offline.apply_batch(&[EdgeEvent::insert(1, 2 + 3)]);
    assert_eq!(host.batches_recorded(), 5);
    assert_eq!(
        sections_without_timings(&file_of(5)),
        sections_without_timings(&encoding_of(&offline))
    );
    assert_eq!(
        sections_without_timings(&encoding_of(&host)),
        sections_without_timings(&file_of(5))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

//! Kill-and-recover: a server streaming windows through a `tsvd-store` WAL
//! is SIGKILLed mid-stream, and recovery must land on an embedding
//! **bitwise identical** to an uninterrupted offline replay — per tenant,
//! at any shard count.
//!
//! The parent spawns this same test binary as a child
//! (`recovery_child_server`, the `thread_determinism` subprocess pattern),
//! waits for the child to report it has published enough epochs past a
//! periodic checkpoint, then kills it without warning. Ground truth is the
//! durable log itself: every window `tsvd_store::read_windows` returns is
//! replayed offline through a fresh [`TenantHost`] *and* through a plain
//! [`TreeSvdPipeline`], and both must match the recovered host bit for
//! bit. Tenant count follows `TSVD_TENANTS` (default 2; the CI matrix runs
//! 3).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use tree_svd::prelude::*;
use tsvd_graph::{DynGraph, EdgeEvent};
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};
use tsvd_serve::{EmbeddingServer, ServeConfig, TenantHost};
use tsvd_store::{read_windows, recover, StoreConfig, WalStore};

const NODES: usize = 120;

fn num_tenants() -> usize {
    std::env::var("TSVD_TENANTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(2)
}

fn base_graph() -> DynGraph {
    let mut rng = StdRng::seed_from_u64(0xEC0);
    let mut g = DynGraph::with_nodes(NODES);
    while g.num_edges() < 600 {
        let u = rng.gen_range(0..NODES) as u32;
        let v = rng.gen_range(0..NODES) as u32;
        if u != v {
            g.insert_edge(u, v);
        }
    }
    g
}

fn tree_cfg(tenant: usize) -> TreeSvdConfig {
    TreeSvdConfig {
        dim: 8,
        branching: 2,
        num_blocks: 4,
        oversample: 6,
        power_iters: 1,
        policy: UpdatePolicy::Lazy { delta: 0.5 },
        seed: 40 + tenant as u64,
        ..TreeSvdConfig::default()
    }
}

fn tenant_sources(tenant: usize) -> Vec<u32> {
    (0..6).map(|i| (tenant * 8 + i) as u32).collect()
}

/// The host every process builds identically: `TSVD_TENANTS` tenants over
/// one shared graph, all sharded `shards` ways.
fn build_host(g: &DynGraph, shards: usize) -> TenantHost {
    let mut host = TenantHost::new(g);
    for t in 0..num_tenants() {
        host.register(
            t as u32,
            &tenant_sources(t),
            shards,
            PprConfig::default(),
            tree_cfg(t),
        )
        .unwrap();
    }
    host
}

/// Deterministic submitted batch `k`, with intra-batch duplicates so the
/// server's coalescing actually rewrites windows before they hit the WAL.
fn batch(k: u64) -> Vec<EdgeEvent> {
    let mut rng = StdRng::seed_from_u64(0xBA7C + k);
    let mut events = Vec::new();
    for _ in 0..6 {
        let u = rng.gen_range(0..NODES) as u32;
        let v = rng.gen_range(0..NODES) as u32;
        if u == v {
            continue;
        }
        events.push(EdgeEvent::insert(u, v));
        if rng.gen_bool(0.4) {
            events.push(EdgeEvent::delete(u, v)); // coalesces the pair away
        }
    }
    events.push(EdgeEvent::insert((k % 7) as u32, (40 + k % 11) as u32));
    events
}

fn marker_path(dir: &Path) -> PathBuf {
    dir.join("child-streamed-enough")
}

/// Child half: start a WAL-backed server over a fresh store and stream
/// batches until killed. Touches the marker file once at least 5 epochs
/// are durable (past the periodic checkpoint at 3), then keeps streaming
/// so the parent's SIGKILL lands mid-flight.
#[test]
#[ignore = "helper: spawned by kill_and_recover_matches_offline_replay"]
fn recovery_child_server() {
    let Some(dir) = std::env::var_os("TSVD_RECOVERY_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let shards: usize = std::env::var("TSVD_RECOVERY_SHARDS")
        .expect("parent sets shard count")
        .parse()
        .unwrap();
    let g = base_graph();
    let host = build_host(&g, shards);
    let store = WalStore::create(StoreConfig::new(&dir), &host).expect("fresh store");
    let cfg = ServeConfig {
        flush_max_events: 1 << 20, // flushes are driven by flush_sync below
        flush_interval_ms: 10_000,
        coalesce: true,
        checkpoint_every: 3,
        ..ServeConfig::default()
    };
    let server = EmbeddingServer::start_host_with_store(host, cfg, Box::new(store));
    for k in 0..10_000u64 {
        server.submit_batch(batch(k));
        let epoch = server.flush_sync();
        if epoch >= 5 {
            std::fs::write(marker_path(&dir), b"ok").unwrap();
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // Unreachable in practice: the parent kills us long before 10k windows.
}

#[test]
fn kill_and_recover_matches_offline_replay() {
    let exe = std::env::current_exe().expect("test binary path");
    for shards in [1usize, 3] {
        let dir =
            std::env::temp_dir().join(format!("tsvd-recovery-{}-s{shards}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut child = Command::new(&exe)
            .args(["--exact", "recovery_child_server", "--include-ignored"])
            .env("TSVD_RECOVERY_DIR", &dir)
            .env("TSVD_RECOVERY_SHARDS", shards.to_string())
            .spawn()
            .expect("spawn child server process");
        let deadline = Instant::now() + Duration::from_secs(120);
        while !marker_path(&dir).exists() {
            assert!(
                Instant::now() < deadline,
                "child (shards={shards}) never reached epoch 5"
            );
            if let Some(status) = child.try_wait().unwrap() {
                panic!("child (shards={shards}) exited early: {status}");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        child.kill().expect("SIGKILL child"); // no cleanup, no final checkpoint
        let _ = child.wait();

        // Recover from checkpoint + WAL…
        let rec = recover(StoreConfig::new(&dir)).expect("recovery");
        assert!(
            rec.checkpoint_epoch >= 3,
            "shards={shards}: periodic checkpoint never fired"
        );
        assert!(rec.host.batches_recorded() >= 5);

        // …and rebuild the ground truth offline from the durable windows.
        let windows = read_windows(&dir).unwrap();
        assert_eq!(windows.len() as u64, rec.host.batches_recorded());
        let g = base_graph();
        let mut offline = build_host(&g, shards);
        for (i, (epoch, events)) in windows.iter().enumerate() {
            assert_eq!(*epoch, i as u64 + 1, "log epochs must be dense");
            offline.apply_batch(events);
        }
        for t in 0..num_tenants() as u32 {
            let a = rec.host.tagged(t).unwrap();
            let b = offline.tagged(t).unwrap();
            assert_eq!(
                a.left().sub(b.left()).max_abs(),
                0.0,
                "shards={shards}: tenant {t} recovered differently than offline replay"
            );
        }

        // The paper-trail check: tenant 0 must also equal a plain
        // single-pipeline replay (no serving layer at all).
        let mut g = base_graph();
        let mut pipe =
            TreeSvdPipeline::new(&g, &tenant_sources(0), PprConfig::default(), tree_cfg(0));
        for (_, events) in &windows {
            pipe.update(&mut g, events);
        }
        let rec0 = rec.host.tagged(0).unwrap();
        assert_eq!(
            pipe.embedding().left().sub(rec0.left()).max_abs(),
            0.0,
            "shards={shards}: recovery diverged from TreeSvdPipeline replay"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Clean shutdown writes a final checkpoint at the last epoch, so a
/// restart replays zero windows and still lands on identical bits.
#[test]
fn clean_shutdown_checkpoints_and_restarts_without_replay() {
    let dir = std::env::temp_dir().join(format!("tsvd-clean-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let g = base_graph();
    let host = build_host(&g, 2);
    let store = WalStore::create(StoreConfig::new(&dir), &host).unwrap();
    let cfg = ServeConfig {
        flush_max_events: 1 << 20,
        flush_interval_ms: 10_000,
        ..ServeConfig::default()
    };
    let server = EmbeddingServer::start_host_with_store(host, cfg, Box::new(store));
    for k in 0..4u64 {
        server.submit_batch(batch(k));
        server.flush_sync();
    }
    let live = server.shutdown_host();
    assert_eq!(live.batches_recorded(), 4);

    let rec = recover(StoreConfig::new(&dir)).expect("recovery after clean shutdown");
    assert_eq!(rec.checkpoint_epoch, 4, "shutdown checkpoint missing");
    assert_eq!(rec.windows_replayed, 0, "clean restart should not replay");
    for t in 0..num_tenants() as u32 {
        let a = rec.host.tagged(t).unwrap();
        let b = live.tagged(t).unwrap();
        assert_eq!(a.left().sub(b.left()).max_abs(), 0.0, "tenant {t} drifted");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

//! Kill-and-recover: a server streaming windows through a `tsvd-store` WAL
//! is SIGKILLed mid-stream, and recovery must land on an embedding
//! **bitwise identical** to an uninterrupted offline replay — per tenant.
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
//!
//! Checkpoints are binary (`checkpoint-<E>.bin`), so both legs above run
//! on them; two further tests pin what a directory written *before* that
//! format does: a `.json`-only directory recovers bitwise and migrates on
//! its next checkpoint, and one epoch present in both formats recovers
//! from either file.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use tree_svd::prelude::*;
use tsvd_graph::{DynGraph, EdgeEvent};
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};
use tsvd_serve::{DurabilitySink, EmbeddingServer, ServeConfig, TenantHost};
use tsvd_store::checkpoint::{self, Format};
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
/// one shared graph.
fn build_host(g: &DynGraph) -> TenantHost {
    let mut host = TenantHost::new(g);
    for t in 0..num_tenants() {
        host.register(
            t as u32,
            &tenant_sources(t),
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
    let g = base_graph();
    let host = build_host(&g);
    let store = WalStore::create(StoreConfig::new(&dir), &host).expect("fresh store");
    let cfg = ServeConfig {
        flush_max_events: 1 << 20, // flushes are driven by flush_sync below
        flush_interval_ms: 10_000,
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
    let dir = std::env::temp_dir().join(format!("tsvd-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut child = Command::new(&exe)
        .args(["--exact", "recovery_child_server", "--include-ignored"])
        .env("TSVD_RECOVERY_DIR", &dir)
        .spawn()
        .expect("spawn child server process");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !marker_path(&dir).exists() {
        assert!(Instant::now() < deadline, "child never reached epoch 5");
        if let Some(status) = child.try_wait().unwrap() {
            panic!("child exited early: {status}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("SIGKILL child"); // no cleanup, no final checkpoint
    let _ = child.wait();

    // Recover from checkpoint + WAL…
    let rec = recover(StoreConfig::new(&dir)).expect("recovery");
    assert!(rec.checkpoint_epoch >= 3, "periodic checkpoint never fired");
    assert!(rec.host.batches_recorded() >= 5);

    // …and rebuild the ground truth offline from the durable windows.
    let windows = read_windows(&dir).unwrap();
    assert_eq!(windows.len() as u64, rec.host.batches_recorded());
    let g = base_graph();
    let mut offline = build_host(&g);
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
            "tenant {t} recovered differently than offline replay"
        );
    }

    // The paper-trail check: tenant 0 must also equal a plain
    // single-pipeline replay (no serving layer at all).
    let mut g = base_graph();
    let mut pipe = TreeSvdPipeline::new(&g, &tenant_sources(0), PprConfig::default(), tree_cfg(0));
    for (_, events) in &windows {
        pipe.update(&mut g, events);
    }
    let rec0 = rec.host.tagged(0).unwrap();
    assert_eq!(
        pipe.embedding().left().sub(rec0.left()).max_abs(),
        0.0,
        "recovery diverged from TreeSvdPipeline replay"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Clean shutdown writes a final checkpoint at the last epoch, so a
/// restart replays zero windows and still lands on identical bits.
#[test]
fn clean_shutdown_checkpoints_and_restarts_without_replay() {
    let dir = std::env::temp_dir().join(format!("tsvd-clean-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let g = base_graph();
    let host = build_host(&g);
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

/// The host's whole readable export minus the wall-clock `timings` (the
/// only state two hosts fed the same windows do not share); `rt::json`
/// round-trips every `f64` bitwise, so equal strings are equal states —
/// graph, PPR states, matrix, tree caches, every tenant's embedding.
fn state(host: &TenantHost) -> String {
    use tsvd_rt::json::ToJson;
    let mut j = host.to_json();
    j.remove_key("timings");
    j.to_string()
}

fn checkpoints_in(dir: &Path) -> Vec<(u64, Format)> {
    checkpoint::list_checkpoints(dir)
        .unwrap()
        .into_iter()
        .map(|(e, f, _)| (e, f))
        .collect()
}

/// A store directory as the commit before the binary format left it — one
/// `checkpoint-<E>.json` and the WAL behind it — recovers bitwise; the
/// next checkpoint written is `.bin`, and its compaction removes the
/// `.json`: a directory migrates by being used.
#[test]
fn a_json_only_directory_recovers_bitwise_and_migrates_on_its_next_checkpoint() {
    use tsvd_rt::json::ToJson;

    let dir = std::env::temp_dir().join(format!("tsvd-legacy-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let g = base_graph();
    let mut live = build_host(&g);
    let mut store = WalStore::create(StoreConfig::new(&dir), &live).unwrap();
    for k in 0..5u64 {
        let window = batch(k);
        store.append_window(k + 1, &window).unwrap();
        live.apply_batch(&window);
        if k == 2 {
            // The compatibility call writes the old format's bytes (and
            // compacts the epoch-0 `.bin` away), leaving what the parent
            // commit's server would have left after its checkpoint at 3.
            store.checkpoint(3, &live.to_json()).unwrap();
        }
    }
    drop(store);
    assert_eq!(checkpoints_in(&dir), vec![(3, Format::Json)]);

    let rec = recover(StoreConfig::new(&dir)).expect("recovery from a .json-only directory");
    assert_eq!((rec.checkpoint_epoch, rec.windows_replayed), (3, 2));
    assert!(state(&rec.host) == state(&live), "recovered != live");

    // Serve one more window from the recovered state and shut down: the
    // shutdown checkpoint is binary and nothing of the old format is left.
    let cfg = ServeConfig {
        flush_max_events: 1 << 20,
        flush_interval_ms: 10_000,
        ..ServeConfig::default()
    };
    let server = EmbeddingServer::start_host_with_store(rec.host, cfg, Box::new(rec.store));
    server.submit_batch(batch(5));
    assert_eq!(server.flush_sync(), 6);
    let served = server.shutdown_host();
    // The server flushed the window coalesced.
    live.apply_batch(&tsvd_graph::coalesce(&batch(5)));
    assert_eq!(checkpoints_in(&dir), vec![(6, Format::Bin)]);
    let rec = recover(StoreConfig::new(&dir)).unwrap();
    assert_eq!((rec.checkpoint_epoch, rec.windows_replayed), (6, 0));
    assert!(state(&served) == state(&live), "served != offline");
    assert!(state(&rec.host) == state(&live), "recovered != offline");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One epoch in both formats (what the frozen trace's store probe leaves
/// at toy sizes, where its JSON checkpoint lands on epoch 0 beside the
/// binary one `create` wrote): the binary file is read; damaged, the JSON
/// one is; either way recovery lands on the same bits.
#[test]
fn one_epoch_in_both_formats_recovers_from_either() {
    use tsvd_rt::json::ToJson;

    let dir = std::env::temp_dir().join(format!("tsvd-both-formats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let g = base_graph();
    let mut live = build_host(&g);
    let mut store = WalStore::create(StoreConfig::new(&dir), &live).unwrap();
    store.checkpoint(0, &live.to_json()).unwrap();
    for k in 0..3u64 {
        let window = batch(k);
        store.append_window(k + 1, &window).unwrap();
        live.apply_batch(&window);
    }
    drop(store);
    assert_eq!(
        checkpoints_in(&dir),
        vec![(0, Format::Json), (0, Format::Bin)]
    );
    for damage_the_binary_one in [false, true] {
        if damage_the_binary_one {
            let path = checkpoint::checkpoint_path(&dir, 0, Format::Bin);
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 1;
            std::fs::write(&path, bytes).unwrap();
        }
        let rec = recover(StoreConfig::new(&dir)).expect("recovery");
        assert_eq!((rec.checkpoint_epoch, rec.windows_replayed), (0, 3));
        assert!(state(&rec.host) == state(&live), "recovered != live");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

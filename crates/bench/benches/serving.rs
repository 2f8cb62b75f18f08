//! Serving-layer benchmark: end-to-end flush latency (submit → new epoch
//! published) of the server, the raw engine batch-apply cost, the
//! multi-tenant fan-out and the reader's snapshot-load cost.
//!
//! The batching window is recorded in the bench JSON (`params`) so runs at
//! different serving shapes are comparable.

use std::time::Duration;

use tsvd_bench::setup::standard_setup;
use tsvd_core::TreeSvdConfig;
use tsvd_datasets::DatasetConfig;
use tsvd_graph::EdgeEvent;
use tsvd_rt::bench::BenchHarness;
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};
use tsvd_serve::{EmbeddingServer, ServeConfig, ShardedEngine, TenantHost};

fn random_events(n_nodes: usize, len: usize, seed: u64) -> Vec<EdgeEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let u = rng.gen_range(0..n_nodes) as u32;
            let v = rng.gen_range(0..n_nodes) as u32;
            EdgeEvent::insert(u, v)
        })
        .filter(|e| e.u != e.v)
        .collect()
}

fn main() {
    let mut cfg = DatasetConfig::patent();
    cfg.num_nodes = 5000;
    cfg.num_edges = 25_000;
    cfg.tau = 2;
    let s = standard_setup(&cfg);
    let g0 = s.dataset.stream.snapshot(2);
    let tree_cfg = TreeSvdConfig { ..s.tree_cfg };

    let batch = 256usize;
    let serve_cfg = ServeConfig {
        flush_max_events: batch,
        flush_interval_ms: 60_000, // count-triggered only: measure the flush
        ..Default::default()
    };

    let mut h = BenchHarness::from_args("serving");
    h.record_param("batch_window_events", batch as u64);
    h.record_param("flush_interval_ms", serve_cfg.flush_interval_ms);
    h.record_param("subset_size", s.subset.len() as u64);

    // Raw engine: one coalesced batch through apply_batch.
    let events = random_events(g0.num_nodes(), batch, 42);
    h.bench("engine_apply_batch", || {
        let mut engine = ShardedEngine::new(&g0, &s.subset, 1, s.ppr_cfg, tree_cfg);
        engine.apply_batch(&events);
        engine.epoch()
    });

    // Full server round trip: submit a window, block until its epoch is
    // published (channel hop + batcher + engine + snapshot publish).
    let engine = ShardedEngine::new(&g0, &s.subset, 1, s.ppr_cfg, tree_cfg);
    let server = EmbeddingServer::start(engine, serve_cfg);
    let reader = server.reader();
    let mut round = 0u64;
    h.bench("flush_round_trip", || {
        round += 1;
        let events = random_events(g0.num_nodes(), batch, round);
        let want = server.epoch() + 1;
        server.submit_batch(events); // exactly one count-triggered flush
        assert!(
            reader.wait_for_epoch(want, Duration::from_secs(120)),
            "flush never published"
        );
        want
    });
    server.shutdown();

    // Multi-tenant fan-out: one window recorded once on the shared graph
    // and replayed into every tenant — the per-window cost should grow
    // with the tenant count in the replay/refresh stages only, never in
    // the (shared) graph-mutation stage. Distinct overlapping subsets per
    // tenant.
    let tenant_counts = [1usize, 2, 4];
    h.record_param(
        "tenant_counts",
        tenant_counts
            .iter()
            .map(|&t| t as u64)
            .collect::<Vec<u64>>(),
    );
    for &nt in &tenant_counts {
        let mut host = TenantHost::new(&g0);
        for t in 0..nt {
            let subset: Vec<u32> = s
                .subset
                .iter()
                .skip(t * 4)
                .take(s.subset.len() - 8)
                .copied()
                .collect();
            host.register(t as u32, &subset, s.ppr_cfg, tree_cfg)
                .expect("fresh tenant id");
        }
        let mut round = 10_000u64;
        h.bench(&format!("multi_tenant/tenants_{nt}"), || {
            round += 1;
            let events = random_events(g0.num_nodes(), batch, round);
            host.apply_batch(&events).len()
        });
    }

    // Reader side: snapshot load + one embedding lookup under no writes.
    let engine = ShardedEngine::new(&g0, &s.subset, 1, s.ppr_cfg, tree_cfg);
    let server = EmbeddingServer::start(engine, serve_cfg);
    let reader = server.reader();
    let probe = s.subset[0];
    h.bench("reader_snapshot_get", || {
        let snap = reader.snapshot();
        snap.get(probe).map(|v| v[0].to_bits())
    });
    server.shutdown();

    h.finish();
}

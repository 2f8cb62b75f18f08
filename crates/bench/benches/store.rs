//! Durability-layer benchmark: per-window WAL append cost (the fsync the
//! serving reactor pays before publishing a flush), checkpoint write +
//! compaction, and cold recovery (checkpoint load + WAL replay) against a
//! log of known depth. Workload parameters land in the bench JSON so the
//! fsync cost and replay throughput are comparable across runs.
//!
//! The `checkpoint_write/*/base` and `checkpoint_load/*/base` cells put the
//! binary checkpoint format beside the JSON one it replaced, on a host at
//! the end-to-end benchmark's `base` shape (`tsvd-e2e/src/sut.rs`: patent-
//! like 5 000 nodes / 25 000 edges, |S| = 300, d = 64, b = 16, R = 4,
//! `r_max` = 1e-4) after 256 three-event windows — the state the `durable`
//! workload checkpoints. Write = encode + fsync'd atomic write; load =
//! read + verify + decode. File and per-section bytes go into `params`.
//! The JSON side goes through the `#[doc(hidden)]` compatibility calls the
//! frozen trace keeps alive, and goes when they do.

use std::fs;
use std::path::PathBuf;

use tsvd_core::{Level1Method, PartitionStrategy, TreeSvdConfig, UpdatePolicy};
use tsvd_datasets::{DatasetConfig, SyntheticDataset};
use tsvd_graph::{DynGraph, EdgeEvent};
use tsvd_ppr::PprConfig;
use tsvd_rt::bench::BenchHarness;
use tsvd_rt::json::{FromJson, ToJson};
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};
use tsvd_serve::{DurabilitySink, HostSection, ServeConfig, TenantHost};
use tsvd_store::checkpoint::{self, Format, SectionReader};
use tsvd_store::{read_windows, recover, StoreConfig, WalStore};

const NODES: usize = 60;
const EVENTS_PER_WINDOW: usize = 64;
const REPLAY_WINDOWS: usize = 48;

fn bench_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tsvd-bench-store-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn host() -> TenantHost {
    let mut g = DynGraph::with_nodes(NODES);
    for i in 0..NODES as u32 {
        g.insert_edge(i, (i + 1) % NODES as u32);
        g.insert_edge(i, (i + 11) % NODES as u32);
    }
    let mut h = TenantHost::new(&g);
    let tree = TreeSvdConfig {
        dim: 8,
        branching: 2,
        num_blocks: 4,
        oversample: 6,
        power_iters: 1,
        policy: UpdatePolicy::Lazy { delta: 0.5 },
        seed: 17,
        ..TreeSvdConfig::default()
    };
    h.register(
        0,
        &(0..8).collect::<Vec<_>>(),
        2,
        PprConfig::default(),
        tree,
    )
    .unwrap();
    h
}

/// The `durable` workload's host when it checkpoints: the end-to-end
/// benchmark's `base` fixture (same generator, same seeds, same tree)
/// after `windows` windows of three random events, one in five a delete.
fn base_host(windows: u64) -> TenantHost {
    let (nodes, subset) = (5_000, 300);
    let mut cfg = DatasetConfig::patent();
    cfg.num_nodes = nodes;
    cfg.num_edges = 25_000;
    cfg.tau = 2;
    let data = SyntheticDataset::generate(&cfg);
    let mut h = TenantHost::new(&data.stream.snapshot(2));
    let tree = TreeSvdConfig {
        dim: 64,
        branching: 4,
        num_blocks: 16,
        oversample: 8,
        power_iters: 1,
        level1: Level1Method::Randomized,
        policy: UpdatePolicy::Lazy { delta: 0.65 },
        partition: PartitionStrategy::EqualWidth,
        seed: 42,
    };
    let ppr = PprConfig {
        alpha: 0.2,
        r_max: 1e-4,
    };
    let shards = ServeConfig::default().num_shards;
    h.register(0, &data.sample_subset(subset, 777), shards, ppr, tree)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(0xBA5E);
    for _ in 0..windows {
        let events: Vec<EdgeEvent> = (0..3)
            .map(|_| {
                let u = rng.gen_range(0..nodes) as u32;
                let v = rng.gen_range(0..nodes) as u32;
                if rng.gen_bool(0.2) {
                    EdgeEvent::delete(u, v)
                } else {
                    EdgeEvent::insert(u, v)
                }
            })
            .collect();
        h.apply_batch(&events);
    }
    h
}

fn window(k: u64) -> Vec<EdgeEvent> {
    let mut rng = StdRng::seed_from_u64(0x5708E + k);
    (0..EVENTS_PER_WINDOW)
        .filter_map(|_| {
            let u = rng.gen_range(0..NODES) as u32;
            let v = rng.gen_range(0..NODES) as u32;
            (u != v).then(|| {
                if rng.gen_bool(0.2) {
                    EdgeEvent::delete(u, v)
                } else {
                    EdgeEvent::insert(u, v)
                }
            })
        })
        .collect()
}

fn main() {
    let mut h = BenchHarness::from_args("store");
    h.record_param("events_per_window", EVENTS_PER_WINDOW as u64);
    h.record_param("replay_windows", REPLAY_WINDOWS as u64);
    let cfg_template = StoreConfig::new("unused");
    h.record_param("segment_bytes", cfg_template.segment_bytes);

    // WAL append: encode + write + fsync of one post-coalesce window —
    // the latency the reactor adds to every flush when WAL mode is on.
    let append_dir = bench_dir("append");
    let mut store = WalStore::create(StoreConfig::new(&append_dir), &host()).unwrap();
    let mut epoch = 0u64;
    h.bench("wal_append/window_64ev_fsync", || {
        epoch += 1;
        store.append_window(epoch, &window(epoch)).unwrap();
        epoch
    });

    // Checkpoint as the reactor takes it: stream the live host into an
    // atomic binary file, then compact.
    let ck_host = host();
    let ck_dir = bench_dir("checkpoint");
    let mut ck_store = WalStore::create(StoreConfig::new(&ck_dir), &ck_host).unwrap();
    let mut ck_epoch = 0u64;
    h.bench("checkpoint/write_and_compact", || {
        ck_epoch += 1;
        ck_store.append_window(ck_epoch, &window(ck_epoch)).unwrap();
        DurabilitySink::checkpoint(&mut ck_store, ck_epoch, &ck_host).unwrap();
        ck_epoch
    });

    // The two formats side by side at the size that matters (module docs).
    let base_windows = 256u64;
    let base = base_host(base_windows);
    let fmt_dir = bench_dir("formats");
    fs::create_dir_all(&fmt_dir).unwrap();
    h.bench("checkpoint_write/json/base", || {
        checkpoint::write_json_checkpoint(&fmt_dir, base_windows, &base.to_json()).unwrap()
    });
    h.bench("checkpoint_write/bin/base", || {
        checkpoint::write_checkpoint(&fmt_dir, base_windows, &base).unwrap()
    });
    let bin_path = checkpoint::checkpoint_path(&fmt_dir, base_windows, Format::Bin);
    let json_path = checkpoint::checkpoint_path(&fmt_dir, base_windows, Format::Json);
    // A command-line filter may have skipped the cells that write them.
    if !json_path.exists() {
        checkpoint::write_json_checkpoint(&fmt_dir, base_windows, &base.to_json()).unwrap();
    }
    if !bin_path.exists() {
        checkpoint::write_checkpoint(&fmt_dir, base_windows, &base).unwrap();
    }
    h.bench("checkpoint_load/json/base", || {
        let (_, host_json) = checkpoint::load_latest(&fmt_dir).unwrap();
        TenantHost::from_json(&host_json)
            .unwrap()
            .batches_recorded()
    });
    h.bench("checkpoint_load/bin/base", || {
        let file = fs::File::open(&bin_path).unwrap();
        checkpoint::read_host(file).unwrap().1.batches_recorded()
    });
    h.record_param("base_windows", base_windows);
    h.record_param(
        "checkpoint_json_bytes",
        fs::metadata(&json_path).unwrap().len(),
    );
    h.record_param(
        "checkpoint_bin_bytes",
        fs::metadata(&bin_path).unwrap().len(),
    );
    let mut reader = SectionReader::open(fs::File::open(&bin_path).unwrap()).unwrap();
    let (mut buf, mut bytes) = (Vec::new(), [0u64; HostSection::ALL.len()]);
    while let Some(section) = reader.next_section(&mut buf).unwrap() {
        let kind = HostSection::ALL.iter().position(|s| *s == section);
        bytes[kind.expect("listed in ALL")] += buf.len() as u64;
    }
    for (section, n) in HostSection::ALL.iter().zip(bytes) {
        let key = format!("section_bytes_{section:?}").to_lowercase();
        h.record_param(&key, n);
    }

    // Recovery: seed a log with REPLAY_WINDOWS windows past the initial
    // checkpoint, then measure scan-only and full checkpoint+replay.
    let rec_dir = bench_dir("recover");
    {
        let mut seed = WalStore::create(StoreConfig::new(&rec_dir), &host()).unwrap();
        for k in 1..=REPLAY_WINDOWS as u64 {
            seed.append_window(k, &window(k)).unwrap();
        }
    }
    h.bench("recovery/scan_log_only", || {
        read_windows(&rec_dir).unwrap().len()
    });
    h.bench("recovery/checkpoint_plus_replay", || {
        let rec = recover(StoreConfig::new(&rec_dir)).unwrap();
        assert_eq!(rec.windows_replayed, REPLAY_WINDOWS as u64);
        rec.host.batches_recorded()
    });

    for d in [&append_dir, &ck_dir, &fmt_dir, &rec_dir] {
        let _ = fs::remove_dir_all(d);
    }
    h.finish();
}

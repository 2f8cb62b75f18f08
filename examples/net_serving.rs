//! Serve a subset embedding over TCP: a `NetFront` accepts real socket
//! connections, client threads submit edge events and read rows through
//! `NetClient` (pipelined), and every reply carries the epoch + content
//! checksum so staleness and torn reads are detectable client-side.
//!
//! ```sh
//! cargo run --release --example net_serving
//! ```

use std::time::Instant;

use tree_svd::datasets::DatasetConfig;
use tree_svd::prelude::*;
use tree_svd::serve::net::Request;

fn main() {
    let mut cfg = DatasetConfig::patent();
    cfg.num_nodes = 3000;
    cfg.num_edges = 15_000;
    cfg.tau = 4;
    let data = SyntheticDataset::generate(&cfg);

    let g0 = data.stream.snapshot(2);
    let subset = data.sample_subset(100, 9);
    let tree_cfg = TreeSvdConfig {
        dim: 16,
        num_blocks: 8,
        ..TreeSvdConfig::default()
    };
    let serve_cfg = ServeConfig {
        num_shards: 4,
        flush_max_events: 128,
        flush_interval_ms: 10,
        ..Default::default()
    };

    println!(
        "building sharded engine: |S|={} R={} over {} edges",
        subset.len(),
        serve_cfg.num_shards,
        g0.num_edges()
    );
    let t0 = Instant::now();
    let engine = ShardedEngine::new(
        &g0,
        &subset,
        serve_cfg.num_shards,
        PprConfig::default(),
        tree_cfg,
    );
    println!(
        "initial factorisation: {:.1}ms",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // Network front: OS-assigned port on localhost.
    let front = NetFront::start(EmbeddingServer::start(engine, serve_cfg));
    let addr = front.listen("127.0.0.1:0").expect("bind");
    println!("serving on tcp://{addr}\n");

    // Writer client: streams the dataset's next batches over the socket.
    let writer = {
        let addr = addr.to_string();
        let events: Vec<EdgeEvent> = (3..=data.stream.num_snapshots())
            .flat_map(|t| data.stream.batch(t).to_vec())
            .take(2000)
            .collect();
        std::thread::spawn(move || {
            let mut client =
                NetClient::connect(TcpTransport::new(addr), ClientConfig::default()).unwrap();
            let mut sent = 0u64;
            for chunk in events.chunks(100) {
                sent += client.submit_events(chunk.to_vec()).unwrap();
            }
            let epoch = client.flush().unwrap();
            (sent, epoch)
        })
    };

    // Reader clients: pipelined row reads racing the writer's flushes.
    let probes: Vec<u32> = subset.iter().take(4).copied().collect();
    let readers: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.to_string();
            let probes = probes.clone();
            std::thread::spawn(move || {
                let mut client =
                    NetClient::connect(TcpTransport::new(addr), ClientConfig::default()).unwrap();
                let batch: Vec<Request> =
                    (0..8).map(|_| Request::GetRows(probes.clone())).collect();
                let mut reads = 0usize;
                for _ in 0..50 {
                    reads += client.pipeline(&batch).unwrap().len();
                }
                println!(
                    "reader {i}: {reads} pipelined reads, final epoch {}",
                    client.last_epoch()
                );
                reads
            })
        })
        .collect();

    let (sent, epoch) = writer.join().unwrap();
    println!("writer: {sent} events submitted, flushed to epoch {epoch}");
    for r in readers {
        r.join().unwrap();
    }

    // Tail check over the wire, then a clean shutdown reclaiming the engine.
    let mut tail =
        NetClient::connect(TcpTransport::new(addr.to_string()), ClientConfig::default()).unwrap();
    let stats = tail.stats().unwrap();
    println!(
        "\nstats: epoch {} | submitted {} applied {} coalesced {} pending {} | flush mean {:.2}ms",
        stats.tenant.epoch,
        stats.tenant.events_submitted,
        stats.tenant.events_applied,
        stats.tenant.events_coalesced,
        stats.tenant.events_pending,
        stats.tenant.flush_ms_mean
    );
    println!(
        "host: {} tenant(s), {} batches recorded once on the shared graph",
        stats.host.tenants, stats.host.batches_recorded
    );
    let emb = tail.get_embedding().unwrap();
    assert!(emb.verify_checksum());
    println!(
        "embedding over the wire: {} rows × {} dims, checksum verified",
        emb.sources.len(),
        emb.dim
    );
    drop(tail);

    let engine = front.shutdown();
    println!(
        "front stopped; engine reclaimed at epoch {}",
        engine.epoch()
    );
}

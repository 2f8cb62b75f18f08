//! Multi-client TCP soak test — the network acceptance criterion:
//!
//! N threaded clients fire interleaved `SubmitEvents` / `Flush` /
//! `GetRows` / `GetEmbedding` at a live TCP server while count- and
//! deadline-triggered flushes race underneath. Every reply must pass the
//! client-side guards (epoch monotone per connection, same epoch ⇒ same
//! checksum, embedding replies reproduce their checksum bit-for-bit — all
//! enforced inside `NetClient::observe`), the final counters must account
//! for every submitted event, and the final engine state must match an
//! offline `TreeSvdPipeline` replay of the engine's journaled flush
//! windows **bitwise** — proving no event was lost, duplicated, or
//! reordered within a window on its way through the socket.

use std::time::Duration;

use tree_svd::prelude::*;
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};

fn base_graph(n: usize, edges: usize, seed: u64) -> DynGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DynGraph::with_nodes(n);
    while g.num_edges() < edges {
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
        num_blocks: 4,
        ..Default::default()
    }
}

#[test]
fn multi_client_tcp_soak_matches_offline_replay_bitwise() {
    const NUM_CLIENTS: usize = 4;
    const ROUNDS: usize = 12;
    const BATCH: usize = 10;

    let n = 120usize;
    let g0 = base_graph(n, 500, 3);
    let sources: Vec<u32> = (0..16).collect();

    let mut engine = ShardedEngine::new(&g0, &sources, 1, PprConfig::default(), tree_cfg());
    engine.enable_window_log(); // journal every applied window for the replay
    let server = EmbeddingServer::start(
        engine,
        ServeConfig {
            flush_max_events: 24, // small windows: many flushes racing reads
            flush_interval_ms: 3,
            ..Default::default()
        },
    );
    let front = NetFront::start(server);
    let addr = front.listen("127.0.0.1:0").expect("bind TCP listener");

    let workers: Vec<_> = (0..NUM_CLIENTS)
        .map(|c| {
            let addr = addr.to_string();
            std::thread::spawn(move || -> u64 {
                let mut client =
                    NetClient::connect(TcpTransport::new(addr), ClientConfig::default())
                        .expect("client connect");
                client.ping().expect("ping");
                let mut rng = StdRng::seed_from_u64(1000 + c as u64);
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

                    // Interleave reads: the guards inside the client verify
                    // epoch monotonicity and checksum stability per reply.
                    let rows = client
                        .get_rows(&[c as u32, 10, 15, 90])
                        .expect("rows while flushes race");
                    assert_eq!(rows.dim, 8);
                    if round % 3 == 0 {
                        let emb = client.get_embedding().expect("embedding");
                        assert_eq!(emb.sources.len(), 16);
                        // verify_checksum already ran in the client; an
                        // explicit call documents the torn-read assertion.
                        assert!(emb.verify_checksum(), "torn embedding read");
                    }
                    if round % 4 == 1 {
                        client.flush().expect("flush");
                    }
                }
                submitted
            })
        })
        .collect();

    let total_submitted: u64 = workers.into_iter().map(|h| h.join().expect("client")).sum();
    assert!(total_submitted > 0);

    // Drain everything still pending, then check global accounting.
    let mut tail = NetClient::connect(
        TcpTransport {
            read_timeout: Some(Duration::from_secs(30)),
            ..TcpTransport::new(addr.to_string())
        },
        ClientConfig::default(),
    )
    .expect("tail client");
    tail.flush().expect("final flush");
    let stats = tail.stats().expect("stats");
    assert_eq!(
        stats.tenant.events_submitted, total_submitted,
        "server lost or duplicated submissions"
    );
    assert_eq!(
        stats.tenant.events_applied + stats.tenant.events_coalesced,
        total_submitted,
        "not every submitted event was applied or coalesced"
    );
    assert_eq!(stats.tenant.events_pending, 0);
    assert_eq!(stats.tenant.epoch, stats.tenant.batches_flushed);
    // Single-tenant host: the rollup equals the tenant view, and the
    // shared graph recorded each window exactly once.
    assert_eq!(stats.host.tenants, 1);
    assert_eq!(stats.host.events_submitted, stats.tenant.events_submitted);
    assert_eq!(stats.host.batches_recorded, stats.tenant.epoch);
    drop(tail);

    // Offline ground truth: replay the journaled windows through one
    // pipeline on the same initial graph.
    let engine = front.shutdown();
    let log = engine
        .window_log()
        .expect("window log was enabled")
        .to_vec();
    assert_eq!(log.len() as u64, engine.epoch());
    assert_eq!(
        log.iter().map(|w| w.len() as u64).sum::<u64>(),
        stats.tenant.events_applied,
        "journal disagrees with the applied counter"
    );
    let mut g = g0.clone();
    let mut pipe = TreeSvdPipeline::new(&g, &sources, PprConfig::default(), tree_cfg());
    for window in &log {
        pipe.update(&mut g, window);
    }
    let diff = engine
        .embedding()
        .left()
        .sub(&pipe.embedding().left())
        .max_abs();
    assert_eq!(diff, 0.0, "TCP-served state diverged from offline replay");
    assert_eq!(engine.embedding().sigma, pipe.embedding().sigma);
    assert_eq!(engine.graph().num_edges(), g.num_edges());
}

/// A second, smaller soak over the deterministic loopback transport with a
/// single client but deadline-triggered flushes — catches torn reads in
/// the pure in-process path where scheduling is least socket-like.
#[test]
fn single_client_deadline_flush_soak_over_loopback() {
    let n = 80usize;
    let g0 = base_graph(n, 300, 9);
    let sources: Vec<u32> = (0..10).collect();
    let mut engine = ShardedEngine::new(&g0, &sources, 1, PprConfig::default(), tree_cfg());
    engine.enable_window_log();
    let server = EmbeddingServer::start(
        engine,
        ServeConfig {
            flush_max_events: 1_000_000,
            flush_interval_ms: 2, // deadline decides every window boundary
            ..Default::default()
        },
    );
    let front = NetFront::start(server);
    let mut client = NetClient::connect(front.loopback(), ClientConfig::default()).unwrap();

    let mut rng = StdRng::seed_from_u64(31);
    let mut submitted = 0u64;
    for _ in 0..40 {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u == v {
            continue;
        }
        submitted += client.submit_events(vec![EdgeEvent::insert(u, v)]).unwrap();
        let _ = client.get_rows(&[1, 5, 9]).unwrap(); // guards run per reply
        std::thread::sleep(Duration::from_millis(1));
    }
    client.flush().unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.tenant.events_submitted, submitted);
    assert_eq!(
        stats.tenant.events_applied + stats.tenant.events_coalesced,
        submitted
    );
    assert!(
        stats.tenant.batches_flushed > 1,
        "deadline trigger never split the stream into windows"
    );
    drop(client);

    // Leave events unflushed so shutdown itself must stage and drain the
    // final window (in pipelined mode this is the shutdown-with-staged-
    // window path). The journal replay below still matches bitwise.
    let mut tail = NetClient::connect(front.loopback(), ClientConfig::default()).unwrap();
    tail.submit_events(vec![EdgeEvent::insert(3, 70), EdgeEvent::insert(4, 71)])
        .unwrap();
    drop(tail);

    let engine = front.shutdown();
    let log = engine.window_log().unwrap().to_vec();
    assert_eq!(
        log.len() as u64,
        engine.epoch(),
        "journal disagrees with epoch"
    );
    assert_eq!(
        log.iter().map(|w| w.len() as u64).sum::<u64>(),
        engine.events_applied(),
        "journal disagrees with the engine's applied counter"
    );
    let mut g = g0.clone();
    let mut pipe = TreeSvdPipeline::new(&g, &sources, PprConfig::default(), tree_cfg());
    for window in &log {
        pipe.update(&mut g, window);
    }
    let diff = engine
        .embedding()
        .left()
        .sub(&pipe.embedding().left())
        .max_abs();
    assert_eq!(
        diff, 0.0,
        "loopback-served state diverged from offline replay"
    );
}

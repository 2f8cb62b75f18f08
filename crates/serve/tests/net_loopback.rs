//! Loopback-transport equivalence: the wire path (client → frame codec →
//! pipes → the front's connection loop → server) must return replies **bitwise
//! identical** to in-process reads of the same server — at any shard
//! count. This extends the repo's equivalence chain
//! (pipeline == engine == server) across the network boundary.

use std::io::{self, Write};
use std::net::{Shutdown, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use tsvd_core::TreeSvdConfig;
use tsvd_graph::{DynGraph, EdgeEvent};
use tsvd_ppr::PprConfig;
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};
use tsvd_serve::net::wire::{self, FrameReader, Message, Reply, Request, WIRE_VERSION};
use tsvd_serve::net::{TcpTransport, Transport};
use tsvd_serve::{
    ClientConfig, EmbeddingServer, Metric, NetClient, NetFront, ServeConfig, ShardedEngine,
};

fn base_graph() -> DynGraph {
    let mut rng = StdRng::seed_from_u64(42);
    let n = 80usize;
    let mut g = DynGraph::with_nodes(n);
    while g.num_edges() < 400 {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u != v {
            g.insert_edge(u, v);
        }
    }
    g
}

fn engine(g: &DynGraph) -> ShardedEngine {
    let sources: Vec<u32> = (0..12).collect();
    let cfg = TreeSvdConfig {
        dim: 8,
        num_blocks: 3,
        ..Default::default()
    };
    ShardedEngine::new(g, &sources, 1, PprConfig::default(), cfg)
}

/// Manual-flush config: windows are exactly the submitted chunks.
fn manual_flush() -> ServeConfig {
    ServeConfig {
        flush_max_events: 1_000_000,
        flush_interval_ms: 60_000,
        ..Default::default()
    }
}

/// Deterministic event chunks touching both present and absent edges.
fn event_chunks() -> Vec<Vec<EdgeEvent>> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..4)
        .map(|_| {
            (0..30)
                .map(|_| {
                    let u = rng.gen_range(0..80) as u32;
                    let v = rng.gen_range(0..80) as u32;
                    if rng.gen_range(0..4) == 0 {
                        EdgeEvent::delete(u, v)
                    } else {
                        EdgeEvent::insert(u, v)
                    }
                })
                .filter(|e| e.u != e.v)
                .collect()
        })
        .collect()
}

#[test]
fn loopback_replies_bitwise_equal_in_process() {
    let g = base_graph();
    let chunks = event_chunks();
    let probe: Vec<u32> = vec![0, 5, 11, 70, 200]; // mixes subset, non-subset, out-of-range
    let server = EmbeddingServer::start(engine(&g), manual_flush());
    let in_process = server.reader();
    let front = NetFront::start(server);
    let mut client = NetClient::connect(front.loopback(), ClientConfig::default()).unwrap();

    for (i, chunk) in chunks.iter().enumerate() {
        let accepted = client.submit_events(chunk.clone()).unwrap();
        assert_eq!(accepted, chunk.len() as u64);
        let epoch = client.flush().unwrap();
        assert_eq!(epoch, i as u64 + 1);

        // The wire reply and the in-process snapshot must agree bitwise.
        let snap = in_process.snapshot();
        let rows = client.get_rows(&probe).unwrap();
        assert_eq!(rows.epoch, snap.epoch());
        assert_eq!(rows.checksum_bits, snap.checksum().to_bits());
        assert_eq!(rows.dim as usize, snap.dim());
        for (&node, got) in probe.iter().zip(&rows.rows) {
            match (snap.get(node), got) {
                (None, None) => {}
                (Some(want), Some(got)) => {
                    assert_eq!(want.len(), got.len());
                    for (a, b) in want.iter().zip(got) {
                        assert_eq!(a.to_bits(), b.to_bits(), "row bits differ over the wire");
                    }
                }
                (want, got) => panic!("presence mismatch for node {node}: {want:?} vs {got:?}"),
            }
        }

        let emb = client.get_embedding().unwrap();
        assert!(emb.verify_checksum(), "end-to-end checksum failed");
        assert_eq!(emb.sources, snap.sources());
        for (r, &src) in snap.sources().iter().enumerate() {
            let want = snap.get(src).unwrap();
            for (a, b) in want.iter().zip(emb.row(r)) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "embedding bits differ over the wire"
                );
            }
        }

        let stats = client.stats().unwrap();
        assert_eq!(stats.tenant.epoch, snap.epoch());
        assert_eq!(stats.host.tenants, 1);
        assert_eq!(stats.host.epoch, snap.epoch());
    }

    drop(client);
    front.shutdown();
}

#[test]
fn pipelined_requests_execute_in_order_with_one_round_trip_per_batch() {
    let g = base_graph();
    let server = EmbeddingServer::start(engine(&g), manual_flush());
    let front = NetFront::start(server);
    let mut client = NetClient::connect(front.loopback(), ClientConfig::default()).unwrap();

    let events = vec![EdgeEvent::insert(0, 50), EdgeEvent::insert(1, 51)];
    let replies = client
        .pipeline(&[
            Request::Ping,
            Request::SubmitEvents(events.clone()),
            Request::Flush,
            Request::GetRows(vec![0, 1]),
            Request::GetStats,
        ])
        .unwrap();
    assert_eq!(replies.len(), 5);
    assert!(matches!(replies[0], Reply::Pong));
    assert!(matches!(replies[1], Reply::SubmitAck { accepted: 2 }));
    let Reply::FlushAck { epoch } = replies[2] else {
        panic!("expected FlushAck, got {:?}", replies[2]);
    };
    assert_eq!(
        epoch, 1,
        "flush must observe the pipelined submit before it"
    );
    let Reply::Rows(rows) = &replies[3] else {
        panic!("expected Rows, got {:?}", replies[3]);
    };
    assert_eq!(
        rows.epoch, 1,
        "read after pipelined flush sees the new epoch"
    );
    let Reply::Stats(stats) = &replies[4] else {
        panic!("expected Stats, got {:?}", replies[4]);
    };
    assert_eq!(stats.tenant.events_submitted, 2);
    assert_eq!(stats.tenant.epoch, 1);

    drop(client);
    front.shutdown();
}

#[test]
fn pipelined_replies_are_bitwise_the_single_calls_at_the_same_epoch() {
    let g = base_graph();
    let server = EmbeddingServer::start(engine(&g), manual_flush());
    let front = NetFront::start(server);
    let mut client = NetClient::connect(front.loopback(), ClientConfig::default()).unwrap();
    client.submit_events(event_chunks().remove(0)).unwrap();
    assert_eq!(client.flush().unwrap(), 1);

    // 16 different node lists, so a reply out of order cannot match.
    let lists: Vec<Vec<u32>> = (0..16u32)
        .map(|i| (0..8).map(|j| (i * 5 + j * 3) % 14).collect())
        .collect();
    let burst: Vec<Request> = lists.iter().cloned().map(Request::GetRows).collect();
    let replies = client.pipeline(&burst).unwrap();
    assert_eq!(replies.len(), 16);
    for (nodes, reply) in lists.iter().zip(&replies) {
        let Reply::Rows(piped) = reply else {
            panic!("expected Rows, got {reply:?}");
        };
        let single = client.get_rows(nodes).unwrap();
        assert_eq!((piped.epoch, single.epoch), (1, 1));
        assert_eq!(piped.checksum_bits, single.checksum_bits);
        assert_eq!(piped.dim, single.dim);
        let bits = |r: &wire::RowsReply| -> Vec<Option<Vec<u64>>> {
            r.rows
                .iter()
                .map(|row| {
                    row.as_ref()
                        .map(|v| v.iter().map(|x| x.to_bits()).collect())
                })
                .collect()
        };
        assert_eq!(bits(piped), bits(&single), "nodes {nodes:?}");
    }

    drop(client);
    front.shutdown();
}

/// A 21-deep pipeline of `TopK` — both metrics, `k` from 0 past the
/// subset size, nodes in and out of the subset — split by one `GetRows`
/// into two runs the front answers with one scan each: every reply is
/// bitwise the single `top_k` call at the same epoch.
#[test]
fn pipelined_top_k_replies_are_bitwise_the_single_calls_at_the_same_epoch() {
    let g = base_graph();
    let server = EmbeddingServer::start(engine(&g), manual_flush());
    let front = NetFront::start(server);
    let mut client = NetClient::connect(front.loopback(), ClientConfig::default()).unwrap();
    client.submit_events(event_chunks().remove(0)).unwrap();
    assert_eq!(client.flush().unwrap(), 1);

    let metrics = [Metric::Dot, Metric::Cosine];
    let burst: Vec<Request> = (0..21u32)
        .map(|i| match i {
            10 => Request::GetRows(vec![1, 2, 3]),
            // Subset nodes are 0..12; every fifth query misses.
            _ => Request::TopK {
                node: if i % 5 == 4 { 40 + i } else { (i * 7) % 12 },
                k: [0, 1, 3, 5, 11, 40][i as usize % 6],
                metric: metrics[(i as usize / 2) % 2],
                query: None,
            },
        })
        .collect();
    let replies = client.pipeline(&burst).unwrap();
    assert_eq!(replies.len(), burst.len());
    let bits = |n: &[(u32, f64)]| -> Vec<(u32, u64)> {
        n.iter().map(|&(node, s)| (node, s.to_bits())).collect()
    };
    for (req, reply) in burst.iter().zip(&replies) {
        match (req, reply) {
            (Request::GetRows(_), Reply::Rows(rows)) => assert_eq!(rows.epoch, 1),
            (
                &Request::TopK {
                    node, k, metric, ..
                },
                Reply::TopKReply(piped),
            ) => {
                assert_eq!(piped.epoch, 1);
                let single = client.top_k(node, k, metric).unwrap();
                assert_eq!(piped.found, single.is_some(), "node {node}");
                assert_eq!(
                    bits(&piped.neighbors),
                    bits(&single.unwrap_or_default()),
                    "node {node} k {k} {metric:?}"
                );
            }
            other => panic!("reply does not answer its request: {other:?}"),
        }
    }

    drop(client);
    front.shutdown();
}

#[test]
fn client_reconnects_and_retries_idempotent_calls() {
    let g = base_graph();
    let server = EmbeddingServer::start(engine(&g), manual_flush());
    let front = NetFront::start(server);
    let mut client = NetClient::connect(front.loopback(), ClientConfig::default()).unwrap();

    client.ping().unwrap();
    assert_eq!(client.reconnects(), 0);
    client.disconnect();
    client.ping().unwrap(); // transparently reopens
    assert_eq!(client.reconnects(), 1);

    // Epoch guard state survives the reconnect.
    client
        .submit_events(vec![EdgeEvent::insert(2, 60)])
        .unwrap();
    client.flush().unwrap();
    assert_eq!(client.last_epoch(), 1);
    client.disconnect();
    let rows = client.get_rows(&[2]).unwrap();
    assert_eq!(rows.epoch, 1);
    assert_eq!(client.reconnects(), 2);

    drop(client);
    front.shutdown();
}

#[test]
fn corrupt_frame_draws_connection_error_then_close() {
    let g = base_graph();
    let server = EmbeddingServer::start(engine(&g), manual_flush());
    let front = NetFront::start(server);

    // Talk raw bytes through the transport, bypassing the client: three
    // good frames and a corrupt one, all in the same write.
    let lb = front.loopback();
    let mut duplex = lb.open().unwrap();
    let mut buf = Vec::new();
    for id in 1..=3 {
        wire::encode_frame(id, 0, &Message::Request(Request::Ping), &mut buf);
    }
    let bad = buf.len();
    wire::encode_frame(9, 0, &Message::Request(Request::Ping), &mut buf);
    buf[bad + 20] ^= 0x40; // corrupt the checksum field
    duplex.writer.write_all(&buf).unwrap();
    duplex.writer.flush().unwrap();

    // The frames ahead of the bad one are answered, in order…
    let mut replies = FrameReader::new(&mut duplex.reader);
    for id in 1..=3 {
        let frame = replies.read_frame().unwrap().unwrap();
        assert_eq!(frame.request_id, id);
        assert_eq!(frame.message, Message::Reply(Reply::Pong));
    }
    // …then the connection-level error…
    let frame = replies.read_frame().unwrap().unwrap();
    assert_eq!(frame.request_id, 0, "connection-level error uses id 0");
    assert!(
        matches!(frame.message, Message::Reply(Reply::Error(_))),
        "expected an error reply, got {:?}",
        frame.message
    );
    // …and after reporting, the server closes: clean EOF.
    assert!(replies.read_frame().unwrap().is_none());

    // The front is still healthy for well-behaved clients.
    let mut client = NetClient::connect(front.loopback(), ClientConfig::default()).unwrap();
    client.ping().unwrap();
    drop(client);
    drop(duplex);
    front.shutdown();
}

/// A scripted peer that answers the first frame of every connection the
/// way a front answers a byte stream it cannot read: one connection-level
/// error (request id 0), then it stops writing and drains until the
/// client hangs up.
fn refusing_peer(why: &'static str) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    thread::Builder::new()
        .name("tsvd-test-refusing-peer".into())
        .spawn(move || {
            while let Ok((mut stream, _)) = listener.accept() {
                thread::spawn(move || {
                    let mut frames = FrameReader::new(stream.try_clone().unwrap());
                    if let Ok(Some(_)) = frames.read_frame() {
                        let mut buf = Vec::new();
                        let error = Message::Reply(Reply::Error(why.into()));
                        wire::encode_frame(0, 0, &error, &mut buf);
                        let _ = stream.write_all(&buf);
                        let _ = stream.shutdown(Shutdown::Write);
                    }
                    while let Ok(Some(_)) = frames.read_frame() {}
                });
            }
        })
        .expect("spawn refusing peer");
    addr
}

/// A connection-level error answering a pipelined burst surfaces as the
/// server's error, exactly as it does for a single call — not as a reply
/// with the wrong request id.
#[test]
fn a_connection_level_error_answers_a_burst_as_it_answers_a_single_call() {
    let addr = refusing_peer("unreadable byte stream");
    let connect =
        || NetClient::connect(TcpTransport::new(addr.clone()), ClientConfig::default()).unwrap();
    let single = connect().get_rows(&[1, 2]).unwrap_err();
    let burst: Vec<Request> = (0..16).map(|i| Request::GetRows(vec![i])).collect();
    let piped = connect().pipeline(&burst).unwrap_err();
    for e in [single, piped] {
        assert_eq!(e.kind(), io::ErrorKind::Other, "{e}");
        assert_eq!(e.to_string(), "server error: unreadable byte stream");
    }
}

#[test]
fn old_version_frame_draws_connection_error_then_close() {
    let g = base_graph();
    let server = EmbeddingServer::start(engine(&g), manual_flush());
    let front = NetFront::start(server);

    // A well-formed current frame downgraded to v1 or v2: the version
    // check fires before the checksum, so negotiation fails closed at the
    // first frame.
    let lb = front.loopback();
    for old in 1..WIRE_VERSION {
        let mut duplex = lb.open().unwrap();
        let mut buf = Vec::new();
        wire::encode_frame(9, 0, &Message::Request(Request::Ping), &mut buf);
        buf[2] = old; // stamp a previous wire version
        duplex.writer.write_all(&buf).unwrap();
        duplex.writer.flush().unwrap();

        let mut replies = FrameReader::new(&mut duplex.reader);
        let frame = replies.read_frame().unwrap().unwrap();
        assert_eq!(frame.request_id, 0, "connection-level error uses id 0");
        assert_eq!(frame.tenant, 0, "connection-level error is tenant-less");
        match &frame.message {
            Message::Reply(Reply::Error(why)) => {
                assert!(why.contains(&format!("version {old}")), "{why}")
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
        assert!(replies.read_frame().unwrap().is_none());
    }

    // The front is still healthy for current-version clients.
    let mut client = NetClient::connect(front.loopback(), ClientConfig::default()).unwrap();
    client.ping().unwrap();
    drop(client);
    front.shutdown();
}

#[test]
fn shutdown_request_flushes_and_stops_the_front() {
    let g = base_graph();
    let server = EmbeddingServer::start(engine(&g), manual_flush());
    let front = NetFront::start(server);
    let mut client = NetClient::connect(front.loopback(), ClientConfig::default()).unwrap();

    client
        .submit_events(vec![EdgeEvent::insert(3, 70), EdgeEvent::insert(4, 71)])
        .unwrap();
    client.shutdown_server().unwrap();
    assert!(front.wait_stopped(std::time::Duration::from_secs(10)));

    // New connections are refused once stopped.
    assert!(NetClient::connect(front.loopback(), ClientConfig::default()).is_err());

    drop(client);
    let engine = front.shutdown();
    assert_eq!(
        engine.epoch(),
        1,
        "shutdown must flush pending events first"
    );
    assert_eq!(engine.events_applied(), 2);
}

/// The connection loop reads nothing while a write blocks: a client that
/// pipelines far more than it reads is stalled on its own writes, then
/// gets every reply, in order.
#[test]
fn a_client_that_reads_nothing_is_held_back_and_loses_no_reply() {
    const N: u64 = 20_000;
    let g = base_graph();
    let front = NetFront::start(EmbeddingServer::start(engine(&g), manual_flush()));
    let duplex = front.loopback().open().unwrap();
    let (reader, mut writer) = (duplex.reader, duplex.writer);
    let mut bytes = Vec::new();
    for id in 1..=N {
        let req = Request::GetRows(vec![(id % 12) as u32]);
        wire::encode_frame(id, 0, &Message::Request(req), &mut bytes);
    }
    let written = Arc::new(AtomicBool::new(false));
    let done = written.clone();
    let client_writes = std::thread::spawn(move || {
        writer.write_all(&bytes).unwrap();
        done.store(true, Ordering::Release);
        writer
    });
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        !written.load(Ordering::Acquire),
        "{N} requests were taken with no reply read"
    );
    let mut replies = FrameReader::new(reader);
    for id in 1..=N {
        let frame = replies.read_frame().unwrap().expect("a reply per request");
        assert_eq!(frame.request_id, id);
        assert!(
            matches!(frame.message, Message::Reply(Reply::Rows(_))),
            "{:?}",
            frame.message
        );
    }
    let writer = client_writes.join().unwrap();
    assert!(written.load(Ordering::Acquire));
    drop((writer, replies));
    front.shutdown();
}

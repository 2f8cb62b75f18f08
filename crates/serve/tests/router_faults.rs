//! Router fault battery: every failure mode of the scatter-gather tier,
//! over real TCP sockets, without leaving the test process.
//!
//! * A shard stuck below the barrier epoch → bounded retries, then the
//!   typed [`RouterError::EpochBarrier`] — never a torn merge.
//! * A gathered reply set with a row-coverage gap or overlap → typed
//!   merge rejection.
//! * A corrupt frame from one shard → that request fails
//!   ([`RouterError::Io`]), the router and the other shards stay up, and
//!   the next read succeeds.
//! * A dead leader → failover to its journal-fed follower replica, with
//!   the merged reply bitwise equal to the offline replay — and writes
//!   continuing on the surviving leader.
//! * A follower that outlived the leader's bounded journal → re-seed
//!   over the wire (`GetCheckpoint`), landing bitwise on the replay.

use std::io::Write as _;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use tsvd_core::{Level1Method, PartitionStrategy, TreeSvdConfig, UpdatePolicy};
use tsvd_graph::{DynGraph, EdgeEvent};
use tsvd_ppr::PprConfig;
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};
use tsvd_serve::net::wire::{
    encode_frame, FrameReader, Message, Reply, Request, RowsReply, TopKReply,
};
use tsvd_serve::net::{ClientConfig, NetClient, TcpTransport};
use tsvd_serve::{
    EmbeddingServer, Follower, Metric, NetFront, Router, RouterConfig, RouterError, RouterFront,
    ServeConfig, ShardEndpoint, ShardMap, ShardedEngine, TenantHost,
};

fn fixed_graph() -> DynGraph {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let n = 80;
    let mut g = DynGraph::with_nodes(n);
    while g.num_edges() < 320 {
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
        dim: 4,
        branching: 2,
        num_blocks: 4,
        oversample: 4,
        power_iters: 1,
        level1: Level1Method::Randomized,
        policy: UpdatePolicy::Lazy { delta: 0.4 },
        partition: PartitionStrategy::EqualWidth,
        seed: 11,
    }
}

fn subset() -> Vec<u32> {
    (0..12).collect()
}

/// The per-range engine a shard process runs — and the offline ground
/// truth we replay against (bitwise, per the engine's determinism).
fn range_host(g: &DynGraph, sub: &[u32]) -> TenantHost {
    TenantHost::from_engine(
        ShardedEngine::new(g, sub, 1, PprConfig::default(), tree_cfg()),
        0,
    )
}

/// Driver-controlled flushes only: windows are exactly what the test
/// flushes, so the offline replay sees the same window stream.
fn serve_cfg() -> ServeConfig {
    ServeConfig {
        flush_max_events: 1 << 20,
        flush_interval_ms: 60_000,
        ..Default::default()
    }
}

fn spawn_shard(g: &DynGraph, sub: &[u32], cfg: ServeConfig) -> (NetFront, String) {
    let front = NetFront::start(EmbeddingServer::start_host(range_host(g, sub), cfg));
    let addr = front.listen("127.0.0.1:0").unwrap().to_string();
    (front, addr)
}

fn direct_client(addr: &str) -> NetClient {
    NetClient::connect(TcpTransport::new(addr.to_string()), ClientConfig::default()).unwrap()
}

/// Distinct edges per window so coalescing is the identity.
fn window(k: u32) -> Vec<EdgeEvent> {
    vec![
        EdgeEvent::insert(k, 30 + k),
        EdgeEvent::insert(2 + k, 45 + k),
        EdgeEvent::insert(7 + k, 60 + k),
    ]
}

/// Compare a merged reply against per-range offline replay hosts,
/// bitwise, row by requested node.
fn assert_rows_match_offline(
    map: &ShardMap,
    nodes: &[u32],
    reply: &RowsReply,
    offline: Vec<TenantHost>,
) {
    assert_eq!(reply.rows.len(), nodes.len());
    let snaps: Vec<_> = offline
        .into_iter()
        .map(|h| {
            let f = Follower::new(h);
            let reader = f.reader(0).unwrap();
            reader.snapshot()
        })
        .collect();
    for (slot, &node) in nodes.iter().enumerate() {
        let row = reply.rows[slot].as_ref().unwrap_or_else(|| {
            panic!("node {node} missing from merged reply");
        });
        let k = (0..map.num_shards())
            .find(|&k| map.sources_of(k).contains(&node))
            .unwrap();
        let expect = snaps[k].get(node).unwrap();
        assert_eq!(
            row.as_slice(),
            expect,
            "node {node} (shard {k}) diverged from offline replay"
        );
    }
}

/// One shard advanced behind the router's back sits above the others:
/// the barrier re-probes the laggard the configured number of times,
/// then fails typed — and once the laggard catches up, the same read
/// succeeds.
#[test]
fn stale_epoch_exhausts_bounded_retries_then_fails_typed() {
    let g = fixed_graph();
    let sub = subset();
    let map = ShardMap::even_split(&sub, 2);
    let (front0, a0) = spawn_shard(&g, map.sources_of(0), serve_cfg());
    let (front1, a1) = spawn_shard(&g, map.sources_of(1), serve_cfg());

    let mut router = Router::connect(
        map.clone(),
        vec![
            ShardEndpoint::leader_only(&a0),
            ShardEndpoint::leader_only(&a1),
        ],
        RouterConfig {
            barrier_retries: 2,
            barrier_backoff_ms: 1,
            ..Default::default()
        },
    )
    .unwrap();

    // Advance shard 0 only — a write that bypassed the lockstep broadcast.
    let mut side = direct_client(&a0);
    side.submit_events(window(0)).unwrap();
    assert_eq!(side.flush().unwrap(), 1);

    match router.get_rows(&sub) {
        Err(RouterError::EpochBarrier {
            target,
            shard,
            stuck_at,
            retries,
        }) => {
            assert_eq!(target, 1);
            assert_eq!(shard, 1);
            assert_eq!(stuck_at, 0);
            assert_eq!(retries, 2);
        }
        other => panic!("expected EpochBarrier, got {other:?}"),
    }
    assert_eq!(router.stats().barrier_retries, 2);
    assert!(
        router.failed_over().is_empty(),
        "barrier must not fail over"
    );

    // Heal the laggard with the same window: both shards at epoch 1, and
    // the identical read now merges cleanly.
    let mut side1 = direct_client(&a1);
    side1.submit_events(window(0)).unwrap();
    assert_eq!(side1.flush().unwrap(), 1);
    let merged = router.get_rows(&sub).unwrap();
    assert_eq!(merged.epoch, 1);

    let mut off0 = range_host(&g, map.sources_of(0));
    let mut off1 = range_host(&g, map.sources_of(1));
    off0.apply_batch(&window(0));
    off1.apply_batch(&window(0));
    assert_rows_match_offline(&map, &sub, &merged, vec![off0, off1]);

    front0.shutdown_host();
    front1.shutdown_host();
}

/// Fabricated gathers with a row-coverage gap or overlap are rejected
/// typed — the merge never papers over missing or duplicated rows.
#[test]
fn merged_reply_with_gap_or_overlap_is_rejected() {
    let sub = subset();
    let map = ShardMap::even_split(&sub, 3);
    let nodes: Vec<u32> = vec![sub[0], sub[7], sub[11]];
    let plan = map.plan(&nodes);
    let ok = |rows: usize| RowsReply {
        epoch: 9,
        checksum_bits: 7,
        dim: 4,
        rows: vec![Some(vec![0.0; 4]); rows],
    };
    // Shard 1 drops its one requested row: a gap.
    let gap = map.merge(&plan, &[ok(1), ok(0), ok(1)]).unwrap_err();
    assert!(matches!(gap, RouterError::Merge(_)), "{gap}");
    assert!(gap.to_string().contains("gap"), "{gap}");
    // Shard 2 answers twice for one requested row: an overlap.
    let overlap = map.merge(&plan, &[ok(1), ok(1), ok(2)]).unwrap_err();
    assert!(overlap.to_string().contains("overlap"), "{overlap}");
    // And the aligned set merges.
    assert!(map.merge(&plan, &[ok(1), ok(1), ok(1)]).is_ok());
}

/// A scripted shard impostor: its first connection answers the first
/// request with garbage bytes and hangs up; later connections speak the
/// protocol properly (epoch 0, fixed rows).
fn scripted_shard(dim: usize) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    thread::Builder::new()
        .name("tsvd-test-fake-shard".into())
        .spawn(move || {
            let mut conn_no = 0u32;
            while let Ok((mut stream, _)) = listener.accept() {
                conn_no += 1;
                let corrupt = conn_no == 1;
                let mut frames = FrameReader::new(stream.try_clone().unwrap());
                while let Ok(Some(frame)) = frames.read_frame() {
                    if corrupt {
                        // Not a frame at all: wrong magic, then noise.
                        let _ = stream.write_all(&[0xDE; 64]);
                        break;
                    }
                    let reply = match frame.message {
                        Message::Request(Request::GetRows(nodes)) => Reply::Rows(RowsReply {
                            epoch: 0,
                            checksum_bits: 0x9999,
                            dim: dim as u32,
                            rows: nodes.iter().map(|_| Some(vec![0.5; dim])).collect(),
                        }),
                        Message::Request(Request::Ping) => Reply::Pong,
                        _ => break,
                    };
                    let mut buf = Vec::new();
                    encode_frame(
                        frame.request_id,
                        frame.tenant,
                        &Message::Reply(reply),
                        &mut buf,
                    );
                    if stream.write_all(&buf).is_err() {
                        break;
                    }
                }
                if conn_no >= 2 {
                    break;
                }
            }
        })
        .expect("spawn fake shard");
    addr
}

/// A corrupt frame from one shard fails only that request: the router
/// survives, no failover fires, and the retry round-trips through a
/// fresh connection.
#[test]
fn corrupt_frame_from_one_shard_fails_only_that_request() {
    let g = fixed_graph();
    let sub = subset();
    let map = ShardMap::even_split(&sub, 2);
    let (front0, a0) = spawn_shard(&g, map.sources_of(0), serve_cfg());
    let a1 = scripted_shard(tree_cfg().dim);

    let mut router = Router::connect(
        map.clone(),
        vec![
            ShardEndpoint::leader_only(&a0),
            ShardEndpoint::leader_only(&a1),
        ],
        RouterConfig::default(),
    )
    .unwrap();

    // First read: the impostor answers garbage → a request-level fault
    // pinned to shard 1 — not a failover, not a router crash.
    match router.get_rows(&sub) {
        Err(RouterError::Io { shard, error }) => {
            assert_eq!(shard, 1);
            assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
        }
        other => panic!("expected Io on shard 1, got {other:?}"),
    }
    assert!(router.failed_over().is_empty());
    assert_eq!(router.stats().failovers, 0);

    // Second read: the client reconnects, the impostor now behaves, and
    // the merge sees both ranges at epoch 0.
    let merged = router.get_rows(&sub).unwrap();
    assert_eq!(merged.epoch, 0);
    for (slot, &node) in sub.iter().enumerate() {
        let row = merged.rows[slot].as_ref().unwrap();
        if map.sources_of(1).contains(&node) {
            assert_eq!(
                row.as_slice(),
                &[0.5f64; 4][..],
                "impostor row for node {node}"
            );
        }
    }
    assert_eq!(router.stats().reads, 2);

    front0.shutdown_host();
}

/// Kill a leader mid-deployment: reads fail over to its journal-fed
/// follower (caught up from the *other* shard's journal — lockstep makes
/// the journals interchangeable), the merged reply stays bitwise equal to
/// the offline replay, and writes keep flowing through the survivor.
#[test]
fn dead_leader_fails_over_to_follower_and_writes_continue() {
    let g = fixed_graph();
    let sub = subset();
    let map = ShardMap::even_split(&sub, 2);
    let (front0, a0) = spawn_shard(&g, map.sources_of(0), serve_cfg());
    let (front1, a1) = spawn_shard(&g, map.sources_of(1), serve_cfg());

    // Range 0's follower replica, published over its own read-only front.
    let mut follower0 = Follower::new(range_host(&g, map.sources_of(0)));
    let front_f = NetFront::start_readers(vec![(0, follower0.reader(0).unwrap())]);
    let af = front_f.listen("127.0.0.1:0").unwrap().to_string();

    let mut router = Router::connect(
        map.clone(),
        vec![
            ShardEndpoint::with_follower(&a0, &af),
            ShardEndpoint::leader_only(&a1),
        ],
        RouterConfig {
            barrier_retries: 4,
            barrier_backoff_ms: 1,
            ..Default::default()
        },
    )
    .unwrap();

    // Two windows through the router: lockstep broadcast.
    for k in 0..2u32 {
        router.submit(window(k)).unwrap();
        assert_eq!(router.flush().unwrap(), (k + 1) as u64);
    }
    // The follower catches up from shard *1*'s journal — identical to
    // shard 0's by the lockstep invariant.
    let mut feed = direct_client(&a1);
    assert_eq!(follower0.catch_up(&mut feed, 16).unwrap(), 2);

    // Kill leader 0. Its connections die; the router's next read on that
    // range hits a dead transport.
    front0.shutdown_host();

    let merged = router.get_rows(&sub).unwrap();
    assert_eq!(merged.epoch, 2);
    assert_eq!(router.stats().failovers, 1);
    assert_eq!(router.failed_over(), vec![0]);

    let mut off0 = range_host(&g, map.sources_of(0));
    let mut off1 = range_host(&g, map.sources_of(1));
    for k in 0..2u32 {
        off0.apply_batch(&window(k));
        off1.apply_batch(&window(k));
    }
    assert_rows_match_offline(&map, &sub, &merged, vec![off0, off1]);

    // Writes continue on the survivor; the follower replays the new
    // window and the next read merges at the new epoch.
    router.submit(window(2)).unwrap();
    assert_eq!(router.flush().unwrap(), 3);
    assert_eq!(follower0.catch_up(&mut feed, 16).unwrap(), 3);
    let merged = router.get_rows(&sub).unwrap();
    assert_eq!(merged.epoch, 3);
    let mut off0 = range_host(&g, map.sources_of(0));
    let mut off1 = range_host(&g, map.sources_of(1));
    for k in 0..3u32 {
        off0.apply_batch(&window(k));
        off1.apply_batch(&window(k));
    }
    assert_rows_match_offline(&map, &sub, &merged, vec![off0, off1]);

    front1.shutdown_host();
    front_f.shutdown_readers();
}

/// An explicit-vector `TopK` through a range whose leader died is failed
/// over and sent again to that range's follower inside the same round:
/// the answer is bitwise the one the leader gave at the same epoch, and
/// no barrier retry (or backoff sleep) is spent on it.
#[test]
fn explicit_vector_top_k_fails_over_to_the_follower_in_one_round() {
    let g = fixed_graph();
    let sub = subset();
    let map = ShardMap::even_split(&sub, 2);
    let (front0, a0) = spawn_shard(&g, map.sources_of(0), serve_cfg());
    let (front1, a1) = spawn_shard(&g, map.sources_of(1), serve_cfg());
    let mut follower0 = Follower::new(range_host(&g, map.sources_of(0)));
    let front_f = NetFront::start_readers(vec![(0, follower0.reader(0).unwrap())]);
    let af = front_f.listen("127.0.0.1:0").unwrap().to_string();

    let mut router = Router::connect(
        map.clone(),
        vec![
            ShardEndpoint::with_follower(&a0, &af),
            ShardEndpoint::leader_only(&a1),
        ],
        RouterConfig {
            barrier_retries: 4,
            barrier_backoff_ms: 1,
            ..Default::default()
        },
    )
    .unwrap();
    for k in 0..2u32 {
        router.submit(window(k)).unwrap();
        assert_eq!(router.flush().unwrap(), (k + 1) as u64);
    }
    let mut feed = direct_client(&a1);
    assert_eq!(follower0.catch_up(&mut feed, 16).unwrap(), 2);
    let retries_before = router.stats().barrier_retries;

    let front = RouterFront::start(router);
    let mut client = direct_client(&front.listen("127.0.0.1:0").unwrap().to_string());
    let node = sub[0];
    let query = client.get_rows(&[node]).unwrap().rows[0].clone();
    let top_k = Request::TopK {
        node,
        k: 5,
        metric: Metric::Dot,
        query,
    };
    let mut ask = || match client.pipeline(std::slice::from_ref(&top_k)).unwrap().pop() {
        Some(Reply::TopKReply(t)) => t,
        other => panic!("expected a TopK reply, got {other:?}"),
    };
    let from_leader = ask();
    assert_eq!(from_leader.epoch, 2);

    front0.shutdown_host();
    let from_follower = ask();
    let bits = |t: &TopKReply| -> Vec<(u32, u64)> {
        t.neighbors.iter().map(|&(n, s)| (n, s.to_bits())).collect()
    };
    assert_eq!(from_follower.epoch, 2);
    assert_eq!(from_follower.checksum_bits, from_leader.checksum_bits);
    assert_eq!(bits(&from_follower), bits(&from_leader));

    drop(client);
    let router = front.shutdown().unwrap();
    assert_eq!(router.failed_over(), vec![0]);
    assert_eq!(router.stats().failovers, 1);
    assert_eq!(router.stats().barrier_retries, retries_before);
    front1.shutdown_host();
    front_f.shutdown_readers();
}

/// A follower that outlived the leader's bounded journal re-seeds over
/// real TCP (`GetCheckpoint` → install → finish catch-up from the
/// journal tail) and lands bitwise on the offline replay.
#[test]
fn follower_reseeds_over_tcp_after_journal_compaction() {
    let g = fixed_graph();
    let sub = subset();
    let cfg = ServeConfig {
        journal_keep: 2,
        ..serve_cfg()
    };
    let (front, addr) = spawn_shard(&g, &sub, cfg);
    let mut client = direct_client(&addr);
    let mut offline = range_host(&g, &sub);
    for k in 0..5u32 {
        client.submit_events(window(k)).unwrap();
        client.flush().unwrap();
        offline.apply_batch(&window(k));
    }

    let mut follower = Follower::new(range_host(&g, &sub));
    // Plain catch-up cannot work: windows 1..=3 are compacted away.
    assert!(matches!(
        follower.catch_up(&mut client, 16),
        Err(tsvd_serve::CatchUpError::Compacted {
            oldest: 4,
            requested: 1
        })
    ));
    // The self-healing ladder re-seeds from the checkpoint, then drains
    // the journal tail.
    assert_eq!(follower.catch_up_or_reseed(&mut client, 16).unwrap(), 5);
    let reader = follower.reader(0).unwrap();
    let snap = reader.snapshot();
    assert!(snap.verify());
    let diff = snap
        .tagged()
        .left()
        .sub(offline.tagged(0).unwrap().left())
        .max_abs();
    assert_eq!(diff, 0.0, "re-seeded follower diverged from offline replay");

    front.shutdown_host();
}

/// One shard's rows read directly off the wire must equal the offline
/// replay of `windows` batches, bitwise.
fn assert_shard_matches_offline(g: &DynGraph, sub: &[u32], addr: &str, windows: u32) {
    let mut c = direct_client(addr);
    let reply = c.get_rows(sub).unwrap();
    assert_eq!(reply.epoch, windows as u64);
    let mut off = range_host(g, sub);
    for k in 0..windows {
        off.apply_batch(&window(k));
    }
    let f = Follower::new(off);
    let reader = f.reader(0).unwrap();
    let snap = reader.snapshot();
    for (slot, &node) in sub.iter().enumerate() {
        assert_eq!(
            reply.rows[slot].as_deref().unwrap(),
            snap.get(node).unwrap(),
            "node {node} diverged from offline replay"
        );
    }
}

/// A write fault on a range with *no* follower must not abort the
/// broadcast: every remaining shard still receives the batch (staying in
/// lockstep with its peers), the faulted range is permanently poisoned —
/// never written to or read from again, even though the client would
/// transparently reconnect — and the `ShardDown` surfaces only after the
/// loop completes.
#[test]
fn write_fault_without_follower_completes_broadcast_and_poisons_range() {
    let g = fixed_graph();
    let sub = subset();
    let map = ShardMap::even_split(&sub, 3);
    let (front0, a0) = spawn_shard(&g, map.sources_of(0), serve_cfg());
    let (front1, a1) = spawn_shard(&g, map.sources_of(1), serve_cfg());
    let (front2, a2) = spawn_shard(&g, map.sources_of(2), serve_cfg());

    let mut router = Router::connect(
        map.clone(),
        vec![
            ShardEndpoint::leader_only(&a0),
            ShardEndpoint::leader_only(&a1),
            ShardEndpoint::leader_only(&a2),
        ],
        RouterConfig::default(),
    )
    .unwrap();

    router.submit(window(0)).unwrap();
    assert_eq!(router.flush().unwrap(), 1);

    // Kill leader 0 — the *first* shard in broadcast order, so shards 1
    // and 2 only see the next write if the loop keeps going past the
    // fault.
    front0.shutdown_host();

    match router.submit(window(1)) {
        Err(RouterError::ShardDown { shard: 0, .. }) => {}
        other => panic!("expected ShardDown on shard 0, got {other:?}"),
    }
    assert_eq!(router.poisoned(), vec![0]);
    assert!(router.failed_over().is_empty());
    assert_eq!(router.stats().poisoned, 1);
    assert_eq!(router.stats().failovers, 0);

    // The faulting broadcast completed, and further writes keep flowing
    // without touching the poisoned range.
    assert_eq!(router.flush().unwrap(), 2);
    router.submit(window(2)).unwrap();
    assert_eq!(router.flush().unwrap(), 3);

    // Both survivors saw every window — including the one whose broadcast
    // faulted — and match the offline replay bitwise.
    assert_shard_matches_offline(&g, map.sources_of(1), &a1, 3);
    assert_shard_matches_offline(&g, map.sources_of(2), &a2, 3);

    // Reads fail typed: no replica covers the poisoned range, and the
    // router must not re-dial the diverged leader.
    match router.get_rows(&sub) {
        Err(RouterError::ShardDown { shard: 0, .. }) => {}
        other => panic!("expected ShardDown read, got {other:?}"),
    }

    front1.shutdown_host();
    front2.shutdown_host();
}

/// A uniform request-level rejection — every shard refuses the batch at
/// admission (tenant quota) and applies nothing — is backpressure, not
/// divergence: the router surfaces the typed `Io`, fails nothing over,
/// and the deployment keeps serving lockstep writes and reads once the
/// quota frees up.
#[test]
fn uniform_quota_rejection_is_not_divergence() {
    let g = fixed_graph();
    let sub = subset();
    let map = ShardMap::even_split(&sub, 2);
    let cfg = ServeConfig {
        tenant_quota: 4,
        ..serve_cfg()
    };
    let (front0, a0) = spawn_shard(&g, map.sources_of(0), cfg);
    let (front1, a1) = spawn_shard(&g, map.sources_of(1), cfg);

    let mut router = Router::connect(
        map.clone(),
        vec![
            ShardEndpoint::leader_only(&a0),
            ShardEndpoint::leader_only(&a1),
        ],
        RouterConfig::default(),
    )
    .unwrap();

    // 3 events pending on every shard (within the quota of 4)…
    router.submit(window(0)).unwrap();
    // …so the next 3-event batch overflows the quota on *every* shard:
    // rejected everywhere, applied nowhere.
    match router.submit(window(1)) {
        Err(RouterError::Io { shard: 0, error }) => {
            assert!(error.to_string().contains("quota"), "{error}");
        }
        other => panic!("expected quota Io, got {other:?}"),
    }
    assert!(router.failed_over().is_empty());
    assert!(router.poisoned().is_empty());
    assert_eq!(router.stats().failovers, 0);

    // Flushing frees the quota; the same batch then lands in lockstep…
    assert_eq!(router.flush().unwrap(), 1);
    router.submit(window(1)).unwrap();
    assert_eq!(router.flush().unwrap(), 2);

    // …and the read merges both ranges bitwise equal to the replay.
    let merged = router.get_rows(&sub).unwrap();
    assert_eq!(merged.epoch, 2);
    let mut off0 = range_host(&g, map.sources_of(0));
    let mut off1 = range_host(&g, map.sources_of(1));
    for k in 0..2u32 {
        off0.apply_batch(&window(k));
        off1.apply_batch(&window(k));
    }
    assert_rows_match_offline(&map, &sub, &merged, vec![off0, off1]);

    front0.shutdown_host();
    front1.shutdown_host();
}

/// A scripted shard whose `SubmitEvents` reply stalls until `gate`
/// flips, while `GetRows`/`TopK`/`Ping` answer immediately — one thread
/// per accepted connection, so a stalled write conn never blocks a read
/// conn. `write_seen` flips the moment the stalled write *arrives*, so
/// the test knows the router lock is held before it issues reads.
fn stalling_shard(
    dim: usize,
    sub: Vec<u32>,
    gate: Arc<AtomicBool>,
    write_seen: Arc<AtomicBool>,
) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    thread::Builder::new()
        .name("tsvd-test-stall-shard".into())
        .spawn(move || {
            while let Ok((mut stream, _)) = listener.accept() {
                let gate = gate.clone();
                let write_seen = write_seen.clone();
                let sub = sub.clone();
                thread::spawn(move || {
                    let mut frames = FrameReader::new(stream.try_clone().unwrap());
                    while let Ok(Some(frame)) = frames.read_frame() {
                        let reply = match frame.message {
                            Message::Request(Request::SubmitEvents(events)) => {
                                write_seen.store(true, Ordering::Release);
                                while !gate.load(Ordering::Acquire) {
                                    thread::sleep(Duration::from_millis(1));
                                }
                                Reply::SubmitAck {
                                    accepted: events.len() as u64,
                                }
                            }
                            Message::Request(Request::GetRows(nodes)) => Reply::Rows(RowsReply {
                                epoch: 0,
                                checksum_bits: 0x9999,
                                dim: dim as u32,
                                rows: nodes.iter().map(|_| Some(vec![0.5; dim])).collect(),
                            }),
                            Message::Request(Request::TopK { node, k, .. }) => {
                                Reply::TopKReply(TopKReply {
                                    epoch: 0,
                                    checksum_bits: 0x9999,
                                    found: true,
                                    neighbors: sub
                                        .iter()
                                        .filter(|&&n| n != node)
                                        .take(k as usize)
                                        .map(|&n| (n, 0.25))
                                        .collect(),
                                })
                            }
                            Message::Request(Request::Ping) => Reply::Pong,
                            _ => break,
                        };
                        let mut buf = Vec::new();
                        encode_frame(
                            frame.request_id,
                            frame.tenant,
                            &Message::Reply(reply),
                            &mut buf,
                        );
                        if stream.write_all(&buf).is_err() {
                            break;
                        }
                    }
                });
            }
        })
        .expect("spawn stalling shard");
    addr
}

/// The satellite pin for the old front bottleneck: a write stalled
/// inside the router lock must NOT serialize reads from *other*
/// connections. Conn A's `SubmitEvents` blocks server-side (holding the
/// router's write lock the whole time); conn B's `GetRows` and `TopK`
/// must complete while A is still blocked, on B's own read session.
#[test]
fn front_reads_proceed_while_a_write_holds_the_router_lock() {
    let sub = subset();
    let map = ShardMap::even_split(&sub, 1);
    let gate = Arc::new(AtomicBool::new(false));
    let write_seen = Arc::new(AtomicBool::new(false));
    let addr = stalling_shard(4, sub.clone(), gate.clone(), write_seen.clone());

    let router = Router::connect(
        map,
        vec![ShardEndpoint::leader_only(&addr)],
        RouterConfig::default(),
    )
    .unwrap();
    let front = RouterFront::start(router);
    let front_addr = front.listen("127.0.0.1:0").unwrap().to_string();

    // Conn A: a write that stalls server-side, holding the router lock.
    let a_addr = front_addr.clone();
    let writer = thread::spawn(move || {
        let mut a = NetClient::connect(TcpTransport::new(a_addr), ClientConfig::default()).unwrap();
        a.submit_events(window(0)).unwrap()
    });
    let t0 = Instant::now();
    while !write_seen.load(Ordering::Acquire) {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "write never arrived"
        );
        thread::sleep(Duration::from_millis(1));
    }

    // Conn B: reads on its own session, while the write is still stuck.
    let b_addr = front_addr.clone();
    let sub_b = sub.clone();
    let reader = thread::spawn(move || {
        let mut b = NetClient::connect(TcpTransport::new(b_addr), ClientConfig::default()).unwrap();
        let rows = b.get_rows(&sub_b).unwrap();
        let topk = b.top_k(sub_b[0], 3, Metric::Dot).unwrap().unwrap();
        (rows, topk)
    });
    let t1 = Instant::now();
    while !reader.is_finished() {
        assert!(
            t1.elapsed() < Duration::from_secs(10),
            "reads serialized behind the stalled write — the front regressed \
             to one-request-at-a-time"
        );
        thread::sleep(Duration::from_millis(1));
    }
    let (rows, topk) = reader.join().unwrap();
    assert_eq!(rows.epoch, 0);
    assert_eq!(rows.rows.len(), sub.len());
    assert_eq!(topk.len(), 3);
    assert!(
        !gate.load(Ordering::Acquire),
        "test bug: gate opened before the reads finished"
    );

    // Release the write; conn A completes normally.
    gate.store(true, Ordering::Release);
    assert_eq!(writer.join().unwrap(), window(0).len() as u64);

    let router = front.shutdown().unwrap();
    assert_eq!(router.stats().writes, 1);
    // get_rows + top_k (its internal anchor probe is part of one read).
    assert_eq!(router.stats().reads, 2);
}

/// A rejection on one shard while another shard *applied* the same batch
/// is divergence — the rejecting shard missed a write its peers took —
/// and rides the failover ladder like any write fault: with no follower,
/// the range is poisoned after the broadcast completes.
#[test]
fn divergent_quota_rejection_rides_the_failover_ladder() {
    let g = fixed_graph();
    let sub = subset();
    let map = ShardMap::even_split(&sub, 2);
    // Shard 0 unbounded, shard 1 with a quota smaller than one window:
    // the same broadcast lands on 0 and bounces off 1.
    let (front0, a0) = spawn_shard(&g, map.sources_of(0), serve_cfg());
    let cfg1 = ServeConfig {
        tenant_quota: 2,
        ..serve_cfg()
    };
    let (front1, a1) = spawn_shard(&g, map.sources_of(1), cfg1);

    let mut router = Router::connect(
        map.clone(),
        vec![
            ShardEndpoint::leader_only(&a0),
            ShardEndpoint::leader_only(&a1),
        ],
        RouterConfig::default(),
    )
    .unwrap();

    match router.submit(window(0)) {
        Err(RouterError::ShardDown { shard: 1, .. }) => {}
        other => panic!("expected ShardDown on shard 1, got {other:?}"),
    }
    assert_eq!(router.poisoned(), vec![1]);

    // Shard 0 applied the batch; the deployment keeps writing on it.
    assert_eq!(router.flush().unwrap(), 1);
    assert_shard_matches_offline(&g, map.sources_of(0), &a0, 1);

    front0.shutdown_host();
    front1.shutdown_host();
}

/// A 16-deep pipeline through the router's front is answered in request
/// order, each reply bitwise the single call for the same nodes at the
/// same epoch — coalescing the replies into one write changes no byte.
#[test]
fn a_pipeline_through_the_router_front_is_the_single_calls_in_order() {
    let g = fixed_graph();
    let sub = subset();
    let map = ShardMap::even_split(&sub, 2);
    let (front0, a0) = spawn_shard(&g, map.sources_of(0), serve_cfg());
    let (front1, a1) = spawn_shard(&g, map.sources_of(1), serve_cfg());
    let mut router = Router::connect(
        map,
        vec![
            ShardEndpoint::leader_only(&a0),
            ShardEndpoint::leader_only(&a1),
        ],
        RouterConfig::default(),
    )
    .unwrap();
    router.submit(window(0)).unwrap();
    assert_eq!(router.flush().unwrap(), 1);
    let front = RouterFront::start(router);
    let addr = front.listen("127.0.0.1:0").unwrap().to_string();
    let mut client = direct_client(&addr);

    // 16 different node lists across both ranges, so a reply out of order
    // cannot match its single call.
    let lists: Vec<Vec<u32>> = (0..16u32)
        .map(|i| (0..5).map(|j| (i + j * 5) % 12).collect())
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
        let bits = |r: &RowsReply| -> Vec<Vec<u64>> {
            r.rows
                .iter()
                .map(|row| row.as_ref().unwrap().iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(piped), bits(&single), "nodes {nodes:?}");
    }

    drop(client);
    front.shutdown().unwrap();
    front0.shutdown_host();
    front1.shutdown_host();
}

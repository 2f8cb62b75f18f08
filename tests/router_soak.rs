//! Multi-process router soak: the scale-out deployment as it would really
//! run — a router process scatter-gathering over two shard processes with
//! a journal-fed follower replica, all talking real TCP — under
//! concurrent writers, a SIGKILL mid-stream, and a clean drain-and-stop.
//!
//! Topology (each box a separate OS process, spawned from this test
//! binary via the `--exact <helper> --include-ignored` idiom):
//!
//! ```text
//!   parent (writers + assertions)
//!        │ wire protocol
//!        ▼
//!   router ──▶ shard 0   (SIGKILLed mid-stream)
//!          ──▶ shard 1   (survivor; ground-truth journal)
//!          ──▶ follower  (range 0 replica, fed from shard 1's journal)
//! ```
//!
//! Ground truth is the **surviving shard's journal**: the windows it
//! retains are exactly the post-coalesce windows every process applied
//! (the router's lockstep broadcast makes the journals interchangeable),
//! so replaying them offline through a fresh per-range host must
//! reproduce — bitwise — every row the router serves, including rows the
//! follower answers after the SIGKILL failover. The final `Shutdown`
//! must drain the still-staged window into the survivor before it exits.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use tsvd_core::{Level1Method, PartitionStrategy, TreeSvdConfig, UpdatePolicy};
use tsvd_graph::{DynGraph, EdgeEvent};
use tsvd_ppr::PprConfig;
use tsvd_rt::bin::{fnv1a64, CHECKSUM_OFFSET};
use tsvd_rt::json::{Json, ToJson};
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};
use tsvd_serve::net::{ClientConfig, NetClient, RowsReply, TcpTransport, WindowsPull};
use tsvd_serve::{
    EmbeddingServer, Follower, NetFront, Router, RouterConfig, RouterFront, ServeConfig,
    ShardEndpoint, ShardMap, ShardedEngine, TenantHost,
};

const NODES: usize = 90;
const WRITERS: usize = 3;
const ROUNDS: usize = 12;

fn base_graph() -> DynGraph {
    let mut rng = StdRng::seed_from_u64(0xB07E5);
    let mut g = DynGraph::with_nodes(NODES);
    while g.num_edges() < 400 {
        let u = rng.gen_range(0..NODES) as u32;
        let v = rng.gen_range(0..NODES) as u32;
        if u != v {
            g.insert_edge(u, v);
        }
    }
    g
}

fn tree_cfg() -> TreeSvdConfig {
    TreeSvdConfig {
        dim: 6,
        branching: 2,
        num_blocks: 4,
        oversample: 4,
        power_iters: 1,
        level1: Level1Method::Randomized,
        policy: UpdatePolicy::Lazy { delta: 0.4 },
        partition: PartitionStrategy::EqualWidth,
        seed: 23,
    }
}

fn subset() -> Vec<u32> {
    (0..16).collect()
}

fn shard_map() -> ShardMap {
    ShardMap::even_split(&subset(), 2)
}

/// The per-range host every process builds from the shared constants —
/// shard `k`'s engine, the follower's seed for range 0, and the parent's
/// offline replay target.
fn range_host(g: &DynGraph, k: usize) -> TenantHost {
    TenantHost::from_engine(
        ShardedEngine::new(
            g,
            shard_map().sources_of(k),
            1,
            PprConfig::default(),
            tree_cfg(),
        ),
        0,
    )
}

/// Flushes are wire-driven only: the windows are exactly what the router
/// broadcast, nothing timer-triggered.
fn serve_cfg() -> ServeConfig {
    ServeConfig {
        flush_max_events: 1 << 20,
        flush_interval_ms: 60_000,
        ..Default::default()
    }
}

/// Writer `w`'s round-`i` batch. Writers overlap on purpose — coalescing
/// may drop events, which is fine because ground truth replays the
/// *post-coalesce* journal windows, not the submitted stream.
fn writer_batch(w: usize, i: usize) -> Vec<EdgeEvent> {
    let mut rng = StdRng::seed_from_u64(0x5EED + (w * 1000 + i) as u64);
    let mut events = Vec::new();
    for _ in 0..3 {
        let u = rng.gen_range(0..NODES) as u32;
        let v = rng.gen_range(0..NODES) as u32;
        if u != v {
            events.push(EdgeEvent::insert(u, v));
        }
    }
    events.push(EdgeEvent::delete((w % 7) as u32, (20 + i % 11) as u32));
    events
}

/// The known staged-but-unflushed batch the final `Shutdown` must drain.
/// Distinct edges, so its coalesced window is itself.
fn final_batch() -> Vec<EdgeEvent> {
    vec![
        EdgeEvent::insert(1, 71),
        EdgeEvent::insert(5, 77),
        EdgeEvent::insert(11, 83),
    ]
}

fn connect(addr: &str) -> NetClient {
    NetClient::connect(TcpTransport::new(addr.to_string()), ClientConfig::default()).unwrap()
}

/// Publish `value` at `dir/name` atomically (write-then-rename), so a
/// polling reader never sees a half-written address.
fn publish(dir: &Path, name: &str, value: &str) {
    let tmp = dir.join(format!("{name}.tmp"));
    fs::write(&tmp, value).expect("write marker");
    fs::rename(&tmp, dir.join(name)).expect("rename marker");
}

fn wait_for(dir: &Path, name: &str, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    let path = dir.join(name);
    loop {
        if let Ok(s) = fs::read_to_string(&path) {
            if !s.is_empty() {
                return s;
            }
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {}",
            path.display()
        );
        thread::sleep(Duration::from_millis(10));
    }
}

fn run_dir() -> PathBuf {
    PathBuf::from(
        std::env::var_os("TSVD_RSOAK_DIR").expect("parent sets TSVD_RSOAK_DIR for helpers"),
    )
}

/// Child: one shard process over its contiguous range. Publishes its
/// address, serves until a wire `Shutdown` stops the front (draining
/// staged windows first), then dumps its final epoch + embedding for the
/// parent to diff. Honors `TSVD_WAL=1` by attaching a real `WalStore`,
/// exactly like the single-shard crash-recovery legs.
#[test]
#[ignore = "helper: spawned by router_soak test as a shard process"]
fn router_soak_child_shard() {
    let Some(range) = std::env::var_os("TSVD_RSOAK_RANGE") else {
        return;
    };
    let k: usize = range.to_string_lossy().parse().expect("range index");
    let dir = run_dir();
    let g = base_graph();
    let host = range_host(&g, k);
    let cfg = serve_cfg();
    let handle = if std::env::var_os("TSVD_WAL").is_some_and(|v| v == "1") {
        let store = tsvd_store::WalStore::create(
            tsvd_store::StoreConfig::new(dir.join(format!("wal-shard{k}"))),
            &host,
        )
        .expect("create shard WAL");
        EmbeddingServer::start_host_with_store(host, cfg, Box::new(store))
    } else {
        EmbeddingServer::start_host(host, cfg)
    };
    let front = NetFront::start(handle);
    let addr = front.listen("127.0.0.1:0").expect("shard listen");
    publish(&dir, &format!("shard{k}.addr"), &addr.to_string());

    assert!(
        front.wait_stopped(Duration::from_secs(600)),
        "shard {k} never told to stop"
    );
    // Wire Shutdown flushed (drained staged windows) before stopping; the
    // reclaimed host is the post-drain state the parent will diff.
    let host = front.shutdown_host();
    let dump = Json::object(vec![
        (
            "epoch".to_string(),
            Json::Int(host.batches_recorded() as i64),
        ),
        ("left".to_string(), host.tagged(0).unwrap().left().to_json()),
    ]);
    publish(&dir, &format!("shard{k}.dump.json"), &dump.to_string());
}

/// Child: range 0's follower replica. Catches up from the *survivor*
/// shard's journal (lockstep makes every shard's journal identical) in a
/// tight loop, serving its published epochs over a read-only front, until
/// the parent drops the stop marker.
#[test]
#[ignore = "helper: spawned by router_soak test as the follower process"]
fn router_soak_child_follower() {
    if std::env::var_os("TSVD_RSOAK_DIR").is_none() {
        return;
    }
    let dir = run_dir();
    let feed_addr = wait_for(&dir, "shard1.addr", Duration::from_secs(60));
    let g = base_graph();
    let mut follower = Follower::new(range_host(&g, 0));
    let front = NetFront::start_readers(vec![(0, follower.reader(0).unwrap())]);
    let addr = front.listen("127.0.0.1:0").expect("follower listen");
    publish(&dir, "follower.addr", &addr.to_string());

    let mut feed = connect(&feed_addr);
    while !dir.join("stop.marker").exists() {
        // Errors are transient (the feed shard mid-restart or shut down at
        // the end): the client reconnects by itself on the next pull.
        let _ = follower.catch_up_or_reseed(&mut feed, 8);
        thread::sleep(Duration::from_millis(5));
    }
    front.shutdown_readers();
}

/// Child: the router process. Wires the shard map to the published
/// addresses, serves scatter-gather until a wire `Shutdown` (which also
/// shuts the shards down), then exits.
#[test]
#[ignore = "helper: spawned by router_soak test as the router process"]
fn router_soak_child_router() {
    if std::env::var_os("TSVD_RSOAK_DIR").is_none() {
        return;
    }
    let dir = run_dir();
    let a0 = wait_for(&dir, "shard0.addr", Duration::from_secs(60));
    let a1 = wait_for(&dir, "shard1.addr", Duration::from_secs(60));
    let af = wait_for(&dir, "follower.addr", Duration::from_secs(60));
    let router = Router::connect(
        shard_map(),
        vec![
            ShardEndpoint::with_follower(&a0, &af),
            ShardEndpoint::leader_only(&a1),
        ],
        RouterConfig {
            // Bounded barrier budget (~0.5 s of cumulative backoff): a
            // mid-storm read that cannot settle fails fast and releases
            // the router lock to the writers; the parent's settle loop
            // simply retries until the follower reaches the survivor's
            // epoch.
            barrier_retries: 14,
            barrier_backoff_ms: 5,
            ..Default::default()
        },
    )
    .expect("router connect");
    let front = RouterFront::start(router);
    let addr = front.listen("127.0.0.1:0").expect("router listen");
    publish(&dir, "router.addr", &addr.to_string());
    assert!(
        front.wait_stopped(Duration::from_secs(600)),
        "router never told to stop"
    );
    drop(front.shutdown()); // None: the wire Shutdown consumed the router.
}

fn spawn_helper(name: &str, dir: &Path, extra: &[(&str, &str)]) -> std::process::Child {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.args(["--exact", name, "--include-ignored"])
        .env("TSVD_RSOAK_DIR", dir);
    for (k, v) in extra {
        cmd.env(k, v);
    }
    cmd.spawn().unwrap_or_else(|e| panic!("spawn {name}: {e}"))
}

/// Page the survivor's full journal: windows `1..=upto`, in order.
fn pull_journal(client: &mut NetClient, upto: u64) -> Vec<Vec<EdgeEvent>> {
    let mut windows = Vec::new();
    let mut after = 0u64;
    while after < upto {
        match client.pull_windows(after, 16).expect("journal pull") {
            WindowsPull::Windows(r) => {
                assert!(!r.windows.is_empty(), "journal dried up at epoch {after}");
                assert_eq!(r.first_epoch, after + 1, "journal stream gap");
                after += r.windows.len() as u64;
                windows.extend(r.windows);
            }
            WindowsPull::Compacted { oldest, requested } => {
                panic!("journal compacted ({oldest}/{requested}) under default retention")
            }
        }
    }
    assert_eq!(windows.len() as u64, upto);
    windows
}

/// Replay `windows` into fresh per-range hosts — the offline ground
/// truth every served row must match bitwise.
fn offline_replay(g: &DynGraph, windows: &[Vec<EdgeEvent>]) -> Vec<TenantHost> {
    (0..2)
        .map(|k| {
            let mut h = range_host(g, k);
            for w in windows {
                h.apply_batch(w);
            }
            h
        })
        .collect()
}

/// Bitwise-compare a router reply against the offline replay, node by
/// node, and check the merged checksum is the FNV chain of the per-range
/// snapshot checksums.
fn assert_reply_matches_offline(reply: &RowsReply, offline: Vec<TenantHost>, epoch: u64) {
    assert_eq!(reply.epoch, epoch);
    let map = shard_map();
    let snaps: Vec<_> = offline
        .into_iter()
        .map(|h| Follower::new(h).reader(0).unwrap().snapshot())
        .collect();
    let mut chain = CHECKSUM_OFFSET;
    for snap in &snaps {
        assert_eq!(snap.epoch(), epoch, "offline replay epoch");
        chain = fnv1a64(chain, &snap.checksum().to_bits().to_le_bytes());
    }
    assert_eq!(
        reply.checksum_bits, chain,
        "merged checksum is not the per-range FNV chain"
    );
    for (slot, &node) in subset().iter().enumerate() {
        let row = reply.rows[slot]
            .as_ref()
            .unwrap_or_else(|| panic!("node {node} missing from merged reply"));
        let k = usize::from(!map.sources_of(0).contains(&node));
        let expect = snaps[k].get(node).unwrap();
        assert_eq!(
            row.as_slice(),
            expect,
            "node {node} (range {k}) diverged from offline replay"
        );
    }
}

/// The soak: 4 real processes, 3 concurrent writers, one SIGKILL, one
/// clean shutdown — every served row pinned to the offline replay.
#[test]
fn router_soak_survives_sigkill_and_drains_on_shutdown() {
    let dir = std::env::temp_dir().join(format!("tsvd-router-soak-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create run dir");

    // Processes: two shards, the follower (range 0, fed from shard 1),
    // then the router once everyone has published an address.
    let mut shard0 = spawn_helper(
        "router_soak_child_shard",
        &dir,
        &[("TSVD_RSOAK_RANGE", "0")],
    );
    let mut shard1 = spawn_helper(
        "router_soak_child_shard",
        &dir,
        &[("TSVD_RSOAK_RANGE", "1")],
    );
    wait_for(&dir, "shard0.addr", Duration::from_secs(60));
    let a1 = wait_for(&dir, "shard1.addr", Duration::from_secs(60));
    let mut follower = spawn_helper("router_soak_child_follower", &dir, &[]);
    wait_for(&dir, "follower.addr", Duration::from_secs(60));
    let mut router = spawn_helper("router_soak_child_router", &dir, &[]);
    let router_addr = wait_for(&dir, "router.addr", Duration::from_secs(60));

    // Concurrent writers, each on its own connection: submit rounds with
    // periodic flushes. Writes may momentarily fail while the SIGKILL
    // failover settles; the router heals and the stream continues.
    let write_ok = Arc::new(AtomicU64::new(0));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let addr = router_addr.clone();
            let ok = write_ok.clone();
            thread::Builder::new()
                .name(format!("soak-writer-{w}"))
                .spawn(move || {
                    let mut client = connect(&addr);
                    for i in 0..ROUNDS {
                        let mut round_ok = client.submit_events(writer_batch(w, i)).is_ok();
                        if i % 3 == 2 {
                            round_ok &= client.flush().is_ok();
                        }
                        if round_ok {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        thread::sleep(Duration::from_millis(5));
                    }
                })
                .expect("spawn writer")
        })
        .collect();

    // SIGKILL shard 0 mid-stream, then keep reading through the storm:
    // successful replies must always be whole (every subset row present).
    thread::sleep(Duration::from_millis(60));
    shard0.kill().expect("SIGKILL shard 0");
    let mut reader = connect(&router_addr);
    let mut reads_ok = 0u64;
    while writers.iter().any(|w| !w.is_finished()) {
        if let Ok(reply) = reader.get_rows(&subset()) {
            assert_eq!(reply.rows.len(), subset().len());
            assert!(reply.rows.iter().all(Option::is_some), "torn merged reply");
            reads_ok += 1;
        }
        thread::sleep(Duration::from_millis(25));
    }
    for w in writers {
        w.join().expect("writer panicked");
    }
    let status0 = shard0.wait().expect("reap shard 0");
    assert!(!status0.success(), "shard 0 should have died by signal");
    assert!(
        write_ok.load(Ordering::Relaxed) >= (WRITERS * ROUNDS) as u64 / 2,
        "most writes should survive the failover"
    );

    // Quiesce: a final flush pins the stream, then wait out the barrier
    // while the follower catches up to the survivor's epoch.
    let epoch = reader.flush().expect("final flush");
    assert!(epoch >= 1, "at least one window must have flushed");
    let deadline = Instant::now() + Duration::from_secs(30);
    let final_reply = loop {
        match reader.get_rows(&subset()) {
            Ok(r) if r.epoch == epoch => break r,
            _ if Instant::now() >= deadline => {
                panic!("router never served a whole read at epoch {epoch}")
            }
            _ => thread::sleep(Duration::from_millis(20)),
        }
    };
    let _ = reads_ok; // best-effort: mid-storm reads may all hit the barrier

    // Ground truth: the survivor's journal, replayed offline per range.
    // This is the headline bit: rows served across the failover — range 0
    // now comes from the follower process — equal the offline replay.
    let g = base_graph();
    let mut truth = connect(&a1);
    let windows = pull_journal(&mut truth, epoch);
    assert_reply_matches_offline(&final_reply, offline_replay(&g, &windows), epoch);

    // Clean shutdown drains staged windows: stage a known batch without
    // flushing, then Shutdown through the router. The router flushes the
    // shards before stopping them, so the survivor's final dump must be
    // one epoch ahead, bitwise equal to replay-plus-final-batch.
    reader
        .submit_events(final_batch())
        .expect("stage final batch");
    reader.shutdown_server().expect("router shutdown");

    let status_r = router.wait().expect("reap router");
    assert!(status_r.success(), "router process failed");
    let status1 = shard1.wait().expect("reap shard 1");
    assert!(status1.success(), "survivor shard process failed");

    let dump = wait_for(&dir, "shard1.dump.json", Duration::from_secs(30));
    let dump = Json::parse(&dump).expect("parse survivor dump");
    assert_eq!(
        dump.get("epoch"),
        Some(&Json::Int((epoch + 1) as i64)),
        "shutdown did not drain the staged window"
    );
    let mut off1 = range_host(&g, 1);
    for w in &windows {
        off1.apply_batch(w);
    }
    off1.apply_batch(&final_batch());
    let expect = off1.tagged(0).unwrap().left().to_json().to_string();
    assert_eq!(
        dump.get("left").map(|j| j.to_string()),
        Some(expect),
        "survivor's drained state diverged from offline replay"
    );

    // Stop the follower and reap it.
    publish(&dir, "stop.marker", "stop");
    let status_f = follower.wait().expect("reap follower");
    assert!(status_f.success(), "follower process failed");
    let _ = fs::remove_dir_all(&dir);
}

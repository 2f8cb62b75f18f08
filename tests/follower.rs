//! Journal-fed follower replicas over the real wire protocol.
//!
//! A follower is a second [`TenantHost`] — built from the same initial
//! state as the leader — that pulls the leader's post-coalesce flush
//! windows with `GetWindows` over `serve::net` and replays them locally.
//! Because every layer below the reactor is bitwise deterministic, the
//! follower's published embedding at epoch `k` must equal the leader's at
//! epoch `k` bit for bit, for every tenant, at every epoch it publishes —
//! including after a disconnect, and even from a *different process*
//! (the subprocess half below).
//!
//! [`NetFront::start`] owns the leader's `ServerHandle`, so the leader's
//! side of each comparison comes from [`EmbeddingReader`]s captured before
//! the front starts, and ingest is driven over the wire by a separate
//! "driver" client — the same way a real deployment would feed it.

use std::path::PathBuf;
use std::process::Command;

use tsvd_core::{TreeSvdConfig, UpdatePolicy};
use tsvd_graph::{DynGraph, EdgeEvent};
use tsvd_ppr::PprConfig;
use tsvd_rt::json::ToJson;
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};
use tsvd_serve::net::{ClientConfig, NetClient, NetFront, TcpTransport};
use tsvd_serve::{EmbeddingReader, EmbeddingServer, Follower, ServeConfig, TenantHost};

const NODES: usize = 100;
const TENANTS: [u32; 2] = [0, 3];

fn base_graph() -> DynGraph {
    let mut rng = StdRng::seed_from_u64(0xF0110);
    let mut g = DynGraph::with_nodes(NODES);
    while g.num_edges() < 500 {
        let u = rng.gen_range(0..NODES) as u32;
        let v = rng.gen_range(0..NODES) as u32;
        if u != v {
            g.insert_edge(u, v);
        }
    }
    g
}

fn tree_cfg(tenant: u32) -> TreeSvdConfig {
    TreeSvdConfig {
        dim: 8,
        branching: 2,
        num_blocks: 4,
        oversample: 6,
        power_iters: 1,
        policy: UpdatePolicy::Lazy { delta: 0.5 },
        seed: 90 + tenant as u64,
        ..TreeSvdConfig::default()
    }
}

/// The identical host leader and follower both build from the shared seed.
fn build_host(g: &DynGraph) -> TenantHost {
    let mut host = TenantHost::new(g);
    for (i, &t) in TENANTS.iter().enumerate() {
        let sources: Vec<u32> = (0..6).map(|k| (i * 10 + k) as u32).collect();
        host.register(t, &sources, PprConfig::default(), tree_cfg(t))
            .unwrap();
    }
    host
}

fn batch(k: u64) -> Vec<EdgeEvent> {
    let mut rng = StdRng::seed_from_u64(0x0F0 + k);
    let mut events = Vec::new();
    for _ in 0..5 {
        let u = rng.gen_range(0..NODES) as u32;
        let v = rng.gen_range(0..NODES) as u32;
        if u != v {
            events.push(EdgeEvent::insert(u, v));
        }
    }
    events.push(EdgeEvent::delete((k % 9) as u32, (30 + k % 13) as u32));
    events
}

/// Leader-side read handles, captured before [`NetFront::start`] takes the
/// `ServerHandle`. Readers are wait-free and keep serving every epoch the
/// reactor publishes.
fn leader_readers(leader: &tsvd_serve::ServerHandle) -> Vec<(u32, EmbeddingReader)> {
    TENANTS
        .iter()
        .map(|&t| (t, leader.reader_for(t).unwrap()))
        .collect()
}

fn assert_follower_matches_leader(
    follower: &Follower,
    readers: &[(u32, EmbeddingReader)],
    epoch: u64,
    ctx: &str,
) {
    for (t, reader) in readers {
        let snap = follower.reader(*t).unwrap().snapshot();
        assert_eq!(snap.epoch(), epoch, "{ctx}: tenant {t} epoch");
        assert!(snap.verify(), "{ctx}: tenant {t} torn snapshot");
        let lead = reader.snapshot();
        assert_eq!(lead.epoch(), epoch, "{ctx}: leader tenant {t} epoch");
        let f = snap.tagged();
        let l = lead.tagged();
        assert_eq!(
            f.left().sub(l.left()).max_abs(),
            0.0,
            "{ctx}: tenant {t} follower diverged from leader at epoch {epoch}"
        );
    }
}

fn connect(addr: &std::net::SocketAddr) -> NetClient {
    NetClient::connect(TcpTransport::new(addr.to_string()), ClientConfig::default()).unwrap()
}

/// Follower catches up over real TCP at every epoch the leader publishes,
/// pages its pulls, and recovers from a disconnect by simply reconnecting.
#[test]
fn follower_serves_leader_bits_at_every_epoch_and_survives_disconnect() {
    let g = base_graph();
    let leader = EmbeddingServer::start_host(
        build_host(&g),
        ServeConfig {
            flush_max_events: 1 << 20,
            flush_interval_ms: 10_000,
            ..ServeConfig::default()
        },
    );
    let readers = leader_readers(&leader);
    let front = NetFront::start(leader);
    let addr = front.listen("127.0.0.1:0").unwrap();
    let mut driver = connect(&addr);
    let mut follower = Follower::new(build_host(&g));
    let mut client = connect(&addr);

    // Phase 1: catch up after every single flush — per-epoch equality.
    for k in 0..3u64 {
        driver.submit_events(batch(k)).unwrap();
        let epoch = driver.flush().unwrap();
        assert_eq!(epoch, k + 1);
        let caught = follower.catch_up(&mut client, 16).unwrap();
        assert_eq!(caught, epoch);
        assert_follower_matches_leader(&follower, &readers, epoch, "lockstep");
    }

    // Phase 2: disconnect, let the leader advance several epochs, then
    // reconnect and page the backlog two windows at a time.
    drop(client);
    for k in 3..8u64 {
        driver.submit_events(batch(k)).unwrap();
        driver.flush().unwrap();
    }
    let mut client = connect(&addr);
    let caught = follower.catch_up(&mut client, 2).unwrap();
    assert_eq!(caught, 8);
    assert_follower_matches_leader(&follower, &readers, 8, "after disconnect");

    // An already-caught-up pull is a cheap no-op.
    assert_eq!(follower.catch_up(&mut client, 2).unwrap(), 8);

    drop(client);
    drop(driver);
    front.shutdown_host();
}

fn dump_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tsvd-follower-dump-{}-{tag}.json",
        std::process::id()
    ))
}

/// Child half of the cross-process test: build the same initial host from
/// the shared seed, catch up over TCP against the leader the parent runs,
/// and dump every tenant's embedding JSON for the parent to diff.
#[test]
#[ignore = "helper: spawned by follower_in_second_process_matches_leader_bitwise"]
fn follower_child_catch_up() {
    let Some(addr) = std::env::var_os("TSVD_FOLLOWER_ADDR") else {
        return;
    };
    let out = PathBuf::from(std::env::var_os("TSVD_FOLLOWER_OUT").expect("parent sets out path"));
    let g = base_graph();
    let mut follower = Follower::new(build_host(&g));
    let mut client = NetClient::connect(
        TcpTransport::new(addr.to_string_lossy().into_owned()),
        ClientConfig::default(),
    )
    .expect("connect to leader");
    let epoch = follower.catch_up(&mut client, 4).expect("catch up");
    let host = follower.into_host();
    let mut fields = vec![("epoch".to_string(), tsvd_rt::json::Json::Int(epoch as i64))];
    for &t in &TENANTS {
        fields.push((format!("t{t}"), host.tagged(t).unwrap().left().to_json()));
    }
    let json = tsvd_rt::json::Json::object(fields);
    std::fs::write(out, json.to_string()).expect("write follower dump");
}

/// A follower in a **separate process**, fed only journal frames over TCP,
/// serves reads bitwise-equal to the leader.
#[test]
fn follower_in_second_process_matches_leader_bitwise() {
    let g = base_graph();
    let leader = EmbeddingServer::start_host(
        build_host(&g),
        ServeConfig {
            flush_max_events: 1 << 20,
            flush_interval_ms: 10_000,
            ..ServeConfig::default()
        },
    );
    let readers = leader_readers(&leader);
    let front = NetFront::start(leader);
    let addr = front.listen("127.0.0.1:0").unwrap();
    let mut driver = connect(&addr);
    for k in 0..5u64 {
        driver.submit_events(batch(k)).unwrap();
        driver.flush().unwrap();
    }

    let out = dump_path("child");
    let _ = std::fs::remove_file(&out);
    let exe = std::env::current_exe().expect("test binary path");
    let status = Command::new(&exe)
        .args(["--exact", "follower_child_catch_up", "--include-ignored"])
        .env("TSVD_FOLLOWER_ADDR", addr.to_string())
        .env("TSVD_FOLLOWER_OUT", &out)
        .status()
        .expect("spawn follower process");
    assert!(status.success(), "follower process failed");

    let dump = std::fs::read_to_string(&out).expect("read follower dump");
    let json = tsvd_rt::json::Json::parse(&dump).expect("parse follower dump");
    let _ = std::fs::remove_file(&out);
    assert_eq!(json.get("epoch"), Some(&tsvd_rt::json::Json::Int(5)));
    for (t, reader) in &readers {
        // rt::json round-trips every f64 bitwise, so equal JSON text of the
        // leader's left factor means equal bits.
        let lead = reader.snapshot().tagged().left().to_json().to_string();
        let follow = json.get(&format!("t{t}")).expect("tenant dump").to_string();
        assert_eq!(
            follow, lead,
            "tenant {t}: cross-process follower bits differ from leader"
        );
    }

    drop(driver);
    front.shutdown_host();
}

//! Equivalence battery for top-k serving: every route a top-k query can
//! take to the scan must produce the *bitwise identical* neighbor list.
//!
//! * `EpochSnapshot::top_k` ≡ a naive reference reimplemented here,
//!   across epochs of dirty-row churn.
//! * The row norms a snapshot carries are the canonical norms of its own
//!   rows at every epoch, on the leader and on a follower through both of
//!   its publish routes (checkpoint re-seed, journal replay).
//! * The wire path (`NetClient::top_k` → `NetFront`) ≡ the in-process
//!   snapshot call.
//! * The router's scatter-gather merge ≡ a single unsharded process,
//!   including the merged checksum chain.
//! * A follower replica serves *stale-but-consistent* top-k: its answer
//!   matches the offline replay at its own epoch, not the leader's.
//!
//! The suite runs under the ci matrix at `TSVD_THREADS ∈ {1, default, 4}` — the
//! deterministic total order (score descending by `total_cmp`, ties by
//! ascending row) must not depend on the thread count.

use tsvd_core::{Level1Method, PartitionStrategy, TreeSvdConfig, UpdatePolicy};
use tsvd_graph::{DynGraph, EdgeEvent};
use tsvd_ppr::PprConfig;
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};
use tsvd_serve::net::wire::MAX_TOP_K;
use tsvd_serve::net::{ClientConfig, NetClient, TcpTransport};
use tsvd_serve::{
    CatchUpError, EmbeddingServer, EpochSnapshot, Follower, Metric, NetFront, Router, RouterConfig,
    RouterFront, ServeConfig, ShardEndpoint, ShardMap, ShardedEngine, TenantHost, TopKQuery,
};

const SUBSET: u32 = 96;

fn fixed_graph() -> DynGraph {
    let mut rng = StdRng::seed_from_u64(0x70CC);
    let n = 160;
    let mut g = DynGraph::with_nodes(n);
    while g.num_edges() < 640 {
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
    (0..SUBSET).collect()
}

fn range_host(g: &DynGraph, sub: &[u32]) -> TenantHost {
    TenantHost::from_engine(
        ShardedEngine::new(g, sub, 1, PprConfig::default(), tree_cfg()),
        0,
    )
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        flush_max_events: 1 << 20,
        flush_interval_ms: 60_000,
        ..Default::default()
    }
}

/// Churn windows that touch only a handful of subset nodes each, so most
/// rows (and their norms) carry over unchanged from epoch to epoch.
fn churn(k: u32) -> Vec<EdgeEvent> {
    vec![
        EdgeEvent::insert(k % SUBSET, 100 + k),
        EdgeEvent::insert((3 * k + 1) % SUBSET, 120 + k),
        EdgeEvent::delete(k % SUBSET, 100 + k),
        EdgeEvent::insert((7 * k + 2) % SUBSET, 140 + k),
    ]
}

/// The naive reference: score every row with the same sequential dot
/// reduction, sort by the canonical total order, truncate. Rebuilt from
/// the snapshot's own rows, so an answer that diverges from it diverges
/// from the data it was served from.
fn naive_top_k(
    snap: &EpochSnapshot,
    node: u32,
    k: usize,
    metric: Metric,
) -> Option<Vec<(u32, f64)>> {
    let sub: Vec<u32> = snap.sources().to_vec();
    let q = snap.get(node)?.to_vec();
    let q_scale = match metric {
        Metric::Dot => 1.0,
        Metric::Cosine => EpochSnapshot::query_inv_norm(&q),
    };
    let mut scored: Vec<(usize, u32, f64)> = Vec::new();
    for (row, &src) in sub.iter().enumerate() {
        if src == node {
            continue;
        }
        let r = snap.get(src).unwrap();
        let dot = q.iter().zip(r).fold(0.0f64, |acc, (a, b)| acc + a * b);
        let score = match metric {
            Metric::Dot => dot,
            Metric::Cosine => (dot * q_scale) * EpochSnapshot::query_inv_norm(r),
        };
        scored.push((row, src, score));
    }
    scored.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    Some(scored.into_iter().map(|(_, src, s)| (src, s)).collect())
}

fn assert_bitwise_eq(got: &[(u32, f64)], want: &[(u32, f64)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.0, w.0, "{what}: node mismatch at rank {i}");
        assert_eq!(
            g.1.to_bits(),
            w.1.to_bits(),
            "{what}: score at rank {i} not bitwise equal ({} vs {})",
            g.1,
            w.1
        );
    }
}

/// `top_k` and the naive reference agree bitwise at every epoch of a
/// dirty-row churn stream, for both metrics and several k — one query at
/// a time, and all of an epoch's queries in one `top_k_batch` scan.
#[test]
fn top_k_and_naive_agree_across_churn() {
    let g = fixed_graph();
    let sub = subset();
    let server = EmbeddingServer::start_host(range_host(&g, &sub), serve_cfg());
    let reader = server.reader();

    for epoch in 0..4u32 {
        if epoch > 0 {
            assert!(server.submit_batch(churn(epoch)));
            server.flush_sync();
        }
        let snap = reader.snapshot();
        assert_eq!(snap.epoch(), epoch as u64);
        let mut batch = Vec::new();
        let mut wants = Vec::new();
        for &node in &[0u32, 17, 95] {
            for &k in &[1usize, 5, 13, SUBSET as usize + 10] {
                for metric in [Metric::Dot, Metric::Cosine] {
                    let want = naive_top_k(&snap, node, k, metric).unwrap();
                    let got = snap.top_k(node, k, metric).unwrap();
                    assert_bitwise_eq(
                        &got,
                        &want,
                        &format!("epoch {epoch} node {node} k {k} {metric:?}: top_k vs naive"),
                    );
                    batch.push(TopKQuery::Node { node, k, metric });
                    wants.push(Some(want));
                }
            }
        }
        // Non-subset nodes are a clean miss, not a panic.
        assert!(snap.top_k(SUBSET + 5, 3, Metric::Dot).is_none());
        batch.insert(
            7,
            TopKQuery::Node {
                node: SUBSET + 5,
                k: 3,
                metric: Metric::Dot,
            },
        );
        wants.insert(7, None);
        let got = snap.top_k_batch(&batch);
        assert_eq!(got.len(), wants.len());
        for (i, (got, want)) in got.iter().zip(&wants).enumerate() {
            match (got, want) {
                (Some(got), Some(want)) => assert_bitwise_eq(
                    got,
                    want,
                    &format!("epoch {epoch} query {i} of a batch vs naive"),
                ),
                (got, want) => assert_eq!(got.is_some(), want.is_some(), "query {i}"),
            }
        }
    }
    server.shutdown_host();
}

/// The norms `snap` carries are bitwise the canonical (sequential-sum)
/// norms of its own rows, and cosine `top_k` — the metric that reads
/// them — is bitwise the naive answer.
fn assert_norms_canonical_and_cosine_naive(snap: &EpochSnapshot, what: &str) {
    assert!(snap.verify(), "{what}: checksum");
    let tagged = snap.tagged();
    assert_eq!(
        snap.norms().len(),
        tagged.num_rows(),
        "{what}: norms length"
    );
    for r in 0..tagged.num_rows() {
        let mut sum = 0.0f64;
        for &x in tagged.row(r) {
            sum += x * x;
        }
        assert_eq!(
            snap.norms()[r].to_bits(),
            sum.sqrt().to_bits(),
            "{what}: norm of row {r}"
        );
    }
    for &node in &[0u32, 17, 95] {
        for &k in &[5usize, SUBSET as usize + 10] {
            let want = naive_top_k(snap, node, k, Metric::Cosine).unwrap();
            let got = snap.top_k(node, k, Metric::Cosine).unwrap();
            assert_bitwise_eq(&got, &want, &format!("{what} node {node} k {k}: cosine"));
        }
    }
}

/// Every published snapshot's norms describe that snapshot's rows and
/// nothing older: at every epoch of a churn stream on the leader, and on a
/// follower that first jumps epochs by re-seeding from the leader's
/// checkpoint (publishing a replacement engine through the cells it
/// already handed out) and then replays the journal window by window.
#[test]
fn norms_follow_every_publish_on_leader_and_follower() {
    let g = fixed_graph();
    let sub = subset();
    let cfg = ServeConfig {
        journal_keep: 2,
        ..serve_cfg()
    };
    let server = EmbeddingServer::start_host(range_host(&g, &sub), cfg);
    let reader = server.reader();
    let front = NetFront::start(server);
    let addr = front.listen("127.0.0.1:0").unwrap().to_string();
    let mut client = NetClient::connect(TcpTransport::new(addr), ClientConfig::default()).unwrap();

    let mut follower = Follower::new(range_host(&g, &sub));
    let freader = follower.reader(0).unwrap();
    assert_norms_canonical_and_cosine_naive(&reader.snapshot(), "leader epoch 0");
    assert_norms_canonical_and_cosine_naive(&freader.snapshot(), "follower epoch 0");

    for epoch in 1..=5u64 {
        client.submit_events(churn(epoch as u32)).unwrap();
        client.flush().unwrap();
        let snap = reader.snapshot();
        assert_eq!(snap.epoch(), epoch);
        assert_norms_canonical_and_cosine_naive(&snap, &format!("leader epoch {epoch}"));

        // The follower sits out epochs 1–2, so at 3 the two-window journal
        // no longer reaches it and only a re-seed can bring it level;
        // epochs 4 and 5 then arrive by plain journal replay.
        if epoch == 3 {
            assert!(matches!(
                follower.catch_up(&mut client, 16),
                Err(CatchUpError::Compacted { .. })
            ));
        }
        if epoch >= 3 {
            assert_eq!(follower.catch_up_or_reseed(&mut client, 16).unwrap(), epoch);
            let fsnap = freader.snapshot();
            assert_eq!(fsnap.epoch(), epoch);
            assert_norms_canonical_and_cosine_naive(&fsnap, &format!("follower epoch {epoch}"));
        }
    }
    front.shutdown_host();
}

/// The wire path answers bitwise what the in-process snapshot answers,
/// and misses (non-subset nodes) come back `Ok(None)`.
#[test]
fn wire_top_k_matches_in_process() {
    let g = fixed_graph();
    let sub = subset();
    let server = EmbeddingServer::start_host(range_host(&g, &sub), serve_cfg());
    let reader = server.reader();
    let front = NetFront::start(server);
    let addr = front.listen("127.0.0.1:0").unwrap().to_string();
    let mut client = NetClient::connect(TcpTransport::new(addr), ClientConfig::default()).unwrap();

    client.submit_events(churn(1)).unwrap();
    client.flush().unwrap();

    let snap = reader.snapshot();
    for metric in [Metric::Dot, Metric::Cosine] {
        let want = snap.top_k(17, 9, metric).unwrap();
        let got = client.top_k(17, 9, metric).unwrap().unwrap();
        assert_bitwise_eq(&got, &want, &format!("wire vs in-process ({metric:?})"));
    }
    assert_eq!(client.top_k(SUBSET + 5, 3, Metric::Dot).unwrap(), None);

    // The largest k the wire accepts is answered with every other row.
    let want = snap.top_k(17, SUBSET as usize, Metric::Dot).unwrap();
    assert_eq!(want.len(), SUBSET as usize - 1);
    let got = client.top_k(17, MAX_TOP_K, Metric::Dot).unwrap().unwrap();
    assert_bitwise_eq(&got, &want, "wire k = MAX_TOP_K vs in-process k = rows");

    front.shutdown_host();
}

/// The naive *global* reference for a sharded deployment: score every
/// range's rows naively against the query row (owned by one range),
/// concatenate under global row numbering, sort by the canonical total
/// order, truncate. An independent reimplementation of what the
/// scatter-gather must compute.
fn naive_sharded_top_k(
    snaps: &[std::sync::Arc<EpochSnapshot>],
    map: &ShardMap,
    node: u32,
    k: usize,
    metric: Metric,
) -> Option<Vec<(u32, f64)>> {
    let owner = (0..map.num_shards()).find(|&s| map.sources_of(s).contains(&node))?;
    let q = snaps[owner].get(node)?.to_vec();
    let q_scale = match metric {
        Metric::Dot => 1.0,
        Metric::Cosine => EpochSnapshot::query_inv_norm(&q),
    };
    let mut scored: Vec<(usize, u32, f64)> = Vec::new();
    let mut global_row = 0usize;
    for (s, snap) in snaps.iter().enumerate() {
        for &src in map.sources_of(s) {
            let row = global_row;
            global_row += 1;
            if src == node {
                continue;
            }
            let r = snap.get(src).unwrap();
            let dot = q.iter().zip(r).fold(0.0f64, |acc, (a, b)| acc + a * b);
            let score = match metric {
                Metric::Dot => dot,
                Metric::Cosine => (dot * q_scale) * EpochSnapshot::query_inv_norm(r),
            };
            scored.push((row, src, score));
        }
    }
    scored.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    Some(scored.into_iter().map(|(_, src, sc)| (src, sc)).collect())
}

/// The router's cross-shard merge is bitwise the naive global answer
/// computed over the same per-range embeddings: same neighbors, same
/// scores, same order — and its merged checksum is the same chain a
/// merged `GetRows` carries at that epoch. Served both on the router's
/// own connections and through a `RouterFront` over the wire.
#[test]
fn router_merge_is_bitwise_the_naive_global_answer() {
    let g = fixed_graph();
    let sub = subset();

    // The subset split over three shard processes, plus per-range offline
    // replicas for the reference (bitwise equal by engine determinism).
    let map = ShardMap::even_split(&sub, 3);
    let fronts: Vec<(NetFront, String)> = (0..3)
        .map(|k| {
            let front = NetFront::start(EmbeddingServer::start_host(
                range_host(&g, map.sources_of(k)),
                serve_cfg(),
            ));
            let addr = front.listen("127.0.0.1:0").unwrap().to_string();
            (front, addr)
        })
        .collect();
    let snaps: Vec<_> = (0..3)
        .map(|k| {
            Follower::new(range_host(&g, map.sources_of(k)))
                .reader(0)
                .unwrap()
                .snapshot()
        })
        .collect();
    let endpoints = fronts
        .iter()
        .map(|(_, a)| ShardEndpoint::leader_only(a))
        .collect();
    let mut router = Router::connect(map.clone(), endpoints, RouterConfig::default()).unwrap();

    for metric in [Metric::Dot, Metric::Cosine] {
        for &(node, k) in &[(0u32, 7u32), (41, 12), (95, 200)] {
            let want = naive_sharded_top_k(&snaps, &map, node, k as usize, metric).unwrap();
            let got = router.top_k(node, k, metric).unwrap();
            assert!(got.found);
            assert_bitwise_eq(
                &got.neighbors,
                &want,
                &format!("router vs naive global (node {node} k {k} {metric:?})"),
            );
            // The merged checksum chain is shared with the rows path.
            let rows = router.get_rows(&[node]).unwrap();
            assert_eq!(rows.epoch, got.epoch);
            assert_eq!(rows.checksum_bits, got.checksum_bits);
        }
    }
    // A node outside every range: found=false at the barriered epoch.
    let miss = router.top_k(SUBSET + 7, 5, Metric::Dot).unwrap();
    assert!(!miss.found && miss.neighbors.is_empty());

    // The same answers again through a RouterFront over real TCP.
    let front = RouterFront::start(router);
    let faddr = front.listen("127.0.0.1:0").unwrap().to_string();
    let mut client = NetClient::connect(TcpTransport::new(faddr), ClientConfig::default()).unwrap();
    let want = naive_sharded_top_k(&snaps, &map, 41, 12, Metric::Cosine).unwrap();
    let got = client.top_k(41, 12, Metric::Cosine).unwrap().unwrap();
    assert_bitwise_eq(&got, &want, "router front wire vs naive global");
    assert_eq!(client.top_k(SUBSET + 7, 5, Metric::Dot).unwrap(), None);
    front.shutdown();

    for (front, _) in fronts {
        front.shutdown_host();
    }
}

/// A follower replica serves *stale-but-consistent* top-k: caught up to
/// epoch 1 while the leader runs ahead to epoch 2, its answer is the
/// offline replay's answer at epoch 1 — internally consistent with the
/// rows and checksum it serves, not a torn mix of epochs.
#[test]
fn follower_serves_stale_but_consistent_top_k() {
    let g = fixed_graph();
    let sub = subset();
    let server = EmbeddingServer::start_host(range_host(&g, &sub), serve_cfg());
    let front = NetFront::start(server);
    let addr = front.listen("127.0.0.1:0").unwrap().to_string();
    let mut client = NetClient::connect(TcpTransport::new(addr), ClientConfig::default()).unwrap();

    let mut follower = Follower::new(range_host(&g, &sub));

    // Epoch 1 lands on the leader; the follower replays it.
    client.submit_events(churn(1)).unwrap();
    client.flush().unwrap();
    assert_eq!(follower.catch_up(&mut client, 16).unwrap(), 1);

    // The leader runs ahead to epoch 2; the follower stays at 1.
    client.submit_events(churn(2)).unwrap();
    client.flush().unwrap();

    let freader = follower.reader(0).unwrap();
    let ffront = NetFront::start_readers(vec![(0, freader)]);
    let faddr = ffront.listen("127.0.0.1:0").unwrap().to_string();
    let mut fclient =
        NetClient::connect(TcpTransport::new(faddr), ClientConfig::default()).unwrap();

    // Offline replay of exactly epoch 1 — the follower's truth.
    let mut off = range_host(&g, &sub);
    off.apply_batch(&churn(1));
    let off_snap = Follower::new(off).reader(0).unwrap().snapshot();

    let want = off_snap.top_k(17, 9, Metric::Dot).unwrap();
    let got = fclient.top_k(17, 9, Metric::Dot).unwrap().unwrap();
    assert_bitwise_eq(&got, &want, "follower stale top-k vs epoch-1 replay");

    // And the leader has moved on — its answer reflects epoch 2.
    let leader_rows = client.get_rows(&[17]).unwrap();
    assert_eq!(leader_rows.epoch, 2);

    ffront.shutdown_readers();
    front.shutdown_host();
}

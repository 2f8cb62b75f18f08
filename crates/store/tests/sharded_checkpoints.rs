//! Checkpoints written while each tenant's rows were cut into row-range
//! PPR shards still recover, to the host this version builds.
//!
//! `fixtures/host-r{4,1}.bin` were written by the last version with shards,
//! from the host [`recipe`] builds (tenants of 10 and 7 sources, three
//! windows) at `R = 4` (eight `P` sections) and `R = 1`, wall-clock
//! `timings` zeroed. Both must recover to today's host, walk ten more
//! windows in lockstep with it, and re-encode to the `R = 1` file byte for
//! byte. PPR sections that do not tile the rows, disagree on the config,
//! or name other sources than the `Rest` section are outside input: a
//! typed [`StoreError::BadCheckpoint`].

use std::fs;
use std::path::PathBuf;

use tsvd_core::{TreeSvdConfig, UpdatePolicy};
use tsvd_graph::{DynGraph, EdgeEvent};
use tsvd_ppr::PprConfig;
use tsvd_rt::bin::checksum;
use tsvd_rt::json::ToJson;
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};
use tsvd_serve::TenantHost;
use tsvd_store::checkpoint::{checkpoint_path, read_host, write_host, Format};
use tsvd_store::{recover, StoreConfig, StoreError};

const R4: &[u8] = include_bytes!("fixtures/host-r4.bin");
const R1: &[u8] = include_bytes!("fixtures/host-r1.bin");
/// Windows the fixture hosts had applied (their checkpoint epoch).
const EPOCH: u64 = 3;
const NODES: usize = 40;

fn graph() -> DynGraph {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut g = DynGraph::with_nodes(NODES);
    while g.num_edges() < 4 * NODES {
        let (u, v) = (
            rng.gen_range(0..NODES) as u32,
            rng.gen_range(0..NODES) as u32,
        );
        if u != v {
            g.insert_edge(u, v);
        }
    }
    g
}

fn tree_cfg(seed: u64) -> TreeSvdConfig {
    TreeSvdConfig {
        dim: 4,
        branching: 2,
        num_blocks: 4,
        oversample: 4,
        power_iters: 1,
        policy: UpdatePolicy::Lazy { delta: 0.3 },
        seed,
        ..TreeSvdConfig::default()
    }
}

fn window(k: u64) -> Vec<EdgeEvent> {
    let mut rng = StdRng::seed_from_u64(0xF1 + k);
    (0..6)
        .map(|_| {
            let (u, v) = (
                rng.gen_range(0..NODES) as u32,
                rng.gen_range(0..NODES) as u32,
            );
            if rng.gen_bool(0.25) {
                EdgeEvent::delete(u, v)
            } else {
                EdgeEvent::insert(u, v)
            }
        })
        .collect()
}

/// The host the fixtures hold: tenants 0 and 7 over one graph, after
/// windows 0, 1 and 2.
fn recipe() -> TenantHost {
    let ppr = PprConfig {
        alpha: 0.2,
        r_max: 1e-3,
    };
    let mut host = TenantHost::new(&graph());
    let tenants: [(u32, Vec<u32>); 2] = [
        (0, (0..10).map(|i| i * 3).collect()),
        (7, (1..8).map(|i| i * 5).collect()),
    ];
    for (id, sources) in tenants {
        host.register(id, &sources, ppr, tree_cfg(3 + id as u64))
            .unwrap();
    }
    for k in 0..EPOCH {
        host.apply_batch(&window(k));
    }
    host
}

/// The host's readable export without the wall-clock `timings`: equal
/// strings are equal states, `f64`s included, bit for bit.
fn state(host: &TenantHost) -> String {
    let mut j = host.to_json();
    j.remove_key("timings");
    j.to_string()
}

fn encode(host: &TenantHost) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_host(&mut bytes, host.batches_recorded(), host).unwrap();
    bytes
}

/// A store directory holding `file` as its only checkpoint, at [`EPOCH`].
fn store_with(tag: &str, file: &[u8]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsvd-sharded-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    fs::write(checkpoint_path(&dir, EPOCH, Format::Bin), file).unwrap();
    dir
}

/// `(offset, len)` of every section payload tagged `tag`, in file order.
fn payloads(file: &[u8], tag: u8) -> Vec<(usize, usize)> {
    let (mut at, mut out) = (20, Vec::new());
    while at < file.len() {
        let len = u64::from_le_bytes(file[at + 1..at + 9].try_into().unwrap()) as usize;
        if file[at] == tag {
            out.push((at + 9, len));
        }
        at += 9 + len + 8;
    }
    out
}

/// `file` with the `k`-th `tag` section's payload edited by `edit` and
/// sealed again under a valid checksum, so the damage reaches the decoder.
fn resealed(file: &[u8], tag: u8, k: usize, edit: impl Fn(&mut [u8])) -> Vec<u8> {
    let mut out = file.to_vec();
    let (at, len) = payloads(file, tag)[k];
    edit(&mut out[at..at + len]);
    let sum = checksum(&out[at..at + len]).to_le_bytes();
    out[at + len..at + len + 8].copy_from_slice(&sum);
    out
}

#[test]
fn files_written_with_shards_recover_to_the_host_built_today() {
    assert_eq!(payloads(R4, b'P').len(), 8, "4 + 4 shards");
    assert_eq!(payloads(R1, b'P').len(), 2, "one per tenant");
    let mut built = recipe();
    let mut recovered = Vec::new();
    for (tag, file) in [("r4", R4), ("r1", R1)] {
        let dir = store_with(tag, file);
        let rec = recover(StoreConfig::new(&dir)).expect("recovery");
        assert_eq!((rec.checkpoint_epoch, rec.windows_replayed), (EPOCH, 0));
        assert_eq!(state(&rec.host), state(&built), "{tag}: not today's host");
        assert_eq!(encode(&rec.host), R1, "{tag}: re-encoded differently");
        recovered.push(rec.host);
        let _ = fs::remove_dir_all(&dir);
    }
    // Same timings (zeroed) too: the two decoded hosts are one host.
    assert_eq!(
        recovered[0].to_json().to_string(),
        recovered[1].to_json().to_string()
    );
    for k in EPOCH..EPOCH + 10 {
        let w = window(k);
        built.apply_batch(&w);
        for host in &mut recovered {
            host.apply_batch(&w);
            assert_eq!(state(host), state(&built), "diverged at window {k}");
        }
    }
}

#[test]
fn shards_that_do_not_make_one_subset_fail_recovery_typed() {
    let (_, host) = read_host(R4).expect("the fixture decodes");
    assert_eq!(host.batches_recorded(), EPOCH);
    let cases: [(&str, Vec<u8>, &str); 4] = [
        (
            "gap",
            // Tenant 0's second shard claims row 4 instead of row 3.
            resealed(R4, b'P', 1, |p| p[0] += 1),
            "PPR part 1 starts at row 4, not at row 3",
        ),
        (
            "late",
            resealed(R4, b'P', 0, |p| p[0] = 1),
            "PPR part 0 starts at row 1, not at row 0",
        ),
        (
            "config",
            // Tenant 7's third shard at another alpha (bytes 8..16).
            resealed(R4, b'P', 6, |p| {
                p[8..16].copy_from_slice(&0.25f64.to_bits().to_le_bytes())
            }),
            "PPR part 2 has a different PprConfig",
        ),
        (
            "sources",
            // Tenant 0's Rest: id (4 bytes), count (4), first source.
            resealed(R4, b'R', 0, |p| p[8] += 1),
            "tenant 0: the Rest section lists other sources than the PPR sections",
        ),
    ];
    for (tag, file, want) in cases {
        let dir = store_with(tag, &file);
        match recover(StoreConfig::new(&dir)) {
            Err(StoreError::BadCheckpoint(why)) => {
                assert!(why.contains(want), "{tag}: {why}")
            }
            other => panic!("{tag}: expected BadCheckpoint, got {:?}", other.err()),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

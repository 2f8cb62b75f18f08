//! The round trip is the spec of the binary checkpoint format.
//!
//! For hosts driven by random window streams — one and two tenants, each of
//! the three `UpdatePolicy` variants (`Lazy`, `ChangedOnly`, `All`; the
//! binary tag is part of the tree section), windows of inserts, deletes and
//! events that change nothing — a checkpoint `encode(H)` must satisfy, **as
//! bytes**:
//!
//! * `decode(encode(H)).to_json() == H.to_json()` — nothing of the state
//!   the readable export shows is lost or altered;
//! * `encode(decode(encode(H))) == encode(H)` — the encoding is canonical
//!   (maps are sorted runs, floats are their bits);
//!
//! and `H` and `decode(encode(H))` must then walk 20 more windows in
//! lockstep, bit-equal after each in everything but wall-clock timings
//! (embeddings, and the PPR states, matrix and tree caches behind them) —
//! nothing the export does *not* show, such as which rows can be patched,
//! is lost either. A PPR subset saved with rows still dirty (which a host never is
//! between windows, so it gets its own property) must come back refreshing
//! those rows whole, onto the same matrix bytes.
//!
//! Neither property sees a change that both encode and decode make alike,
//! so the bytes of one fixed host are pinned by a golden digest as well.

use tree_svd::prelude::*;
use tsvd_rt::bin::{decode_all, Encode};
use tsvd_rt::check::{Checker, Gen};
use tsvd_rt::ensure;
use tsvd_rt::json::ToJson;
use tsvd_serve::HostSection;
use tsvd_store::checkpoint::{read_host, write_host, SectionReader, CHECKPOINT_HEADER_LEN};

const NODES: usize = 48;

fn random_graph(g: &mut Gen) -> DynGraph {
    let mut graph = DynGraph::with_nodes(NODES);
    while graph.num_edges() < 4 * NODES {
        let (u, v) = (g.u32_in(0..NODES as u32), g.u32_in(0..NODES as u32));
        if u != v {
            graph.insert_edge(u, v);
        }
    }
    graph
}

/// One to six events: fresh inserts, deletes of whatever is (or is not)
/// there, and repeats of the previous event — so some events, and now and
/// then a whole window, leave the graph as it was.
fn random_window(g: &mut Gen) -> Vec<EdgeEvent> {
    let mut events: Vec<EdgeEvent> = Vec::new();
    for _ in 0..g.usize_in(1..7) {
        let (u, v) = (g.u32_in(0..NODES as u32), g.u32_in(0..NODES as u32));
        let event = match (events.last(), g.usize_in(0..4)) {
            (Some(&last), 0) => last,
            (_, 1) => EdgeEvent::delete(u, v),
            _ if u == v => EdgeEvent::delete(u, v),
            _ => EdgeEvent::insert(u, v),
        };
        events.push(event);
    }
    events
}

fn tree_cfg(policy: UpdatePolicy, seed: u64) -> TreeSvdConfig {
    TreeSvdConfig {
        dim: 4,
        branching: 2,
        num_blocks: 4,
        oversample: 4,
        power_iters: 1,
        policy,
        seed,
        ..TreeSvdConfig::default()
    }
}

fn ppr_cfg() -> PprConfig {
    PprConfig {
        alpha: 0.2,
        r_max: 1e-3,
    }
}

fn encode(host: &TenantHost) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_host(&mut bytes, host.batches_recorded(), host).expect("writing to a Vec");
    bytes
}

/// The host's whole readable export minus the wall-clock `timings` (the
/// only state two hosts fed the same windows do not share); `rt::json`
/// round-trips every `f64` bitwise, so equal strings are equal states —
/// graph, PPR states, matrix, tree caches, every tenant's embedding.
fn state(host: &TenantHost) -> String {
    let mut j = host.to_json();
    j.remove_key("timings");
    j.to_string()
}

#[test]
fn a_host_round_trips_through_its_checkpoint_and_continues_bitwise() {
    let policies = [
        UpdatePolicy::Lazy { delta: 0.3 },
        UpdatePolicy::ChangedOnly,
        UpdatePolicy::All,
    ];
    for tenants in [1usize, 2] {
        for policy in policies {
            let name = format!("checkpoint_round_trip/t{tenants}/{policy:?}");
            Checker::new(6).run(&name, |g| {
                let mut host = TenantHost::new(&random_graph(g));
                for t in 0..tenants {
                    let sources: Vec<u32> = (0..5).map(|i| (t * 7 + i * 3) as u32).collect();
                    host.register(
                        t as TenantId,
                        &sources,
                        ppr_cfg(),
                        tree_cfg(policy, 5 + t as u64),
                    )
                    .expect("fresh id");
                }
                for _ in 0..g.usize_in(0..8) {
                    host.apply_batch(&random_window(g));
                }

                let bytes = encode(&host);
                let (epoch, mut back) =
                    read_host(&bytes[..]).map_err(|e| format!("decode failed: {e}"))?;
                ensure!(epoch == host.batches_recorded(), "header epoch {epoch}");
                ensure!(
                    back.to_json().to_string() == host.to_json().to_string(),
                    "decode(encode(H)).to_json() differs from H.to_json()"
                );
                ensure!(
                    encode(&back) == bytes,
                    "encode(decode(encode(H))) differs from encode(H)"
                );
                for step in 0..20 {
                    let window = random_window(g);
                    host.apply_batch(&window);
                    back.apply_batch(&window);
                    ensure!(
                        state(&host) == state(&back),
                        "diverged {step} windows after the reload"
                    );
                }
                Ok(())
            });
        }
    }
}

#[test]
fn a_subset_saved_dirty_refreshes_its_rows_whole_onto_the_same_matrix() {
    // Across the cases: rows that were dirty, and rows the live side patched.
    let (dirty, patched) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
    Checker::new(24).run("dirty_subset_round_trip", |g| {
        let mut graph = random_graph(g);
        let sources: Vec<u32> = (0..6).map(|i| i * 5).collect();
        let mut live = SubsetPpr::build(&graph, &sources, ppr_cfg());
        let tree = tree_cfg(UpdatePolicy::Lazy { delta: 0.3 }, 5);
        let matrix =
            BlockedProximityMatrix::from_proximity_rows(NODES, &tree, &live.proximity_rows());
        live.take_dirty_rows(); // the matrix has seen every row
        live.update(&mut graph, &random_window(g));
        live.update(&mut graph, &random_window(g));

        // Saved with the rows those windows reached still dirty.
        let mut bytes = Vec::new();
        live.encode(&mut bytes);
        let mut back: SubsetPpr = decode_all(&bytes).map_err(|e| e.to_string())?;
        ensure!(back.to_json().to_string() == live.to_json().to_string());
        let mut again = Vec::new();
        back.encode(&mut again);
        ensure!(again == bytes, "re-encoding changed bytes");

        // The live subset may patch the touched columns; the reloaded one
        // no longer knows them and must send the same rows whole. Either
        // way the matrix ends up the same, version stamps included.
        let (mut a, mut b) = (matrix.clone(), matrix);
        let (live_updates, back_updates) = (live.drain_row_updates(), back.drain_row_updates());
        ensure!(
            back_updates
                .iter()
                .all(|(_, u)| matches!(u, tsvd_ppr::RowUpdate::Whole(_))),
            "a reloaded dirty row was patched against columns it cannot know"
        );
        let rows = |u: &[(usize, tsvd_ppr::RowUpdate)]| u.iter().map(|(i, _)| *i).collect();
        let (live_rows, back_rows): (Vec<usize>, Vec<usize>) =
            (rows(&live_updates), rows(&back_updates));
        ensure!(live_rows == back_rows, "{live_rows:?} vs {back_rows:?}");
        dirty.set(dirty.get() + live_rows.len());
        let is_patch = |(_, u): &&(usize, _)| matches!(u, tsvd_ppr::RowUpdate::Patch(_));
        patched.set(patched.get() + live_updates.iter().filter(is_patch).count());
        for (i, u) in &live_updates {
            a.apply_row_update(*i, u);
        }
        for (i, u) in &back_updates {
            b.apply_row_update(*i, u);
        }
        ensure!(
            a.to_json().to_string() == b.to_json().to_string(),
            "the whole-row refresh landed on different matrix bytes"
        );
        Ok(())
    });
    assert!(
        patched.get() > 0 && dirty.get() > patched.get(),
        "vacuous: {} dirty rows, {} patched",
        dirty.get(),
        patched.get()
    );
}

/// The checkpoint bytes of one fixed host, pinned: a change to how any
/// section is laid out, or to what state a window leaves behind, moves
/// this digest, whatever the round trip above still accepts. The digest
/// runs over the header and every section's tag and payload, with the
/// wall-clock part of each tenant's `timings` zeroed (the three `f64`
/// seconds before a `Rest` section's last 8 bytes, the update count): the
/// one part of a checkpoint that differs on every run by nature. Re-pin
/// only from the commit before a deliberate format change, never from the
/// change itself.
const GOLDEN_CHECKPOINT_SUM: u64 = 0x5678_1470_a0d6_be69;

#[test]
fn a_fixed_host_checkpoint_keeps_its_golden_bytes() {
    let mut g = Gen::from_seed(0xC4EC_0040);
    let mut host = TenantHost::new(&random_graph(&mut g));
    for t in 0..2usize {
        let sources: Vec<u32> = (0..6).map(|i| (t * 5 + i * 7) as u32).collect();
        host.register(
            t as TenantId,
            &sources,
            ppr_cfg(),
            tree_cfg(UpdatePolicy::Lazy { delta: 0.3 }, 11 + t as u64),
        )
        .expect("fresh id");
    }
    for _ in 0..12 {
        host.apply_batch(&random_window(&mut g));
    }
    let file = encode(&host);
    let mut reader = SectionReader::open(&file[..]).expect("a checkpoint header");
    let (mut pinned, mut buf) = (file[..CHECKPOINT_HEADER_LEN].to_vec(), Vec::new());
    while let Some(section) = reader.next_section(&mut buf).expect("a whole section") {
        if section == HostSection::Rest {
            let end = buf.len() - 8;
            buf[end - 24..end].fill(0);
        }
        pinned.push(section as u8);
        pinned.extend_from_slice(&buf);
    }
    let sum = tsvd_rt::bin::checksum(&pinned);
    println!("golden checkpoint: {} bytes, sum {sum:#018x}", file.len());
    assert_eq!(sum, GOLDEN_CHECKPOINT_SUM, "checkpoint bytes moved");
}

//! A window costs what its delta costs — and lands on the same bytes.
//!
//! The endpoint-seeded re-push and the touched-column row patches are pure
//! cost changes: every matrix byte and every embedding bit must be what the
//! whole-row path produces. Two pins:
//!
//! 1. **Cross-composition.** The whole-row composition out of public
//!    functions (`apply_recorded` → `take_dirty_rows` + `proximity_row` →
//!    `set_row` → `DynamicTreeSvd::update` — what the frozen benchmark's
//!    traced replay does by hand) against [`TreeSvdPipeline::update`] (the
//!    patch path) over one 200-window stream: identical matrix JSON bytes
//!    and identical embedding bits after every window.
//! 2. **Golden.** The FNV-1a digest of the final embedding bits of a fixed
//!    100-window [`TenantHost`] stream, captured on the commit *before* the
//!    patch path existed.

use tree_svd::prelude::*;
use tsvd_ppr::RecordedBatch;
use tsvd_rt::bin::{fnv1a64, CHECKSUM_OFFSET};
use tsvd_rt::json::ToJson;
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};

fn random_graph(rng: &mut StdRng, n: usize, m: usize) -> DynGraph {
    let mut g = DynGraph::with_nodes(n);
    while g.num_edges() < m {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u != v {
            g.insert_edge(u, v);
        }
    }
    g
}

/// Windows of 1–`max` events over `g`'s node range: mostly inserts, deletes
/// of edges that exist when the window is drawn, the odd self-loop and the
/// odd no-op (a delete of an absent edge).
fn random_windows(rng: &mut StdRng, g: &DynGraph, count: usize, max: usize) -> Vec<Vec<EdgeEvent>> {
    let n = g.num_nodes();
    let mut shadow = g.clone();
    (0..count)
        .map(|_| {
            let len = rng.gen_range(1..max + 1);
            let window: Vec<EdgeEvent> = (0..len)
                .map(|_| {
                    let edges: Vec<(u32, u32)> = shadow.edges().collect();
                    let roll = rng.gen_range(0..20usize);
                    if roll < 5 && !edges.is_empty() {
                        let (u, v) = edges[rng.gen_range(0..edges.len())];
                        EdgeEvent::delete(u, v)
                    } else if roll == 5 {
                        let u = rng.gen_range(0..n) as u32;
                        EdgeEvent::insert(u, u)
                    } else if roll == 6 {
                        EdgeEvent::delete(rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32)
                    } else {
                        EdgeEvent::insert(rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32)
                    }
                })
                .collect();
            for e in &window {
                shadow.apply_event(e);
            }
            window
        })
        .collect()
}

fn tree_cfg() -> TreeSvdConfig {
    TreeSvdConfig {
        dim: 8,
        branching: 2,
        num_blocks: 8,
        policy: UpdatePolicy::Lazy { delta: 0.3 },
        ..TreeSvdConfig::default()
    }
}

fn ppr_cfg() -> PprConfig {
    PprConfig {
        alpha: 0.2,
        r_max: 1e-4,
    }
}

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn whole_row_composition_equals_pipeline_update_at_every_window() {
    let mut rng = StdRng::seed_from_u64(0xD317A);
    let g0 = random_graph(&mut rng, 300, 1500);
    let subset: Vec<u32> = (0..40).map(|i| i * 7).collect();
    let windows = random_windows(&mut rng, &g0, 200, 6);

    // The patch path.
    let mut g_pipe = g0.clone();
    let mut pipe = TreeSvdPipeline::new(&g_pipe, &subset, ppr_cfg(), tree_cfg());

    // The whole-row composition, by hand out of public functions.
    let mut g = g0.clone();
    let mut ppr = SubsetPpr::build(&g, &subset, ppr_cfg());
    let mut matrix = BlockedProximityMatrix::from_proximity_rows(
        g.num_nodes(),
        &tree_cfg(),
        &ppr.proximity_rows(),
    );
    ppr.take_dirty_rows();
    let mut tree = DynamicTreeSvd::new(tree_cfg());
    let mut embedding = tree.build(&matrix);
    assert_eq!(bits(&embedding.left()), bits(&pipe.embedding().left()));

    let mut patched_windows = 0usize;
    for (k, window) in windows.iter().enumerate() {
        let before = pipe.matrix().nnz();
        pipe.update(&mut g_pipe, window);

        let rec = RecordedBatch::record(&mut g, window);
        ppr.apply_recorded(&g, &rec);
        for i in ppr.take_dirty_rows() {
            matrix.set_row(i, &ppr.proximity_row(i));
        }
        embedding = tree.update(&matrix).0;

        assert_eq!(
            pipe.matrix().to_json().to_string(),
            matrix.to_json().to_string(),
            "window {k}: matrix bytes diverged"
        );
        assert_eq!(
            bits(&pipe.embedding().left()),
            bits(&embedding.left()),
            "window {k}: embedding bits diverged"
        );
        patched_windows += usize::from(pipe.matrix().nnz() != before || !rec.is_empty());
    }
    assert!(patched_windows > 100, "the stream must actually move rows");
}

/// Digest of the final embedding of the fixed stream below, printed by this
/// test on the parent commit (whole-row path only) and pasted here.
const GOLDEN_EMBEDDING_FNV: u64 = 0x3bb2_30d3_024a_2cee;

#[test]
fn golden_host_stream_embedding_bits() {
    let mut rng = StdRng::seed_from_u64(0x601D);
    let g0 = random_graph(&mut rng, 400, 2400);
    let windows = random_windows(&mut rng, &g0, 100, 4);
    let mut host = TenantHost::new(&g0);
    let subsets: [Vec<u32>; 2] = [
        (0..48).map(|i| i * 5).collect(),
        (0..20).map(|i| 399 - i * 3).collect(),
    ];
    for (t, subset) in subsets.iter().enumerate() {
        host.register(t as TenantId, subset, ppr_cfg(), tree_cfg())
            .expect("fresh id");
    }
    for window in &windows {
        host.apply_batch(window);
    }
    let mut digest = CHECKSUM_OFFSET;
    for t in 0..subsets.len() as TenantId {
        let left = host.embedding(t).expect("registered").left();
        for x in left.as_slice() {
            digest = fnv1a64(digest, &x.to_bits().to_le_bytes());
        }
    }
    println!("golden digest: {digest:#018x}");
    assert_eq!(digest, GOLDEN_EMBEDDING_FNV, "embedding bits moved");
}

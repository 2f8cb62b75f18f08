//! CI accuracy-regression gate for the incremental SVD update path.
//!
//! The exact recompute path is the oracle: every battery here drives a long
//! randomized update stream through the incremental kernel (or the
//! three-tier dynamic tree, or the sharded serving engine) and bounds the
//! drift — reconstruction residual against the Eckart–Young optimum,
//! subspace angle against the oracle's top-k basis, `projection_residual`
//! against a fresh static rebuild. Run by `ci.sh` under the default thread
//! pool and `TSVD_THREADS=1`.

use tree_svd::linalg::svd::{exact_svd, exact_truncated_svd};
use tree_svd::linalg::{svd_update_rows, RowDelta};
use tree_svd::prelude::*;
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};

/// A dense `m × n` matrix with a strong rank-`k` head and a weak tail —
/// the spectral gap keeps the top-`k` subspace well-conditioned, so
/// subspace-angle comparisons against the oracle are meaningful
/// (Davis–Kahan: angle ≤ ‖perturbation‖ / gap).
fn gapped_matrix(rng: &mut StdRng, m: usize, n: usize, k: usize) -> DenseMatrix {
    let g = DenseMatrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
    let svd = exact_svd(&g);
    let s: Vec<f64> = (0..svd.rank())
        .map(|i| {
            if i < k {
                10.0 * 0.85f64.powi(i as i32)
            } else {
                0.05
            }
        })
        .collect();
    Svd {
        u: svd.u,
        s,
        vt: svd.vt,
    }
    .reconstruct()
}

/// `1..=max_rows` sparse row deltas with distinct rows and small entries.
fn random_deltas(
    rng: &mut StdRng,
    m: usize,
    n: usize,
    max_rows: usize,
    scale: f64,
) -> Vec<RowDelta> {
    let c = rng.gen_range(1..max_rows + 1);
    let mut rows: Vec<usize> = (0..m).collect();
    (0..c)
        .map(|_| {
            let row = rows.swap_remove(rng.gen_range(0..rows.len()));
            let mut entries: Vec<(u32, f64)> = Vec::new();
            for col in 0..n as u32 {
                if rng.gen_bool(0.1) {
                    entries.push((col, rng.gen_range(-scale..scale)));
                }
            }
            if entries.is_empty() {
                entries.push((rng.gen_range(0..n as u32), scale));
            }
            RowDelta { row, entries }
        })
        .collect()
}

fn apply_dense(a: &mut DenseMatrix, deltas: &[RowDelta]) {
    for d in deltas {
        for &(col, val) in &d.entries {
            let cur = a.get(d.row, col as usize);
            a.set(d.row, col as usize, cur + val);
        }
    }
}

/// Long randomized stream: after every incremental update, the
/// factorisation's residual stays within a whisker of the Eckart–Young
/// optimum and its left subspace stays aligned with the oracle's.
#[test]
fn incremental_stream_tracks_exact_oracle() {
    let mut rng = StdRng::seed_from_u64(71);
    let (m, n, k) = (40usize, 60usize, 8usize);
    let mut a = gapped_matrix(&mut rng, m, n, k);
    let mut inc = exact_truncated_svd(&a, k);
    for round in 0..50 {
        let deltas = random_deltas(&mut rng, m, n, 3, 0.05);
        apply_dense(&mut a, &deltas);
        inc = svd_update_rows(&inc, &deltas, k);

        let oracle = exact_svd(&a);
        let opt_tail: f64 = oracle.s.iter().skip(k).map(|s| s * s).sum::<f64>().sqrt();
        let inc_resid = inc.reconstruct().sub(&a).frobenius_norm();
        assert!(
            inc_resid <= opt_tail + 0.02 * a.frobenius_norm(),
            "round {round}: residual drift {inc_resid} vs optimal {opt_tail}"
        );

        // Subspace angle: smallest singular value of `U_optᵀ·U_inc` is
        // cos(θ_max) between the two k-dim left subspaces.
        let overlap = oracle.truncate(k).u.t_mul(&inc.u);
        let cos_min = exact_svd(&overlap).s.last().copied().unwrap_or(0.0);
        assert!(
            cos_min >= 0.95,
            "round {round}: subspace angle blew up (cos θ = {cos_min})"
        );
    }
}

/// `k ≥ rank` edge case: when the target rank exceeds the matrix rank and
/// the expanded core covers the rank growth, the incremental update is
/// exact, and an empty delta set is a bitwise no-op.
#[test]
fn rank_deficient_and_empty_delta_edge_cases() {
    let mut rng = StdRng::seed_from_u64(72);
    let left = DenseMatrix::from_fn(20, 3, |_, _| rng.gen_range(-1.0..1.0));
    let right = DenseMatrix::from_fn(3, 30, |_, _| rng.gen_range(-1.0..1.0));
    let mut a = left.mul(&right);
    // Factorised at rank 8 ≫ true rank 3.
    let svd = exact_truncated_svd(&a, 8);
    assert!(svd.rank() <= 8);

    // Empty deltas: bitwise no-op.
    let same = svd_update_rows(&svd, &[], 8);
    assert_eq!(same.s, svd.s);
    assert!(same.u.sub(&svd.u).max_abs() == 0.0);
    assert!(same.vt.sub(&svd.vt).max_abs() == 0.0);

    // 4 fresh row deltas: rank grows to ≤ 3 + 4 ≤ 8, so the truncated
    // update loses nothing — reconstruction matches the dense truth.
    let deltas = random_deltas(&mut rng, 20, 30, 4, 0.5);
    apply_dense(&mut a, &deltas);
    let up = svd_update_rows(&svd, &deltas, 8);
    assert!(
        up.reconstruct().sub(&a).max_abs() < 1e-8,
        "k ≥ rank update must be exact: {}",
        up.reconstruct().sub(&a).max_abs()
    );
}

/// Three-tier dynamic tree against its exact twin: over a long stream of
/// moderate row changes, the incremental policy's embedding keeps the same
/// Lemma 3.4 `projection_residual` envelope as the always-refactorise
/// policy, and the cheap tiers actually carry the work.
#[test]
fn dynamic_tree_incremental_policy_bounds_drift() {
    let mut rng = StdRng::seed_from_u64(73);
    let (rows, cols, blocks) = (16usize, 128usize, 8usize);
    let mk_cfg = |policy| TreeSvdConfig {
        dim: 8,
        branching: 2,
        num_blocks: blocks,
        policy,
        ..TreeSvdConfig::default()
    };
    let inc_cfg = mk_cfg(UpdatePolicy::lazy_incremental(0.3));
    let exact_cfg = mk_cfg(UpdatePolicy::Lazy { delta: 0.3 });

    let mut m = BlockedProximityMatrix::new(rows, cols, blocks);
    for i in 0..rows {
        let mut entries: Vec<(u32, f64)> = Vec::new();
        for c in 0..cols as u32 {
            if rng.gen_bool(0.3) {
                entries.push((c, rng.gen_range(0.1..2.0)));
            }
        }
        m.set_row(i, &entries);
    }
    let mut inc_tree = DynamicTreeSvd::new(inc_cfg);
    let mut exact_tree = DynamicTreeSvd::new(exact_cfg);
    inc_tree.build(&m);
    exact_tree.build(&m);

    let mut total = tree_svd::core::UpdateStats::default();
    for round in 0..20 {
        // Scale a few random rows by 5–30%: moderate relative deltas.
        for _ in 0..4 {
            let i = rng.gen_range(0..rows);
            let factor = 1.0 + rng.gen_range(0.05..0.3);
            let mut full: Vec<(u32, f64)> = Vec::new();
            for j in 0..m.num_blocks() {
                let (start, _) = m.block_range(j);
                for &(cc, v) in m.cell(i, j) {
                    full.push((start + cc, v * factor));
                }
            }
            m.set_row(i, &full);
        }
        let (inc_emb, stats) = inc_tree.update(&m);
        let (exact_emb, _) = exact_tree.update(&m);
        total += stats;

        let csr = m.to_csr();
        let norm = csr.frobenius_norm();
        let envelope = std::f64::consts::SQRT_2 * 0.3 * norm;
        let fresh = TreeSvd::new(exact_cfg).embed(&m);
        let fresh_resid = fresh.projection_residual(&csr);
        let inc_resid = inc_emb.projection_residual(&csr);
        let exact_resid = exact_emb.projection_residual(&csr);
        assert!(
            inc_resid <= fresh_resid + envelope,
            "round {round}: incremental drift {inc_resid} vs fresh {fresh_resid}"
        );
        // The incremental path must not be meaningfully worse than the
        // exact lazy path it replaces.
        assert!(
            inc_resid <= exact_resid + 0.05 * norm,
            "round {round}: incremental {inc_resid} vs exact lazy {exact_resid}"
        );
    }
    assert!(
        total.blocks_patched + total.blocks_incremental > 0,
        "cheap tiers never engaged: {total:?}"
    );
}

/// End-to-end through `ShardedEngine` + `EmbeddingServer`: with an explicit
/// `LazyIncremental` policy, every shard count stays bitwise identical to
/// the unsharded offline pipeline, and the per-tier repair counters surface
/// in `ServeStats`.
#[test]
fn sharded_engine_and_server_run_incremental_policy() {
    let mut cfg = DatasetConfig::youtube();
    cfg.num_nodes = 400;
    cfg.num_edges = 2000;
    cfg.tau = 4;
    let data = SyntheticDataset::generate(&cfg);
    let subset = data.sample_subset(32, 5);
    let g0 = data.stream.snapshot(1);
    let mut events = Vec::new();
    for t in 2..=data.stream.num_snapshots() {
        events.extend_from_slice(data.stream.batch(t));
    }
    events.truncate(300);
    let ppr = PprConfig {
        alpha: 0.2,
        r_max: 1e-4,
    };
    let tree_cfg = TreeSvdConfig {
        dim: 16,
        branching: 4,
        num_blocks: 8,
        policy: UpdatePolicy::lazy_incremental(0.3),
        ..TreeSvdConfig::default()
    };

    // Offline truth: unsharded pipeline over the same windows.
    let mut g = g0.clone();
    let mut pipe = TreeSvdPipeline::new(&g, &subset, ppr, tree_cfg);
    let windows: Vec<&[EdgeEvent]> = events.chunks(60).collect();
    for w in &windows {
        pipe.update(&mut g, w);
    }

    for num_shards in [1usize, 3] {
        let mut engine = ShardedEngine::new(&g0, &subset, num_shards, ppr, tree_cfg);
        for w in &windows {
            engine.apply_batch(w);
        }
        assert_eq!(
            engine
                .embedding()
                .left()
                .sub(&pipe.embedding().left())
                .max_abs(),
            0.0,
            "R = {num_shards} diverged from offline replay"
        );
    }

    // Serve path: the same stream through a server; tier counters must
    // account for every level-1 repair the flushes performed.
    let engine = ShardedEngine::new(&g0, &subset, 2, ppr, tree_cfg);
    let server = EmbeddingServer::start(
        engine,
        ServeConfig {
            num_shards: 2,
            flush_max_events: 60,
            flush_interval_ms: 3_600_000,
            coalesce: false,
            ..Default::default()
        },
    );
    assert!(server.submit_batch(events.clone()));
    server.flush_sync();
    let stats = server.stats();
    // The stat reports the tenant's resolved tree policy — explicit here —
    // not the `TSVD_SVD_UPDATE` env default.
    assert!(
        stats.svd_update,
        "explicit LazyIncremental must report true"
    );
    let engine = server.shutdown();
    let totals = engine.total_stats();
    assert_eq!(stats.blocks_patched, totals.blocks_patched as u64);
    assert_eq!(stats.blocks_incremental, totals.blocks_incremental as u64);
    assert_eq!(stats.blocks_refactored, totals.blocks_recomputed as u64);
    assert!(
        stats.blocks_patched + stats.blocks_incremental + stats.blocks_refactored > 0,
        "flushes performed no level-1 repairs: {stats:?}"
    );
}

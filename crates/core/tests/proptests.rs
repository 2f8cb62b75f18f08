//! Property-based tests for the Tree-SVD core: norm bookkeeping, the
//! empirical Theorem 3.2 bound, and dynamic-vs-static equivalence under the
//! eager policy, on arbitrary matrices and update sequences.

use tsvd_core::{
    BlockedProximityMatrix, DynamicTreeSvd, Level1Method, TreeSvd, TreeSvdConfig, UpdatePolicy,
};
use tsvd_linalg::svd::exact_svd;
use tsvd_rt::check::{Checker, Gen};
use tsvd_rt::json::ToJson;
use tsvd_rt::{ensure, ensure_eq};

fn checker() -> Checker {
    Checker::new(48).with_regressions("tests/proptests.proptest-regressions")
}

type SparseRows = Vec<Vec<(u32, f64)>>;
type RowRewrites = Vec<(usize, Vec<(u32, f64)>)>;

/// A blocked matrix plus a sequence of row rewrites.
fn matrix_and_updates(g: &mut Gen) -> (usize, usize, usize, SparseRows, RowRewrites) {
    let rows = g.usize_in(2..8);
    let cols = g.usize_in(8..40);
    let blocks = g.usize_in(1..6).min(cols);
    let initial: SparseRows = (0..rows)
        .map(|_| g.sparse_row(cols as u32, cols.min(10), 0.1..5.0))
        .collect();
    let updates: RowRewrites = g.vec(0..8, |g| {
        (
            g.usize_in(0..rows),
            g.sparse_row(cols as u32, cols.min(10), 0.1..5.0),
        )
    });
    (rows, cols, blocks, initial, updates)
}

fn cfg(blocks: usize, dim: usize) -> TreeSvdConfig {
    TreeSvdConfig {
        dim,
        branching: 2,
        num_blocks: blocks,
        oversample: 6,
        power_iters: 2,
        level1: Level1Method::Randomized,
        policy: UpdatePolicy::ChangedOnly,
        partition: tsvd_core::PartitionStrategy::EqualWidth,
        seed: 3,
    }
}

#[test]
fn norm_bookkeeping_is_exact() {
    checker().run("norm_bookkeeping_is_exact", |g| {
        let (rows, cols, blocks, initial, updates) = matrix_and_updates(g);
        let mut m = BlockedProximityMatrix::new(rows, cols, blocks);
        for (i, row) in initial.iter().enumerate() {
            m.set_row(i, row);
        }
        for (i, row) in &updates {
            m.set_row(*i, row);
        }
        // Per-block and total Frobenius norms match a from-scratch CSR.
        let csr = m.to_csr();
        ensure!((m.frobenius_norm_sq() - csr.frobenius_norm_sq()).abs() < 1e-9);
        for j in 0..blocks {
            let want = m.block_csr(j).frobenius_norm_sq();
            ensure!((m.block_norm_sq(j) - want).abs() < 1e-9, "block {j}");
        }
        ensure_eq!(csr.nnz(), m.nnz());
        Ok(())
    });
}

#[test]
fn theorem_3_2_bound_holds() {
    checker().run("theorem_3_2_bound_holds", |g| {
        let (rows, cols, blocks, initial, _) = matrix_and_updates(g);
        let mut m = BlockedProximityMatrix::new(rows, cols, blocks);
        for (i, row) in initial.iter().enumerate() {
            m.set_row(i, row);
        }
        let d = 3usize.min(rows);
        let c = cfg(blocks, d);
        let emb = TreeSvd::new(c).embed(&m);
        let csr = m.to_csr();
        let resid = emb.projection_residual(&csr);
        // Theorem 3.2 with ε from the randomized level (generous ε = 0.5):
        // ‖Ψ‖ ≤ ((2+ε)(1+√2)^{q−1} − 1)·‖M − M_d‖.
        let exact = exact_svd(&csr.to_dense());
        let opt: f64 = exact.s.iter().skip(d).map(|s| s * s).sum::<f64>().sqrt();
        let q = c.levels() as i32;
        let bound = (2.5 * (1.0 + std::f64::consts::SQRT_2).powi(q - 1) - 1.0) * opt;
        // The absolute floor covers rank ≤ d inputs, where opt == 0 but the
        // randomized level-1 factorisation leaves rounding-level residue.
        let floor = 1e-6 * (1.0 + csr.frobenius_norm());
        ensure!(
            resid <= bound + floor,
            "residual {resid} exceeds Thm 3.2 bound {bound} (opt {opt}, q {q})"
        );
        Ok(())
    });
}

#[test]
fn eager_dynamic_equals_fresh_static() {
    checker().run("eager_dynamic_equals_fresh_static", |g| {
        let (rows, cols, blocks, initial, updates) = matrix_and_updates(g);
        let mut m = BlockedProximityMatrix::new(rows, cols, blocks);
        for (i, row) in initial.iter().enumerate() {
            m.set_row(i, row);
        }
        let d = 3usize.min(rows);
        let c = cfg(blocks, d);
        let mut dt = DynamicTreeSvd::new(c);
        dt.build(&m);
        for (i, row) in &updates {
            m.set_row(*i, row);
        }
        let (emb, stats) = dt.update(&m);
        let fresh = TreeSvd::new(c).embed(&m);
        ensure!(
            emb.left().sub(&fresh.left()).max_abs() < 1e-10,
            "eager dynamic != fresh static ({} blocks redone)",
            stats.blocks_recomputed
        );
        Ok(())
    });
}

#[test]
fn lazy_never_recomputes_more_than_eager() {
    checker().run("lazy_never_recomputes_more_than_eager", |g| {
        let (rows, cols, blocks, initial, updates) = matrix_and_updates(g);
        let mut m1 = BlockedProximityMatrix::new(rows, cols, blocks);
        for (i, row) in initial.iter().enumerate() {
            m1.set_row(i, row);
        }
        let mut m2 = m1.clone();
        let d = 3usize.min(rows);
        let mut lazy = DynamicTreeSvd::new(TreeSvdConfig {
            policy: UpdatePolicy::Lazy { delta: 0.65 },
            ..cfg(blocks, d)
        });
        let mut eager = DynamicTreeSvd::new(cfg(blocks, d));
        lazy.build(&m1);
        eager.build(&m2);
        for (i, row) in &updates {
            m1.set_row(*i, row);
            m2.set_row(*i, row);
        }
        let (_, ls) = lazy.update(&m1);
        let (_, es) = eager.update(&m2);
        ensure!(ls.blocks_recomputed <= es.blocks_recomputed);
        ensure_eq!(ls.blocks_changed, es.blocks_changed);
        Ok(())
    });
}

#[test]
fn update_stats_are_consistent() {
    checker().run("update_stats_are_consistent", |g| {
        let (rows, cols, blocks, initial, updates) = matrix_and_updates(g);
        let mut m = BlockedProximityMatrix::new(rows, cols, blocks);
        for (i, row) in initial.iter().enumerate() {
            m.set_row(i, row);
        }
        let d = 2usize.min(rows);
        let mut dt = DynamicTreeSvd::new(cfg(blocks, d));
        dt.build(&m);
        for (i, row) in &updates {
            m.set_row(*i, row);
        }
        let (_, stats) = dt.update(&m);
        ensure_eq!(stats.blocks_total, blocks);
        ensure!(stats.blocks_recomputed <= stats.blocks_changed);
        ensure!(stats.blocks_changed <= blocks);
        if stats.blocks_recomputed == 0 {
            ensure_eq!(stats.merges_recomputed, 0);
        }
        Ok(())
    });
}

/// `patch_row` is `set_row` with the patched row, byte for byte: two
/// matrices driven through the same random edit sequence — one by column
/// patches, one by whole rows — serialise to equal JSON (cells,
/// `block_normsq`, `versions`, `clock`) after every step. Patches insert
/// new columns, overwrite with new and with bit-equal values, remove
/// present and absent columns, and regularly empty a whole cell.
#[test]
fn patch_row_equals_set_row_with_the_patched_row() {
    checker().run("patch_row_equals_set_row_with_the_patched_row", |g| {
        let (rows, cols, blocks, initial, _) = matrix_and_updates(g);
        let mut patched = BlockedProximityMatrix::new(rows, cols, blocks);
        let mut whole = BlockedProximityMatrix::new(rows, cols, blocks);
        let mut truth = initial;
        for (i, row) in truth.iter().enumerate() {
            patched.set_row(i, row);
            whole.set_row(i, row);
        }
        for step in 0..g.usize_in(1..24) {
            let i = g.usize_in(0..rows);
            let mut patch: Vec<(u32, Option<f64>)> = Vec::new();
            if g.prob(0.2) {
                // Empty one block of the row outright.
                let (lo, hi) = whole.block_range(g.usize_in(0..blocks));
                patch.extend((lo..hi).map(|c| (c, None)));
            } else {
                for (c, v) in g.sparse_row(cols as u32, cols.min(6), 0.1..5.0) {
                    let held = truth[i].iter().find(|e| e.0 == c).map(|e| e.1);
                    patch.push(match g.usize_in(0..3) {
                        0 => (c, None),
                        1 if held.is_some() => (c, held), // same bits
                        _ => (c, Some(v)),
                    });
                }
            }
            let row = &mut truth[i];
            for &(c, v) in &patch {
                row.retain(|e| e.0 != c);
                if let Some(v) = v {
                    row.push((c, v));
                }
            }
            row.sort_unstable_by_key(|e| e.0);
            patched.patch_row(i, &patch);
            whole.set_row(i, row);
            ensure_eq!(
                patched.to_json().to_string(),
                whole.to_json().to_string(),
                "step {step}"
            );
        }
        Ok(())
    });
}

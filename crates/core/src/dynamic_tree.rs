//! Dynamic Tree-SVD with lazy updates (Algorithm 4).
//!
//! The dynamic state caches, per first-level block `j`:
//!
//! * the block contents as of its last factorisation (`B^{t−i}_j`),
//! * the factorisation's `U·Σ` and its residual `‖(B^{t−i}_j)_d − B^{t−i}_j‖_F`,
//! * exact per-row squared diffs against the cached contents, summed into
//!   `‖D_j‖_F²`.
//!
//! On update, a block is re-factorised only when the lazy rule of Lemma 3.4
//! fires: `‖(B^{t−i}_j)_d − B^{t−i}_j‖_F + ‖D_j‖_F > √2·δ·‖B^t_j‖_F`.
//! Affected interior nodes (ancestors of re-factorised blocks) are then
//! re-merged bottom-up; everything else reuses cached factors. The expensive
//! part — sparse randomized SVDs over `O(n)` columns — is skipped for every
//! quiet block, which is where the paper's order-of-magnitude update speedup
//! comes from.

use crate::blocked::{sparse_row_dist_sq, BlockedProximityMatrix};
use crate::config::{TreeSvdConfig, UpdatePolicy};
use crate::embedding::Embedding;
use crate::static_tree::{level1_factor, merge_group};
use tsvd_linalg::DenseMatrix;
use tsvd_rt::pool::par_map;

/// Work accounting for one dynamic update (drives the paper's update-time
/// plots and the lazy-vs-eager ablations).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UpdateStats {
    /// Total first-level blocks.
    pub blocks_total: usize,
    /// Blocks whose contents changed since their last factorisation.
    pub blocks_changed: usize,
    /// Blocks re-factorised this update: the fired set `|Z|`.
    pub blocks_recomputed: usize,
    /// Interior tree nodes re-merged this update.
    pub merges_recomputed: usize,
    /// `(row, block)` cells re-diffed for `‖D_j‖_F` maintenance.
    pub cells_rediffed: usize,
}

tsvd_rt::impl_json_struct!(UpdateStats {
    blocks_total,
    blocks_changed,
    blocks_recomputed,
    merges_recomputed,
    cells_rediffed
});

/// Field-wise accumulation, for aggregating stats across a stream of
/// updates (or across serving tenants) without hand-rolled field sums.
/// `blocks_total` accumulates too: over `k` updates it counts `k·b`
/// block-update opportunities, the natural denominator for
/// `blocks_recomputed` rates.
impl std::ops::AddAssign for UpdateStats {
    fn add_assign(&mut self, rhs: UpdateStats) {
        self.blocks_total += rhs.blocks_total;
        self.blocks_changed += rhs.blocks_changed;
        self.blocks_recomputed += rhs.blocks_recomputed;
        self.merges_recomputed += rhs.merges_recomputed;
        self.cells_rediffed += rhs.cells_rediffed;
    }
}

impl std::ops::Add for UpdateStats {
    type Output = UpdateStats;
    fn add(mut self, rhs: UpdateStats) -> UpdateStats {
        self += rhs;
        self
    }
}

/// Per-block dynamic cache.
#[derive(Debug, Clone)]
struct BlockCache {
    /// Block contents at the last factorisation, one sparse row per source.
    rows: Vec<Vec<(u32, f64)>>,
    /// Version stamp of each row-cell when last diffed.
    seen: Vec<u64>,
    /// `‖cur_row − cached_row‖²` per row.
    row_diffsq: Vec<f64>,
    /// `‖D_j‖_F² = Σ_rows row_diffsq`.
    diffsq: f64,
    /// `‖(B)_d − B‖_F²` at the last factorisation (estimated as
    /// `‖B‖_F² − Σσ_i²`, exact for exact level-1 SVDs).
    residsq: f64,
}

tsvd_rt::impl_json_struct!(BlockCache {
    rows,
    seen,
    row_diffsq,
    diffsq,
    residsq
});

/// Dynamic Tree-SVD (Algorithm 4).
#[derive(Debug, Clone)]
pub struct DynamicTreeSvd {
    cfg: TreeSvdConfig,
    caches: Vec<BlockCache>,
    /// Cached `U·Σ` per level: `levels[0]` are the `b` block factors,
    /// `levels.last()` is the single root factor.
    levels: Vec<Vec<DenseMatrix>>,
    root: Option<Embedding>,
}

tsvd_rt::impl_json_struct!(DynamicTreeSvd {
    cfg,
    caches,
    levels,
    root
});

impl DynamicTreeSvd {
    /// Fresh dynamic state; call [`DynamicTreeSvd::build`] before `update`.
    pub fn new(cfg: TreeSvdConfig) -> Self {
        cfg.validate();
        DynamicTreeSvd {
            cfg,
            caches: Vec::new(),
            levels: Vec::new(),
            root: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TreeSvdConfig {
        &self.cfg
    }

    /// The most recent embedding, if built.
    pub fn embedding(&self) -> Option<&Embedding> {
        self.root.as_ref()
    }

    /// Full (re)build: factorise every block, populate all caches, merge to
    /// the root. Equivalent to static Tree-SVD on the current matrix.
    pub fn build(&mut self, m: &BlockedProximityMatrix) -> Embedding {
        assert_eq!(m.num_blocks(), self.cfg.num_blocks, "block count mismatch");
        let cfg = self.cfg;
        let b = m.num_blocks();
        let rows = m.num_rows();
        let factored: Vec<(DenseMatrix, f64)> = par_map(b, |j| refactor(m, &cfg, j));
        self.caches = (0..b)
            .map(|j| BlockCache {
                rows: (0..rows).map(|i| m.cell(i, j).to_vec()).collect(),
                seen: (0..rows).map(|i| m.cell_version(i, j)).collect(),
                row_diffsq: vec![0.0; rows],
                diffsq: 0.0,
                residsq: factored[j].1,
            })
            .collect();
        let level1: Vec<DenseMatrix> = factored.into_iter().map(|f| f.0).collect();
        self.levels = build_levels(level1, &cfg);
        let emb = Embedding::from_usigma(self.levels.last().unwrap().first().unwrap(), cfg.dim);
        self.root = Some(emb.clone());
        emb
    }

    /// Lazy dynamic update (Algorithm 4). The matrix `m` must be the same
    /// instance the state was built from, already mutated to snapshot `t`.
    pub fn update(&mut self, m: &BlockedProximityMatrix) -> (Embedding, UpdateStats) {
        assert!(!self.levels.is_empty(), "call build() before update()");
        assert_eq!(m.num_blocks(), self.cfg.num_blocks, "block count mismatch");
        let cfg = self.cfg;
        let b = m.num_blocks();
        let mut stats = UpdateStats {
            blocks_total: b,
            ..Default::default()
        };

        // Phase 1: refresh ‖D_j‖² from cells whose version moved.
        for j in 0..b {
            let cache = &mut self.caches[j];
            for i in 0..m.num_rows() {
                let ver = m.cell_version(i, j);
                if ver == cache.seen[i] {
                    continue;
                }
                let d = sparse_row_dist_sq(m.cell(i, j), &cache.rows[i]);
                cache.diffsq += d - cache.row_diffsq[i];
                cache.row_diffsq[i] = d;
                cache.seen[i] = ver;
                stats.cells_rediffed += 1;
            }
            if cache.diffsq < 0.0 {
                cache.diffsq = 0.0; // rounding guard
            }
        }

        // Phase 2: select Z, the blocks to re-factorise.
        let mut fired: Vec<usize> = Vec::new();
        for j in 0..b {
            let cache = &self.caches[j];
            let changed = cache.diffsq > 0.0;
            if changed {
                stats.blocks_changed += 1;
            }
            let fires = match cfg.policy {
                UpdatePolicy::All => true,
                UpdatePolicy::ChangedOnly => changed,
                UpdatePolicy::Lazy { delta } => {
                    changed
                        && cache.residsq.max(0.0).sqrt() + cache.diffsq.max(0.0).sqrt()
                            > std::f64::consts::SQRT_2 * delta * m.block_norm_sq(j).max(0.0).sqrt()
                }
            };
            if fires {
                fired.push(j);
            }
        }

        if fired.is_empty() {
            // Everything cached is still within tolerance: Theorem 3.6 case
            // (i); return the cached embedding untouched.
            return (self.root.clone().expect("root exists after build"), stats);
        }

        // Phase 3: re-factorise the fired blocks in parallel.
        let repaired: Vec<(DenseMatrix, f64)> =
            par_map(fired.len(), |fi| refactor(m, &cfg, fired[fi]));
        for (&j, (usigma, residsq)) in fired.iter().zip(repaired) {
            self.levels[0][j] = usigma;
            let cache = &mut self.caches[j];
            cache.residsq = residsq;
            cache.diffsq = 0.0;
            for i in 0..m.num_rows() {
                cache.rows[i] = m.cell(i, j).to_vec();
                cache.row_diffsq[i] = 0.0;
                cache.seen[i] = m.cell_version(i, j);
            }
        }
        stats.blocks_recomputed = fired.len();

        // Phase 4: bubble the changes up — re-merge only affected parents.
        let mut affected = fired;
        for lvl in 1..self.levels.len() {
            let mut parents: Vec<usize> = affected.iter().map(|&j| j / cfg.branching).collect();
            parents.sort_unstable();
            parents.dedup();
            let children = &self.levels[lvl - 1];
            let merged: Vec<DenseMatrix> = par_map(parents.len(), |pi| {
                let p = parents[pi];
                let start = p * cfg.branching;
                let end = (start + cfg.branching).min(children.len());
                let refs: Vec<&DenseMatrix> = children[start..end].iter().collect();
                merge_group(&refs, cfg.dim)
            });
            for (pi, &p) in parents.iter().enumerate() {
                self.levels[lvl][p] = merged[pi].clone();
            }
            stats.merges_recomputed += parents.len();
            affected = parents;
        }

        let emb = Embedding::from_usigma(self.levels.last().unwrap().first().unwrap(), cfg.dim);
        self.root = Some(emb.clone());
        (emb, stats)
    }
}

/// Factorise block `j` of `m` from scratch: its `U·Σ` and the residual
/// estimate `‖(B_j)_d − B_j‖_F²` the lazy rule compares against.
fn refactor(m: &BlockedProximityMatrix, cfg: &TreeSvdConfig, j: usize) -> (DenseMatrix, f64) {
    let svd = level1_factor(&m.block_csr(j), cfg, j as u64);
    let residsq = svd.residual_sq(m.block_norm_sq(j));
    (svd.u_sigma(), residsq)
}

/// Build the full cached level structure from the first-level factors.
fn build_levels(level1: Vec<DenseMatrix>, cfg: &TreeSvdConfig) -> Vec<Vec<DenseMatrix>> {
    let mut levels = vec![level1];
    while levels.last().unwrap().len() > 1 {
        let prev = levels.last().unwrap();
        let groups: Vec<&[DenseMatrix]> = prev.chunks(cfg.branching).collect();
        let next: Vec<DenseMatrix> = par_map(groups.len(), |gi| {
            let refs: Vec<&DenseMatrix> = groups[gi].iter().collect();
            merge_group(&refs, cfg.dim)
        });
        levels.push(next);
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Level1Method;
    use crate::static_tree::TreeSvd;
    use tsvd_rt::rng::StdRng;
    use tsvd_rt::rng::{Rng, SeedableRng};

    fn cfg(policy: UpdatePolicy) -> TreeSvdConfig {
        TreeSvdConfig {
            dim: 6,
            branching: 2,
            num_blocks: 8,
            oversample: 8,
            power_iters: 2,
            level1: Level1Method::Randomized,
            policy,
            partition: crate::config::PartitionStrategy::EqualWidth,
            seed: 11,
        }
    }

    fn random_matrix(
        rng: &mut StdRng,
        rows: usize,
        cols: usize,
        blocks: usize,
    ) -> BlockedProximityMatrix {
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
        m
    }

    #[test]
    fn build_matches_static_tree() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = random_matrix(&mut rng, 12, 64, 8);
        let c = cfg(UpdatePolicy::Lazy { delta: 0.65 });
        let mut dt = DynamicTreeSvd::new(c);
        let dyn_emb = dt.build(&m);
        let static_emb = TreeSvd::new(c).embed(&m);
        assert!(dyn_emb.left().sub(&static_emb.left()).max_abs() < 1e-12);
    }

    #[test]
    fn noop_update_recomputes_nothing() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = random_matrix(&mut rng, 10, 40, 8);
        let mut dt = DynamicTreeSvd::new(cfg(UpdatePolicy::Lazy { delta: 0.65 }));
        let before = dt.build(&m);
        let (after, stats) = dt.update(&m);
        assert_eq!(stats.blocks_recomputed, 0);
        assert_eq!(stats.merges_recomputed, 0);
        assert_eq!(stats.cells_rediffed, 0);
        assert!(after.left().sub(&before.left()).max_abs() == 0.0);
    }

    #[test]
    fn changed_only_policy_tracks_static_rebuild_exactly() {
        // With ChangedOnly, every changed block is re-factorised, so the
        // result must be bit-identical to a full rebuild (the per-block
        // randomized SVDs are seeded deterministically by block index).
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = random_matrix(&mut rng, 10, 64, 8);
        let c = cfg(UpdatePolicy::ChangedOnly);
        let mut dt = DynamicTreeSvd::new(c);
        dt.build(&m);
        // Mutate three rows.
        for i in [0usize, 4, 7] {
            let mut entries: Vec<(u32, f64)> = Vec::new();
            for col in 0..64u32 {
                if rng.gen_bool(0.3) {
                    entries.push((col, rng.gen_range(0.1..2.0)));
                }
            }
            m.set_row(i, &entries);
        }
        let (emb, stats) = dt.update(&m);
        assert!(stats.blocks_recomputed > 0);
        let fresh = TreeSvd::new(c).embed(&m);
        assert!(emb.left().sub(&fresh.left()).max_abs() < 1e-12);
    }

    #[test]
    fn lazy_skips_small_changes_eager_does_not() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = random_matrix(&mut rng, 10, 64, 8);
        let lazy_cfg = cfg(UpdatePolicy::Lazy { delta: 0.65 });
        let eager_cfg = cfg(UpdatePolicy::ChangedOnly);
        let mut lazy = DynamicTreeSvd::new(lazy_cfg);
        let mut eager = DynamicTreeSvd::new(eager_cfg);
        lazy.build(&m);
        eager.build(&m);
        // Tiny perturbation of one entry of row 0.
        let mut row: Vec<(u32, f64)> = m.cell(0, 0).to_vec();
        if row.is_empty() {
            row.push((0, 1e-6));
        } else {
            row[0].1 += 1e-6;
        }
        // Rebuild global row 0 from cells to keep other blocks identical.
        let mut full: Vec<(u32, f64)> = Vec::new();
        for j in 0..m.num_blocks() {
            let (start, _) = m.block_range(j);
            let cell = if j == 0 {
                row.clone()
            } else {
                m.cell(0, j).to_vec()
            };
            for (c, v) in cell {
                full.push((start + c, v));
            }
        }
        m.set_row(0, &full);
        let (_, ls) = lazy.update(&m);
        let (_, es) = eager.update(&m);
        assert_eq!(ls.blocks_changed, 1);
        assert_eq!(ls.blocks_recomputed, 0, "lazy must skip a 1e-6 change");
        assert_eq!(es.blocks_recomputed, 1, "eager must recompute");
    }

    #[test]
    fn lazy_fires_on_large_changes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = random_matrix(&mut rng, 10, 64, 8);
        let mut dt = DynamicTreeSvd::new(cfg(UpdatePolicy::Lazy { delta: 0.1 }));
        dt.build(&m);
        // Rewrite every row completely: all blocks blow past any δ.
        for i in 0..10 {
            let mut entries: Vec<(u32, f64)> = Vec::new();
            for c in 0..64u32 {
                if rng.gen_bool(0.5) {
                    entries.push((c, rng.gen_range(5.0..9.0)));
                }
            }
            m.set_row(i, &entries);
        }
        let (emb, stats) = dt.update(&m);
        assert_eq!(stats.blocks_recomputed, stats.blocks_changed);
        assert!(stats.blocks_recomputed >= 7, "essentially all blocks fire");
        // Quality: matches a fresh static build bit-for-bit when everything
        // was recomputed (deterministic per-block seeds).
        let fresh = TreeSvd::new(*dt.config()).embed(&m);
        assert!(emb.left().sub(&fresh.left()).max_abs() < 1e-12);
    }

    #[test]
    fn lazy_embedding_stays_close_after_skipped_updates() {
        // Theorem 3.6 empirically: with δ moderate, the cached embedding's
        // projection residual stays within the bound's ballpark of the
        // fresh rebuild.
        let mut rng = StdRng::seed_from_u64(6);
        let mut m = random_matrix(&mut rng, 12, 96, 8);
        let c = cfg(UpdatePolicy::Lazy { delta: 0.5 });
        let mut dt = DynamicTreeSvd::new(c);
        dt.build(&m);
        // Small perturbations over several rounds.
        for round in 0..5 {
            for i in 0..12 {
                let mut full: Vec<(u32, f64)> = Vec::new();
                for j in 0..m.num_blocks() {
                    let (start, _) = m.block_range(j);
                    for &(cc, v) in m.cell(i, j) {
                        full.push((start + cc, v * (1.0 + 0.01 * (round as f64 + 1.0))));
                    }
                }
                m.set_row(i, &full);
            }
            let (emb, _) = dt.update(&m);
            let csr = m.to_csr();
            let lazy_resid = emb.projection_residual(&csr);
            let fresh = TreeSvd::new(c).embed(&m);
            let fresh_resid = fresh.projection_residual(&csr);
            let norm = csr.frobenius_norm();
            assert!(
                lazy_resid <= fresh_resid + std::f64::consts::SQRT_2 * 0.5 * norm,
                "round {round}: {lazy_resid} vs fresh {fresh_resid} (‖M‖={norm})"
            );
        }
    }

    #[test]
    fn diff_bookkeeping_is_exact() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = random_matrix(&mut rng, 8, 32, 4);
        let mut dt = DynamicTreeSvd::new(TreeSvdConfig {
            num_blocks: 4,
            ..cfg(UpdatePolicy::Lazy { delta: 1e9 }) // never fire: pure tracking
        });
        dt.build(&m);
        let snapshot = m.to_csr().to_dense();
        // Random row rewrites over 3 rounds.
        for _ in 0..3 {
            for i in 0..8 {
                if rng.gen_bool(0.5) {
                    let mut entries: Vec<(u32, f64)> = Vec::new();
                    for c in 0..32u32 {
                        if rng.gen_bool(0.25) {
                            entries.push((c, rng.gen_range(0.1..2.0)));
                        }
                    }
                    m.set_row(i, &entries);
                }
            }
            dt.update(&m);
        }
        // ‖D_j‖² tracked == recomputed from scratch per block.
        let now = m.to_csr().to_dense();
        for j in 0..4 {
            let (a, b) = m.block_range(j);
            let mut want = 0.0;
            for i in 0..8 {
                for c in a..b {
                    let d = now.get(i, c as usize) - snapshot.get(i, c as usize);
                    want += d * d;
                }
            }
            let got = dt.caches[j].diffsq;
            assert!(
                (got - want).abs() < 1e-9 * (1.0 + want),
                "block {j}: {got} vs {want}"
            );
        }
    }

    /// Add `add` to entry `col` of cell `(i, j)`, leaving the rest of the
    /// row untouched (set_row takes the full global row).
    fn bump_cell(m: &mut BlockedProximityMatrix, i: usize, j: usize, col: u32, add: f64) {
        let mut cell: Vec<(u32, f64)> = m.cell(i, j).to_vec();
        match cell.binary_search_by_key(&col, |e| e.0) {
            Ok(p) => cell[p].1 += add,
            Err(p) => cell.insert(p, (col, add)),
        }
        let mut full: Vec<(u32, f64)> = Vec::new();
        for jj in 0..m.num_blocks() {
            let (start, _) = m.block_range(jj);
            let c = if jj == j {
                cell.clone()
            } else {
                m.cell(i, jj).to_vec()
            };
            for (cc, v) in c {
                full.push((start + cc, v));
            }
        }
        m.set_row(i, &full);
    }

    #[test]
    fn dynamic_state_round_trips_mid_stream() {
        use tsvd_rt::json::{FromJson, Json, ToJson};
        let mut rng = StdRng::seed_from_u64(11);
        let mut m = random_matrix(&mut rng, 10, 64, 8);
        let mut dt = DynamicTreeSvd::new(cfg(UpdatePolicy::Lazy { delta: 0.0 }));
        dt.build(&m);
        bump_cell(&mut m, 3, 2, 0, 5e-4);
        dt.update(&m);
        // Serialize mid-stream (caches populated), decode, and check both
        // copies evolve identically.
        let j = Json::parse(&dt.to_json().to_string()).unwrap();
        let mut back = DynamicTreeSvd::from_json(&j).unwrap();
        bump_cell(&mut m, 5, 4, 3, 7e-4);
        let (e1, s1) = dt.update(&m);
        let (e2, s2) = back.update(&m);
        assert_eq!(s1, s2);
        assert!(e1.left().sub(&e2.left()).max_abs() == 0.0);
    }

    #[test]
    #[should_panic(expected = "build() before update")]
    fn update_before_build_panics() {
        let m = BlockedProximityMatrix::new(2, 16, 8);
        let mut dt = DynamicTreeSvd::new(cfg(UpdatePolicy::All));
        let _ = dt.update(&m);
    }
}

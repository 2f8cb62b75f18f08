//! Static Tree-SVD (Algorithm 3) and the shared level machinery.
//!
//! Level 1 factorises each sparse column block with a *sparse randomized
//! SVD* (or an exact SVD in HSVD mode); every higher level concatenates `k`
//! child `U·Σ` factors and keeps the top-`d` `U·Σ` of an exact SVD of the
//! small dense result, computed without `V` (`merge_group`). The root's
//! `U·√Σ` is the subset embedding.

use crate::blocked::BlockedProximityMatrix;
use crate::config::{Level1Method, TreeSvdConfig};
use crate::embedding::Embedding;
use tsvd_linalg::randomized::randomized_svd;
use tsvd_linalg::svd::{exact_truncated_svd, exact_usigma, Svd};
use tsvd_linalg::{CsrMatrix, DenseMatrix, RandomizedSvdConfig};
use tsvd_rt::pool::par_map;
use tsvd_rt::rng::SeedableRng;
use tsvd_rt::rng::StdRng;

/// Static Tree-SVD runner (Algorithm 3).
#[derive(Debug, Clone)]
pub struct TreeSvd {
    cfg: TreeSvdConfig,
}

impl TreeSvd {
    /// Create a runner; panics if `cfg` is invalid.
    pub fn new(cfg: TreeSvdConfig) -> Self {
        cfg.validate();
        TreeSvd { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &TreeSvdConfig {
        &self.cfg
    }

    /// Run Algorithm 3 on the blocked proximity matrix and return the
    /// subset embedding. First-level blocks factorise in parallel.
    pub fn embed(&self, m: &BlockedProximityMatrix) -> Embedding {
        assert_eq!(
            m.num_blocks(),
            self.cfg.num_blocks,
            "matrix blocked differently than the config"
        );
        let cfg = &self.cfg;
        let usigmas: Vec<DenseMatrix> = par_map(m.num_blocks(), |j| {
            level1_factor(&m.block_csr(j), cfg, j as u64).u_sigma()
        });
        let root = merge_to_root(usigmas, cfg);
        Embedding::from_usigma(&root, cfg.dim)
    }
}

/// Factorise one first-level block to its `d`-rank truncated SVD, by the
/// configured method. `salt` decorrelates the per-block random test
/// matrices while keeping runs deterministic.
pub(crate) fn level1_factor(block: &CsrMatrix, cfg: &TreeSvdConfig, salt: u64) -> Svd {
    match cfg.level1 {
        Level1Method::Randomized => {
            let rcfg = RandomizedSvdConfig {
                rank: cfg.dim,
                oversample: cfg.oversample,
                power_iters: cfg.power_iters,
            };
            let mut rng =
                StdRng::seed_from_u64(cfg.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            randomized_svd(block, &rcfg, &mut rng)
        }
        Level1Method::Exact => exact_truncated_svd(&block.to_dense(), cfg.dim),
    }
}

/// Merge one group of child `U·Σ` factors into the parent's top-`d` `U·Σ`
/// (one interior node of the tree). Only `U·Σ` is computed — the tree never
/// reads a merge's `V` — and it is bitwise the `U·Σ` of the full truncated
/// SVD (see [`exact_usigma`]).
pub(crate) fn merge_group(children: &[&DenseMatrix], dim: usize) -> DenseMatrix {
    let concat = DenseMatrix::hconcat(children);
    exact_usigma(&concat, dim)
}

/// Repeatedly merge `k` consecutive factors per level until a single root
/// `U·Σ` remains (Algorithm 3's outer loop).
pub(crate) fn merge_to_root(mut level: Vec<DenseMatrix>, cfg: &TreeSvdConfig) -> DenseMatrix {
    assert!(!level.is_empty());
    while level.len() > 1 {
        let groups: Vec<&[DenseMatrix]> = level.chunks(cfg.branching).collect();
        let next = par_map(groups.len(), |gi| {
            let refs: Vec<&DenseMatrix> = groups[gi].iter().collect();
            merge_group(&refs, cfg.dim)
        });
        level = next;
    }
    level.pop().expect("non-empty level")
}

impl Embedding {
    /// Recover `(U, Σ)` from a `U·Σ` factor (columns are orthogonal with
    /// norms `σ_j`, descending) and package it as an embedding. This is how
    /// the tree root — itself a `U·Σ` matrix — becomes the final output.
    pub fn from_usigma(usigma: &DenseMatrix, dim: usize) -> Embedding {
        let r = usigma.cols();
        let mut sigma = Vec::with_capacity(r);
        let mut u = usigma.clone();
        for j in 0..r {
            let s = u.col_norm_sq(j).sqrt();
            sigma.push(s);
            if s > 0.0 {
                for i in 0..u.rows() {
                    let v = u.get(i, j) / s;
                    u.set(i, j, v);
                }
            }
        }
        // The tree keeps singular values descending per construction, but a
        // defensive sort costs nothing at these sizes.
        let mut order: Vec<usize> = (0..r).collect();
        order.sort_by(|&a, &b| sigma[b].partial_cmp(&sigma[a]).unwrap());
        let sorted_u = DenseMatrix::from_fn(u.rows(), r, |i, j| u.get(i, order[j]));
        let sorted_s: Vec<f64> = order.iter().map(|&j| sigma[j]).collect();
        let emb = Embedding {
            u: sorted_u,
            sigma: sorted_s,
            dim,
        };
        // Truncate to dim.
        if r > dim {
            Embedding {
                u: emb.u.take_cols(dim),
                sigma: emb.sigma[..dim].to_vec(),
                dim,
            }
        } else {
            emb
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UpdatePolicy;
    use tsvd_linalg::svd::exact_svd;
    use tsvd_rt::rng::Rng;

    /// A random sparse blocked matrix for testing.
    fn random_blocked(
        rng: &mut StdRng,
        rows: usize,
        cols: usize,
        blocks: usize,
        density: f64,
    ) -> BlockedProximityMatrix {
        let mut m = BlockedProximityMatrix::new(rows, cols, blocks);
        for i in 0..rows {
            let mut entries = Vec::new();
            for c in 0..cols as u32 {
                if rng.gen_bool(density) {
                    entries.push((c, rng.gen_range(0.1..3.0)));
                }
            }
            m.set_row(i, &entries);
        }
        m
    }

    fn cfg(dim: usize, branching: usize, blocks: usize) -> TreeSvdConfig {
        TreeSvdConfig {
            dim,
            branching,
            num_blocks: blocks,
            oversample: 8,
            power_iters: 2,
            level1: Level1Method::Randomized,
            policy: UpdatePolicy::Lazy { delta: 0.65 },
            partition: crate::config::PartitionStrategy::EqualWidth,
            seed: 7,
        }
    }

    #[test]
    fn single_block_equals_plain_svd() {
        // b = 1 ⇒ Tree-SVD degenerates to one randomized SVD; singular
        // values must match the exact ones closely.
        let mut rng = StdRng::seed_from_u64(1);
        let m = random_blocked(&mut rng, 20, 60, 1, 0.3);
        let tree = TreeSvd::new(cfg(6, 2, 1));
        let emb = tree.embed(&m);
        let exact = exact_svd(&m.to_csr().to_dense());
        for j in 0..6 {
            assert!(
                (emb.sigma[j] - exact.s[j]).abs() < 0.05 * exact.s[0].max(1.0),
                "σ_{j}: {} vs {}",
                emb.sigma[j],
                exact.s[j]
            );
        }
    }

    #[test]
    fn tree_approximates_truncated_svd() {
        // Theorem 3.2 empirically: the tree's rank-d projection residual is
        // within a modest constant of the optimal rank-d residual.
        let mut rng = StdRng::seed_from_u64(2);
        let m = random_blocked(&mut rng, 24, 96, 8, 0.25);
        let d = 10;
        let tree = TreeSvd::new(cfg(d, 2, 8)); // q = 4 levels
        let emb = tree.embed(&m);
        let csr = m.to_csr();
        let resid = emb.projection_residual(&csr);
        let exact = exact_svd(&csr.to_dense());
        let opt: f64 = exact.s[d..].iter().map(|s| s * s).sum::<f64>().sqrt();
        // Theorem bound with q=4, ε small: (2+ε)(1+√2)³−1 ≈ 27. We check a
        // much tighter empirical factor.
        assert!(resid <= 3.0 * opt + 1e-9, "resid {resid} vs optimal {opt}");
    }

    #[test]
    fn exact_level1_hsvd_at_least_as_good() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = random_blocked(&mut rng, 16, 64, 4, 0.3);
        let d = 8;
        let mut c = cfg(d, 4, 4);
        let rand_emb = TreeSvd::new(c).embed(&m);
        c.level1 = Level1Method::Exact;
        let hsvd_emb = TreeSvd::new(c).embed(&m);
        let csr = m.to_csr();
        let r_rand = rand_emb.projection_residual(&csr);
        let r_hsvd = hsvd_emb.projection_residual(&csr);
        // Randomized level 1 may lose a little, but not much.
        assert!(r_rand <= 1.25 * r_hsvd + 1e-9, "{r_rand} vs {r_hsvd}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = random_blocked(&mut rng, 10, 40, 4, 0.3);
        let tree = TreeSvd::new(cfg(4, 2, 4));
        let a = tree.embed(&m);
        let b = tree.embed(&m);
        assert!(a.left().sub(&b.left()).max_abs() == 0.0);
    }

    #[test]
    fn embedding_has_requested_dim_even_for_tiny_input() {
        let mut m = BlockedProximityMatrix::new(3, 8, 2);
        m.set_row(0, &[(0, 1.0)]);
        m.set_row(1, &[(5, 2.0)]);
        // Row 2 left empty.
        let tree = TreeSvd::new(cfg(6, 2, 2));
        let emb = tree.embed(&m);
        let x = emb.left();
        assert_eq!(x.rows(), 3);
        assert_eq!(x.cols(), 6);
        assert!(x.is_finite());
    }

    #[test]
    fn from_usigma_round_trips() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = tsvd_linalg::rng::gaussian_matrix(&mut rng, 12, 5);
        let svd = exact_svd(&a);
        let emb = Embedding::from_usigma(&svd.u_sigma(), 5);
        for j in 0..5 {
            assert!((emb.sigma[j] - svd.s[j]).abs() < 1e-9);
        }
        // U recovered orthonormal.
        let g = emb.u.t_mul(&emb.u);
        assert!(g.sub(&DenseMatrix::identity(5)).max_abs() < 1e-9);
    }

    #[test]
    fn blocks_config_mismatch_panics() {
        let m = BlockedProximityMatrix::new(2, 16, 4);
        let tree = TreeSvd::new(cfg(2, 2, 8));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tree.embed(&m)));
        assert!(r.is_err());
    }
}

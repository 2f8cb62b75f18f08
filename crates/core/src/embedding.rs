//! The subset embedding produced at the tree root.

use tsvd_linalg::{CsrMatrix, DenseMatrix};

/// The output of (static or dynamic) Tree-SVD: the root truncated SVD and
/// the derived node embedding.
///
/// The left embedding is `X = U·√Σ` (|S| × d, zero-padded if the root rank
/// fell short of `d`). Because the tree compresses the column space, the
/// right factor over the original `n` columns is *restored* as in
/// Theorem 3.2: `Ṽ = Σ⁻¹·Uᵀ·M_S`, giving the right embedding
/// `Y = Ṽᵀ·√Σ = M_Sᵀ·U·Σ^{-1/2}` used by link prediction.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Left singular vectors at the root, `|S| × r` with `r ≤ d`.
    pub u: DenseMatrix,
    /// Root singular values, descending, length `r`.
    pub sigma: Vec<f64>,
    /// Target dimension `d` requested in the config.
    pub dim: usize,
}

tsvd_rt::impl_json_struct!(Embedding { u, sigma, dim });

impl Embedding {
    /// Number of embedded nodes `|S|`.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.u.rows()
    }

    /// The subset embedding `X = U·√Σ`, padded to exactly `dim` columns.
    pub fn left(&self) -> DenseMatrix {
        let r = self.sigma.len();
        let mut x = DenseMatrix::zeros(self.u.rows(), self.dim);
        for i in 0..self.u.rows() {
            let urow = self.u.row(i);
            let xrow = x.row_mut(i);
            for j in 0..r.min(self.dim) {
                xrow[j] = urow[j] * self.sigma[j].max(0.0).sqrt();
            }
        }
        x
    }

    /// The restored right embedding `Y = M_Sᵀ·U·Σ^{-1/2}` (`n × dim`),
    /// for scoring subset → anywhere edges in link prediction.
    ///
    /// Singular values below `1e-12·σ_max` are treated as zero (their
    /// directions carry no signal and the inverse would explode).
    pub fn right(&self, m_s: &CsrMatrix) -> DenseMatrix {
        assert_eq!(m_s.rows(), self.u.rows(), "M_S row count mismatch");
        let mut y = m_s.t_mul_dense(&self.u); // n × r
        let smax = self.sigma.first().copied().unwrap_or(0.0);
        let inv_sqrt: Vec<f64> = self
            .sigma
            .iter()
            .map(|&s| {
                if s > 1e-12 * smax && s > 0.0 {
                    1.0 / s.sqrt()
                } else {
                    0.0
                }
            })
            .collect();
        y.scale_cols(&inv_sqrt);
        // Pad to dim columns.
        if y.cols() == self.dim {
            return y;
        }
        let mut out = DenseMatrix::zeros(y.rows(), self.dim);
        for i in 0..y.rows() {
            let src = y.row(i);
            out.row_mut(i)[..src.len().min(self.dim)]
                .copy_from_slice(&src[..src.len().min(self.dim)]);
        }
        out
    }

    /// Reconstruction error `‖U·(Uᵀ·M_S) − M_S‖_F` of the rank-r projection
    /// this embedding represents — the quantity bounded by Theorem 3.2
    /// (up to the unitary factor `W`).
    pub fn projection_residual(&self, m_s: &CsrMatrix) -> f64 {
        // ‖M − U Uᵀ M‖_F² = ‖M‖_F² − ‖Uᵀ M‖_F²  (U orthonormal).
        let utm = m_s.t_mul_dense(&self.u); // n × r, equals (Uᵀ M)ᵀ
        let captured = utm.frobenius_norm().powi(2);
        (m_s.frobenius_norm_sq() - captured).max(0.0).sqrt()
    }

    /// Freeze this embedding into an epoch-tagged, cheaply clonable
    /// snapshot (see [`TaggedEmbedding`]).
    pub fn tagged(&self, epoch: u64) -> TaggedEmbedding {
        TaggedEmbedding::new(epoch, self.clone())
    }
}

/// An epoch-tagged, immutable embedding snapshot whose clone is two `Arc`
/// bumps — the publishable unit of the serving layer.
///
/// Publishing a fresh embedding to concurrent readers must not copy the
/// `|S| × d` matrix per reader, and readers want the *materialised* rows
/// `X = U·√Σ` (what lookups and similarity scores consume), not the raw
/// factors. `TaggedEmbedding` freezes both at construction: the source
/// [`Embedding`] and its `left()` matrix go behind `Arc`s together with the
/// epoch they belong to, so a reader holding a clone keeps an entire
/// consistent epoch alive regardless of how many swaps happen behind it.
#[derive(Debug, Clone)]
pub struct TaggedEmbedding {
    epoch: u64,
    embedding: std::sync::Arc<Embedding>,
    /// Materialised `X = U·√Σ`, exactly `dim` columns.
    left: std::sync::Arc<DenseMatrix>,
}

impl TaggedEmbedding {
    /// Tag `embedding` as the state of `epoch`, materialising `X = U·√Σ`.
    pub fn new(epoch: u64, embedding: Embedding) -> Self {
        let left = std::sync::Arc::new(embedding.left());
        TaggedEmbedding {
            epoch,
            embedding: std::sync::Arc::new(embedding),
            left,
        }
    }

    /// The update epoch this snapshot belongs to.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying root factors.
    #[inline]
    pub fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    /// The materialised subset embedding `X = U·√Σ` (`|S| × dim`).
    #[inline]
    pub fn left(&self) -> &DenseMatrix {
        &self.left
    }

    /// Row `i` of `X` — the embedding vector of the `i`-th subset source.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        self.left.row(i)
    }

    /// Number of embedded nodes `|S|`.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.left.rows()
    }

    /// Embedding dimension `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.left.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_linalg::svd::exact_svd;
    use tsvd_linalg::Svd;

    /// The embedding of `svd`'s top-`dim` triplets.
    fn root_embedding(svd: &Svd, dim: usize) -> Embedding {
        let t = svd.truncate(dim);
        Embedding {
            u: t.u,
            sigma: t.s,
            dim,
        }
    }

    fn sample_csr() -> CsrMatrix {
        CsrMatrix::from_rows(
            6,
            &[
                vec![(0, 2.0), (3, 1.0)],
                vec![(1, 3.0), (4, 0.5)],
                vec![(0, 1.0), (1, 1.0), (5, 2.0)],
                vec![(2, 4.0)],
            ],
        )
    }

    #[test]
    fn left_scales_by_sqrt_sigma() {
        let m = sample_csr().to_dense();
        let svd = exact_svd(&m);
        let emb = root_embedding(&svd, 3);
        let x = emb.left();
        assert_eq!(x.cols(), 3);
        for j in 0..3 {
            let norm = x.col_norm_sq(j).sqrt();
            assert!((norm - svd.s[j].sqrt()).abs() < 1e-9);
        }
    }

    #[test]
    fn left_pads_when_rank_deficient() {
        let m = CsrMatrix::from_rows(4, &[vec![(0, 1.0)], vec![(0, 2.0)]]);
        let svd = exact_svd(&m.to_dense());
        let emb = root_embedding(&svd, 5);
        let x = emb.left();
        assert_eq!(x.cols(), 5);
        // Rank is 1: columns beyond the first are (near) zero.
        for j in 2..5 {
            assert!(x.col_norm_sq(j) < 1e-18);
        }
    }

    #[test]
    fn right_recovers_v_sqrt_sigma_for_exact_svd() {
        // With U, Σ from an exact SVD, M Mᵀ-consistency gives
        // Y = Mᵀ U Σ^{-1/2} = V Σ^{1/2} exactly.
        let m = sample_csr();
        let svd = exact_svd(&m.to_dense());
        let d = 4;
        let emb = root_embedding(&svd, d);
        let y = emb.right(&m);
        let tr = svd.truncate(d);
        let mut want = tr.vt.transpose();
        let sq: Vec<f64> = tr.s.iter().map(|s| s.sqrt()).collect();
        want.scale_cols(&sq);
        assert!(y.sub(&want).max_abs() < 1e-9);
        // Dot products X·Yᵀ reconstruct M for a full-rank decomposition.
        let x = emb.left();
        let approx = x.mul(&y.transpose());
        assert!(approx.sub(&m.to_dense()).max_abs() < 1e-9);
    }

    #[test]
    fn projection_residual_matches_tail() {
        let m = sample_csr();
        let svd = exact_svd(&m.to_dense());
        let d = 2;
        let emb = root_embedding(&svd, d);
        let resid = emb.projection_residual(&m);
        let tail: f64 = svd.s[d..].iter().map(|s| s * s).sum::<f64>().sqrt();
        assert!((resid - tail).abs() < 1e-9, "{resid} vs {tail}");
    }

    #[test]
    fn tagged_embedding_clones_share_storage() {
        let m = sample_csr();
        let svd = exact_svd(&m.to_dense());
        let emb = root_embedding(&svd, 3);
        let tagged = emb.tagged(42);
        assert_eq!(tagged.epoch(), 42);
        assert_eq!(tagged.num_rows(), 4);
        assert_eq!(tagged.dim(), 3);
        // The materialised left matrix matches Embedding::left bitwise.
        assert_eq!(tagged.left().sub(&emb.left()).max_abs(), 0.0);
        assert_eq!(tagged.row(2), emb.left().row(2));
        // Cloning shares the allocations (two Arc bumps, no matrix copy).
        let c = tagged.clone();
        assert!(std::sync::Arc::ptr_eq(&tagged.left, &c.left));
        assert!(std::sync::Arc::ptr_eq(&tagged.embedding, &c.embedding));
    }

    #[test]
    fn zero_sigma_right_embedding_is_finite() {
        let m = CsrMatrix::zeros(3, 5);
        let svd = exact_svd(&m.to_dense());
        let emb = root_embedding(&svd, 2);
        let y = emb.right(&m);
        assert!(y.is_finite());
        assert!(y.max_abs() == 0.0);
    }
}

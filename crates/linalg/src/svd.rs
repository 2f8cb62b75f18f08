//! Exact singular value decomposition.
//!
//! `exact_svd` computes a full thin SVD `A = U · diag(σ) · Vᵀ`. Wide
//! matrices are transposed, very tall ones pre-reduced with Householder QR,
//! and the square-ish core is factorised by Golub–Reinsch (the `gr` module,
//! `O(m·n²)`). One-sided Jacobi remains as the small-matrix kernel, the
//! fallback on GR non-convergence, and the independent test oracle — it is
//! simple enough to audit by eye, which is worth keeping around in a system
//! whose correctness rests on these factorisations.
//!
//! `exact_svd` and `exact_truncated_svd` always compute `V`.
//! [`exact_usigma`] returns only the top-`d` `U·Σ` a Tree-SVD merge keeps:
//! it runs Golub–Reinsch without `V` and, on the QR path, multiplies `Q` by
//! only the kept columns — and is bitwise equal to
//! `exact_truncated_svd(a, d).u_sigma()`, so the two are interchangeable
//! wherever `V` is not needed.

use crate::dense::DenseMatrix;
use crate::qr::qr;

/// A (possibly truncated) singular value decomposition `A ≈ U·diag(σ)·Vᵀ`.
///
/// # Examples
///
/// ```
/// use tsvd_linalg::{svd::exact_svd, DenseMatrix};
///
/// let a = DenseMatrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0], &[0.0, 0.0]]);
/// let svd = exact_svd(&a);
/// assert!((svd.s[0] - 4.0).abs() < 1e-12);
/// assert!(svd.reconstruct().sub(&a).max_abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m × r`, orthonormal columns.
    pub u: DenseMatrix,
    /// Singular values, descending, length `r`.
    pub s: Vec<f64>,
    /// Right singular vectors transposed, `r × n`, orthonormal rows.
    pub vt: DenseMatrix,
}

tsvd_rt::impl_json_struct!(Svd { u, s, vt });

impl Svd {
    /// Rank of this decomposition (number of retained singular triplets).
    #[inline]
    pub fn rank(&self) -> usize {
        self.s.len()
    }

    /// Keep only the top `d` singular triplets (no-op if `d ≥ rank`).
    pub fn truncate(&self, d: usize) -> Svd {
        if d >= self.rank() {
            return self.clone();
        }
        let u = self.u.take_cols(d);
        let s = self.s[..d].to_vec();
        let mut vt = DenseMatrix::zeros(d, self.vt.cols());
        for i in 0..d {
            vt.row_mut(i).copy_from_slice(self.vt.row(i));
        }
        Svd { u, s, vt }
    }

    /// `U · diag(σ)` — the compressed representation Tree-SVD propagates
    /// between levels (written `(U)_d (Σ)_d` in the paper).
    pub fn u_sigma(&self) -> DenseMatrix {
        let mut m = self.u.clone();
        m.scale_cols(&self.s);
        m
    }

    /// `U · diag(√σ)` — the node-embedding convention of STRAP/NRP
    /// (`X = U·√Σ`).
    pub fn embedding(&self) -> DenseMatrix {
        let sq: Vec<f64> = self.s.iter().map(|v| v.max(0.0).sqrt()).collect();
        let mut m = self.u.clone();
        m.scale_cols(&sq);
        m
    }

    /// Reconstruct `U·diag(σ)·Vᵀ` densely (tests and error measurement).
    pub fn reconstruct(&self) -> DenseMatrix {
        self.u_sigma().mul(&self.vt)
    }

    /// `‖A‖_F² − Σ σ_i²`: the squared Frobenius residual `‖A − A_d‖_F²` when
    /// the decomposition is exact, and the standard estimate of it when the
    /// decomposition came from a randomized method. Clamped at zero.
    pub fn residual_sq(&self, a_frob_sq: f64) -> f64 {
        let cap: f64 = self.s.iter().map(|v| v * v).sum();
        (a_frob_sq - cap).max(0.0)
    }
}

/// Full thin SVD of `a`.
///
/// Dispatch: matrices with ≥ 12 columns (after the transpose/QR reductions
/// below) go to Golub–Reinsch (the `gr` module); smaller ones — and the
/// never-observed case of a GR convergence failure — use one-sided Jacobi.
pub fn exact_svd(a: &DenseMatrix) -> Svd {
    let (m, n) = (a.rows(), a.cols());
    if m == 0 || n == 0 {
        return Svd {
            u: DenseMatrix::zeros(m, 0),
            s: Vec::new(),
            vt: DenseMatrix::zeros(0, n),
        };
    }
    if m < n {
        // SVD of the transpose, then swap factors: A = (Uᵀ' Σ V'ᵀ)ᵀ = V' Σ U'ᵀ.
        let t = exact_svd(&a.transpose());
        return Svd {
            u: t.vt.transpose(),
            s: t.s,
            vt: t.u.transpose(),
        };
    }
    if m > 2 * n {
        // Very tall: A = Q·R, SVD of R (n×n), U = Q·U_R.
        let f = qr(a);
        let inner = dense_svd_tall(&f.r);
        return Svd {
            u: f.q.mul(&inner.u),
            s: inner.s,
            vt: inner.vt,
        };
    }
    dense_svd_tall(a)
}

/// SVD of a matrix with `rows ≥ cols`, choosing the kernel by size.
fn dense_svd_tall(a: &DenseMatrix) -> Svd {
    if a.cols() >= 12 {
        if let Some((u, w, Some(v))) = crate::gr::golub_reinsch(a, true) {
            return sorted_svd(u, w, v);
        }
    }
    jacobi_svd(a)
}

/// The order that sorts `w` descending; stable, so ties keep the order the
/// QR phase left them in.
fn descending(w: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..w.len()).collect();
    order.sort_by(|&i, &j| w[j].partial_cmp(&w[i]).unwrap());
    order
}

/// Package an unsorted `(U, w, V)` triple as a descending-order [`Svd`].
fn sorted_svd(u: DenseMatrix, w: Vec<f64>, v: DenseMatrix) -> Svd {
    let n = w.len();
    let order = descending(&w);
    let su = DenseMatrix::from_fn(u.rows(), n, |i, j| u.get(i, order[j]));
    let s: Vec<f64> = order.iter().map(|&j| w[j]).collect();
    let vt = DenseMatrix::from_fn(n, v.rows(), |i, j| v.get(j, order[i]));
    Svd { u: su, s, vt }
}

/// Jacobi-only SVD, exposed for cross-validation in gr.rs tests.
#[cfg(test)]
pub(crate) fn exact_svd_jacobi_for_tests(a: &DenseMatrix) -> Svd {
    let (m, n) = (a.rows(), a.cols());
    if m < n {
        let t = exact_svd_jacobi_for_tests(&a.transpose());
        return Svd {
            u: t.vt.transpose(),
            s: t.s,
            vt: t.u.transpose(),
        };
    }
    jacobi_svd(a)
}

/// Top-`d` truncated exact SVD.
pub fn exact_truncated_svd(a: &DenseMatrix, d: usize) -> Svd {
    exact_svd(a).truncate(d)
}

/// Top-`d` `U·diag(σ)` of `a` — the factor a Tree-SVD merge keeps —
/// computed without `V`.
///
/// Bitwise equal to `exact_truncated_svd(a, d).u_sigma()` for every input.
/// It dispatches on shape as [`exact_svd`] does: `m ≤ 2n` runs a left-only
/// Golub–Reinsch on `a`; `m > 2n` runs it on `R` of `a = Q·R` and multiplies
/// `Q` by only the `d` kept columns of `U_R` (each entry of a
/// [`DenseMatrix::mul`] product sums over the inner index alone, so the
/// dropped columns change nothing). Wide inputs, inputs with fewer than 12
/// columns and a (never observed) Golub–Reinsch non-convergence take
/// `exact_truncated_svd` itself.
pub fn exact_usigma(a: &DenseMatrix, d: usize) -> DenseMatrix {
    let (m, n) = (a.rows(), a.cols());
    if m >= n && n >= 12 {
        let f = (m > 2 * n).then(|| qr(a));
        let core = f.as_ref().map_or(a, |f| &f.r);
        if let Some((u, w, _)) = crate::gr::golub_reinsch(core, false) {
            let order = descending(&w);
            let top = &order[..d.min(n)];
            let kept = DenseMatrix::from_fn(u.rows(), top.len(), |i, j| u.get(i, top[j]));
            let mut usigma = match f {
                Some(f) => f.q.mul(&kept),
                None => kept,
            };
            let s: Vec<f64> = top.iter().map(|&j| w[j]).collect();
            usigma.scale_cols(&s);
            return usigma;
        }
    }
    exact_truncated_svd(a, d).u_sigma()
}

/// One-sided Jacobi SVD of `a` with `rows ≥ cols`.
fn jacobi_svd(a: &DenseMatrix) -> Svd {
    let (m, n) = (a.rows(), a.cols());
    debug_assert!(m >= n);
    // Column-major working copy: row j of `w` is column j of `a`.
    let mut w = a.transpose();
    let mut v = DenseMatrix::identity(n);

    // Convergence: stop rotating a pair once the off-diagonal correlation
    // is below eps relative to the column norms. 1e-12 leaves singular
    // values accurate to ~12 digits — far past what rank-d truncation of a
    // PPR spectrum can resolve — and saves the last few sweeps that pure
    // machine-precision convergence would burn.
    let eps = 1e-12_f64;
    let total_sq: f64 = w.as_slice().iter().map(|x| x * x).sum();
    // Columns this far below the matrix scale are numerically null; the
    // rotations between them would only chase rounding noise.
    let negligible = total_sq * 1e-28;
    let max_sweeps = 60;
    for _ in 0..max_sweeps {
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let (mut app, mut aqq, mut apq) = (0.0, 0.0, 0.0);
                for (x, y) in w.row(p).iter().zip(w.row(q)) {
                    app += x * x;
                    aqq += y * y;
                    apq += x * y;
                }
                if apq.abs() <= eps * (app * aqq).sqrt()
                    || apq == 0.0
                    || app * aqq <= negligible * negligible
                {
                    continue;
                }
                rotated = true;
                // 2×2 symmetric eigenproblem on [[app, apq], [apq, aqq]].
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Rotate columns p and q of A (rows p/q of w).
                // Split borrows via index math on the raw buffer.
                {
                    let (lo, hi) = (p.min(q), p.max(q));
                    let (head, tail) = w.as_mut_slice().split_at_mut(hi * m);
                    let rp;
                    let rq;
                    if p < q {
                        rp = &mut head[p * m..(p + 1) * m];
                        rq = &mut tail[..m];
                    } else {
                        rq = &mut head[q * m..(q + 1) * m];
                        rp = &mut tail[..m];
                    }
                    let _ = lo;
                    for (x, y) in rp.iter_mut().zip(rq.iter_mut()) {
                        let xp = *x;
                        let yq = *y;
                        *x = c * xp - s * yq;
                        *y = s * xp + c * yq;
                    }
                }
                // Same rotation on V's columns p, q.
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
        if !rotated {
            break;
        }
    }

    // Singular values = column norms; U columns = normalised A columns.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = (0..n)
        .map(|j| w.row(j).iter().map(|x| x * x).sum::<f64>().sqrt())
        .collect();
    order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).unwrap());

    let mut u = DenseMatrix::zeros(m, n);
    let mut s = Vec::with_capacity(n);
    let mut vt = DenseMatrix::zeros(n, n);
    for (out_j, &j) in order.iter().enumerate() {
        let sigma = norms[j];
        s.push(sigma);
        if sigma > 0.0 {
            for i in 0..m {
                u.set(i, out_j, w.row(j)[i] / sigma);
            }
        }
        // If sigma == 0 the U column stays zero; it never contributes to a
        // reconstruction and truncation drops it in practice.
        for k in 0..n {
            vt.set(out_j, k, v.get(k, j));
        }
    }
    Svd { u, s, vt }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::gaussian_matrix;
    use tsvd_rt::rng::SeedableRng;
    use tsvd_rt::rng::StdRng;

    fn check_svd(a: &DenseMatrix, svd: &Svd, tol: f64) {
        let back = svd.reconstruct();
        assert!(
            back.sub(a).max_abs() < tol,
            "reconstruction error {}",
            back.sub(a).max_abs()
        );
        // Orthonormality (ignoring zero singular directions).
        let r = svd.s.iter().filter(|&&x| x > 1e-9).count();
        let tr = svd.truncate(r);
        let gu = tr.u.t_mul(&tr.u);
        assert!(
            gu.sub(&DenseMatrix::identity(r)).max_abs() < 1e-8,
            "U not orthonormal"
        );
        let gv = tr.vt.mul(&tr.vt.transpose());
        assert!(
            gv.sub(&DenseMatrix::identity(r)).max_abs() < 1e-8,
            "V not orthonormal"
        );
        // Descending.
        assert!(svd.s.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn known_diagonal() {
        let a = DenseMatrix::from_rows(&[&[0.0, 2.0], &[3.0, 0.0], &[0.0, 0.0]]);
        let svd = exact_svd(&a);
        assert!((svd.s[0] - 3.0).abs() < 1e-12);
        assert!((svd.s[1] - 2.0).abs() < 1e-12);
        check_svd(&a, &svd, 1e-12);
    }

    #[test]
    fn random_shapes() {
        let mut rng = StdRng::seed_from_u64(99);
        for &(m, n) in &[
            (1usize, 1usize),
            (5, 5),
            (20, 7),
            (7, 20),
            (40, 3),
            (3, 40),
            (16, 16),
        ] {
            let a = gaussian_matrix(&mut rng, m, n);
            let svd = exact_svd(&a);
            assert_eq!(svd.rank(), m.min(n));
            check_svd(&a, &svd, 1e-9);
        }
    }

    #[test]
    fn rank_deficient() {
        // rank-1 outer product
        let u = DenseMatrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let v = DenseMatrix::from_rows(&[&[4.0, 5.0, 6.0, 7.0]]);
        let a = u.mul(&v);
        let svd = exact_svd(&a);
        check_svd(&a, &svd, 1e-10);
        assert!(svd.s[1] < 1e-10, "second singular value should vanish");
        // Truncated to rank 1 reconstructs exactly.
        let t = svd.truncate(1);
        assert!(t.reconstruct().sub(&a).max_abs() < 1e-10);
    }

    #[test]
    fn truncation_is_best_approximation() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = gaussian_matrix(&mut rng, 12, 9);
        let svd = exact_svd(&a);
        let d = 4;
        let t = svd.truncate(d);
        // Eckart–Young: residual² == Σ_{i>d} σ_i².
        let resid = t.reconstruct().sub(&a).frobenius_norm().powi(2);
        let tail: f64 = svd.s[d..].iter().map(|v| v * v).sum();
        assert!((resid - tail).abs() < 1e-9 * (1.0 + tail));
        // residual_sq helper agrees.
        let est = t.residual_sq(a.frobenius_norm().powi(2));
        assert!((est - tail).abs() < 1e-9 * (1.0 + tail));
    }

    #[test]
    fn u_sigma_and_embedding_scaling() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = gaussian_matrix(&mut rng, 10, 4);
        let svd = exact_svd(&a);
        let us = svd.u_sigma();
        for j in 0..4 {
            let norm = us.col_norm_sq(j).sqrt();
            assert!((norm - svd.s[j]).abs() < 1e-9);
        }
        let emb = svd.embedding();
        for j in 0..4 {
            let norm = emb.col_norm_sq(j).sqrt();
            assert!((norm - svd.s[j].sqrt()).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_matrix_svd() {
        let a = DenseMatrix::zeros(5, 3);
        let svd = exact_svd(&a);
        assert!(svd.s.iter().all(|&x| x == 0.0));
        assert!(svd.reconstruct().max_abs() < 1e-15);
    }

    #[test]
    fn empty_dims() {
        let a = DenseMatrix::zeros(0, 3);
        let svd = exact_svd(&a);
        assert_eq!(svd.rank(), 0);
        let b = DenseMatrix::zeros(3, 0);
        let svd2 = exact_svd(&b);
        assert_eq!(svd2.rank(), 0);
    }

    #[test]
    fn tall_qr_path_matches_direct() {
        let mut rng = StdRng::seed_from_u64(17);
        // 100×8 forces the QR pre-reduction path.
        let a = gaussian_matrix(&mut rng, 100, 8);
        let svd = exact_svd(&a);
        check_svd(&a, &svd, 1e-9);
    }
}

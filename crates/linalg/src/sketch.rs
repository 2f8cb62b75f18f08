//! Frequent-Directions matrix sketching (Liberty 2013).
//!
//! This is the streaming factorisation behind the FREDE baseline: rows of the
//! proximity matrix arrive one at a time and are compressed into an `ℓ × n`
//! sketch `B` such that `‖AᵀA − BᵀB‖₂ ≤ ‖A‖_F² / ℓ`. FREDE reads 2ℓ rows,
//! compresses to ℓ via SVD, and repeats — exactly the loop implemented here.

use crate::dense::DenseMatrix;
use crate::svd::exact_svd;

/// A Frequent-Directions sketch with `ℓ` retained directions over `cols`
/// columns.
#[derive(Debug, Clone)]
pub struct FrequentDirections {
    l: usize,
    cols: usize,
    /// `2ℓ × cols` buffer; rows `0..filled` are live.
    buf: DenseMatrix,
    filled: usize,
}

impl FrequentDirections {
    /// A fresh sketch retaining `l ≥ 1` directions over `cols` columns.
    pub fn new(l: usize, cols: usize) -> Self {
        assert!(l >= 1, "sketch size must be positive");
        FrequentDirections {
            l,
            cols,
            buf: DenseMatrix::zeros(2 * l, cols),
            filled: 0,
        }
    }

    /// Sketch size `ℓ`.
    #[inline]
    pub fn l(&self) -> usize {
        self.l
    }

    /// Column dimension.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Append a sparse row given as `(col, value)` pairs.
    pub fn append_sparse(&mut self, row: &[(u32, f64)]) {
        if self.filled == 2 * self.l {
            self.shrink();
        }
        let r = self.buf.row_mut(self.filled);
        r.fill(0.0);
        for &(c, v) in row {
            r[c as usize] = v;
        }
        self.filled += 1;
    }

    /// SVD-shrink the buffer back to `ℓ` live rows:
    /// `σ'_i = sqrt(max(σ_i² − σ_ℓ², 0))`, rows ← `diag(σ')·Vᵀ`.
    fn shrink(&mut self) {
        if self.filled <= self.l {
            return;
        }
        let live = DenseMatrix::from_fn(self.filled, self.cols, |i, j| self.buf.get(i, j));
        let svd = exact_svd(&live);
        let pivot_sq = svd.s.get(self.l - 1).map_or(0.0, |s| s * s);
        let keep = self.l.min(svd.rank());
        for i in 0..keep {
            let scale = (svd.s[i] * svd.s[i] - pivot_sq).max(0.0).sqrt();
            let vrow = svd.vt.row(i);
            let out = self.buf.row_mut(i);
            for (o, &v) in out.iter_mut().zip(vrow) {
                *o = scale * v;
            }
        }
        for i in keep..self.filled {
            self.buf.row_mut(i).fill(0.0);
        }
        self.filled = keep;
    }

    /// Finalise and return the `ℓ × cols` sketch matrix (zero-padded if fewer
    /// than `ℓ` directions are live).
    pub fn sketch(&mut self) -> DenseMatrix {
        self.shrink();
        DenseMatrix::from_fn(self.l, self.cols, |i, j| {
            if i < self.filled {
                self.buf.get(i, j)
            } else {
                0.0
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::gaussian_matrix;
    use tsvd_rt::rng::SeedableRng;
    use tsvd_rt::rng::StdRng;

    /// Append a dense row as a sparse row listing every column.
    fn append_dense(fd: &mut FrequentDirections, row: &[f64]) {
        let entries: Vec<(u32, f64)> = row
            .iter()
            .enumerate()
            .map(|(c, &v)| (c as u32, v))
            .collect();
        fd.append_sparse(&entries);
    }

    /// Spectral norm via power iteration (test helper).
    fn spectral_norm(a: &DenseMatrix) -> f64 {
        let n = a.cols();
        let mut x = vec![1.0 / (n as f64).sqrt(); n];
        for _ in 0..200 {
            let y = a.mul_vec(&x);
            let z = a.transpose().mul_vec(&y);
            let norm = z.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm == 0.0 {
                return 0.0;
            }
            x = z.iter().map(|v| v / norm).collect();
        }
        let y = a.mul_vec(&x);
        y.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    #[test]
    fn exact_when_rows_fit() {
        // Fewer than ℓ rows: sketch covariance must equal input covariance.
        let mut rng = StdRng::seed_from_u64(1);
        let a = gaussian_matrix(&mut rng, 4, 10);
        let mut fd = FrequentDirections::new(6, 10);
        for i in 0..4 {
            append_dense(&mut fd, a.row(i));
        }
        let b = fd.sketch();
        let ca = a.t_mul(&a);
        let cb = b.t_mul(&b);
        assert!(ca.sub(&cb).max_abs() < 1e-9);
    }

    #[test]
    fn covariance_error_bound() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = gaussian_matrix(&mut rng, 120, 30);
        let l = 12;
        let mut fd = FrequentDirections::new(l, 30);
        for i in 0..a.rows() {
            append_dense(&mut fd, a.row(i));
        }
        let b = fd.sketch();
        let diff = a.t_mul(&a).sub(&b.t_mul(&b));
        let bound = a.frobenius_norm().powi(2) / l as f64;
        let err = spectral_norm(&diff);
        assert!(
            err <= bound * 1.0001,
            "FD guarantee violated: {err} > {bound}"
        );
    }

    #[test]
    fn sketch_rank_at_most_l() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = gaussian_matrix(&mut rng, 50, 20);
        let mut fd = FrequentDirections::new(5, 20);
        for i in 0..a.rows() {
            append_dense(&mut fd, a.row(i));
        }
        let b = fd.sketch();
        assert_eq!(b.rows(), 5);
        let svd = exact_svd(&b);
        assert!(svd.s.iter().filter(|&&s| s > 1e-9).count() <= 5);
    }
}

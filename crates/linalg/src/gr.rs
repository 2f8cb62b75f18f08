//! Golub–Reinsch SVD: Householder bidiagonalization followed by
//! implicit-shift QR iterations on the bidiagonal form.
//!
//! This is the classic EISPACK/`svdcmp` algorithm (Golub & Reinsch 1970,
//! as presented in Golub & Van Loan §8.6), ported with 0-based indexing and
//! scaled-epsilon convergence tests instead of the float-rounding trick of
//! older codes. Cost is `O(m·n²)` with a small constant — an order of
//! magnitude faster than cyclic one-sided Jacobi on the few-hundred-column
//! merge matrices Tree-SVD factorises at its interior levels. Jacobi
//! remains in [`crate::svd`] as the small-matrix path, the fallback on
//! (never observed) non-convergence, and the test oracle.
//!
//! The working buffers are **column-major** (`U` and `V` columns are
//! contiguous slices): every hot loop — Householder updates, the Givens
//! rotations of the QR phase — walks contiguous memory and autovectorises.
//! The only strided passes left are the `O(n)`-per-step row extractions of
//! the bidiagonalization's second stage, which copy the row into a scratch
//! buffer first.
//!
//! `V` is computed only when asked for (`with_v`). Nothing that produces `U`
//! or the singular values ever reads `V`, so a left-only run returns `U` and
//! `w` bitwise equal to a full run and skips the `n × n` buffer, the
//! right-hand accumulation and half of every QR sweep's rotations — which is
//! all a Tree-SVD merge needs (it keeps `U·Σ`).
//!
//! The two Householder loops that update every later column against a fixed
//! pivot column (stage 1 of the bidiagonalization, and the left-hand
//! accumulation) take four columns per pass over the rows
//! ([`reflect_cols`]); each column's dot product is still one sequential sum
//! from `0.0` in row order, so the interleaving changes no bit.

use crate::dense::DenseMatrix;

/// `sqrt(a² + b²)` without destructive underflow or overflow.
fn pythag(a: f64, b: f64) -> f64 {
    let (absa, absb) = (a.abs(), b.abs());
    if absa > absb {
        let r = absb / absa;
        absa * (1.0 + r * r).sqrt()
    } else if absb > 0.0 {
        let r = absa / absb;
        absb * (1.0 + r * r).sqrt()
    } else {
        0.0
    }
}

#[inline]
fn sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// Split two distinct columns out of a column-major buffer.
#[inline]
fn two_cols(buf: &mut [f64], rows: usize, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert_ne!(a, b);
    let (lo, hi) = (a.min(b), a.max(b));
    let (head, tail) = buf.split_at_mut(hi * rows);
    let first = &mut head[lo * rows..(lo + 1) * rows];
    let second = &mut tail[..rows];
    if a < b {
        (first, second)
    } else {
        (second, first)
    }
}

/// Rotate two columns: `(x, y) ← (x·c + y·s, y·c − x·s)`.
#[inline]
fn rotate_cols(buf: &mut [f64], rows: usize, j1: usize, j2: usize, c: f64, s: f64) {
    let (col1, col2) = two_cols(buf, rows, j1, j2);
    for (x, y) in col1.iter_mut().zip(col2.iter_mut()) {
        let xv = *x;
        let yv = *y;
        *x = xv * c + yv * s;
        *y = yv * c - xv * s;
    }
}

/// One Householder step's update of every column of `rest` (column-major,
/// `rows` entries per column) against the fixed column `piv`: with
/// `s = Σ_{r ≥ dot_from} piv[r]·col[r]`, summed in row order from `0.0`, set
/// `col[axpy_from..] += coef(s) · piv[axpy_from..]`.
///
/// `piv` is read-only, so the columns' dots are independent: four columns
/// share each pass over the rows as four accumulator chains, each the
/// one-column sum bit for bit. The `cols mod 4` tail runs the one-column
/// body.
fn reflect_cols(
    piv: &[f64],
    rest: &mut [f64],
    rows: usize,
    dot_from: usize,
    axpy_from: usize,
    coef: impl Fn(f64) -> f64,
) {
    let x = &piv[dot_from..rows];
    let p = &piv[axpy_from..rows];
    let len = x.len();
    let axpy = |col: &mut [f64], s: f64| {
        let f = coef(s);
        for (y, &pv) in col[axpy_from..].iter_mut().zip(p) {
            *y += f * pv;
        }
    };
    let mut quads = rest.chunks_exact_mut(4 * rows);
    for quad in &mut quads {
        let (c0, tail) = quad.split_at_mut(rows);
        let (c1, tail) = tail.split_at_mut(rows);
        let (c2, c3) = tail.split_at_mut(rows);
        let (y0, y1) = (&c0[dot_from..][..len], &c1[dot_from..][..len]);
        let (y2, y3) = (&c2[dot_from..][..len], &c3[dot_from..][..len]);
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        for k in 0..len {
            let xv = x[k];
            s0 += xv * y0[k];
            s1 += xv * y1[k];
            s2 += xv * y2[k];
            s3 += xv * y3[k];
        }
        axpy(c0, s0);
        axpy(c1, s1);
        axpy(c2, s2);
        axpy(c3, s3);
    }
    for col in quads.into_remainder().chunks_exact_mut(rows) {
        let mut s = 0.0;
        for (xv, y) in x.iter().zip(&col[dot_from..]) {
            s += xv * y;
        }
        axpy(col, s);
    }
}

/// Column `i` of a column-major buffer, read-only, and every column after
/// it as one mutable slice.
#[inline]
fn pivot_and_rest(buf: &mut [f64], rows: usize, i: usize) -> (&[f64], &mut [f64]) {
    let (head, rest) = buf.split_at_mut((i + 1) * rows);
    (&head[i * rows..], rest)
}

/// The unsorted factors of [`golub_reinsch`]: `U` `m×n`, the singular
/// values `w` in the order the QR phase leaves them, and `V` `n×n` when it
/// was asked for.
pub(crate) type RawSvd = (DenseMatrix, Vec<f64>, Option<DenseMatrix>);

/// Raw Golub–Reinsch on `a` with `m ≥ n`; `V` only when `with_v`. `U` and
/// `w` do not depend on `with_v`, bit for bit. Returns `None` if the QR
/// phase failed to converge in 60 iterations for some value (caller falls
/// back to Jacobi) — with or without `V`, since convergence reads only the
/// bidiagonal.
pub(crate) fn golub_reinsch(a: &DenseMatrix, with_v: bool) -> Option<RawSvd> {
    let (m, n) = (a.rows(), a.cols());
    debug_assert!(m >= n && n > 0);
    // Column-major copies: uc[j*m + i] = A[i][j], vc[j*n + i] = V[i][j].
    let mut uc = vec![0.0_f64; m * n];
    for i in 0..m {
        for (j, &val) in a.row(i).iter().enumerate() {
            uc[j * m + i] = val;
        }
    }
    let mut vc = if with_v {
        vec![0.0_f64; n * n]
    } else {
        Vec::new()
    };
    let mut w = vec![0.0_f64; n];
    let mut rv1 = vec![0.0_f64; n];
    let mut scratch = vec![0.0_f64; m.max(n)];

    // --- Householder reduction to bidiagonal form ---
    let mut g = 0.0_f64;
    let mut scale = 0.0_f64;
    let mut anorm = 0.0_f64;
    for i in 0..n {
        let l = i + 1;
        rv1[i] = scale * g;
        g = 0.0;
        scale = 0.0;
        if i < m {
            // Stage 1: Householder on column i, rows i..m.
            {
                let col = &uc[i * m..(i + 1) * m];
                for &x in &col[i..] {
                    scale += x.abs();
                }
            }
            if scale != 0.0 {
                let mut s = 0.0;
                {
                    let col = &mut uc[i * m..(i + 1) * m];
                    for x in &mut col[i..] {
                        *x /= scale;
                        s += *x * *x;
                    }
                    let f = col[i];
                    g = -sign(s.sqrt(), f);
                    col[i] = f - g;
                }
                // h = f·g − s with f the pre-update pivot, recovered from
                // the stored f − g.
                let h = (uc[i * m + i] + g) * g - s;
                let (ci, rest) = pivot_and_rest(&mut uc, m, i);
                reflect_cols(ci, rest, m, i, i, |s2| s2 / h);
                let col = &mut uc[i * m..(i + 1) * m];
                for x in &mut col[i..] {
                    *x *= scale;
                }
            }
        }
        w[i] = scale * g;
        g = 0.0;
        scale = 0.0;
        if i < m && i != n - 1 {
            // Stage 2: Householder on row i, columns l..n.
            for k in l..n {
                scale += uc[k * m + i].abs();
            }
            if scale != 0.0 {
                let mut s = 0.0;
                for k in l..n {
                    let x = uc[k * m + i] / scale;
                    uc[k * m + i] = x;
                    s += x * x;
                }
                let f = uc[l * m + i];
                g = -sign(s.sqrt(), f);
                let h = f * g - s;
                uc[l * m + i] = f - g;
                for k in l..n {
                    rv1[k] = uc[k * m + i] / h;
                }
                // s2[j] = Σ_k u[j][k]·u[i][k]; computed column-by-column so
                // the inner loop is contiguous.
                let s2 = &mut scratch[..m];
                s2[l..m].fill(0.0);
                for k in l..n {
                    let uik = uc[k * m + i];
                    let col = &uc[k * m..(k + 1) * m];
                    for (acc, &x) in s2[l..m].iter_mut().zip(&col[l..m]) {
                        *acc += x * uik;
                    }
                }
                for k in l..n {
                    let rk = rv1[k];
                    let col = &mut uc[k * m..(k + 1) * m];
                    for (x, &add) in col[l..m].iter_mut().zip(&s2[l..m]) {
                        *x += add * rk;
                    }
                }
                for k in l..n {
                    uc[k * m + i] *= scale;
                }
            }
        }
        anorm = anorm.max(w[i].abs() + rv1[i].abs());
    }

    // --- Accumulate right-hand transformations into V ---
    if with_v {
        let mut g = 0.0_f64;
        for i in (0..n).rev() {
            let l = i + 1;
            if i < n - 1 {
                if g != 0.0 {
                    // Row i of U, columns l..n, into scratch (strided once).
                    let urow = &mut scratch[..n];
                    for k in l..n {
                        urow[k] = uc[k * m + i];
                    }
                    let pivot = urow[l];
                    {
                        let coli = &mut vc[i * n..(i + 1) * n];
                        // Double division avoids underflow of u[i][l]·g.
                        for j in l..n {
                            coli[j] = (urow[j] / pivot) / g;
                        }
                    }
                    for j in l..n {
                        let (ci, cj) = two_cols(&mut vc, n, i, j);
                        let mut s = 0.0;
                        for k in l..n {
                            s += urow[k] * cj[k];
                        }
                        for (x, &y) in cj[l..].iter_mut().zip(&ci[l..]) {
                            *x += s * y;
                        }
                    }
                }
                for j in l..n {
                    vc[j * n + i] = 0.0; // V[i][j]
                    vc[i * n + j] = 0.0; // V[j][i]
                }
            }
            vc[i * n + i] = 1.0;
            g = rv1[i];
        }
    }

    // --- Accumulate left-hand transformations into U ---
    for i in (0..n.min(m)).rev() {
        let l = i + 1;
        let g = w[i];
        for j in l..n {
            uc[j * m + i] = 0.0; // U[i][j]
        }
        if g != 0.0 {
            let ginv = 1.0 / g;
            let (ci, rest) = pivot_and_rest(&mut uc, m, i);
            let pivot = ci[i];
            reflect_cols(ci, rest, m, l, i, |s| (s / pivot) * ginv);
            let col = &mut uc[i * m..(i + 1) * m];
            for x in &mut col[i..] {
                *x *= ginv;
            }
        } else {
            let col = &mut uc[i * m..(i + 1) * m];
            for x in &mut col[i..] {
                *x = 0.0;
            }
        }
        uc[i * m + i] += 1.0;
    }

    // --- Diagonalise the bidiagonal form by implicit-shift QR ---
    let eps = f64::EPSILON;
    for k in (0..n).rev() {
        let mut converged = false;
        for _its in 0..60 {
            // Find the start `l` of the unreduced trailing block; rv1[0] is
            // structurally zero, so the search terminates.
            let mut l = k;
            let mut flag = true;
            loop {
                if rv1[l].abs() <= eps * anorm {
                    flag = false;
                    break;
                }
                if w[l - 1].abs() <= eps * anorm {
                    break;
                }
                l -= 1;
            }
            if flag {
                // w[l-1] is negligible: cancel rv1[l] with Givens rotations
                // applied from the left (mixing U columns l-1 and i).
                let nm = l - 1;
                let mut c = 0.0_f64;
                let mut s = 1.0_f64;
                for i in l..=k {
                    let f = s * rv1[i];
                    rv1[i] *= c;
                    if f.abs() <= eps * anorm {
                        break;
                    }
                    let g = w[i];
                    let h = pythag(f, g);
                    w[i] = h;
                    let hinv = 1.0 / h;
                    c = g * hinv;
                    s = -f * hinv;
                    // (y, z) ← (y·c + z·s, z·c − y·s) for columns (nm, i).
                    rotate_cols(&mut uc, m, nm, i, c, s);
                }
            }
            let z = w[k];
            if l == k {
                // Converged; enforce non-negative singular value.
                if z < 0.0 {
                    w[k] = -z;
                    if with_v {
                        for x in &mut vc[k * n..(k + 1) * n] {
                            *x = -*x;
                        }
                    }
                }
                converged = true;
                break;
            }
            // Shift from the bottom 2×2 minor.
            let x0 = w[l];
            let nm = k - 1;
            let y = w[nm];
            let g = rv1[nm];
            let h = rv1[k];
            let mut f = ((y - z) * (y + z) + (g - h) * (g + h)) / (2.0 * h * y);
            let g2 = pythag(f, 1.0);
            f = ((x0 - z) * (x0 + z) + h * ((y / (f + sign(g2, f))) - h)) / x0;
            // Next QR sweep.
            let (mut c, mut s) = (1.0_f64, 1.0_f64);
            let mut x = x0;
            for j in l..=nm {
                let i = j + 1;
                let mut g = rv1[i];
                let mut y = w[i];
                let mut h = s * g;
                g *= c;
                let mut z = pythag(f, h);
                rv1[j] = z;
                c = f / z;
                s = h / z;
                f = x * c + g * s;
                g = g * c - x * s;
                h = y * s;
                y *= c;
                if with_v {
                    rotate_cols(&mut vc, n, j, i, c, s);
                }
                z = pythag(f, h);
                w[j] = z;
                if z != 0.0 {
                    let zinv = 1.0 / z;
                    c = f * zinv;
                    s = h * zinv;
                }
                f = c * g + s * y;
                x = c * y - s * g;
                rotate_cols(&mut uc, m, j, i, c, s);
            }
            rv1[l] = 0.0;
            rv1[k] = f;
            w[k] = x;
        }
        if !converged {
            return None;
        }
    }

    // Convert back to row-major matrices.
    let u = DenseMatrix::from_fn(m, n, |i, j| uc[j * m + i]);
    let v = with_v.then(|| DenseMatrix::from_fn(n, n, |i, j| vc[j * n + i]));
    Some((u, w, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::gaussian_matrix;
    use tsvd_rt::rng::SeedableRng;
    use tsvd_rt::rng::StdRng;

    #[test]
    fn pythag_safe() {
        assert_eq!(pythag(3.0, 4.0), 5.0);
        assert_eq!(pythag(0.0, 0.0), 0.0);
        // No overflow for huge components.
        let big = pythag(1e200, 1e200);
        assert!((big - 1e200 * 2.0_f64.sqrt()).abs() / big < 1e-12);
    }

    #[test]
    fn reconstructs_random_tall() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(m, n) in &[(8usize, 5usize), (30, 30), (64, 17), (5, 1), (200, 100)] {
            let a = gaussian_matrix(&mut rng, m, n);
            let (u, w, v) = golub_reinsch(&a, true).expect("converges");
            let v = v.expect("asked for V");
            // U diag(w) Vᵀ == A
            let mut uw = u.clone();
            uw.scale_cols(&w);
            let back = uw.mul(&v.transpose());
            assert!(back.sub(&a).max_abs() < 1e-9, "({m},{n})");
            // Orthogonality.
            let gu = u.t_mul(&u);
            assert!(
                gu.sub(&DenseMatrix::identity(n)).max_abs() < 1e-9,
                "U ({m},{n})"
            );
            let gv = v.t_mul(&v);
            assert!(
                gv.sub(&DenseMatrix::identity(n)).max_abs() < 1e-9,
                "V ({m},{n})"
            );
            // All singular values non-negative.
            assert!(w.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn handles_rank_deficiency_and_zeros() {
        let z = DenseMatrix::zeros(6, 4);
        let (_, w, _) = golub_reinsch(&z, true).unwrap();
        assert!(w.iter().all(|&x| x == 0.0));

        // Rank-1.
        let mut rng = StdRng::seed_from_u64(2);
        let col = gaussian_matrix(&mut rng, 10, 1);
        let row = gaussian_matrix(&mut rng, 1, 6);
        let a = col.mul(&row);
        let (u, w, v) = golub_reinsch(&a, true).unwrap();
        let v = v.unwrap();
        let mut uw = u;
        uw.scale_cols(&w);
        assert!(uw.mul(&v.transpose()).sub(&a).max_abs() < 1e-10);
        let mut sorted = w.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert!(sorted[1] < 1e-9 * sorted[0].max(1.0));
    }

    #[test]
    fn matches_jacobi_oracle() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(m, n) in &[(12usize, 12usize), (40, 25), (100, 60)] {
            let a = gaussian_matrix(&mut rng, m, n);
            let (_, mut w, _) = golub_reinsch(&a, true).unwrap();
            w.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let jac = crate::svd::exact_svd_jacobi_for_tests(&a);
            for (g, j) in w.iter().zip(&jac.s) {
                assert!((g - j).abs() < 1e-8 * (1.0 + j), "{g} vs {j} ({m},{n})");
            }
        }
    }

    #[test]
    fn concatenated_orthogonal_blocks() {
        // The exact shape Tree-SVD merges: [U₁Σ₁ | U₂Σ₂ | …] with strongly
        // correlated columns — the case that made Jacobi crawl.
        let mut rng = StdRng::seed_from_u64(4);
        // Tall enough that the 4-block concat still has rows ≥ cols (the
        // kernel's contract; exact_svd handles wide inputs by transposing).
        let base = gaussian_matrix(&mut rng, 150, 30);
        let blocks: Vec<DenseMatrix> = (0..4)
            .map(|_| {
                let noise = gaussian_matrix(&mut rng, 150, 30);
                DenseMatrix::from_fn(150, 30, |i, j| base.get(i, j) + 0.01 * noise.get(i, j))
            })
            .collect();
        let refs: Vec<&DenseMatrix> = blocks.iter().collect();
        let a = DenseMatrix::hconcat(&refs);
        let (u, w, v) = golub_reinsch(&a, true).expect("converges");
        let mut uw = u;
        uw.scale_cols(&w);
        assert!(uw.mul(&v.unwrap().transpose()).sub(&a).max_abs() < 1e-8);
    }

    #[test]
    fn left_only_u_and_w_are_bitwise_the_full_ones() {
        // Every column-count residue mod 4 (the interleaved Householder
        // loops' tail), square and tall, full rank, rank-deficient with a
        // zero column, and near-parallel concatenated blocks.
        let mut rng = StdRng::seed_from_u64(5);
        let mut inputs: Vec<DenseMatrix> =
            [(12usize, 12usize), (40, 13), (41, 14), (60, 15), (33, 33)]
                .iter()
                .map(|&(m, n)| gaussian_matrix(&mut rng, m, n))
                .collect();
        let low = gaussian_matrix(&mut rng, 30, 3).mul(&gaussian_matrix(&mut rng, 3, 17));
        inputs.push(DenseMatrix::from_fn(30, 18, |i, j| {
            if j == 17 {
                0.0
            } else {
                low.get(i, j)
            }
        }));
        let base = gaussian_matrix(&mut rng, 50, 8);
        let blocks: Vec<DenseMatrix> = (0..3)
            .map(|_| {
                let noise = gaussian_matrix(&mut rng, 50, 8);
                DenseMatrix::from_fn(50, 8, |i, j| base.get(i, j) + 1e-6 * noise.get(i, j))
            })
            .collect();
        inputs.push(DenseMatrix::hconcat(&blocks.iter().collect::<Vec<_>>()));
        inputs.push(DenseMatrix::zeros(20, 13));
        for a in &inputs {
            let (u, w, v) = golub_reinsch(a, true).expect("converges");
            let (u2, w2, v2) = golub_reinsch(a, false).expect("converges");
            assert!(v.is_some() && v2.is_none());
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(u.as_slice()),
                bits(u2.as_slice()),
                "U {}x{}",
                a.rows(),
                a.cols()
            );
            assert_eq!(bits(&w), bits(&w2), "w {}x{}", a.rows(), a.cols());
        }
    }
}

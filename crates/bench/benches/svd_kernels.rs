//! Micro-benchmarks for the SVD kernels: Householder QR, exact SVD
//! (Golub–Reinsch), one Tree-SVD merge (`U·Σ` only against the full
//! truncated SVD, on the tree's own input), randomized SVD dense vs sparse,
//! and the Frequent-Directions sketch.

use tsvd_linalg::qr::qr;
use tsvd_linalg::randomized::randomized_svd;
use tsvd_linalg::rng::gaussian_matrix;
use tsvd_linalg::sketch::FrequentDirections;
use tsvd_linalg::svd::{exact_svd, exact_truncated_svd, exact_usigma};
use tsvd_linalg::{CsrMatrix, DenseMatrix, RandomizedSvdConfig};
use tsvd_rt::bench::BenchHarness;
use tsvd_rt::rng::StdRng;
use tsvd_rt::rng::{Rng, SeedableRng};

fn random_csr(rng: &mut StdRng, rows: usize, cols: usize, density: f64) -> CsrMatrix {
    let data: Vec<Vec<(u32, f64)>> = (0..rows)
        .map(|_| {
            let mut r = Vec::new();
            for c in 0..cols as u32 {
                if rng.gen_bool(density) {
                    r.push((c, rng.gen_range(0.1..2.0)));
                }
            }
            r
        })
        .collect();
    CsrMatrix::from_rows(cols, &data)
}

fn bench_qr(h: &mut BenchHarness) {
    for &(m, n) in &[(300usize, 72usize), (300, 288)] {
        let a = gaussian_matrix(&mut StdRng::seed_from_u64(1), m, n);
        h.bench(&format!("qr/householder/{m}x{n}"), || qr(&a));
    }
}

fn bench_exact_svd(h: &mut BenchHarness) {
    // Gaussian inputs; 300×256 has the merge matrix's shape (k·d columns),
    // not its spectrum — `bench_merge` times the real input.
    for &(m, n) in &[(300usize, 64usize), (300, 256), (128, 128)] {
        let a = gaussian_matrix(&mut StdRng::seed_from_u64(2), m, n);
        h.bench(&format!("exact_svd/golub_reinsch/{m}x{n}"), || {
            exact_svd(&a)
        });
    }
}

/// One interior node's input: four rank-`d` level-1 `U·Σ` factors (sparse
/// randomized SVDs of `m`-row column blocks, as the tree computes them)
/// concatenated to `m × 4d`.
fn merge_input(m: usize, d: usize, block_cols: usize, density: f64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(5);
    let cfg = RandomizedSvdConfig {
        rank: d,
        oversample: 8,
        power_iters: 1,
    };
    let factors: Vec<DenseMatrix> = (0..4)
        .map(|_| {
            let block = random_csr(&mut rng, m, block_cols, density);
            randomized_svd(&block, &cfg, &mut rng).u_sigma()
        })
        .collect();
    DenseMatrix::hconcat(&factors.iter().collect::<Vec<_>>())
}

/// A merge as the tree runs it (`merge/usigma`: top-`d` `U·Σ` without `V`)
/// beside the full truncated SVD it replaced (`merge/full`), on the same
/// input: 300 × 256 is the engine's |S| = 300 merge (four rank-64
/// factors), 600 × 256 the QR path at |S| = 600, and 3 000 × 512 at
/// d = 128 the paper's scale. The two must agree bit for bit.
fn bench_merge(h: &mut BenchHarness) {
    for &(m, d, block_cols, density) in &[
        (300usize, 64usize, 1000usize, 0.05),
        (600, 64, 1000, 0.05),
        (3000, 128, 1500, 0.02),
    ] {
        let a = merge_input(m, d, block_cols, density);
        let shape = format!("{m}x{}/d{d}", a.cols());
        assert_eq!(
            exact_usigma(&a, d),
            exact_truncated_svd(&a, d).u_sigma(),
            "merge {shape}: U·Σ differs from the full SVD's"
        );
        h.bench(&format!("merge/full/{shape}"), || {
            exact_truncated_svd(&a, d).u_sigma()
        });
        h.bench(&format!("merge/usigma/{shape}"), || exact_usigma(&a, d));
    }
}

fn bench_randomized_svd(h: &mut BenchHarness) {
    let mut rng = StdRng::seed_from_u64(3);
    let sparse = random_csr(&mut rng, 300, 4000, 0.05);
    let dense = sparse.to_dense();
    let cfg = RandomizedSvdConfig {
        rank: 64,
        oversample: 8,
        power_iters: 1,
    };
    h.bench("randomized_svd/sparse_300x4000_d64", || {
        randomized_svd(&sparse, &cfg, &mut StdRng::seed_from_u64(7))
    });
    h.bench("randomized_svd/dense_300x4000_d64", || {
        randomized_svd(&dense, &cfg, &mut StdRng::seed_from_u64(7))
    });
}

fn bench_frequent_directions(h: &mut BenchHarness) {
    let mut rng = StdRng::seed_from_u64(4);
    let rows: Vec<Vec<(u32, f64)>> = (0..300)
        .map(|_| {
            let mut r = Vec::new();
            for col in 0..2000u32 {
                if rng.gen_bool(0.05) {
                    r.push((col, rng.gen_range(0.1..2.0)));
                }
            }
            r
        })
        .collect();
    h.bench("frequent_directions_300x2000_l64", || {
        let mut fd = FrequentDirections::new(64, 2000);
        for r in &rows {
            fd.append_sparse(r);
        }
        fd.sketch()
    });
}

fn main() {
    let mut h = BenchHarness::from_args("svd_kernels");
    bench_qr(&mut h);
    bench_exact_svd(&mut h);
    bench_merge(&mut h);
    bench_randomized_svd(&mut h);
    bench_frequent_directions(&mut h);
    h.finish();
}

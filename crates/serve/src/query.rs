//! Top-k similarity over one published epoch: the [`Metric`], the per-row
//! norm cache, and the single query path.
//!
//! Every [`EpochSnapshot`](crate::EpochSnapshot) carries a [`QueryState`]:
//! the L2 norm and inverse norm of every embedding row, computed from
//! scratch when the snapshot is assembled (|S|·d multiply-adds) — never
//! per query, and never carried over from the previous epoch, so publish
//! is told nothing, remembers nothing and compares nothing. A cosine query
//! is then a scaled dot product with zero per-query norm work.
//!
//! Queries run the cache-blocked scan `tsvd_linalg::topk::topk_scan` over
//! the whole matrix — the one top-k path. Its determinism contract (each
//! score bitwise the naive sequential dot, hits ordered by score
//! descending under `total_cmp` with ties to the ascending row, identical
//! at any thread count) is therefore the contract of every `TopKReply`:
//! in-process, over the wire, merged by the router, served by a follower.

use tsvd_core::TaggedEmbedding;
use tsvd_linalg::topk::{topk_scan, Hit, ScanScratch};

/// Similarity metric of a top-k query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Plain dot product `q · x`.
    Dot,
    /// Cosine similarity `q · x / (‖q‖·‖x‖)`; zero-norm rows score 0.
    Cosine,
}

impl Metric {
    /// Wire encoding.
    pub fn as_u8(self) -> u8 {
        match self {
            Metric::Dot => 0,
            Metric::Cosine => 1,
        }
    }

    /// Wire decoding; `None` for unknown bytes.
    pub fn from_u8(b: u8) -> Option<Metric> {
        match b {
            0 => Some(Metric::Dot),
            1 => Some(Metric::Cosine),
            _ => None,
        }
    }
}

/// The canonical inverse-norm: `1/‖v‖` with the sum of squares reduced
/// sequentially, `0.0` for the zero vector. Every caller (norm cache
/// build, ad-hoc query vectors, remote shards scoring a router-provided
/// vector) must use this exact function so cosine scores agree bitwise
/// across read paths.
pub(crate) fn inv_norm_of(v: &[f64]) -> f64 {
    inv_or_zero(norm_of(v))
}

fn inv_or_zero(norm: f64) -> f64 {
    if norm == 0.0 {
        0.0
    } else {
        1.0 / norm
    }
}

/// Sequential-sum L2 norm.
fn norm_of(v: &[f64]) -> f64 {
    let mut s = 0.0f64;
    for &x in v {
        s += x * x;
    }
    s.sqrt()
}

/// Immutable per-epoch query state (module docs): the cached row norms.
pub(crate) struct QueryState {
    norms: Vec<f64>,
    inv_norms: Vec<f64>,
}

impl QueryState {
    /// Norms of every row of `tagged`, by the same two functions
    /// [`inv_norm_of`] is made of — so they agree with it bitwise.
    pub(crate) fn build(tagged: &TaggedEmbedding) -> QueryState {
        let norms: Vec<f64> = (0..tagged.num_rows())
            .map(|r| norm_of(tagged.row(r)))
            .collect();
        let inv_norms = norms.iter().map(|&n| inv_or_zero(n)).collect();
        QueryState { norms, inv_norms }
    }

    /// Cached L2 norm of every row.
    pub(crate) fn norms(&self) -> &[f64] {
        &self.norms
    }

    /// Answer a top-k query over `tagged` (the matrix this state was
    /// built from). `exclude` is a row to skip (the query node itself).
    pub(crate) fn top_k_rows(
        &self,
        tagged: &TaggedEmbedding,
        q: &[f64],
        k: usize,
        metric: Metric,
        exclude: Option<u32>,
    ) -> Vec<Hit> {
        let rows = tagged.num_rows();
        let dim = tagged.dim();
        assert_eq!(q.len(), dim, "query dimension mismatch");
        if k == 0 || rows == 0 {
            return Vec::new();
        }
        let data = tagged.left().as_slice();
        let (q_scale, row_scale) = match metric {
            Metric::Dot => (1.0, None),
            Metric::Cosine => (inv_norm_of(q), Some(self.inv_norms.as_slice())),
        };
        let mut out = Vec::new();
        QSCRATCH.with(|s| {
            let scratch = &mut *s.borrow_mut();
            topk_scan(
                data, rows, dim, q, k, exclude, q_scale, row_scale, scratch, &mut out,
            );
        });
        out
    }
}

thread_local! {
    /// Per-thread scan workspace so snapshot-level queries allocate
    /// nothing in the kernel at steady state.
    static QSCRATCH: std::cell::RefCell<ScanScratch> = std::cell::RefCell::new(ScanScratch::new());
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_core::Embedding;
    use tsvd_linalg::topk::topk_scan_naive;
    use tsvd_linalg::DenseMatrix;
    use tsvd_rt::rng::{Rng, SeedableRng, StdRng};

    fn tagged(seed: u64, rows: usize, dim: usize) -> TaggedEmbedding {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..rows * dim)
            .map(|_| rng.gen_range(-1000..1000) as f64 / 83.0)
            .collect();
        Embedding {
            u: DenseMatrix::from_vec(rows, dim, data),
            sigma: vec![1.0; dim],
            dim,
        }
        .tagged(0)
    }

    #[test]
    fn top_k_rows_is_bitwise_exact_vs_naive_both_metrics() {
        let rows = 300;
        let dim = 16;
        let t = tagged(3, rows, dim);
        let state = QueryState::build(&t);
        let data = t.left().as_slice();
        for metric in [Metric::Dot, Metric::Cosine] {
            for qrow in [0usize, 17, 299] {
                let q = t.row(qrow).to_vec();
                let (q_scale, row_scale) = match metric {
                    Metric::Dot => (1.0, None),
                    Metric::Cosine => (inv_norm_of(&q), Some(state.inv_norms.as_slice())),
                };
                let naive = topk_scan_naive(
                    data,
                    rows,
                    dim,
                    &q,
                    10,
                    Some(qrow as u32),
                    q_scale,
                    row_scale,
                );
                let got = state.top_k_rows(&t, &q, 10, metric, Some(qrow as u32));
                assert_eq!(got.len(), naive.len());
                for (x, y) in got.iter().zip(&naive) {
                    assert_eq!(x.row, y.row);
                    assert_eq!(x.score.to_bits(), y.score.to_bits());
                }
            }
        }
    }

    #[test]
    fn metric_wire_codes_round_trip() {
        for m in [Metric::Dot, Metric::Cosine] {
            assert_eq!(Metric::from_u8(m.as_u8()), Some(m));
        }
        assert_eq!(Metric::from_u8(2), None);
        assert_eq!(Metric::from_u8(255), None);
    }
}
